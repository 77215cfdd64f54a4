"""Arithmetic of the benchmark: percentiles, span self times and the collapsed
log joint, kept free of IO so the benchmark's tests can check it directly."""

from __future__ import annotations

import math

import numpy as np

TAIL_LADDER = (50.0, 75.0, 90.0, 95.0, 99.0, 99.9)


def percentile(values, q: float) -> float:
    """Linear-interpolation percentile (numpy's default rule)."""
    return float(np.percentile(np.asarray(values, dtype=np.float64), q))


def paced_time(samples, reference: float) -> float:
    """Wall time of repeated identical work at the reference pace.

    samples are (wall, pace) pairs: a child's wall time and the reference
    loop's time around it. A CPU that runs slower stretches both alike, so
    the total wall time over the total pace, times the loop's reference time,
    is the work's wall time at the reference speed. Totals weight each sample
    by its length, as the time the slowdown acted on."""
    return reference * sum(wall for wall, _ in samples) / sum(pace for _, pace in samples)


def tail_percentile(values, min_beyond: int = 10):
    """The highest percentile of TAIL_LADDER with at least min_beyond samples
    beyond it, as (percentile, nearest-rank value, sample count); None when
    even the median has fewer than min_beyond samples beyond it."""
    n = len(values)
    ranked = sorted(values)
    best = None
    for q in TAIL_LADDER:
        rank = math.ceil(q * n / 100.0 - 1e-9)  # nearest rank, 1-based
        if rank >= 1 and n - rank >= min_beyond:
            best = (q, ranked[rank - 1], n)
    return best


def self_times(spans) -> list[float]:
    """Per span: its duration minus the time its direct children cover.

    spans is a list of dicts with start, end and parent (an index into the
    same list, or None). Children of one parent never overlap, because one
    thread records them."""
    child_time = [0.0] * len(spans)
    for span in spans:
        if span["parent"] is not None:
            child_time[span["parent"]] += span["end"] - span["start"]
    return [s["end"] - s["start"] - c for s, c in zip(spans, child_time)]


def _lgamma_sum(counts, offset: float) -> float:
    """sum(lgamma(c + offset) - lgamma(offset)) over counts, one lgamma call
    per distinct count value."""
    values, mult = np.unique(np.asarray(counts, dtype=np.int64), return_counts=True)
    base = math.lgamma(offset)
    return float(sum(int(m) * (math.lgamma(int(v) + offset) - base) for v, m in zip(values, mult)))


def _cell_counts(rows, cols, n_cols: int) -> np.ndarray:
    """Nonzero entries of the count table with one count per (row, col) pair."""
    return np.unique(np.asarray(rows, np.int64) * n_cols + np.asarray(cols, np.int64),
                     return_counts=True)[1]


def word_log_joint(topics, words, ntopics: int, n_vocab: int, beta: float) -> float:
    """log P(w | z) with the topic-word distributions integrated out
    (Griffiths & Steyvers 2004), shared by LDA and DMM."""
    nk = np.bincount(np.asarray(topics, np.int64), minlength=ntopics)
    score = -_lgamma_sum(nk, n_vocab * beta)
    return score + _lgamma_sum(_cell_counts(topics, words, n_vocab), beta)


def lda_doc_log_joint(doc_of, topics, lengths, ntopics: int, alpha: float) -> float:
    """log P(z) with the per-document mixtures integrated out."""
    score = -_lgamma_sum(lengths, ntopics * alpha)
    return score + _lgamma_sum(_cell_counts(doc_of, topics, ntopics), alpha)


def dmm_doc_log_joint(doc_topics, ntopics: int, alpha: float) -> float:
    """log P(z) of one topic per document with the mixture weights integrated out."""
    mk = np.bincount(np.asarray(doc_topics, np.int64), minlength=ntopics)
    return _lgamma_sum(mk, alpha) - _lgamma_sum([len(doc_topics)], ntopics * alpha)


def lda_log_joint(doc_of, words, topics, lengths, ntopics, n_vocab, alpha, beta) -> float:
    """Collapsed log P(w, z) of an LDA state, up to the same constant as the
    brute-force oracle in the test suite."""
    return (word_log_joint(topics, words, ntopics, n_vocab, beta)
            + lda_doc_log_joint(doc_of, topics, lengths, ntopics, alpha))


def dmm_log_joint(doc_of, words, doc_topics, ntopics, n_vocab, alpha, beta) -> float:
    """Collapsed log P(w, z) of a DMM state (Yin & Wang 2014)."""
    doc_topics = np.asarray(doc_topics, np.int64)
    return (word_log_joint(doc_topics[doc_of], words, ntopics, n_vocab, beta)
            + dmm_doc_log_joint(doc_topics, ntopics, alpha))


def conditional_word_log_joint(topics, words, frozen_topics, frozen_words,
                               ntopics, n_vocab, beta) -> float:
    """log P(w_new | z_new, w_train, z_train): the word factor of folding-in,
    where the frozen training counts act as part of the prior."""
    all_topics = np.concatenate((frozen_topics, topics))
    all_words = np.concatenate((frozen_words, words))
    return (word_log_joint(all_topics, all_words, ntopics, n_vocab, beta)
            - word_log_joint(frozen_topics, frozen_words, ntopics, n_vocab, beta))


LAYERS = ("corpus", "lda", "dmm", "core", "inference", "persistence", "evaluation")
MIB = 2 ** 20
LAYER_UNITS = {
    "trace.wall_s": "s", "cli.import_s": "s", "cli.other_s": "s",
    **{f"{layer}.self_s": "s" for layer in LAYERS},
    "corpus.load_s": "s", "corpus.tokens_per_s": "tokens/s",
    "lda.init_s": "s", "lda.sweep_s.p50": "s", "lda.sweep_s.p90": "s",
    "lda.tokens_per_s": "tokens/s", "lda.moved_frac": "ratio",
    "dmm.init_s": "s", "dmm.word_counts_s": "s", "dmm.sweep_s.p50": "s", "dmm.sweep_s.p90": "s",
    "dmm.docs_per_s": "docs/s", "dmm.theta_s": "s", "dmm.moved_frac": "ratio",
    "dmm.nonempty_clusters": "count",
    "core.theta_s": "s", "core.phi_s": "s", "core.count_table_mb": "MiB",
    "persistence.save_s": "s", "persistence.bytes_written": "bytes",
    "persistence.write_mb_per_s": "MiB/s", "persistence.read_matrix_s": "s",
    "inference.load_pretrained_s": "s", "inference.fold_s": "s", "inference.oov_frac": "ratio",
    "evaluation.eval_s": "s", "evaluation.rows_per_s": "rows/s",
    "trace_overhead_frac": "ratio",
}


def _ratio(num, den) -> float:
    return num / den if den else 0.0


def layer_metrics(invocations) -> dict:
    """Per-layer metrics of one traced round.

    invocations: per traced CLI process, a dict with "wall" (spawn to exit,
    measured by the parent) and the tracer's "spawn", "imported" and "spans".
    Layers that do not run report 0. cli.other_s is whatever the layer self
    times and cli.import_s leave of the traced wall time, so the parts add up
    to trace.wall_s exactly.
    """
    spans = []
    for inv in invocations:
        for span, own in zip(inv["spans"], self_times(inv["spans"])):
            spans.append(dict(span, self=own))

    def named(name):
        return [s for s in spans if s["name"] == name]

    def self_total(name):
        return sum(s["self"] for s in named(name))

    def count(name, key):
        return sum(s["counts"].get(key, 0) for s in named(name))

    def sweep_times(name):
        times = [s["self"] for s in named(name)]
        return (percentile(times, 50), percentile(times, 90)) if times else (0.0, 0.0)

    wall = sum(inv["wall"] for inv in invocations)
    import_s = sum(inv["imported"] - inv["spawn"] for inv in invocations)
    m = {"trace.wall_s": wall, "cli.import_s": import_s}
    for layer in LAYERS:
        m[f"{layer}.self_s"] = sum(s["self"] for s in spans if s["layer"] == layer)
    m["cli.other_s"] = wall - import_s - sum(m[f"{layer}.self_s"] for layer in LAYERS)

    m["corpus.load_s"] = self_total("load_corpus")
    m["corpus.tokens_per_s"] = _ratio(count("load_corpus", "tokens"), m["corpus.load_s"])

    m["lda.init_s"] = self_total("init_lda")
    m["lda.sweep_s.p50"], m["lda.sweep_s.p90"] = sweep_times("lda_sweep")
    m["lda.tokens_per_s"] = _ratio(count("lda_sweep", "tokens"), self_total("lda_sweep"))
    m["lda.moved_frac"] = _ratio(count("lda_sweep", "moved"), count("lda_sweep", "draws"))

    m["dmm.init_s"] = self_total("init_dmm")
    m["dmm.word_counts_s"] = self_total("doc_word_counts")
    m["dmm.sweep_s.p50"], m["dmm.sweep_s.p90"] = sweep_times("dmm_sweep")
    m["dmm.docs_per_s"] = _ratio(count("dmm_sweep", "docs"), self_total("dmm_sweep"))
    m["dmm.theta_s"] = self_total("estimate_theta_dmm")
    m["dmm.moved_frac"] = _ratio(count("dmm_sweep", "moved"), count("dmm_sweep", "draws"))
    dmm_sweeps = named("dmm_sweep")
    m["dmm.nonempty_clusters"] = dmm_sweeps[-1]["counts"]["nonempty"] if dmm_sweeps else 0

    m["core.theta_s"] = self_total("estimate_theta_lda")
    m["core.phi_s"] = self_total("estimate_phi")
    table_bytes = [s["counts"]["table_bytes"] for s in spans if "table_bytes" in s["counts"]]
    m["core.count_table_mb"] = max(table_bytes, default=0) / MIB

    m["persistence.save_s"] = self_total("save_outputs")
    m["persistence.bytes_written"] = count("save_outputs", "bytes")
    m["persistence.write_mb_per_s"] = _ratio(m["persistence.bytes_written"] / MIB,
                                             m["persistence.save_s"])
    m["persistence.read_matrix_s"] = self_total("read_matrix")

    m["inference.load_pretrained_s"] = self_total("load_pretrained")
    m["inference.fold_s"] = self_total("fold_corpus")
    m["inference.oov_frac"] = _ratio(count("fold_corpus", "oov_tokens"),
                                     count("fold_corpus", "raw_tokens"))

    m["evaluation.eval_s"] = self_total("evaluate_files")
    m["evaluation.rows_per_s"] = _ratio(count("read_matrix", "rows"), m["evaluation.eval_s"])
    return m
