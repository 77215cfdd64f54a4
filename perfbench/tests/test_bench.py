"""Tests of the benchmark itself: its generator, its arithmetic and its output
checks. Run from the repository root:

    python3 -m pytest perfbench/tests
"""

import json
import math
import os
import shutil
import sys
from collections import Counter

import numpy as np
import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)
sys.path[:0] = [BENCH, os.path.join(ROOT, "src")]

import checks  # noqa: E402
import gen  # noqa: E402
import metrics  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402


@pytest.fixture
def work():
    """A scratch directory inside the checkout, like the benchmark's own."""
    path = os.path.join(run.WORK_ROOT, f"tests-p{os.getpid()}")
    os.makedirs(path)
    yield path
    shutil.rmtree(path, ignore_errors=True)


def _snapshot(directory):
    files = {}
    for dirpath, _, names in os.walk(directory):
        for name in names:
            path = os.path.join(dirpath, name)
            with open(path, "rb") as f:
                files[os.path.relpath(path, directory)] = f.read()
    return files


@pytest.mark.parametrize("workload", sorted(workloads.PLANS))
def test_same_seed_gives_identical_bytes(work, workload):
    make = workloads.PLANS[workload]
    first_dir = os.path.join(work, "first")
    first = make(first_dir, 7)
    before = _snapshot(first_dir)
    shutil.rmtree(first_dir)
    again = make(first_dir, 7)
    assert _snapshot(first_dir) == before
    assert again.stats == first.stats
    assert again.sampled_tokens == first.sampled_tokens

    other_dir = os.path.join(work, "other")
    make(other_dir, 8)
    other = _snapshot(other_dir)
    corpus = next(name for name in before if name.endswith("corpus.txt"))
    assert other[corpus] != before[corpus]


def test_lengths_fix_the_amount_of_work():
    for seed in range(5):
        lengths = gen.sample_lengths(np.random.default_rng(seed), 300, 8, 3)
        assert lengths.sum() == 300 * 8 and lengths.min() >= 3


def test_injected_oov_share_and_fully_oov_docs():
    rng = np.random.default_rng(0)
    phi = gen.make_topics(rng, 5, 200, 0.1)
    docs = gen.sample_mixture_docs(rng, phi, gen.sample_lengths(rng, 200, 30, 5), 0.1)
    unseen = gen.inject_oov(rng, docs, first_oov_id=200, n_oov_words=50,
                            token_share=0.1, n_full_docs=3)
    stats = gen.corpus_stats(unseen, np.arange(200))
    assert stats["full_oov_docs"] == 3
    assert 0.1 < stats["oov_share"] < 0.15


# Brute-force collapsed log joints in the Gamma form, term by term over every
# (topic, word) and (document, topic) cell, as the acceptance-suite oracles do.

def brute_lda(docs, z, ntopics, n_vocab, alpha, beta):
    lg = math.lgamma
    nk = Counter(k for zd in z for k in zd)
    nkw = Counter((k, w) for doc, zd in zip(docs, z) for w, k in zip(doc, zd))
    score = 0.0
    for k in range(ntopics):
        score += lg(n_vocab * beta) - lg(nk[k] + n_vocab * beta)
        for w in range(n_vocab):
            score += lg(nkw[(k, w)] + beta) - lg(beta)
    for zd in z:
        ndk = Counter(zd)
        score += lg(ntopics * alpha) - lg(len(zd) + ntopics * alpha)
        for k in range(ntopics):
            score += lg(ndk[k] + alpha) - lg(alpha)
    return score


def brute_dmm(docs, z, ntopics, n_vocab, alpha, beta):
    lg = math.lgamma
    mk, nk, nkw = Counter(z), Counter(), Counter()
    for doc, k in zip(docs, z):
        nk[k] += len(doc)
        for w in doc:
            nkw[(k, w)] += 1
    score = lg(ntopics * alpha) - lg(len(docs) + ntopics * alpha)
    for k in range(ntopics):
        score += lg(mk[k] + alpha) - lg(alpha)
        score += lg(n_vocab * beta) - lg(nk[k] + n_vocab * beta)
        for w in range(n_vocab):
            score += lg(nkw[(k, w)] + beta) - lg(beta)
    return score


def _tiny(seed, n_docs=5, n_vocab=6, ntopics=3):
    rng = np.random.default_rng(seed)
    lengths = rng.integers(1, 7, size=n_docs)
    docs = [list(rng.integers(0, n_vocab, size=n)) for n in lengths]
    z = [list(rng.integers(0, ntopics, size=n)) for n in lengths]
    flat = gen.Docs(words=np.concatenate(docs), lengths=lengths, labels=np.zeros(n_docs))
    return docs, z, flat


@pytest.mark.parametrize("seed", range(5))
def test_vectorised_log_joints_match_brute_force(seed):
    docs, z, flat = _tiny(seed)
    got = metrics.lda_log_joint(flat.doc_of, flat.words, np.concatenate(z), flat.lengths,
                                3, 6, 0.1, 0.01)
    assert got == pytest.approx(brute_lda(docs, z, 3, 6, 0.1, 0.01), rel=1e-12)
    zd = [zz[0] for zz in z]
    got = metrics.dmm_log_joint(flat.doc_of, flat.words, zd, 3, 6, 0.1, 0.1)
    assert got == pytest.approx(brute_dmm(docs, zd, 3, 6, 0.1, 0.1), rel=1e-12)


def test_conditional_word_log_joint_is_the_sequential_predictive():
    # Folding-in: each new token's word is predicted from the frozen training
    # counts plus the new tokens before it (the Polya urn form of the same law).
    rng = np.random.default_rng(3)
    ntopics, n_vocab, beta = 3, 7, 0.05
    frozen_z, frozen_w = rng.integers(0, ntopics, 40), rng.integers(0, n_vocab, 40)
    new_z, new_w = rng.integers(0, ntopics, 12), rng.integers(0, n_vocab, 12)
    nkw = Counter(zip(frozen_z.tolist(), frozen_w.tolist()))
    nk = Counter(frozen_z.tolist())
    want = 0.0
    for k, w in zip(new_z.tolist(), new_w.tolist()):
        want += math.log((nkw[(k, w)] + beta) / (nk[k] + n_vocab * beta))
        nkw[(k, w)] += 1
        nk[k] += 1
    got = metrics.conditional_word_log_joint(new_z, new_w, frozen_z, frozen_w,
                                             ntopics, n_vocab, beta)
    assert got == pytest.approx(want, rel=1e-10)


def test_paced_time_cancels_a_uniform_slowdown():
    # 2 s of work at the reference pace of 0.1 s; the CPU then runs 1.5x and
    # 2x slower for a sample each, stretching work and reference loop alike.
    samples = [(2.0, 0.1), (3.0, 0.15), (4.0, 0.2)]
    assert metrics.paced_time(samples, 0.1) == pytest.approx(2.0)
    # Totals weight each sample by its length: 0.1 * 3.0 / 0.15
    assert metrics.paced_time([(1.0, 0.1), (2.0, 0.05)], 0.1) == pytest.approx(2.0)


def test_self_times_of_nested_spans():
    spans = [
        {"name": "root", "start": 0.0, "end": 10.0, "parent": None},
        {"name": "a", "start": 1.0, "end": 4.0, "parent": 0},
        {"name": "a1", "start": 2.0, "end": 3.0, "parent": 1},
        {"name": "b", "start": 5.0, "end": 6.5, "parent": 0},
        {"name": "top2", "start": 11.0, "end": 12.0, "parent": None},
    ]
    assert metrics.self_times(spans) == pytest.approx([5.5, 2.0, 1.0, 1.5, 1.0])


def test_layer_self_times_add_up_to_traced_wall():
    def span(name, layer, start, end, parent, **counts):
        return {"name": name, "layer": layer, "start": start, "end": end,
                "parent": parent, "counts": counts}

    spans = [
        span("train_lda", "lda", 1.0, 9.0, None),
        span("init_lda", "lda", 1.5, 2.0, 0, table_bytes=2 ** 20),
        span("probe", "trace", 2.0, 2.1, 0),
        span("lda_sweep", "lda", 2.1, 4.1, 0, tokens=100, draws=100, moved=25),
        span("lda_sweep", "lda", 4.1, 7.1, 0, tokens=100, draws=100, moved=15),
        span("save_outputs", "persistence", 7.5, 8.5, 0, bytes=2 ** 21),
    ]
    inv = {"spawn": 0.0, "imported": 0.75, "wall": 10.0, "spans": spans}
    m = metrics.layer_metrics([inv])
    layers = sum(m[f"{layer}.self_s"] for layer in metrics.LAYERS)
    assert m["cli.import_s"] + m["cli.other_s"] + layers == pytest.approx(m["trace.wall_s"])
    # train_lda keeps 8.0 - 6.6 s of its own; its probe child belongs to no layer
    assert m["lda.self_s"] == pytest.approx(1.4 + 0.5 + 5.0)
    assert m["persistence.self_s"] == pytest.approx(1.0)
    assert m["cli.other_s"] == pytest.approx(10.0 - 0.75 - 6.9 - 1.0)
    assert m["lda.sweep_s.p50"] == pytest.approx(2.5)
    assert m["lda.tokens_per_s"] == pytest.approx(200 / 5.0)
    assert m["lda.moved_frac"] == pytest.approx(0.2)
    assert m["persistence.write_mb_per_s"] == pytest.approx(2.0)
    assert m["core.count_table_mb"] == pytest.approx(1.0)
    assert m["dmm.sweep_s.p50"] == 0.0 and m["inference.oov_frac"] == 0.0


@pytest.mark.parametrize("n, want", [
    (19, None), (20, 50.0), (39, 50.0), (40, 75.0), (99, 75.0), (100, 90.0),
    (200, 95.0), (1000, 99.0), (10000, 99.9),
])
def test_tail_percentile_has_ten_samples_beyond(n, want):
    values = list(range(n, 0, -1))  # order must not matter
    got = metrics.tail_percentile(values)
    if want is None:
        assert got is None
        return
    q, value, count = got
    assert (q, count) == (want, n)
    assert sum(v > value for v in values) >= 10
    assert value == math.ceil(round(q * n / 100, 6))  # nearest rank; values are 1..n


def _model_run(base, theta_rows, phi_rows, assignments):
    for suffix, rows in (("theta", theta_rows), ("phi", phi_rows)):
        with open(f"{base}.{suffix}", "w") as f:
            f.write("\n".join(" ".join(map(str, row)) for row in rows) + "\n")
    with open(f"{base}.topicAssignments", "w") as f:
        f.write("\n".join(assignments) + "\n")
    for suffix in ("topWords", "paras"):
        with open(f"{base}.{suffix}", "w") as f:
            f.write("x\n")
    return workloads.ModelRun(base, "LDA", 2, 3, np.array([2, 0]))


def test_output_checks(work):
    base = os.path.join(work, "m")
    good = _model_run(base, [[0.25, 0.75], [0.5, 0.5]],
                      [[0.2, 0.3, 0.5], [1, 0, 0]], ["0 1", ""])
    assert checks.model_problems(good) == []
    bad = _model_run(base, [[0.25, 0.7], [0.5, 0.5]], [[0.2, 0.3, 0.5]], ["0 2", ""])
    problems = " ".join(checks.model_problems(bad))
    assert "sums to 1" in problems and "shape" in problems and "out of range" in problems
    os.remove(base + ".paras")
    assert checks.model_problems(good) == [f"missing artifact {base}.paras"]
    assert checks.parse_eval("m.theta\tpurity=0.50000\tnmi=0.25000\n") == 0.25
    assert checks.parse_eval("error: bad\n") is None


def test_benchmark_json_names_every_reported_metric():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == metrics.LAYER_UNITS
    assert sorted(w["name"] for w in spec["workloads"]) == sorted(workloads.PLANS)
    setup = next(m for m in spec["end_to_end"] if m["name"] == "setup_s")
    assert all(m["bound"] <= setup["bound"] for m in spec["end_to_end"])
    assert all(len(w["why"]) <= 200 for w in spec["workloads"])
