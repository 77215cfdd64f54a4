"""Deterministic synthetic corpora with planted topics, vectorised with numpy.

Every function takes its randomness from the generator it is given, so one
workload seed fixes every byte the benchmark writes. Word ids here are the
generator's own; the program under test only ever sees the written text.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass
class Docs:
    words: np.ndarray    # flat generator word ids, documents back to back
    lengths: np.ndarray  # tokens per document
    labels: np.ndarray   # planted label per document (its dominant topic)
    topics: np.ndarray | None = None  # planted topic per token (mixture corpora)

    @property
    def offsets(self) -> np.ndarray:
        return np.concatenate(([0], np.cumsum(self.lengths)))

    @property
    def doc_of(self) -> np.ndarray:
        return np.repeat(np.arange(self.lengths.size), self.lengths)


def make_topics(rng, n_topics: int, n_words: int, concentration: float) -> np.ndarray:
    """n_topics x n_words topic-word distributions drawn from a symmetric
    Dirichlet; small concentrations give sparse, well separated topics."""
    gam = rng.standard_gamma(concentration, size=(n_topics, n_words))
    return gam / gam.sum(axis=1, keepdims=True)


def sample_lengths(rng, n_docs: int, mean_len: int, min_len: int) -> np.ndarray:
    """Document lengths of at least min_len that sum to exactly
    n_docs * mean_len, so every seed does the same amount of sampling work."""
    extra = n_docs * (mean_len - min_len)
    return min_len + rng.multinomial(extra, np.full(n_docs, 1.0 / n_docs))


def _categorical_rows(rng, probs: np.ndarray, row_of: np.ndarray) -> np.ndarray:
    """One draw per entry of row_of from the distribution in that row of probs,
    by inverse CDF over all rows at once: row r's CDF is shifted to (r, r+1]."""
    n_rows, n_cols = probs.shape
    cdf = np.cumsum(probs, axis=1)
    cdf /= cdf[:, -1:]
    cdf += np.arange(n_rows)[:, None]
    u = row_of + rng.random(row_of.size)
    flat = np.searchsorted(cdf.ravel(), u, side="right")
    return np.minimum(flat - row_of * n_cols, n_cols - 1)


def sample_mixture_docs(rng, phi: np.ndarray, lengths: np.ndarray, doc_alpha: float) -> Docs:
    """LDA-style documents: a Dirichlet(doc_alpha) topic mixture per document,
    a planted topic per token and a word from that topic. A document's label
    is its most probable planted topic."""
    n_topics = phi.shape[0]
    theta = rng.dirichlet(np.full(n_topics, doc_alpha), size=lengths.size)
    doc_of = np.repeat(np.arange(lengths.size), lengths)
    topics = _categorical_rows(rng, theta, doc_of)
    words = _categorical_rows(rng, phi, topics)
    return Docs(words=words, lengths=lengths, labels=theta.argmax(axis=1), topics=topics)


def sample_single_topic_docs(rng, phi: np.ndarray, lengths: np.ndarray) -> Docs:
    """Mixture-of-unigrams documents: one uniform planted topic per document,
    every token drawn from it."""
    labels = rng.integers(0, phi.shape[0], size=lengths.size)
    words = _categorical_rows(rng, phi, np.repeat(labels, lengths))
    return Docs(words=words, lengths=lengths, labels=labels)


def inject_oov(rng, docs: Docs, first_oov_id: int, n_oov_words: int,
               token_share: float, n_full_docs: int) -> Docs:
    """Replace about token_share of the tokens, and every token of n_full_docs
    documents, with word ids from first_oov_id onwards (words no training
    corpus contains)."""
    words = docs.words.copy()
    hit = rng.random(words.size) < token_share
    full = rng.choice(docs.lengths.size, size=n_full_docs, replace=False)
    hit |= np.isin(docs.doc_of, full)
    words[hit] = first_oov_id + rng.integers(0, n_oov_words, size=int(hit.sum()))
    return Docs(words=words, lengths=docs.lengths, labels=docs.labels, topics=docs.topics)


def write_corpus(path, docs: Docs):
    tokens = [f"w{w}" for w in docs.words.tolist()]
    offsets = docs.offsets.tolist()
    lines = [" ".join(tokens[s:e]) for s, e in zip(offsets[:-1], offsets[1:])]
    with open(path, "w", encoding="utf-8", newline="\n") as f:
        f.write("\n".join(lines) + "\n")


def write_labels(path, labels):
    with open(path, "w", encoding="utf-8", newline="\n") as f:
        f.write("\n".join(f"t{int(label)}" for label in labels) + "\n")


def corpus_stats(docs: Docs, train_vocab: np.ndarray | None = None) -> dict:
    """Shape of a corpus; with a training vocabulary, also its OOV share."""
    stats = {
        "docs": int(docs.lengths.size),
        "tokens": int(docs.lengths.sum()),
        "vocab": int(np.unique(docs.words).size),
        "mean_len": float(docs.lengths.mean()),
    }
    if train_vocab is not None:
        oov = ~np.isin(docs.words, train_vocab)
        in_vocab_per_doc = np.bincount(docs.doc_of, weights=~oov, minlength=docs.lengths.size)
        stats["oov_share"] = float(oov.mean())
        stats["full_oov_docs"] = int((in_vocab_per_doc == 0).sum())
    return stats
