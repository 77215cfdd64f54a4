"""Collapsed Gibbs sampler for LDA: per-token topic reassignment.

Full conditional for token (d, i) carrying word w, with that token's counts
already removed from the tables:

    p(z = k) ~ (n_dk + alpha) * (n_kw + beta) / (n_k + V*beta)

A sweep runs in a compiled C kernel (native.py, sweeps.c); the tests hold
its NumPy oracle (tests/oracles.py), which the kernel matches bit for bit.
Each draw builds the K weights' cumulative sums left to right as it computes
them, then searches for the first topic whose sum exceeds the uniform times
the last (the total).

This module is the sampler only: init and sweep. chain.run_chain seeds,
runs and saves an LDA or LDAinf chain with them.
"""

from __future__ import annotations

import numpy as np

from gibbstopics import native
from gibbstopics.core import CountState, Hyperparams, ToolError, recount_lda


def init_lda(corpus, hp: Hyperparams, rng: np.random.Generator) -> CountState:
    """Assign every token a uniformly random topic and build the count tables."""
    return recount_lda(corpus, rng.integers(0, hp.ntopics, size=corpus.n_tokens), hp.ntopics)


def lda_sweep(corpus, state: CountState, hp: Hyperparams, rng: np.random.Generator):
    """One full pass: every token visited in (document, position) order,
    decremented, resampled from its conditional and re-incremented. The
    sweep's uniforms are drawn up front, one per token in visiting order."""
    n_topics, n_vocab = hp.ntopics, len(corpus.vocab)
    n_docs = native.check_corpus("lda_sweep", corpus.offsets, corpus.words, n_vocab)
    native.check("lda_sweep", ("topic assignments", state.z, np.int64, (corpus.n_tokens,), True),
                 ("nkw.T", state.nkw.T, np.int64, (n_vocab, n_topics), True),
                 ("nk", state.nk, np.int64, (n_topics,), True))
    native.check_range("lda_sweep", "topics", state.z, 0, n_topics)
    uniforms = rng.random(corpus.n_tokens)
    bad = native.call("lda_sweep", n_docs, corpus.offsets, corpus.words, state.z,
                      np.empty(n_topics, np.int64), state.nkw.T, state.nk, n_topics, n_vocab,
                      float(hp.alpha), float(hp.beta), uniforms, np.empty(n_topics))
    if bad >= 0:
        raise ToolError(f"lda_sweep: nonpositive weight at token {bad}, count bookkeeping corrupt")
    return state
