"""Collapsed Gibbs sampler for LDA: per-token topic reassignment.

Full conditional for token (d, i) carrying word w, with that token's counts
already removed from the tables:

    p(z = k) ~ (n_dk + alpha) * (n_kw + beta) / (n_k + V*beta)

A sweep runs in a compiled C kernel (native.py, sweeps.c); the tests hold
its NumPy oracle (tests/oracles.py), which the kernel matches bit for bit.
Each draw builds the K weights' cumulative sums left to right as it computes
them, then searches for the first topic whose sum exceeds the uniform times
the last (the total).

This module is the sampler only: init, sweep and the chain's callables.
chain.run_chain seeds, runs and saves an LDA or LDAinf chain with them.
"""

from __future__ import annotations

from functools import partial

import numpy as np

from gibbstopics import native
from gibbstopics.core import CountState, Hyperparams, ToolError, estimate_theta_lda, recount_lda


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
                      hp.alpha, hp.beta, uniforms, np.empty(n_topics))
    if bad >= 0:
        raise ToolError(f"lda_sweep: nonpositive weight at token {bad}, count bookkeeping corrupt")
    return state


def lda_chain(corpus, state: CountState, hp: Hyperparams, rng: np.random.Generator):
    """The sweep and theta callables of a chain from state, as dmm_chain's, built once the
    priors pass one test: K*alpha, V*beta, the least weight (no counts, N tokens) and K weights
    at the longest document and largest word total must be finite, positive doubles."""
    alpha, beta, vbeta = hp.alpha, hp.beta, len(corpus.vocab) * hp.beta
    n, longest = int(state.nk.sum()), int((corpus.offsets[1:] - corpus.offsets[:-1]).max())
    most = int(state.nkw.sum(axis=0).max())
    if not (hp.ntopics * alpha < np.inf and vbeta < np.inf and alpha * beta / (n + vbeta) > 0
            and hp.ntopics * ((longest + alpha) * (most + beta) / vbeta) < np.inf):
        raise ToolError(f"alpha {hp.alpha} and beta {hp.beta} give model {hp.model} a weight "
                        "that is not finite and positive")
    return (partial(lda_sweep, corpus, state, hp, rng),
            partial(estimate_theta_lda, corpus, state, hp))
