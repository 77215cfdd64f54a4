"""Collapsed Gibbs sampler for LDA: per-token topic reassignment.

Full conditional for token (d, i) carrying word w, with that token's counts
already removed from the tables:

    p(z = k) ~ (n_dk + alpha) * (n_kw + beta) / (n_k + V*beta)

A sweep runs in a compiled C kernel (native.py, sweeps.c) that does the
arithmetic of lda_conditional and core.draw in the same order.
"""

from __future__ import annotations

from functools import partial

import numpy as np

from gibbstopics import native
from gibbstopics.chain import run_chain
from gibbstopics.core import (
    CountState,
    Hyperparams,
    ToolError,
    estimate_theta_lda,
    recount_lda,
)


def init_lda(corpus, hp: Hyperparams, rng: np.random.Generator) -> CountState:
    """Assign every token a uniformly random topic and build the count tables."""
    return recount_lda(corpus, rng.integers(0, hp.ntopics, size=corpus.n_tokens), hp.ntopics)


def lda_conditional(state: CountState, hp: Hyperparams, d: int, word: int, n_vocab: int) -> np.ndarray:
    """Unnormalized topic weights for one token, whose current assignment must
    already be decremented from all tables."""
    weights = (state.ndk[d] + hp.alpha) * (state.nkw[:, word] + hp.beta) / (state.nk + n_vocab * hp.beta)
    if not 0 < weights.min() <= weights.max() < np.inf:  # also false on NaN
        raise ToolError("lda_conditional: nonpositive weight, count bookkeeping corrupt")
    return weights


def lda_sweep(corpus, state: CountState, hp: Hyperparams, rng: np.random.Generator):
    """One full pass: every token visited in (document, position) order,
    decremented, resampled from its conditional and re-incremented. The
    sweep's uniforms are drawn up front, one per token in visiting order."""
    n_docs, n_tokens = np.size(corpus.offsets) - 1, np.size(corpus.words)
    n_topics, n_vocab = hp.ntopics, corpus.vocab.size
    # The offsets first: n_docs is only a count once they are known to rise from 0.
    native.check("lda_sweep", ("document offsets", corpus.offsets, np.int64, (n_docs + 1,), False),
                 ("word ids", corpus.words, np.int64, (n_tokens,), False))
    native.check_offsets("lda_sweep", "document offsets", corpus.offsets, n_tokens)
    native.check("lda_sweep", ("topic assignments", state.z, np.int64, (n_tokens,), True),
                 ("ndk", state.ndk, np.int64, (n_docs, n_topics), True),
                 ("nkw", state.nkw, np.int64, (n_topics, n_vocab), True),
                 ("nk", state.nk, np.int64, (n_topics,), True))
    native.check_range("lda_sweep", "word ids", corpus.words, 0, n_vocab)
    native.check_range("lda_sweep", "topics", state.z, 0, n_topics)
    uniforms = rng.random(n_tokens)
    bad = native.call("lda_sweep", n_docs, corpus.offsets, corpus.words, state.z, state.ndk,
                      state.nkw, state.nk, n_topics, n_vocab, float(hp.alpha), float(hp.beta),
                      uniforms, np.empty(n_topics))
    if bad >= 0:
        raise ToolError(f"lda_sweep: nonpositive weight at token {bad}, count bookkeeping corrupt")
    return state


def train_lda(corpus, hp: Hyperparams, rng: np.random.Generator,
              quiet: bool = False) -> CountState:
    """Run init plus niters sweeps, persisting the five artifacts at each save
    point (every sstep iterations when sstep > 0) and always at the end."""
    hp.validate()
    state = init_lda(corpus, hp, rng)
    return run_chain(corpus, state, hp, partial(lda_sweep, corpus, state, hp, rng),
                     partial(estimate_theta_lda, state, hp), quiet=quiet)
