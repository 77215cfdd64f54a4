"""Collapsed Gibbs sampler for LDA: per-token topic reassignment.

Full conditional for token (d, i) carrying word w, with that token's counts
already removed from the tables:

    p(z = k) ~ (n_dk + alpha) * (n_kw + beta) / (n_k + V*beta)
"""

from __future__ import annotations

from functools import partial

import numpy as np

from gibbstopics.chain import run_chain
from gibbstopics.core import (
    CountState,
    Hyperparams,
    ToolError,
    draw,
    estimate_theta_lda,
    recount_lda,
)


def init_lda(corpus, hp: Hyperparams, rng: np.random.Generator) -> CountState:
    """Assign every token a uniformly random topic and build the count tables."""
    z = [rng.integers(0, hp.ntopics, size=len(doc)) for doc in corpus.docs]
    return recount_lda(corpus.docs, z, hp.ntopics, corpus.vocab.size)


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
    nkw, nk = state.nkw, state.nk
    n_vocab = nkw.shape[1]
    uniforms = iter(rng.random(corpus.n_tokens).tolist())
    for d, doc in enumerate(corpus.docs):
        zd = state.z[d]
        ndk_d = state.ndk[d]
        for i, w in enumerate(doc.tolist()):
            k = zd[i]
            ndk_d[k] -= 1
            nkw[k, w] -= 1
            nk[k] -= 1
            k = draw(lda_conditional(state, hp, d, w, n_vocab), next(uniforms))
            zd[i] = k
            ndk_d[k] += 1
            nkw[k, w] += 1
            nk[k] += 1
    return state


def train_lda(corpus, hp: Hyperparams, rng: np.random.Generator,
              quiet: bool = False) -> CountState:
    """Run init plus niters sweeps, persisting the five artifacts at each save
    point (every sstep iterations when sstep > 0) and always at the end."""
    hp.validate()
    state = init_lda(corpus, hp, rng)
    return run_chain(corpus, state, hp, partial(lda_sweep, corpus, state, hp, rng),
                     partial(estimate_theta_lda, state, hp), quiet=quiet)
