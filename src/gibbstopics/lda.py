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


def _check_sweep_inputs(corpus, state: CountState, n_topics: int, n_vocab: int):
    """Everything the kernel reads or writes must be in bounds: it has no checks."""
    words, offsets, z = corpus.words, corpus.offsets, state.z
    n_tokens, n_docs = np.size(words), np.size(offsets) - 1
    if not (native.c_int64(words, (n_tokens,))
            and (n_tokens == 0 or 0 <= words.min() <= words.max() < n_vocab)):
        raise ToolError(f"lda_sweep: word ids are not a C-contiguous int64 array in [0, {n_vocab})")
    if not (native.c_int64(offsets, (n_docs + 1,)) and n_docs >= 0 and offsets[0] == 0
            and offsets[-1] == n_tokens and (np.diff(offsets) >= 0).all()):
        raise ToolError(f"lda_sweep: document offsets are not C-contiguous int64 non-decreasing "
                        f"from 0 to the token count {n_tokens}")
    tables = ((state.ndk, (n_docs, n_topics)), (state.nkw, (n_topics, n_vocab)),
              (state.nk, (n_topics,)))
    if not all(native.c_int64(t, shape) for t, shape in tables):
        raise ToolError(f"lda_sweep: count tables are not C-contiguous int64 of shapes "
                        f"({n_docs}, {n_topics}), ({n_topics}, {n_vocab}) and ({n_topics},)")
    if not (native.c_int64(z, (n_tokens,)) and z.flags.writeable):
        raise ToolError(f"lda_sweep: topic assignments are not a writable C-contiguous int64 "
                        f"array of one topic per token ({n_tokens})")
    if n_tokens and not 0 <= z.min() <= z.max() < n_topics:
        raise ToolError(f"lda_sweep: topics are not in [0, {n_topics})")


def lda_sweep(corpus, state: CountState, hp: Hyperparams, rng: np.random.Generator):
    """One full pass: every token visited in (document, position) order,
    decremented, resampled from its conditional and re-incremented. The
    sweep's uniforms are drawn up front, one per token in visiting order."""
    sweep = native._kernel().lda_sweep
    n_topics, n_vocab = hp.ntopics, corpus.vocab.size
    _check_sweep_inputs(corpus, state, n_topics, n_vocab)
    uniforms = rng.random(corpus.n_tokens)
    scratch = np.empty(n_topics)
    bad = sweep(corpus.n_docs, corpus.offsets.ctypes.data, corpus.words.ctypes.data,
                state.z.ctypes.data, state.ndk.ctypes.data, state.nkw.ctypes.data,
                state.nk.ctypes.data, n_topics, n_vocab, float(hp.alpha), float(hp.beta),
                uniforms.ctypes.data, scratch.ctypes.data)
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
