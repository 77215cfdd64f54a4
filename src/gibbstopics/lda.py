"""Collapsed Gibbs sampler for LDA: per-token topic reassignment.

Full conditional for token (d, i) carrying word w, with that token's counts
already removed from the tables:

    p(z = k) ~ (n_dk + alpha) * (n_kw + beta) / (n_k + V*beta)

A sweep runs in a small C kernel (ldasweep.c) that does the arithmetic of
lda_conditional and core.draw in the same order. It is compiled with the
system `cc` on first use and cached under $XDG_CACHE_HOME/gibbstopics.
"""

from __future__ import annotations

import contextlib
import ctypes
import hashlib
import os
import secrets
from functools import cache, partial

import numpy as np

from gibbstopics.chain import run_chain
from gibbstopics.core import (
    CountState,
    Hyperparams,
    ToolError,
    estimate_theta_lda,
    recount_lda,
)

_SOURCE = os.path.join(os.path.dirname(os.path.abspath(__file__)), "ldasweep.c")
# No -march=native or -ffast-math: FMA contraction or reassociation would
# change rounding, and with it the draws.
_BUILD = ("cc", "-O2", "-fPIC", "-shared", "-ffp-contract=off")


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


def _build(lib_path: str):
    """Compile ldasweep.c into lib_path. The compiler writes a fresh O_EXCL
    temp name that is then renamed into place, so concurrent first runs never
    load a half-written library."""
    import subprocess  # here, not at the top: only a build needs it, every import would pay

    tmp = f"{lib_path}.{secrets.token_hex(8)}.tmp"
    created = False
    try:
        os.makedirs(os.path.dirname(lib_path), exist_ok=True)
        os.close(os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666))
        created = True
        subprocess.run([*_BUILD, "-o", tmp, _SOURCE], check=True, capture_output=True, text=True)
        os.replace(tmp, lib_path)
        created = False
    except subprocess.CalledProcessError as exc:
        first = (exc.stderr.strip().splitlines() or [f"exit status {exc.returncode}"])[0]
        raise ToolError(f"cannot build the LDA sweep kernel with `{' '.join(_BUILD)}`: {first}") from exc
    except OSError as exc:
        raise ToolError(f"cannot build the LDA sweep kernel with `{' '.join(_BUILD)}`: {exc}") from exc
    finally:
        if created:
            with contextlib.suppress(OSError):
                os.unlink(tmp)


@cache
def _kernel():
    """The compiled sweep, built on first use (one library per source and
    flags) and loaded through ctypes."""
    try:
        with open(_SOURCE, "rb") as f:
            source = f.read()
    except OSError as exc:
        raise ToolError(f"cannot read the LDA sweep kernel source {_SOURCE}: {exc}") from exc
    digest = hashlib.sha256(source + " ".join(_BUILD).encode()).hexdigest()[:16]
    cache_home = os.environ.get("XDG_CACHE_HOME") or os.path.join(os.path.expanduser("~"), ".cache")
    lib_path = os.path.join(cache_home, "gibbstopics", f"ldasweep-{digest}.so")
    if not os.path.isfile(lib_path):
        _build(lib_path)
    try:
        sweep = ctypes.CDLL(lib_path).lda_sweep
    except OSError as exc:
        raise ToolError(f"cannot load the LDA sweep kernel {lib_path}: {exc}") from exc
    i64, ptr, f64 = ctypes.c_int64, ctypes.c_void_p, ctypes.c_double
    sweep.argtypes = (i64, ptr, ptr, ptr, ptr, ptr, ptr, i64, i64, f64, f64, ptr, ptr)
    sweep.restype = i64
    return sweep


def _check_sweep_inputs(state: CountState, lengths, words, z, n_topics: int, n_vocab: int):
    """Everything the kernel indexes must be in bounds: it has no checks."""
    n_docs = lengths.size
    tables = ((state.ndk, (n_docs, n_topics)), (state.nkw, (n_topics, n_vocab)),
              (state.nk, (n_topics,)))
    if not all(isinstance(t, np.ndarray) and t.dtype == np.int64 and t.flags.c_contiguous
               and t.shape == shape for t, shape in tables):
        raise ToolError(f"lda_sweep: count tables are not C-contiguous int64 of shapes "
                        f"({n_docs}, {n_topics}), ({n_topics}, {n_vocab}) and ({n_topics},)")
    if len(state.z) != n_docs or not np.array_equal(
            lengths, np.fromiter(map(len, state.z), np.int64, n_docs)):
        raise ToolError("lda_sweep: topic assignments do not match the corpus token counts")
    if words.dtype != np.int64 or (words.size and not 0 <= words.min() <= words.max() < n_vocab):
        raise ToolError(f"lda_sweep: word ids are not int64 in [0, {n_vocab})")
    if z.dtype != np.int64 or (z.size and not 0 <= z.min() <= z.max() < n_topics):
        raise ToolError(f"lda_sweep: topics are not int64 in [0, {n_topics})")


def lda_sweep(corpus, state: CountState, hp: Hyperparams, rng: np.random.Generator):
    """One full pass: every token visited in (document, position) order,
    decremented, resampled from its conditional and re-incremented. The
    sweep's uniforms are drawn up front, one per token in visiting order."""
    sweep = _kernel()
    n_topics, n_vocab = hp.ntopics, corpus.vocab.size
    lengths = np.fromiter(map(len, corpus.docs), np.int64, len(corpus.docs))
    words = np.concatenate(corpus.docs)
    z = np.concatenate(state.z)
    _check_sweep_inputs(state, lengths, words, z, n_topics, n_vocab)
    uniforms = rng.random(z.size)
    scratch = np.empty(n_topics)
    bad = sweep(lengths.size, lengths.ctypes.data, words.ctypes.data, z.ctypes.data,
                state.ndk.ctypes.data, state.nkw.ctypes.data, state.nk.ctypes.data,
                n_topics, n_vocab, float(hp.alpha), float(hp.beta),
                uniforms.ctypes.data, scratch.ctypes.data)
    ends = np.cumsum(lengths).tolist()
    state.z[:] = [z[start:end] for start, end in zip([0, *ends], ends)]
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
