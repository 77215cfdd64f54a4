"""Collapsed Gibbs sampler for the Dirichlet Multinomial Mixture: one topic
per document, resampled at document granularity.

Full conditional for document d, with its counts removed from the tables
(c_w = count of word w in the document, N = document length):

    p(z = k) ~ (m_k + alpha) / (D - 1 + K*alpha)
               * prod_w prod_{j=0..c_w-1} (n_kw + beta + j)
               / prod_{i=0..N-1} (n_k + V*beta + i)

Evaluated in log space: the rising-factorial products underflow for long
documents. A sweep, and the theta estimate, run in a compiled C kernel
(native.py, sweeps.c) that sums dmm_conditional's terms in the same order.
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
    recount_dmm,
)


def doc_word_counts(docs):
    """Every document's distinct word ids and their counts, flat: document d
    has word ids uwords[uoffsets[d]:uoffsets[d+1]], ascending, occurring
    ucounts[...] times. Returns (uwords, ucounts, uoffsets), all int64."""
    words = np.concatenate([np.empty(0, np.int64), *docs])
    doc_of = np.arange(len(docs)).repeat(np.fromiter(map(len, docs), np.int64, len(docs)))
    n_vocab = int(words.max(initial=0)) + 1
    keys, ucounts = np.unique(doc_of * n_vocab + words, return_counts=True)
    doc_of, uwords = np.divmod(keys, n_vocab)
    return uwords, ucounts, doc_of.searchsorted(np.arange(len(docs) + 1))


def init_dmm(corpus, hp: Hyperparams, rng: np.random.Generator) -> CountState:
    """Assign each document one uniformly random topic and build the tables."""
    return recount_dmm(corpus, rng.integers(0, hp.ntopics, size=corpus.n_docs), hp.ntopics)


def _log_tables(hp: Hyperparams, n_vocab: int, n_docs: int, n_num: int, n_den: int):
    """The conditional's log terms by count m, for m below n_num, n_den and
    n_docs: lnum[m] = log(m + beta), lden[m] = log(m + V*beta) and
    lpri[m] = log(m + alpha) - log(D - 1 + K*alpha)."""
    return (np.log(np.arange(n_num) + hp.beta), np.log(np.arange(n_den) + n_vocab * hp.beta),
            np.log(np.arange(n_docs) + hp.alpha) - np.log(n_docs - 1 + hp.ntopics * hp.alpha))


def dmm_conditional(state: CountState, hp: Hyperparams, uwords, ucounts,
                    n_vocab: int, n_docs: int) -> np.ndarray:
    """Length-K log-weights for one document, whose counts must already be
    removed from mk, nkw and nk.

    The log prior and the rising-factorial log terms, read from _log_tables
    as the kernel reads them, form one K x (1 + 2N) matrix, summed left to
    right (cumsum, not numpy's pairwise sum) in the order of the formula's
    factors."""
    words = uwords.repeat(ucounts)
    n = words.size
    j = np.arange(n) - (ucounts.cumsum() - ucounts).repeat(ucounts)  # 0..c_w-1 per word
    num = state.nkw[:, words] + j
    den = state.nk[:, None] + np.arange(n)
    if not (0 <= state.mk.min() <= state.mk.max() < n_docs
            and num.min(initial=0) >= 0 and den.min(initial=0) >= 0):
        raise ToolError("dmm_conditional: count outside the log tables, count bookkeeping corrupt")
    lnum, lden, lpri = _log_tables(hp, n_vocab, n_docs, num.max(initial=0) + 1,
                                   den.max(initial=0) + 1)
    terms = np.concatenate((lpri[state.mk][:, None], lnum[num], -lden[den]), axis=1)
    logw = terms.cumsum(axis=1)[:, -1]
    if not np.isfinite(logw).all():
        raise ToolError("dmm_conditional: non-finite log-weight, count bookkeeping corrupt")
    return logw


def _check_sweep_inputs(who: str, corpus, state: CountState, counts, n_topics: int, n_vocab: int):
    """Everything the kernel reads or writes through its pointers must be in
    bounds: it checks only its table indexes."""
    uwords, ucounts, uoffsets = counts
    n_docs, n_unique = corpus.n_docs, np.size(uwords)
    if not (native.c_int64(uwords, (n_unique,)) and native.c_int64(ucounts, (n_unique,))
            and (n_unique == 0 or (0 <= uwords.min() <= uwords.max() < n_vocab
                                   and ucounts.min() > 0))):
        raise ToolError(f"{who}: word counts are not C-contiguous int64 arrays of word ids in "
                        f"[0, {n_vocab}) and positive counts")
    if not (native.c_int64(uoffsets, (n_docs + 1,)) and uoffsets[0] == 0
            and uoffsets[-1] == n_unique and (np.diff(uoffsets) >= 0).all()):
        raise ToolError(f"{who}: word-count offsets are not C-contiguous int64 non-decreasing "
                        f"from 0 to {n_unique}, one per document plus one")
    tables = ((state.mk, (n_topics,)), (state.nkw, (n_topics, n_vocab)), (state.nk, (n_topics,)))
    if not all(native.c_int64(t, shape) for t, shape in tables):
        raise ToolError(f"{who}: count tables are not C-contiguous int64 of shapes "
                        f"({n_topics},), ({n_topics}, {n_vocab}) and ({n_topics},)")
    if not (native.c_int64(state.z, (n_docs,)) and state.z.flags.writeable):
        raise ToolError(f"{who}: topic assignments are not a writable C-contiguous int64 "
                        f"array of one topic per document ({n_docs})")
    if n_docs and not 0 <= state.z.min() <= state.z.max() < n_topics:
        raise ToolError(f"{who}: topics are not in [0, {n_topics})")


def _chain_tables(corpus, state: CountState, hp: Hyperparams):
    """The kernel's _log_tables, sized to what the counts, frozen training
    counts included, can reach: a word's total count, all tokens, all
    documents. Sweeps only move counts between topics, so these sizes, and
    the tables, hold for the whole chain."""
    return _log_tables(hp, corpus.vocab.size, corpus.n_docs,
                       int(state.nkw.sum(axis=0).max(initial=0)) + 1, int(state.nk.sum()) + 1)


def _run_kernel(who: str, corpus, state: CountState, hp: Hyperparams, counts, tables, rng):
    """Check the inputs, then run the kernel over every document: a sweep
    that draws one uniform per document from rng, or, without rng, the theta
    of the current state, which is returned."""
    kernel = native._kernel().dmm_sweep
    if counts is None:
        counts = doc_word_counts(corpus.docs)
    if tables is None:
        tables = _chain_tables(corpus, state, hp)
    n_docs, n_topics, n_vocab = corpus.n_docs, hp.ntopics, corpus.vocab.size
    _check_sweep_inputs(who, corpus, state, counts, n_topics, n_vocab)
    lnum, lden, lpri = tables
    if not (all(isinstance(t, np.ndarray) and t.dtype == np.float64 and t.ndim == 1
                and t.flags.c_contiguous for t in tables) and lpri.size == n_docs):
        raise ToolError(f"{who}: log tables are not C-contiguous float64 vectors with "
                        f"{n_docs} prior terms")
    uniforms = theta = None
    if rng is None:
        theta = np.empty((n_docs, n_topics))
    else:
        uniforms = rng.random(n_docs)
    uwords, ucounts, uoffsets = counts
    scratch = np.empty(n_topics)
    bad = kernel(n_docs, uoffsets.ctypes.data, uwords.ctypes.data, ucounts.ctypes.data,
                 state.z.ctypes.data, state.mk.ctypes.data, state.nkw.ctypes.data,
                 state.nk.ctypes.data, n_topics, n_vocab, lnum.ctypes.data, lnum.size,
                 lden.ctypes.data, lden.size, lpri.ctypes.data,
                 None if uniforms is None else uniforms.ctypes.data, scratch.ctypes.data,
                 None if theta is None else theta.ctypes.data)
    if bad >= 0:
        raise ToolError(f"{who}: count outside the log tables or non-finite log-weight at "
                        f"document {bad}, count bookkeeping corrupt")
    return theta


def dmm_sweep(corpus, state: CountState, hp: Hyperparams, rng: np.random.Generator,
              counts=None, tables=None):
    """One full pass: each document's counts removed, topic resampled from the
    log-space conditional, counts restored under the new topic. The sweep's
    uniforms are drawn up front, one per document. counts is
    doc_word_counts(corpus.docs) and tables the chain's log tables, each
    computed when not given."""
    _run_kernel("dmm_sweep", corpus, state, hp, counts, tables, rng)
    return state


def estimate_theta_dmm(state: CountState, corpus, hp: Hyperparams,
                       counts=None, tables=None) -> np.ndarray:
    """theta[d] = the normalized leave-one-out conditional of document d at the
    final state (the sampler's own predictive distribution over topics)."""
    return _run_kernel("estimate_theta_dmm", corpus, state, hp, counts, tables, None)


def dmm_chain(corpus, state: CountState, hp: Hyperparams, rng: np.random.Generator):
    """The sweep and theta callables of a chain from state, whose counts
    (frozen training counts included) must be complete: the word counts and
    log tables they share are built once here."""
    counts = doc_word_counts(corpus.docs)
    tables = _chain_tables(corpus, state, hp)
    return (partial(dmm_sweep, corpus, state, hp, rng, counts=counts, tables=tables),
            partial(estimate_theta_dmm, state, corpus, hp, counts=counts, tables=tables))


def train_dmm(corpus, hp: Hyperparams, rng: np.random.Generator,
              quiet: bool = False) -> CountState:
    """Run init plus niters sweeps with the same save schedule as LDA training;
    .topicAssignments holds one topic per document."""
    hp.validate()
    state = init_dmm(corpus, hp, rng)
    return run_chain(corpus, state, hp, *dmm_chain(corpus, state, hp, rng), quiet=quiet)
