"""Collapsed Gibbs sampler for the Dirichlet Multinomial Mixture: one topic
per document, resampled at document granularity.

Full conditional for document d, with its counts removed from the tables
(c_w = count of word w in the document, N = document length):

    p(z = k) ~ (m_k + alpha) / (D - 1 + K*alpha)
               * prod_w prod_{j=0..c_w-1} (n_kw + beta + j)
               / prod_{i=0..N-1} (n_k + V*beta + i)

Evaluated in log space: the rising-factorial products underflow for long
documents. A sweep, and the theta estimate, run in a compiled C kernel
(native.py, sweeps.c) that sums the terms left to right in the formula's
order; the tests hold its NumPy oracle (tests/oracles.py). A sweep draws as
LDA's does, from the weights' cumulative sums and their last (the total);
theta divides the weights by the same left-to-right total.

This module is the sampler only: init, sweep and theta. chain.run_chain
seeds, runs and saves a DMM or DMMinf chain with them.
"""

from __future__ import annotations

from functools import partial

import numpy as np

from gibbstopics import native
from gibbstopics.core import CountState, Hyperparams, ToolError, recount_dmm


def doc_word_counts(corpus):
    """The corpus's int64 word ids, each document's sorted ascending, as the
    kernel reads them beside corpus.offsets: a word's repeats are adjacent. A
    word id outside the vocabulary would sort into a neighbouring document's
    keys, so the corpus is checked first."""
    n_vocab = len(corpus.vocab)
    n_docs = native.check_corpus("doc_word_counts", corpus.offsets, corpus.words, n_vocab)
    base = np.arange(n_docs).repeat(np.diff(corpus.offsets)) * n_vocab
    return np.sort(base + corpus.words) - base


def init_dmm(corpus, hp: Hyperparams, rng: np.random.Generator) -> CountState:
    """Assign each document one uniformly random topic and build the tables."""
    return recount_dmm(corpus, rng.integers(0, hp.ntopics, size=corpus.n_docs), hp.ntopics)


def _chain_tables(corpus, state: CountState, hp: Hyperparams):
    """The conditional's log terms by count m, as the kernel reads them:
    lnum[m] = log(m + beta), lden[m] = log(m + V*beta) and
    lpri[m] = log(m + alpha) - log(D - 1 + K*alpha). They are sized to what
    the counts, frozen training counts included, can reach: a word's total
    count; a topic's total, never above its frozen part plus the chain's own
    tokens, so never above the largest total plus those tokens, nor above
    all tokens; all documents. Sweeps only move the chain's counts between
    topics, so these sizes, and the tables, hold for the whole chain."""
    n_num = int(state.nkw.sum(axis=0).max(initial=0)) + 1
    n_den = int(min(state.nk.sum(), state.nk.max() + corpus.n_tokens)) + 1
    n_docs, n_vocab = corpus.n_docs, len(corpus.vocab)
    return (np.log(np.arange(n_num) + hp.beta), np.log(np.arange(n_den) + n_vocab * hp.beta),
            np.log(np.arange(n_docs) + hp.alpha) - np.log(n_docs - 1 + hp.ntopics * hp.alpha))


def _run_kernel(who: str, corpus, state: CountState, hp: Hyperparams, words, tables, rng):
    """Check the inputs (words beside corpus.offsets), then run the kernel over
    every document: a sweep that draws one uniform per document from rng, or,
    without rng, the theta of the current state, which is returned."""
    n_topics, n_vocab = hp.ntopics, len(corpus.vocab)
    n_docs = native.check_corpus(who, corpus.offsets, words, n_vocab)
    lnum, lden, lpri = tables
    native.check(who, ("topic assignments", state.z, np.int64, (n_docs,), True),
                 ("mk", state.mk, np.int64, (n_topics,), True),
                 ("nkw.T", state.nkw.T, np.int64, (n_vocab, n_topics), True),
                 ("nk", state.nk, np.int64, (n_topics,), True),
                 ("lnum", lnum, np.float64, (np.size(lnum),), False),
                 ("lden", lden, np.float64, (np.size(lden),), False),
                 ("lpri", lpri, np.float64, (n_docs,), False))
    native.check_range(who, "topics", state.z, 0, n_topics)
    theta = np.empty((n_docs, n_topics)) if rng is None else None
    uniforms = None if rng is None else rng.random(n_docs)
    bad = native.call("dmm_sweep", n_docs, corpus.offsets, words, state.z, state.mk, state.nkw.T,
                      state.nk, n_topics, lnum, lnum.size, lden, lden.size, lpri,
                      uniforms, np.empty(n_topics), theta)
    if bad >= n_docs:  # refused before any count moved: a repeat's index would be wrong
        raise ToolError(f"{who}: the word ids of document {bad - n_docs} do not ascend")
    if bad >= 0:
        raise ToolError(f"{who}: count outside the log tables or non-finite log-weight at "
                        f"document {bad}, count bookkeeping corrupt")
    return theta


def dmm_sweep(corpus, state: CountState, hp: Hyperparams, rng: np.random.Generator,
              words, tables):
    """One full pass: each document's counts removed, topic resampled from the
    log-space conditional, counts restored under the new topic, with uniforms
    drawn up front, one per document. words and tables are dmm_chain's sorted
    words (refused unless ascending within each document) and log tables."""
    _run_kernel("dmm_sweep", corpus, state, hp, words, tables, rng)
    return state


def estimate_theta_dmm(state: CountState, corpus, hp: Hyperparams, words, tables) -> np.ndarray:
    """theta[d] = the normalized leave-one-out conditional of document d at the
    final state (the sampler's own predictive distribution over topics).
    words and tables are the chain's, as for dmm_sweep."""
    return _run_kernel("estimate_theta_dmm", corpus, state, hp, words, tables, None)


def dmm_chain(corpus, state: CountState, hp: Hyperparams, rng: np.random.Generator):
    """The sweep and theta callables of a chain from state, whose counts
    (frozen training counts included) must be complete, built once per chain
    from its sorted words and log tables. Priors that leave a table entry not
    finite (K*alpha or V*beta overflowing) are refused."""
    words, tables = doc_word_counts(corpus), _chain_tables(corpus, state, hp)
    if not all(np.isfinite(table).all() for table in tables):
        raise ToolError(f"alpha {hp.alpha} and beta {hp.beta} give model {hp.model} a weight "
                        "that is not finite and positive")
    return (partial(dmm_sweep, corpus, state, hp, rng, words=words, tables=tables),
            partial(estimate_theta_dmm, state, corpus, hp, words=words, tables=tables))
