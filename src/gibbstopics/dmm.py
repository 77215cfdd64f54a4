"""Collapsed Gibbs sampler for the Dirichlet Multinomial Mixture: one topic
per document, resampled at document granularity.

Full conditional for document d, with its counts removed from the tables
(c_w = count of word w in the document, N = document length):

    p(z = k) ~ (m_k + alpha) / (D - 1 + K*alpha)
               * prod_w prod_{j=0..c_w-1} (n_kw + beta + j)
               / prod_{i=0..N-1} (n_k + V*beta + i)

Evaluated in log space: the rising-factorial products underflow for long
documents.
"""

from __future__ import annotations

from functools import partial

import numpy as np

from gibbstopics.chain import run_chain
from gibbstopics.core import (
    CountState,
    Hyperparams,
    ToolError,
    recount_dmm,
    sample_categorical,
)


def doc_word_counts(docs):
    """Per-document (unique word ids, counts) pairs, precomputed once."""
    return [np.unique(np.asarray(doc), return_counts=True) for doc in docs]


def init_dmm(corpus, hp: Hyperparams, rng: np.random.Generator) -> CountState:
    """Assign each document one uniformly random topic and build the tables."""
    z = rng.integers(0, hp.ntopics, size=len(corpus.docs))
    return recount_dmm(corpus.docs, z, hp.ntopics, corpus.vocab.size)


def dmm_conditional(state: CountState, hp: Hyperparams, uwords, ucounts,
                    n_vocab: int, n_docs: int) -> np.ndarray:
    """Length-K log-weights for one document, whose counts must already be
    removed from mk, nkw and nk."""
    with np.errstate(divide="raise", invalid="raise"):
        try:
            logw = np.log(state.mk + hp.alpha) - np.log(n_docs - 1 + hp.ntopics * hp.alpha)
            for w, c in zip(uwords, ucounts):
                col = state.nkw[:, w] + hp.beta
                for j in range(c):
                    logw = logw + np.log(col + j)
            base = state.nk + n_vocab * hp.beta
            for i in range(int(ucounts.sum()) if len(ucounts) else 0):
                logw = logw - np.log(base + i)
        except FloatingPointError as exc:
            raise ToolError("dmm_conditional: non-finite log-weight, count bookkeeping corrupt") from exc
    if not np.all(np.isfinite(logw)):
        raise ToolError("dmm_conditional: non-finite log-weight, count bookkeeping corrupt")
    return logw


def _remove_doc(state, k, uwords, ucounts, n):
    state.mk[k] -= 1
    state.nkw[k, uwords] -= ucounts
    state.nk[k] -= n


def _add_doc(state, k, uwords, ucounts, n):
    state.mk[k] += 1
    state.nkw[k, uwords] += ucounts
    state.nk[k] += n


def dmm_sweep(corpus, state: CountState, hp: Hyperparams, rng: np.random.Generator,
              counts=None):
    """One full pass: each document's counts removed, topic resampled from the
    log-space conditional, counts restored under the new topic."""
    if counts is None:
        counts = doc_word_counts(corpus.docs)
    n_vocab = state.nkw.shape[1]
    n_docs = len(corpus.docs)
    for d, (uwords, ucounts) in enumerate(counts):
        n = int(ucounts.sum()) if len(ucounts) else 0
        k_old = int(state.z[d])
        _remove_doc(state, k_old, uwords, ucounts, n)
        logw = dmm_conditional(state, hp, uwords, ucounts, n_vocab, n_docs)
        weights = np.exp(logw - logw.max())
        k_new = sample_categorical(weights, rng)
        state.z[d] = k_new
        _add_doc(state, k_new, uwords, ucounts, n)
    return state


def estimate_theta_dmm(state: CountState, corpus, hp: Hyperparams,
                       counts=None) -> np.ndarray:
    """theta[d] = the normalized leave-one-out conditional of document d at the
    final state (the sampler's own predictive distribution over topics)."""
    if counts is None:
        counts = doc_word_counts(corpus.docs)
    n_vocab = state.nkw.shape[1]
    n_docs = len(corpus.docs)
    theta = np.empty((n_docs, hp.ntopics), dtype=np.float64)
    for d, (uwords, ucounts) in enumerate(counts):
        n = int(ucounts.sum()) if len(ucounts) else 0
        k = int(state.z[d])
        _remove_doc(state, k, uwords, ucounts, n)
        logw = dmm_conditional(state, hp, uwords, ucounts, n_vocab, n_docs)
        _add_doc(state, k, uwords, ucounts, n)
        weights = np.exp(logw - logw.max())
        theta[d] = weights / weights.sum()
    return theta


def train_dmm(corpus, hp: Hyperparams, rng: np.random.Generator,
              quiet: bool = False) -> CountState:
    """Run init plus niters sweeps with the same save schedule as LDA training;
    .topicAssignments holds one topic per document."""
    hp.validate()
    counts = doc_word_counts(corpus.docs)
    state = init_dmm(corpus, hp, rng)
    return run_chain(corpus, state, hp, partial(dmm_sweep, corpus, state, hp, rng, counts=counts),
                     partial(estimate_theta_dmm, state, corpus, hp, counts=counts), quiet=quiet)
