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
    draw,
    recount_dmm,
)


def doc_word_counts(docs):
    """Per-document (unique word ids, counts) pairs, precomputed once."""
    return [np.unique(np.asarray(doc), return_counts=True) for doc in docs]


def init_dmm(corpus, hp: Hyperparams, rng: np.random.Generator) -> CountState:
    """Assign each document one uniformly random topic and build the tables."""
    return recount_dmm(corpus, rng.integers(0, hp.ntopics, size=corpus.n_docs), hp.ntopics)


def dmm_conditional(state: CountState, hp: Hyperparams, uwords, ucounts,
                    n_vocab: int, n_docs: int) -> np.ndarray:
    """Length-K log-weights for one document, whose counts must already be
    removed from mk, nkw and nk.

    The log prior and the rising-factorial log terms form one K x (1 + 2N)
    matrix, summed left to right (cumsum, not numpy's pairwise sum) in the
    order of the formula's factors."""
    words = uwords.repeat(ucounts)
    n = words.size
    j = np.arange(n) - (ucounts.cumsum() - ucounts).repeat(ucounts)  # 0..c_w-1 per word
    with np.errstate(divide="raise", invalid="raise"):
        try:
            terms = np.concatenate((
                (np.log(state.mk + hp.alpha) - np.log(n_docs - 1 + hp.ntopics * hp.alpha))[:, None],
                np.log(state.nkw[:, words] + hp.beta + j),
                -np.log(state.nk[:, None] + n_vocab * hp.beta + np.arange(n)),
            ), axis=1)
            logw = terms.cumsum(axis=1)[:, -1]
        except FloatingPointError as exc:
            raise ToolError("dmm_conditional: non-finite log-weight, count bookkeeping corrupt") from exc
    if not np.isfinite(logw).all():
        raise ToolError("dmm_conditional: non-finite log-weight, count bookkeeping corrupt")
    return logw


def _shift_doc(state, k, uwords, ucounts, sign):
    state.mk[k] += sign
    state.nkw[k, uwords] += sign * ucounts
    state.nk[k] += sign * ucounts.sum()


def _leave_one_out(state: CountState, hp: Hyperparams, counts):
    """For each document d in turn, remove its counts from topic z[d] and yield
    (d, its conditional's weights scaled to max 1); once the caller is done
    with d, add the counts back under z[d], which the caller may have set."""
    n_vocab = state.nkw.shape[1]
    for d, (uwords, ucounts) in enumerate(counts):
        _shift_doc(state, state.z[d], uwords, ucounts, -1)
        logw = dmm_conditional(state, hp, uwords, ucounts, n_vocab, len(counts))
        yield d, np.exp(logw - logw.max())
        _shift_doc(state, state.z[d], uwords, ucounts, 1)


def dmm_sweep(corpus, state: CountState, hp: Hyperparams, rng: np.random.Generator,
              counts=None):
    """One full pass: each document's counts removed, topic resampled from the
    log-space conditional, counts restored under the new topic. The sweep's
    uniforms are drawn up front, one per document."""
    if counts is None:
        counts = doc_word_counts(corpus.docs)
    uniforms = rng.random(len(counts)).tolist()
    for d, weights in _leave_one_out(state, hp, counts):
        state.z[d] = draw(weights, uniforms[d])
    return state


def estimate_theta_dmm(state: CountState, corpus, hp: Hyperparams,
                       counts=None) -> np.ndarray:
    """theta[d] = the normalized leave-one-out conditional of document d at the
    final state (the sampler's own predictive distribution over topics)."""
    if counts is None:
        counts = doc_word_counts(corpus.docs)
    theta = np.empty((len(counts), hp.ntopics), dtype=np.float64)
    for d, weights in _leave_one_out(state, hp, counts):
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
