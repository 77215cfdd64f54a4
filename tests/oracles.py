"""NumPy oracles of the compiled sampler steps in sweeps.c, and the count
invariant every state must keep. The kernels are the only implementation in
src/; these are the references the tests hold them to, bit for bit. Both
samplers end in draw, which totals the weights by their last cumulative sum.
Also the whitespace the tokenize kernel must split on, as str.split() does,
and the total-variation distance the exact-posterior tests bound."""

import numpy as np

from gibbstopics.core import recount_dmm, recount_lda

# The 29 code points str.split() splits on, the same in Python 3.10 and 3.11;
# LF and CR also end a line.
WHITESPACE = ("\t\n\x0b\x0c\r\x1c\x1d\x1e\x1f \x85\xa0\u1680"
              + "".join(map(chr, range(0x2000, 0x200b))) + "\u2028\u2029\u202f\u205f\u3000")
INLINE_WHITESPACE = WHITESPACE.replace("\n", "").replace("\r", "")


def draw(weights, u):
    """Map a uniform u in [0, 1) to an index drawn proportionally to the
    weights, which the caller has checked: finite, nonnegative, not all zero.
    The total is the last cumulative sum, so the index is the first whose
    cumulative sum exceeds u times that total, clamped to K-1."""
    cum = weights.cumsum()
    return min(int(cum.searchsorted(u * cum[-1], "right")), weights.size - 1)


def lda_conditional(state, hp, ndk_d, word, n_vocab):
    """Unnormalized topic weights for one token of a document whose K topic
    counts are ndk_d, the token's current assignment already decremented from
    ndk_d and all tables: (n_dk + alpha) * (n_kw + beta) / (n_k + V*beta)."""
    return (ndk_d + hp.alpha) * (state.nkw[:, word] + hp.beta) / (state.nk + n_vocab * hp.beta)


def loop_conditional(state, hp, uwords, ucounts, n_vocab, n_docs):
    """Length-K log-weights for one document, whose counts must already be
    removed from mk, nkw and nk: accumulated one factor at a time, in the
    formula's order: prior, then each (word, repeat) factor, then each length
    factor. The DMM kernel must reproduce it bit for bit."""
    logw = np.log(state.mk + hp.alpha) - np.log(n_docs - 1 + hp.ntopics * hp.alpha)
    for w, c in zip(uwords, ucounts):
        for j in range(c):
            logw = logw + np.log((state.nkw[:, w] + j) + hp.beta)
    for i in range(int(sum(ucounts))):
        logw = logw - np.log((state.nk + i) + n_vocab * hp.beta)
    return logw


def tv_distance(empirical, exact):
    """Total-variation distance of an empirical distribution (a dict, which may
    miss states) from an exact one over every state."""
    return 0.5 * sum(abs(empirical.get(s, 0.0) - p) for s, p in exact.items())


def check_state(state, corpus, kind):
    """Assert the count-conservation invariants: every table is exactly what
    state.z recounts to (LDA keeps no per-document table)."""
    dmm = kind in ("DMM", "DMMinf")
    ref = (recount_dmm if dmm else recount_lda)(corpus, state.z, state.nk.size)
    for table in ("mk", "nkw", "nk") if dmm else ("nkw", "nk"):
        assert np.array_equal(getattr(state, table), getattr(ref, table)), \
            f"count invariant violated: {table} does not match assignments"
