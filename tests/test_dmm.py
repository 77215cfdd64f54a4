import math
from collections import Counter

import numpy as np
import pytest

from gibbstopics import dmm, infer, load_pretrained, train_dmm
from gibbstopics.core import CountState, Hyperparams, ToolError, make_rng, recount_dmm
from gibbstopics.dmm import (_chain_tables, dmm_chain, dmm_sweep, doc_word_counts,
                             estimate_theta_dmm, init_dmm)
from gibbstopics.persistence import load_corpus

from conftest import make_corpus
from oracles import check_state, draw, loop_conditional, replace


def linear_conditional(state, hp, uwords, ucounts, n_vocab, n_docs):
    """Direct linear-space evaluation of the document conditional (oracle)."""
    out = np.zeros(hp.ntopics)
    for k in range(hp.ntopics):
        v = (state.mk[k] + hp.alpha) / (n_docs - 1 + hp.ntopics * hp.alpha)
        for w, c in zip(uwords, ucounts):
            for j in range(c):
                v *= state.nkw[k, w] + hp.beta + j
        for i in range(int(sum(ucounts))):
            v /= state.nk[k] + n_vocab * hp.beta + i
        out[k] = v
    return out


def _shift_doc(state, k, uwords, ucounts, sign):
    state.mk[k] += sign
    state.nkw[k, uwords] += sign * ucounts
    state.nk[k] += sign * ucounts.sum()


def _leave_one_out(state, hp, corpus):
    """For each document d in turn, remove its counts from topic z[d] and yield
    (d, its conditional's weights scaled to max 1, formed with libm exp);
    once the caller is done with d, add the counts back under z[d], which
    the caller may have set."""
    for d, doc in enumerate(corpus.docs):
        uwords, ucounts = np.unique(doc, return_counts=True)
        _shift_doc(state, state.z[d], uwords, ucounts, -1)
        logw = loop_conditional(state, hp, uwords, ucounts, len(corpus.vocab), corpus.n_docs)
        yield d, np.array([math.exp(x) for x in logw - logw.max()])
        _shift_doc(state, state.z[d], uwords, ucounts, 1)


def loop_sweep(corpus, state, hp, rng):
    """Reference sweep: dmm_sweep as a per-document NumPy loop over
    loop_conditional and draw."""
    uniforms = rng.random(corpus.n_docs).tolist()
    for d, weights in _leave_one_out(state, hp, corpus):
        state.z[d] = draw(weights, uniforms[d])


def loop_theta(state, hp, corpus):
    """Reference estimate_theta_dmm: each row the weights over their
    left-to-right total."""
    theta = np.empty((corpus.n_docs, hp.ntopics))
    for d, weights in _leave_one_out(state, hp, corpus):
        theta[d] = weights / weights.cumsum()[-1]
    return theta


def removed_state(mk, nkw):
    nkw = np.asarray(nkw, dtype=np.int64)
    return CountState(
        nkw=nkw,
        nk=nkw.sum(axis=1),
        z=np.zeros(1, dtype=np.int64),
        mk=np.asarray(mk, dtype=np.int64),
    )


def test_init_single_topic():
    corpus = make_corpus([[0], [1, 2], [0, 1]], 3)
    state = init_dmm(corpus, Hyperparams(model="DMM", ntopics=1), make_rng(1)[0])
    assert state.mk.tolist() == [3]


def test_init_conservation():
    corpus = make_corpus([[0, 1], [2], [1, 1, 2]], 3)
    state = init_dmm(corpus, Hyperparams(model="DMM", ntopics=4), make_rng(2)[0])
    assert state.mk.sum() == 3
    check_state(state, corpus, "DMM")


def test_init_deterministic():
    corpus = make_corpus([[0, 1], [2], [1]], 3)
    a = init_dmm(corpus, Hyperparams(model="DMM", ntopics=3), make_rng(9)[0])
    b = init_dmm(corpus, Hyperparams(model="DMM", ntopics=3), make_rng(9)[0])
    assert np.array_equal(a.z, b.z)


def test_conditional_symmetry_with_zero_counts():
    hp = Hyperparams(model="DMM", ntopics=3, alpha=0.4, beta=0.2)
    state = removed_state([0, 0, 0], np.zeros((3, 4)))
    logw = loop_conditional(state, hp, np.array([1]), np.array([1]), 4, 5)
    w = np.exp(logw - logw.max())
    assert np.allclose(w / w.sum(), [1 / 3] * 3, atol=1e-12)


def test_conditional_worked_example():
    # K=2, D=3, V=3, alpha=beta=0.1, document = two copies of word 0;
    # removed counts: mk=[1,1], nkw[:,0]=[2,0], nk=[4,1]
    hp = Hyperparams(model="DMM", ntopics=2, alpha=0.1, beta=0.1)
    state = removed_state([1, 1], [[2, 1, 1], [0, 1, 0]])
    logw = loop_conditional(state, hp, np.array([0]), np.array([2]), 3, 3)
    w = np.exp(logw)
    assert np.allclose(w, [0.14282580, 0.01839465], atol=1e-6)
    assert np.allclose(w / w.sum(), [0.88590, 0.11410], atol=1e-4)


def test_conditional_single_topic():
    hp = Hyperparams(model="DMM", ntopics=1, alpha=0.1, beta=0.1)
    state = removed_state([2], [[3, 1]])
    logw = loop_conditional(state, hp, np.array([0]), np.array([1]), 2, 3)
    w = np.exp(logw - logw.max())
    assert np.allclose(w / w.sum(), [1.0])


def test_log_space_matches_linear_space(rng):
    # short documents (N_d <= 20) stay inside linear-space range
    hp = Hyperparams(model="DMM", ntopics=4, alpha=0.3, beta=0.05)
    for _ in range(50):
        nkw = rng.integers(0, 6, size=(4, 7)).astype(np.int64)
        state = removed_state(rng.integers(0, 5, size=4), nkw)
        uwords, ucounts = np.unique(rng.integers(0, 7, size=rng.integers(1, 12)),
                                    return_counts=True)
        logw = loop_conditional(state, hp, uwords, ucounts, 7, 9)
        expected = linear_conditional(state, hp, uwords, ucounts, 7, 9)
        assert np.allclose(np.exp(logw), expected, rtol=1e-9)


def test_sweep_single_topic_is_identity():
    corpus = make_corpus([[0, 1], [2]], 3)
    hp = Hyperparams(model="DMM", ntopics=1)
    rng, _ = make_rng(3)
    state = init_dmm(corpus, hp, rng)
    sweep, _ = dmm_chain(corpus, state, hp, rng)
    before = state.z.copy()
    sweep()
    assert np.array_equal(before, state.z)


def test_sweep_preserves_invariants():
    corpus = make_corpus([[0, 1, 1], [2, 0], [1], [2, 2, 0, 1]], 3)
    hp = Hyperparams(model="DMM", ntopics=3, beta=0.1)
    rng, _ = make_rng(4)
    state = init_dmm(corpus, hp, rng)
    sweep, _ = dmm_chain(corpus, state, hp, rng)
    for _ in range(10):
        sweep()
        check_state(state, corpus, "DMM")
        assert state.mk.sum() == corpus.n_docs


def test_sweep_draws_one_uniform_per_document():
    corpus = make_corpus([[0, 1, 1], [], [2, 0], [1]], 3)
    hp = Hyperparams(model="DMM", ntopics=3, beta=0.1)
    rng, _ = make_rng(8)
    state = init_dmm(corpus, hp, rng)
    sweep, _ = dmm_chain(corpus, state, hp, rng)
    ref = np.random.Generator(np.random.PCG64())
    ref.bit_generator.state = rng.bit_generator.state
    sweep()
    ref.random(corpus.n_docs)
    assert rng.bit_generator.state == ref.bit_generator.state


def test_theta_single_topic():
    corpus = make_corpus([[0], [1, 2]], 3)
    hp = Hyperparams(model="DMM", ntopics=1)
    state = init_dmm(corpus, hp, make_rng(5)[0])
    _, theta = dmm_chain(corpus, state, hp, make_rng(5)[0])
    assert np.allclose(theta(), 1.0)


def test_theta_rows_sum_to_one():
    corpus = make_corpus([[0, 1, 1], [2, 0], [1, 2, 2, 0]], 3)
    hp = Hyperparams(model="DMM", ntopics=4, beta=0.1)
    rng, _ = make_rng(6)
    state = init_dmm(corpus, hp, rng)
    sweep, theta = dmm_chain(corpus, state, hp, rng)
    sweep()
    assert np.allclose(theta().sum(axis=1), 1.0, atol=1e-9)


def test_theta_matches_conditional_worked_example():
    # full state whose leave-one-out removal of doc 0 reproduces the
    # conditional worked example, so theta[0] = [0.88590, 0.11410]
    corpus = make_corpus([[0, 0], [0, 0, 1, 2], [1]], 3)
    hp = Hyperparams(model="DMM", ntopics=2, alpha=0.1, beta=0.1)
    z = np.array([0, 0, 1], dtype=np.int64)
    from gibbstopics.core import recount_dmm
    state = recount_dmm(corpus, z, 2)
    _, theta = dmm_chain(corpus, state, hp, make_rng(0)[0])
    assert np.allclose(theta()[0], [0.88590, 0.11410], atol=1e-4)
    # state restored after the leave-one-out pass
    check_state(state, corpus, "DMM")


def test_train_writes_outputs_and_assignment_format(tmp_path):
    path = tmp_path / "c.txt"
    path.write_text("a b\nc a\nb b c\n")
    from gibbstopics.persistence import load_corpus
    corpus = load_corpus(path)
    hp = Hyperparams(model="DMM", ntopics=2, beta=0.1, niters=1, name="run", seed=5)
    train_dmm(corpus, hp)
    assert len(list(tmp_path.glob("run.*"))) == 5
    lines = (tmp_path / "run.topicAssignments").read_text().splitlines()
    assert len(lines) == 3
    assert all(line.strip().isdigit() for line in lines)


def test_train_deterministic_given_seed(tmp_path):
    from gibbstopics.persistence import load_corpus
    path = tmp_path / "c.txt"
    path.write_text("a b a\nc b\nb c a\n")
    corpus = load_corpus(path)
    contents = []
    for _ in range(2):
        hp = Hyperparams(model="DMM", ntopics=2, beta=0.1, niters=15, name="run", seed=13)
        train_dmm(corpus, hp)
        contents.append([(tmp_path / f"run.{s}").read_bytes()
                         for s in ("theta", "phi", "topWords", "topicAssignments", "paras")])
    assert contents[0] == contents[1]


def test_a_dmm_chain_builds_its_words_and_tables_once(tmp_path, monkeypatch):
    # dmm_chain sorts the words and builds the log tables; every sweep and
    # theta of the chain reuses them, in training and in folding-in alike.
    calls = Counter()

    def counting(name, func):
        def counted(*args, **kwargs):
            calls[name] += 1
            return func(*args, **kwargs)
        return counted
    for name in ("doc_word_counts", "_chain_tables", "dmm_sweep", "estimate_theta_dmm"):
        monkeypatch.setattr(dmm, name, counting(name, getattr(dmm, name)))
    path = tmp_path / "c.txt"
    path.write_text("a b a\nc b\nb c a\n")
    # 5 sweeps, saved at 2, 4 and the end: 3 thetas.
    train_dmm(load_corpus(path), Hyperparams(model="DMM", ntopics=2, beta=0.1, niters=5,
                                             sstep=2, name="run", seed=13))
    assert calls == {"doc_word_counts": 1, "_chain_tables": 1, "dmm_sweep": 5,
                     "estimate_theta_dmm": 3}
    unseen = tmp_path / "unseen.txt"
    unseen.write_text("a c\nb b zzz\n")
    infer(load_pretrained(tmp_path / "run.paras"), unseen,
          Hyperparams(model="DMMinf", niters=5, sstep=2, name="inf", seed=14))
    assert calls == {"doc_word_counts": 2, "_chain_tables": 2, "dmm_sweep": 10,
                     "estimate_theta_dmm": 6}


def test_word_counts_flat_per_document():
    corpus = make_corpus([[3, 1, 3], [], [0, 2, 2, 0, 2]], 4)
    words = doc_word_counts(corpus)
    assert words.tolist() == [1, 3, 3, 0, 0, 2, 2, 2]
    assert words.dtype == np.int64


def _random_corpus(gen, n_docs, n_vocab):
    # Lengths from 0 (an all-OOV document after folding) to 40 over a small
    # vocabulary, so words repeat within documents.
    return make_corpus([gen.integers(0, n_vocab, size=gen.integers(0, 41)).tolist()
                        for _ in range(n_docs)], n_vocab)


@pytest.mark.parametrize("frozen", [0, 400])
@pytest.mark.parametrize("alpha, beta", [(0.1, 0.1), (2.5, 0.01)])
@pytest.mark.parametrize("ntopics", [1, 7, 8, 9, 50, 129])
def test_kernel_matches_numpy_oracle(ntopics, alpha, beta, frozen):
    # The kernel must sum loop_conditional's terms, exponentiate and draw
    # exactly as the NumPy loop does: same topics, counts, theta and uniforms.
    # With frozen > 0 the tables also hold training counts of up to that many
    # per cell, as in DMMinf, whose log tables must reach them.
    gen = np.random.Generator(np.random.PCG64(ntopics))
    corpus = _random_corpus(gen, 40, 6)
    hp = Hyperparams(model="DMM", ntopics=ntopics, alpha=alpha, beta=beta)
    rng, _ = make_rng(ntopics + 1)
    state = init_dmm(corpus, hp, rng)
    training = gen.integers(0, frozen + 1, size=state.nkw.shape)
    state.nkw += training
    state.nk += training.sum(axis=1)
    sweep, theta = dmm_chain(corpus, state, hp, rng)
    ref = replace(state, z=state.z.copy(), mk=state.mk.copy(), nkw=state.nkw.copy(),
                  nk=state.nk.copy())
    ref_rng = np.random.Generator(np.random.PCG64())
    ref_rng.bit_generator.state = rng.bit_generator.state
    for _ in range(3):
        sweep()
        loop_sweep(corpus, ref, hp, ref_rng)
        for name in ("z", "mk", "nkw", "nk"):
            assert np.array_equal(getattr(state, name), getattr(ref, name)), name
    assert rng.bit_generator.state == ref_rng.bit_generator.state
    assert np.array_equal(theta(), loop_theta(ref, hp, corpus))
    state.nkw -= training
    state.nk -= training.sum(axis=1)
    check_state(state, corpus, "DMM")


@pytest.mark.parametrize("case", ["word V", "topic K", "float64 nkw", "short mk",
                                  "words shorter than the offsets", "empty offsets", "strided z",
                                  "short lpri", "read-only nkw", "read-only mk", "read-only nk"])
def test_sweep_rejects_out_of_bounds_input(case):
    # The kernel reads and writes through raw pointers, so each of these must
    # be refused before the first draw.
    docs = [[0, 1, 1], [2], [1, 0]]
    hp = Hyperparams(model="DMM", ntopics=3)
    rng, _ = make_rng(9)
    corpus = make_corpus(docs, 3)
    state = init_dmm(corpus, hp, rng)
    words = doc_word_counts(corpus)
    tables = _chain_tables(corpus, state, hp)
    if case == "word V":
        words[2] = 3
    elif case == "topic K":
        state.z[0] = 3
    elif case == "float64 nkw":
        state.nkw = state.nkw.astype(np.float64)
    elif case == "short mk":
        state.mk = state.mk[:-1].copy()
    elif case == "words shorter than the offsets":
        words = words[:-1]
    elif case == "empty offsets":
        corpus = replace(corpus, offsets=np.empty(0, np.int64))
    elif case == "strided z":
        state.z = state.z.repeat(2)[::2]  # same topics, every other int64
    elif case == "short lpri":  # the kernel checks m < D, not the table's size
        lnum, lden, lpri = tables
        tables = (lnum, lden, lpri[:-1].copy())
    elif case.startswith("read-only"):
        getattr(state, case.split()[1]).flags.writeable = False
    before = [t.copy() for t in (state.z, state.mk, state.nkw, state.nk)]
    rng_state = rng.bit_generator.state

    def unchanged():
        return all(np.array_equal(a, b)
                   for a, b in zip((state.z, state.mk, state.nkw, state.nk), before))
    # empty offsets give n_docs = -1, so they must be named before z's shape
    offsets = ": document offsets" if case == "empty offsets" else ""
    with pytest.raises(ToolError, match="dmm_sweep" + offsets):
        dmm_sweep(corpus, state, hp, rng, words, tables)
    assert unchanged()
    assert rng.bit_generator.state == rng_state
    with pytest.raises(ToolError, match="estimate_theta_dmm" + offsets):
        estimate_theta_dmm(state, corpus, hp, words, tables)
    assert unchanged()


def test_kernel_refuses_words_out_of_order():
    # The kernel indexes a word's repeats by counting equal neighbours, so the
    # corpus's own order would score document 0 wrong (its two later 0s
    # would each count as a first). The call is refused before any count moves.
    corpus = make_corpus([[0, 1, 0, 2, 0], [0, 0, 1], [2, 2]], 3)
    hp = Hyperparams(model="DMM", ntopics=2)
    state = recount_dmm(corpus, [0, 0, 1], hp.ntopics)
    tables = _chain_tables(corpus, state, hp)
    swapped = doc_word_counts(corpus)
    swapped[[5, 7]] = swapped[[7, 5]]  # document 1 is 1 0 0; 2 | 0 at a boundary is fine
    before = [t.copy() for t in (state.z, state.mk, state.nkw, state.nk)]
    for words, doc in ((corpus.words, 0), (swapped, 1)):
        with pytest.raises(ToolError, match=f"^dmm_sweep: the word ids of document {doc} do not"):
            dmm_sweep(corpus, state, hp, make_rng(3)[0], words, tables)
        with pytest.raises(ToolError, match=f"^estimate_theta_dmm: .* document {doc} do not"):
            estimate_theta_dmm(state, corpus, hp, words, tables)
        after = (state.z, state.mk, state.nkw, state.nk)
        assert all(np.array_equal(a, b) for a, b in zip(before, after))
    estimate_theta_dmm(state, corpus, hp, doc_word_counts(corpus), tables)


@pytest.mark.parametrize("case, error", [
    # Key doc * V + w of word V in document 0 would be word 0 of document 1.
    ("word V", r"word ids are not in \[0, 3\)"),
    ("offsets past words", "document offsets do not rise from 0 to 3"),
])
def test_word_counts_refuse_corrupt_corpus(case, error):
    corpus = make_corpus([[0, 3 if case == "word V" else 2], [1]], 3)
    if case == "offsets past words":
        corpus = replace(corpus, offsets=corpus.offsets + [0, 0, 1])
    with pytest.raises(ToolError, match=f"^doc_word_counts: {error}"):
        doc_word_counts(corpus)


@pytest.mark.parametrize("table", ["mk", "nkw"])
@pytest.mark.parametrize("run", ["sweep", "theta"])
def test_kernel_detects_negative_counts(table, run):
    # A negative count would index before the start of a log table; the
    # kernel must refuse it, not read there.
    corpus = make_corpus([[0, 1], [1], [0, 0]], 2)
    hp = Hyperparams(model="DMM", ntopics=2, beta=0.1)
    rng, _ = make_rng(6)
    state = init_dmm(corpus, hp, rng)
    sweep, theta = dmm_chain(corpus, state, hp, rng)
    getattr(state, table)[...] -= 100
    before = [t.copy() for t in (state.z, state.mk, state.nkw, state.nk)]
    with pytest.raises(ToolError, match="count bookkeeping corrupt"):
        if run == "sweep":
            sweep()
        else:
            theta()
    # The first document already fails; its counts go back where they were.
    after = (state.z, state.mk, state.nkw, state.nk)
    assert all(np.array_equal(a, b) for a, b in zip(before, after))


def test_lden_stops_at_a_topics_frozen_part_plus_the_chains_tokens():
    # A folding chain moves only its own 6 tokens, so no topic's count passes
    # its frozen part plus 6: lden holds 50 + 6 + 1 entries, not the 55 + 6 + 1
    # of every token, and a training chain's holds its tokens + 1. The chain's
    # extreme, every document in the largest frozen topic, is read; so is a
    # planted count whose length term reads lden's last entry, and one count
    # more is refused.
    corpus = make_corpus([[0, 1], [1], [0, 0, 1]], 2)
    hp = Hyperparams(model="DMMinf", ntopics=3, beta=0.1)
    frozen = np.array([[30, 20], [4, 1], [0, 0]])

    def state_of(z):
        state = recount_dmm(corpus, z, hp.ntopics)
        state.nkw += frozen
        state.nk += frozen.sum(axis=1)
        return state
    assert _chain_tables(corpus, recount_dmm(corpus, [1, 2, 1], 3), hp)[1].size == 6 + 1
    tables = _chain_tables(corpus, state_of([1, 2, 1]), hp)
    assert tables[1].size == 50 + 6 + 1
    words = doc_word_counts(corpus)
    state = state_of([0, 0, 0])
    assert state.nk.tolist() == [56, 5, 0]
    estimate_theta_dmm(state, corpus, hp, words, tables)
    state.nk[2] = 54  # document 2's 3 tokens read lden[54:57], the last entry included
    estimate_theta_dmm(state, corpus, hp, words, tables)
    state.nk[2] += 1
    with pytest.raises(ToolError, match="count outside the log tables .* at document 2,"):
        estimate_theta_dmm(state, corpus, hp, words, tables)


def test_build_without_compiler_is_tool_error(empty_kernel_cache, monkeypatch, tmp_path):
    # Built in memory: loading a corpus file would build the library first.
    corpus = make_corpus([[0, 1], [2, 0]], 3, source_path=str(tmp_path / "c.txt"))
    monkeypatch.setenv("PATH", str(tmp_path / "no-bin"))
    with pytest.raises(ToolError, match="cc -O2 -fPIC -shared -ffp-contract=off.*No such file"):
        train_dmm(corpus, Hyperparams(model="DMM", ntopics=2, niters=1, name="run", seed=5))
    assert not list(empty_kernel_cache.glob("*.tmp"))
    assert not list(tmp_path.glob("run.*"))
