import numpy as np
import pytest

from gibbstopics.core import CountState, Hyperparams, ToolError, check_state, make_rng
from gibbstopics.lda import init_lda, lda_conditional, lda_sweep, train_lda

from conftest import make_corpus


def test_init_single_topic():
    corpus = make_corpus([[0, 1], [1, 2, 0]], 3)
    rng, _ = make_rng(1)
    state = init_lda(corpus, Hyperparams(ntopics=1), rng)
    assert all(np.all(zd == 0) for zd in state.z)
    assert state.nk[0] == 5


def test_init_conservation():
    corpus = make_corpus([[0, 1], [1]], 2)
    rng, _ = make_rng(2)
    state = init_lda(corpus, Hyperparams(ntopics=2), rng)
    assert state.nk.sum() == 3
    assert state.ndk[0].sum() == 2
    check_state(state, corpus.docs, "LDA")


def test_init_deterministic():
    corpus = make_corpus([[0, 1, 2, 0], [2, 1]], 3)
    a = init_lda(corpus, Hyperparams(ntopics=4), make_rng(77)[0])
    b = init_lda(corpus, Hyperparams(ntopics=4), make_rng(77)[0])
    assert all(np.array_equal(x, y) for x, y in zip(a.z, b.z))


def test_conditional_symmetry_with_zero_counts():
    hp = Hyperparams(ntopics=3, alpha=0.7, beta=0.3)
    state = CountState(
        ndk=np.zeros((1, 3), dtype=np.int64),
        nkw=np.zeros((3, 4), dtype=np.int64),
        nk=np.zeros(3, dtype=np.int64),
        z=[],
    )
    w = lda_conditional(state, hp, 0, 2, 4)
    assert np.allclose(w / w.sum(), [1 / 3, 1 / 3, 1 / 3], atol=1e-12)


def test_conditional_worked_example():
    # K=2, V=5, alpha=0.1, beta=0.01; decremented counts:
    # ndk[d]=[2,0], nkw[:,w]=[1,1], nk=[3,1]
    hp = Hyperparams(ntopics=2, alpha=0.1, beta=0.01)
    nkw = np.zeros((2, 5), dtype=np.int64)
    nkw[0, 0] = 1
    nkw[1, 0] = 1
    nkw[0, 1] = 2  # pads nk[0] to 3
    state = CountState(
        ndk=np.array([[2, 0]], dtype=np.int64),
        nkw=nkw,
        nk=np.array([3, 1], dtype=np.int64),
        z=[],
    )
    w = lda_conditional(state, hp, 0, 0, 5)
    assert np.allclose(w, [0.69540984, 0.09619048], atol=1e-4)
    assert np.allclose(w / w.sum(), [0.8785, 0.1215], atol=1e-4)


def test_conditional_detects_corrupt_counts():
    hp = Hyperparams(ntopics=2)
    state = CountState(
        ndk=np.array([[-1, 0]], dtype=np.int64),
        nkw=np.zeros((2, 3), dtype=np.int64),
        nk=np.zeros(2, dtype=np.int64),
        z=[],
    )
    with pytest.raises(ToolError):
        lda_conditional(state, hp, 0, 0, 3)


def test_sweep_single_topic_is_identity():
    corpus = make_corpus([[0, 1, 0], [2]], 3)
    hp = Hyperparams(ntopics=1)
    rng, _ = make_rng(3)
    state = init_lda(corpus, hp, rng)
    before = [zd.copy() for zd in state.z]
    lda_sweep(corpus, state, hp, rng)
    assert all(np.array_equal(x, y) for x, y in zip(before, state.z))


def test_sweep_preserves_invariants():
    corpus = make_corpus([[0, 1, 2, 3], [3, 2, 1], [0, 0]], 4)
    hp = Hyperparams(ntopics=3)
    rng, _ = make_rng(4)
    state = init_lda(corpus, hp, rng)
    for _ in range(10):
        lda_sweep(corpus, state, hp, rng)
        check_state(state, corpus.docs, "LDA")
    assert state.nk.sum() == corpus.n_tokens


def test_sweep_draws_one_uniform_per_token():
    corpus = make_corpus([[0, 1, 2], [], [2, 2], [1]], 3)
    hp = Hyperparams(ntopics=3)
    rng, _ = make_rng(8)
    state = init_lda(corpus, hp, rng)
    ref = np.random.Generator(np.random.PCG64())
    ref.bit_generator.state = rng.bit_generator.state
    lda_sweep(corpus, state, hp, rng)
    ref.random(corpus.n_tokens)
    assert rng.bit_generator.state == ref.bit_generator.state


def test_train_writes_one_output_set(tmp_path):
    path = tmp_path / "c.txt"
    path.write_text("a b\nc a\n")
    from gibbstopics.corpus import load_corpus
    corpus = load_corpus(path)
    hp = Hyperparams(model="LDA", ntopics=2, niters=1, name="run")
    train_lda(corpus, hp, make_rng(5)[0], quiet=True)
    for suffix in ("theta", "phi", "topWords", "topicAssignments", "paras"):
        assert (tmp_path / f"run.{suffix}").is_file()
    assert len(list(tmp_path.glob("run.*"))) == 5


def test_train_save_schedule(tmp_path):
    path = tmp_path / "c.txt"
    path.write_text("a b\nc a\n")
    from gibbstopics.corpus import load_corpus
    corpus = load_corpus(path)
    hp = Hyperparams(model="LDA", ntopics=2, niters=4, sstep=2, name="run")
    train_lda(corpus, hp, make_rng(5)[0], quiet=True)
    # saves at iteration 2 plus final; the iteration-4 save IS the final one
    assert (tmp_path / "run.theta.2").is_file()
    assert (tmp_path / "run.theta").is_file()
    assert not (tmp_path / "run.theta.4").is_file()


def test_train_deterministic_given_seed(tmp_path):
    from gibbstopics.corpus import load_corpus
    path = tmp_path / "c.txt"
    path.write_text("a b a\nc b\nb c a\n")
    corpus = load_corpus(path)
    contents = []
    for _ in range(2):
        hp = Hyperparams(model="LDA", ntopics=2, niters=15, name="run", seed=11)
        train_lda(corpus, hp, make_rng(11)[0], quiet=True)
        contents.append((tmp_path / "run.theta").read_bytes())
    assert contents[0] == contents[1]
