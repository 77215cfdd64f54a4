import os
import re
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from gibbstopics.core import (
    CountState,
    Hyperparams,
    ToolError,
    estimate_phi,
    estimate_theta_lda,
    make_rng,
    recount_lda,
)
from gibbstopics.chain import train_lda
from gibbstopics.persistence import load_corpus, read_paras, write_paras, write_top_words

from conftest import make_corpus
from oracles import draw


def lda_state(docs, z, n_vocab, ntopics):
    """A corpus of docs (word ids) and the LDA state z (each token's topic)
    recounts to."""
    corpus = make_corpus(docs, n_vocab)
    return corpus, recount_lda(corpus, z, ntopics)


def random_lda_state(rng, n_docs, n_vocab, ntopics):
    docs = [rng.integers(0, n_vocab, size=rng.integers(0, 20)) for _ in range(n_docs)]
    z = rng.integers(0, ntopics, size=sum(map(len, docs)))
    return lda_state(docs, z, n_vocab, ntopics)


class TestSampleCategorical:
    """Categorical draws through the oracle's draw, each fed one explicit uniform."""

    def test_single_weight(self, rng):
        assert all(draw(np.array([1.0]), u) == 0 for u in rng.random(20))

    def test_point_mass(self, rng):
        assert all(draw(np.array([0.0, 5.0, 0.0]), u) == 1 for u in rng.random(20))

    def test_uniform_frequencies(self):
        # 100000 draws from 4 equal weights: each frequency 0.25 +/- 0.01
        rng, _ = make_rng(99)
        weights = np.ones(4)
        draws = np.array([draw(weights, u) for u in rng.random(100000)])
        freqs = np.bincount(draws, minlength=4) / draws.size
        assert np.all(np.abs(freqs - 0.25) < 0.01)

    def test_biased_frequencies(self):
        rng, _ = make_rng(7)
        draws = np.array([draw(np.array([3.0, 1.0]), u) for u in rng.random(100000)])
        assert abs(np.mean(draws == 0) - 0.75) < 0.01

    def test_deterministic_given_seed(self):
        a, _ = make_rng(42)
        b, _ = make_rng(42)
        weights = np.array([0.2, 0.5, 0.3, 1.0])
        seq_a = [draw(weights, u) for u in a.random(500)]
        seq_b = [draw(weights, u) for u in b.random(500)]
        assert seq_a == seq_b

    def test_consumes_one_uniform_per_draw(self):
        # an independent CDF walk over the same uniforms reproduces the draws
        rng, _ = make_rng(5)
        weights = np.array([0.1, 0.4, 0.2, 0.3])
        uniforms = rng.random(200)
        drawn = [draw(weights, u) for u in uniforms]
        cdf = np.cumsum(weights)
        replayed = [int(np.searchsorted(cdf, u * cdf[-1], side="right")) for u in uniforms]
        assert drawn == replayed


class TestEstimators:
    def test_theta_symmetric_row(self):
        # ndk[d] = [1, 1]; nkw = [[1, 0, 0], [0, 1, 0]]
        corpus, state = lda_state([[0, 1]], [0, 1], 3, 2)
        hp = Hyperparams(ntopics=2, alpha=0.1)
        assert np.allclose(estimate_theta_lda(corpus, state, hp)[0], [0.5, 0.5])

    def test_theta_worked_example(self):
        # ndk[d] = [3, 1], alpha = 0.1, K = 2 -> [3.1/4.2, 1.1/4.2]
        # (nkw = [[2, 1, 0], [1, 0, 0]])
        corpus, state = lda_state([[0, 0, 1, 0]], [0, 0, 0, 1], 3, 2)
        hp = Hyperparams(ntopics=2, alpha=0.1)
        theta = estimate_theta_lda(corpus, state, hp)
        assert np.allclose(theta[0], [0.7380952380952381, 0.2619047619047619], atol=1e-9)

    def test_theta_rows_sum_to_one(self, rng):
        corpus, state = random_lda_state(rng, 15, 11, 6)
        theta = estimate_theta_lda(corpus, state, Hyperparams(ntopics=6, alpha=0.1))
        assert np.allclose(theta.sum(axis=1), 1.0, atol=1e-9)
        assert np.all(theta > 0) and np.all(theta < 1)
        # n_dk are z's topics counted per document, empty documents included
        counts = np.array([np.bincount(zd, minlength=6)
                           for zd in np.split(state.z, corpus.offsets[1:-1])])
        assert np.array_equal(theta, (counts + 0.1) / (counts.sum(axis=1, keepdims=True) + 6 * 0.1))

    def test_phi_empty_topic_uniform(self):
        _, state = lda_state([[]], [], 3, 1)
        phi = estimate_phi(state, Hyperparams(ntopics=1, beta=0.01))
        assert np.allclose(phi[0], [1 / 3, 1 / 3, 1 / 3], atol=1e-12)

    def test_phi_worked_example(self):
        # nkw[k] = [2, 0], beta = 0.01, V = 2 -> [2.01/2.02, 0.01/2.02]
        _, state = lda_state([[0, 0]], [0, 0], 2, 1)
        phi = estimate_phi(state, Hyperparams(ntopics=1, beta=0.01))
        assert np.allclose(phi[0], [2.01 / 2.02, 0.01 / 2.02], atol=1e-9)

    def test_phi_rows_sum_to_one(self, rng):
        _, state = random_lda_state(rng, 15, 13, 5)
        phi = estimate_phi(state, Hyperparams(ntopics=5, beta=0.01))
        assert np.allclose(phi.sum(axis=1), 1.0, atol=1e-9)
        assert np.all(phi > 0) and np.all(phi < 1)


class TestTopWords:
    """Topic ranking as written to .topWords by write_top_words."""

    def top_words(self, tmp_path, phi, words, twords):
        path = str(tmp_path / "m.topWords")
        write_top_words([phi], tuple(words), twords, path)
        return Path(path).read_text().split()[2:]

    def test_basic_ordering(self, tmp_path):
        assert self.top_words(tmp_path, [0.2, 0.7, 0.1], ["a", "b", "c"], 2) == ["b", "a"]

    def test_zero_requested(self, tmp_path):
        assert self.top_words(tmp_path, [0.5, 0.5], ["a", "b"], 0) == []

    def test_clamped_to_vocab_size(self, tmp_path):
        assert self.top_words(tmp_path, [0.6, 0.4], ["a", "b"], 10) == ["a", "b"]


class TestHyperparams:
    def test_defaults(self):
        hp = Hyperparams()
        assert (hp.ntopics, hp.alpha, hp.beta, hp.niters, hp.twords, hp.name, hp.sstep) == (
            20, 0.1, 0.01, 2000, 20, "model", 0)

    @pytest.mark.parametrize("kwargs", [
        {"ntopics": 0},
        {"alpha": 0.0},
        {"alpha": -1.0},
        {"beta": 0.0},
        {"niters": 0},
        {"twords": -1},
        {"sstep": -1},
        {"model": "bogus"},
        {"alpha": float("inf")},
        {"beta": float("inf")},
        {"seed": -1},
        {"name": "a\nb"},
        # Wrongly typed fields: a float count would run, then fail mid-save
        # (twords) or write a .paras that cannot be replayed (sstep).
        {"ntopics": 2.5},
        {"ntopics": True},
        {"niters": 2.5},
        {"twords": 1.5},
        {"sstep": 1.5},
        {"seed": 1.5},
        {"seed": "3"},
        {"alpha": "0.1"},
        {"beta": None},
        {"beta": False},
        {"name": 5},
        # Ints past the doubles: the first has too many digits for str() to format.
        {"alpha": 10**5000},
        {"beta": -2**1100},
        # Ints that .paras cannot store, of too many digits for str() to format.
        {"ntopics": 10**5000},
        {"seed": -10**5000},
        {"twords": -10**5000},
        {"name": 10**5000},
        # A byte that is not UTF-8, as os.fsdecode keeps it: .paras could not store it.
        {"name": os.fsdecode(b"a\xff")},
    ])
    def test_validation(self, kwargs):
        field = next(iter(kwargs))
        with pytest.raises(ToolError, match=f"^{field}|model kind"):
            Hyperparams(**kwargs).validate()

    @pytest.mark.parametrize("field,value,message", [
        ("niters", 0, "niters must be in [1, 2**63), got 0"),
        ("niters", 2**63, "niters must be in [1, 2**63), got 9223372036854775808"),
        ("twords", -1, "twords must be in [0, 2**63), got -1"),
        ("sstep", 2**64, "sstep must be in [0, 2**63), got an integer outside (-2**64, 2**64)"),
        ("seed", -1, "seed must be in [0, 10**4300), got -1"),
        ("seed", 10**4300, "seed must be in [0, 10**4300), got an integer outside (-2**64, 2**64)"),
        ("ntopics", np.int64(-5), "ntopics must be in [1, 2**63), got -5"),
    ], ids=["niters 0", "niters 2**63", "twords -1", "sstep 2**64", "seed -1", "seed 10**4300",
            "ntopics int64 -5"])
    def test_integer_field_bounds(self, field, value, message):
        # The message shows a value only below 2**64, where str() formats it.
        with pytest.raises(ToolError, match=f"^{re.escape(message)}$"):
            Hyperparams(**{field: value}).validate()

    def test_largest_seed_stored_and_read_back(self, tmp_path):
        hp = Hyperparams(seed=10**4300 - 1).validate()
        write_paras(hp, "c.txt", str(tmp_path / "m.paras"))
        assert read_paras(str(tmp_path / "m.paras")).hp == hp

    def test_priors_held_as_floats(self):
        # Every layer computes with this float: a float32 beta gives the kernel
        # and estimate_phi the same V*beta.
        hp = Hyperparams(alpha=Fraction(1, 10), beta=np.float32(0.5)).validate()
        assert (type(hp.alpha), type(hp.beta), hp.alpha, hp.beta) == (float, float, 0.1, 0.5)

    @pytest.mark.parametrize("field", ["alpha", "beta"])
    def test_integer_prior_past_the_doubles_refused(self, field):
        with pytest.raises(ToolError, match=f"^{field} must be finite and > 0, got inf$"):
            Hyperparams(**{field: 10**5000}).validate()

    def test_name_breaks_only_at_lf_and_cr(self):
        # .paras is split by bytes.splitlines(), so only LF and CR end its lines
        for sep in "\x0b\x0c\x1c\x1d\x1e\x85\u2028\u2029":
            assert Hyperparams(name=f"a{sep}b").validate().name == f"a{sep}b"
        for name in ("a\rb", "a\r\nb"):
            with pytest.raises(ToolError, match="^name must be a plain file name"):
                Hyperparams(name=name).validate()

    def test_numpy_scalars_accepted(self):
        hp = Hyperparams(ntopics=np.int64(3), alpha=np.float64(0.5), niters=np.int32(2),
                         seed=np.uint64(7), beta=1)
        assert hp.validate() is hp

    def test_float_twords_refused_before_any_file(self, tmp_path):
        path = tmp_path / "c.txt"
        path.write_text("a b\nc a\n")
        with pytest.raises(ToolError, match="^twords must be an integer, got 1.5"):
            train_lda(load_corpus(path), Hyperparams(ntopics=2, niters=1, twords=1.5, name="run"))
        assert not list(tmp_path.glob("run.*"))


class TestRecords:
    """The records keep what their callers saw of them as dataclasses."""

    def test_fields_in_order_by_position_or_keyword(self):
        hp = Hyperparams("DMM", 5, seed=3)
        assert list(vars(hp).items())[:3] == [("model", "DMM"), ("ntopics", 5), ("alpha", 0.1)]
        assert hp == Hyperparams(model="DMM", ntopics=5, seed=3) != Hyperparams()
        assert repr(hp).startswith("Hyperparams(model='DMM', ntopics=5, alpha=0.1,")

    @pytest.mark.parametrize("args,kwargs", [
        ((), {"topics": 5}),                      # unknown
        (("LDA",), {"model": "DMM"}),             # given twice
        (tuple(range(10)), {}),                   # too many
    ])
    def test_bad_fields_are_type_errors(self, args, kwargs):
        with pytest.raises(TypeError, match=r"^Hyperparams\(\) takes model, ntopics,"):
            Hyperparams(*args, **kwargs)

    def test_array_records_equal_only_themselves(self):
        z = np.zeros(2, np.int64)
        state = CountState(nkw=z, nk=z, z=z)
        assert state == state and state != CountState(nkw=z, nk=z, z=z)
        assert {state: 1}[state] == 1 and state.mk is None
        # ndk is a class attribute, not a field
        assert CountState.ndk is None and state.ndk is None and "ndk" not in vars(state)
        with pytest.raises(TypeError, match="only a field with a default may be left out"):
            CountState(nkw=z, nk=z)

    def test_corpus_docs_is_cached(self):
        corpus = make_corpus([[0, 1], [1]], 2)
        assert corpus.docs is corpus.docs and len(corpus.docs) == 2


def test_make_rng_records_entropy_seed():
    rng, seed = make_rng(None)
    replay, _ = make_rng(seed)
    assert [rng.random() for _ in range(5)] == [replay.random() for _ in range(5)]


# Every seeded artifact rests on two NumPy streams: init's
# Generator.integers(0, K, n), then the sweeps' Generator.random(n). NumPy
# gives Generator no compatibility guarantee between releases, so both are
# pinned here. An odd n of topics leaves half of a raw draw buffered, and the
# uniforms after it skip that half.
@pytest.mark.parametrize("seed, ntopics, topics, after, uniforms", [
    (0, 2, [1, 1, 1, 0, 0],
     [0.016527635528529094, 0.8132702392002724, 0.9127555772777217],
     [0.6369616873214543, 0.2697867137638703, 0.04097352393619469, 0.016527635528529094,
      0.8132702392002724]),
    (101, 20, [6, 18, 13, 7, 2],
     [0.5912781852294118, 0.2943285611969282, 0.9227256864229143],
     [0.9435325056105539, 0.35942103334157316, 0.7848054119699771, 0.5912781852294118,
      0.2943285611969282]),
    (2**40 + 3, 100, [73, 77, 44, 99, 38],
     [0.0648506920171974, 0.19565188972890957, 0.5657456226457933],
     [0.7736560850714245, 0.9958573802012665, 0.47317891460392636, 0.0648506920171974,
      0.19565188972890957]),
])
def test_numpy_generator_streams_are_pinned(seed, ntopics, topics, after, uniforms):
    def rng():
        return np.random.Generator(np.random.PCG64(seed))
    first = rng()
    drawn = (first.integers(0, ntopics, 5).tolist(), first.random(3).tolist(),
             rng().random(5).tolist())
    assert drawn == (topics, after, uniforms), (
        "NumPy's Generator stream changed for a fixed seed, so every seeded artifact may change "
        "with it: see ROADMAP item 19 (uniforms and topics from PCG64's raw stream)")
