from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from gibbstopics.core import (
    Hyperparams,
    ToolError,
    estimate_phi,
    estimate_theta_lda,
    make_rng,
    recount_lda,
)
from gibbstopics.chain import train_lda
from gibbstopics.persistence import load_corpus, write_top_words

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
        # Real, but NumPy holds a Fraction as an object: DMM's log tables fail.
        {"alpha": Fraction(1, 10)},
        {"beta": Fraction(1, 10)},
    ])
    def test_validation(self, kwargs):
        field = next(iter(kwargs))
        with pytest.raises(ToolError, match=f"^{field}|model kind"):
            Hyperparams(**kwargs).validate()

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


def test_make_rng_records_entropy_seed():
    rng, seed = make_rng(None)
    replay, _ = make_rng(seed)
    assert [rng.random() for _ in range(5)] == [replay.random() for _ in range(5)]
