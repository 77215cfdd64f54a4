"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line
(run with `pytest tests/test_acceptance.py -v -s` to see them)."""

import itertools
import math
import random
import time
from collections import Counter
from contextlib import contextmanager

import numpy as np
import pytest

from gibbstopics import train_dmm, train_lda
from gibbstopics.cli import main
from gibbstopics.core import CountState, Hyperparams, estimate_theta_lda, make_rng
from gibbstopics.dmm import dmm_chain, init_dmm
from gibbstopics.evaluation import evaluate_files, nmi, purity
from gibbstopics.inference import fold_corpus, infer, load_pretrained
from gibbstopics.lda import init_lda, lda_sweep
from gibbstopics.persistence import load_corpus

from conftest import make_corpus, planted_short_lines, synthetic_lines, two_topic_lines
from oracles import check_state, lda_conditional, loop_conditional, tv_distance
from test_evaluation import brute_nmi, brute_purity


@contextmanager
def criterion(number, description):
    try:
        yield
    except Exception:
        print(f"\n[criterion {number:2d}] FAIL  {description}")
        raise
    print(f"\n[criterion {number:2d}] PASS  {description}")


def lgam(x):
    return math.lgamma(x)


def lda_collapsed_log_joint(docs, z, ntopics, n_vocab, alpha, beta):
    """Exact collapsed joint log P(z, w) up to a constant, from the Gamma form."""
    flat_z = [k for zd in z for k in zd]
    flat_w = [w for doc in docs for w in doc]
    nk = Counter(flat_z)
    nkw = Counter(zip(flat_z, flat_w))
    score = 0.0
    for k in range(ntopics):
        score += lgam(n_vocab * beta) - lgam(nk.get(k, 0) + n_vocab * beta)
        for w in range(n_vocab):
            score += lgam(nkw.get((k, w), 0) + beta) - lgam(beta)
    for d, zd in enumerate(z):
        ndk = Counter(zd)
        score += lgam(ntopics * alpha) - lgam(len(zd) + ntopics * alpha)
        for k in range(ntopics):
            score += lgam(ndk.get(k, 0) + alpha) - lgam(alpha)
    return score


def dmm_collapsed_log_joint(docs, z, ntopics, n_vocab, alpha, beta):
    """Exact collapsed joint log P(z, w) up to a constant for the mixture model."""
    mk = Counter(z)
    nk = Counter()
    nkw = Counter()
    for doc, k in zip(docs, z):
        nk[k] += len(doc)
        for w in doc:
            nkw[(k, w)] += 1
    score = lgam(ntopics * alpha) - lgam(len(docs) + ntopics * alpha)
    for k in range(ntopics):
        score += lgam(mk.get(k, 0) + alpha) - lgam(alpha)
        score += lgam(n_vocab * beta) - lgam(nk.get(k, 0) + n_vocab * beta)
        for w in range(n_vocab):
            score += lgam(nkw.get((k, w), 0) + beta) - lgam(beta)
    return score


def test_criterion_1_count_conservation_suite():
    with criterion(1, "count conservation over 200 iterations, 500-doc corpus, < 60 s"):
        gen = np.random.Generator(np.random.PCG64(2024))
        lines = synthetic_lines(gen, 500, 200, 8)
        start = time.monotonic()

        corpus = make_corpus(
            [[int(tok[1:]) for tok in line.split()] for line in lines], 200)
        hp_lda = Hyperparams(model="LDA", ntopics=20, alpha=0.1, beta=0.01, niters=200)
        rng, _ = make_rng(100)
        state = init_lda(corpus, hp_lda, rng)
        for _ in range(200):
            lda_sweep(corpus, state, hp_lda, rng)
            check_state(state, corpus, "LDA")

        hp_dmm = Hyperparams(model="DMM", ntopics=20, alpha=0.1, beta=0.1, niters=200)
        rng, _ = make_rng(101)
        state = init_dmm(corpus, hp_dmm, rng)
        sweep, _ = dmm_chain(corpus, state, hp_dmm, rng)
        for _ in range(200):
            sweep()
            check_state(state, corpus, "DMM")

        elapsed = time.monotonic() - start
        assert elapsed < 60, f"runtime {elapsed:.1f}s exceeds 60s budget"


def test_criterion_2_lda_exact_posterior():
    with criterion(2, "LDA Gibbs matches enumerated collapsed posterior, TV < 0.05"):
        docs = [[0, 1], [2, 0]]
        ntopics, n_vocab, alpha, beta = 2, 3, 0.5, 0.5
        corpus = make_corpus(docs, n_vocab)
        hp = Hyperparams(model="LDA", ntopics=ntopics, alpha=alpha, beta=beta)

        scores = {}
        for assignment in itertools.product(range(ntopics), repeat=4):
            z = [list(assignment[:2]), list(assignment[2:])]
            scores[assignment] = lda_collapsed_log_joint(docs, z, ntopics, n_vocab, alpha, beta)
        mx = max(scores.values())
        total = sum(math.exp(s - mx) for s in scores.values())
        exact = {s: math.exp(v - mx) / total for s, v in scores.items()}

        rng, _ = make_rng(555)
        state = init_lda(corpus, hp, rng)
        for _ in range(1000):
            lda_sweep(corpus, state, hp, rng)
        tally = Counter()
        for _ in range(50000):
            lda_sweep(corpus, state, hp, rng)
            tally[tuple(state.z.tolist())] += 1
        empirical = {s: c / 50000 for s, c in tally.items()}
        tv = tv_distance(empirical, exact)
        assert tv < 0.05, f"TV distance {tv:.4f}"


def test_criterion_3_dmm_exact_posterior():
    with criterion(3, "DMM Gibbs matches enumerated collapsed posterior, TV < 0.05"):
        docs = [[0], [1, 2], [0, 1]]
        ntopics, n_vocab, alpha, beta = 2, 3, 0.5, 0.5
        corpus = make_corpus(docs, n_vocab)
        hp = Hyperparams(model="DMM", ntopics=ntopics, alpha=alpha, beta=beta)

        scores = {}
        for assignment in itertools.product(range(ntopics), repeat=3):
            scores[assignment] = dmm_collapsed_log_joint(docs, list(assignment),
                                                         ntopics, n_vocab, alpha, beta)
        mx = max(scores.values())
        total = sum(math.exp(s - mx) for s in scores.values())
        exact = {s: math.exp(v - mx) / total for s, v in scores.items()}

        rng, _ = make_rng(556)
        state = init_dmm(corpus, hp, rng)
        sweep, _ = dmm_chain(corpus, state, hp, rng)
        for _ in range(1000):
            sweep()
        tally = Counter()
        for _ in range(50000):
            sweep()
            tally[tuple(int(k) for k in state.z)] += 1
        empirical = {s: c / 50000 for s, c in tally.items()}
        tv = tv_distance(empirical, exact)
        assert tv < 0.05, f"TV distance {tv:.4f}"


def test_criterion_4_conditional_spot_checks():
    with criterion(4, "conditional formulas reproduce the worked examples within 1e-4"):
        hp = Hyperparams(ntopics=2, alpha=0.1, beta=0.01)
        nkw = np.array([[1, 2, 0, 0, 0], [1, 0, 0, 0, 0]], dtype=np.int64)
        state = CountState(nkw=nkw, nk=nkw.sum(axis=1), z=np.array([0, 0], dtype=np.int64))
        w = lda_conditional(state, hp, np.bincount(state.z, minlength=2), 0, 5)
        assert np.allclose(w / w.sum(), [0.8785, 0.1215], atol=1e-4)

        hp = Hyperparams(model="DMM", ntopics=2, alpha=0.1, beta=0.1)
        nkw = np.array([[2, 1, 1], [0, 1, 0]], dtype=np.int64)
        state = CountState(nkw=nkw, nk=nkw.sum(axis=1), z=np.zeros(1, dtype=np.int64),
                           mk=np.array([1, 1], dtype=np.int64))
        logw = loop_conditional(state, hp, np.array([0]), np.array([2]), 3, 3)
        weights = np.exp(logw - logw.max())
        assert np.allclose(weights / weights.sum(), [0.88590, 0.11410], atol=1e-4)


def test_criterion_5_metric_oracle():
    with criterion(5, "purity and NMI match brute-force oracle on 100 random partitions"):
        assert abs(purity([0, 0, 0, 1, 1, 2], list("AABBBA")) - 0.83333) < 1e-5
        assert abs(nmi([0, 0, 1, 1], list("AAAB")) - 0.34372) < 1e-5
        rnd = random.Random(2718)
        for _ in range(100):
            n = rnd.randint(1, 12)
            clusters = [rnd.randrange(rnd.randint(1, 8)) for _ in range(n)]
            labels = [str(rnd.randrange(rnd.randint(1, 8))) for _ in range(n)]
            assert abs(purity(clusters, labels) - brute_purity(clusters, labels)) < 1e-12
            expected = min(1.0, max(0.0, brute_nmi(clusters, labels)))
            assert abs(nmi(clusters, labels) - expected) < 1e-12


def test_criterion_6_determinism(tmp_path):
    with criterion(6, "seeded CLI runs produce byte-identical artifacts"):
        corpus = tmp_path / "corpus.txt"
        gen = np.random.Generator(np.random.PCG64(6))
        corpus.write_text("\n".join(synthetic_lines(gen, 40, 30, 5)) + "\n")
        suffixes = ("theta", "phi", "topWords", "topicAssignments", "paras")
        blobs = []
        for _ in range(2):
            assert main(["-model", "LDA", "-corpus", str(corpus), "-name", "t",
                         "-seed", "7"]) == 0
            blobs.append({s: (tmp_path / f"t.{s}").read_bytes() for s in suffixes})
        assert blobs[0] == blobs[1]


def test_criterion_7_normalization(tmp_path):
    with criterion(7, "every emitted theta/phi row sums to 1 within 1e-9"):
        corpus_path = tmp_path / "corpus.txt"
        gen = np.random.Generator(np.random.PCG64(77))
        corpus_path.write_text("\n".join(synthetic_lines(gen, 30, 25, 6)) + "\n")
        corpus = load_corpus(corpus_path)

        hp = Hyperparams(model="LDA", ntopics=5, niters=40, name="nl", seed=1)
        state = train_lda(corpus, hp)
        from gibbstopics.core import estimate_phi
        theta = estimate_theta_lda(corpus, state, hp)
        phi = estimate_phi(state, hp)
        assert np.allclose(theta.sum(axis=1), 1.0, atol=1e-9)
        assert np.allclose(phi.sum(axis=1), 1.0, atol=1e-9)

        hp = Hyperparams(model="DMM", ntopics=5, beta=0.1, niters=40, name="nd", seed=2)
        state = train_dmm(corpus, hp)
        _, chain_theta = dmm_chain(corpus, state, hp, make_rng(2)[0])
        theta = chain_theta()
        phi = estimate_phi(state, hp)
        assert np.allclose(theta.sum(axis=1), 1.0, atol=1e-9)
        assert np.allclose(phi.sum(axis=1), 1.0, atol=1e-9)

        hp = Hyperparams(model="DMM", ntopics=3, beta=0.1, niters=10, name="ni", seed=3)
        train_dmm(corpus, hp)
        model = load_pretrained(tmp_path / "ni.paras")
        unseen = tmp_path / "unseen.txt"
        unseen.write_text("\n".join(synthetic_lines(gen, 8, 25, 4)) + "\n")
        state = infer(model, unseen, Hyperparams(model="DMMinf", niters=10, twords=5,
            name="ninf", seed=4))
        from gibbstopics.persistence import read_matrix
        for name in ("ninf.theta", "ninf.phi"):
            rows = read_matrix(str(tmp_path / name))
            # file values carry 6-significant-digit formatting
            assert all(abs(sum(row) - 1.0) < 1e-4 for row in rows)


def test_criterion_8_inference_sanity(tmp_path):
    with criterion(8, "all-OOV theta uniform (1e-12); >= 90% held-out topic recovery"):
        gen = np.random.Generator(np.random.PCG64(88))
        train_lines, train_topics = two_topic_lines(gen, 100, 8)
        corpus_path = tmp_path / "corpus.txt"
        corpus_path.write_text("\n".join(train_lines) + "\n")
        corpus = load_corpus(corpus_path)
        hp = Hyperparams(model="LDA", ntopics=2, niters=200, name="sep", seed=5)
        train_state = train_lda(corpus, hp)
        model = load_pretrained(tmp_path / "sep.paras")

        # all-OOV document: exactly the symmetric prior
        oov = tmp_path / "oov.txt"
        oov.write_text("zz yy\nxx\n")
        state = infer(model, oov, Hyperparams(model="LDAinf", niters=20, twords=5,
            name="oovinf", seed=6))
        theta = estimate_theta_lda(fold_corpus(model, oov), state, Hyperparams(
            model="LDAinf", ntopics=2, alpha=hp.alpha, beta=hp.beta))
        assert np.allclose(theta, 0.5, atol=1e-12)

        # held-out documents from the same generator land on the matching topic
        train_theta = estimate_theta_lda(corpus, train_state, hp)
        votes = {0: [0, 0], 1: [0, 0]}
        for row, t in zip(train_theta, train_topics):
            votes[int(np.argmax(row))][t] += 1
        mapping = {k: int(np.argmax(v)) for k, v in votes.items()}
        assert mapping[0] != mapping[1]

        heldout_lines, heldout_topics = two_topic_lines(gen, 40, 8)
        unseen = tmp_path / "unseen.txt"
        unseen.write_text("\n".join(heldout_lines) + "\n")
        state = infer(model, unseen, Hyperparams(model="LDAinf", niters=150, twords=5,
            name="hinf", seed=7))
        inf_theta = estimate_theta_lda(fold_corpus(model, unseen), state, Hyperparams(
            model="LDAinf", ntopics=2, alpha=hp.alpha, beta=hp.beta))
        hits = sum(mapping[int(np.argmax(row))] == t
                   for row, t in zip(inf_theta, heldout_topics))
        assert hits / len(heldout_topics) >= 0.9, f"recovery {hits}/{len(heldout_topics)}"


def test_criterion_9_eval_aggregation(tmp_path, capsys):
    with criterion(9, "mean 0.7 and sample std 0.14142 over purities 0.8 and 0.6"):
        (tmp_path / "corpus.LABEL").write_text("A\nA\nA\nB\nB\n")
        (tmp_path / "a.theta").write_text(
            "1 0\n1 0\n1 0\n1 0\n0 1\n")  # purity 0.8
        (tmp_path / "b.theta").write_text(
            "1 0\n1 0\n0 1\n1 0\n0 1\n")  # purity 0.6
        assert main(["-model", "Eval", "-label", str(tmp_path / "corpus.LABEL"),
                     "-dir", str(tmp_path), "-prob", "theta"]) == 0
        out = capsys.readouterr().out.splitlines()
        mean_line = next(l for l in out if l.startswith("mean"))
        std_line = next(l for l in out if l.startswith("stddev"))
        assert abs(float(mean_line.split("purity=")[1].split("\t")[0]) - 0.7) < 1e-5
        assert abs(float(std_line.split("purity=")[1].split("\t")[0]) - 0.14142) < 1e-5


def test_criterion_10_cli_conformance(tmp_path):
    with criterion(10, "the documented example command lines exit 0 and write artifacts"):
        test_dir = tmp_path / "test"
        test_dir.mkdir()
        gen = np.random.Generator(np.random.PCG64(10))
        lines, topics = two_topic_lines(gen, 30, 5)
        (test_dir / "corpus.txt").write_text("\n".join(lines) + "\n")
        (test_dir / "corpus.LABEL").write_text("\n".join(str(t) for t in topics) + "\n")
        unseen_lines, _ = two_topic_lines(gen, 6, 4)
        (test_dir / "unseenTest.txt").write_text("\n".join(unseen_lines) + "\n")
        corpus = str(test_dir / "corpus.txt")

        assert main(["-model", "LDA", "-corpus", corpus, "-name", "testLDA"]) == 0
        assert main(["-model", "DMM", "-corpus", corpus, "-beta", "0.1",
                     "-name", "testDMM"]) == 0
        assert main(["-model", "LDAinf", "-paras", str(test_dir / "testLDA.paras"),
                     "-corpus", str(test_dir / "unseenTest.txt"), "-niters", "100",
                     "-name", "testLDAinf"]) == 0
        assert main(["-model", "Eval", "-label", str(test_dir / "corpus.LABEL"),
                     "-dir", str(test_dir), "-prob", "testLDA.theta"]) == 0
        for name in ("testLDA", "testDMM", "testLDAinf"):
            for suffix in ("theta", "phi", "topWords", "topicAssignments", "paras"):
                assert (test_dir / f"{name}.{suffix}").is_file()


def test_dmm_clusters_short_texts_better_than_lda(tmp_path):
    # The paper's short-text claim: on short documents of one planted topic
    # each, DMM's .theta clusters them better than LDA's, as Eval scores them,
    # on every seed. It fails on an LDA without its topic denominator and on a
    # DMM without its document-length term.
    lines, topics = planted_short_lines(np.random.Generator(np.random.PCG64(21)))
    corpus = tmp_path / "corpus.txt"
    corpus.write_text("\n".join(lines) + "\n")
    labels = [str(t) for t in topics]
    for seed in (1, 2, 3):
        scores = {}
        for model, beta in (("LDA", "0.01"), ("DMM", "0.1")):
            name = f"{model}{seed}"
            assert main(["-model", model, "-corpus", str(corpus), "-ntopics", "20",
                         "-alpha", "0.1", "-beta", beta, "-niters", "50", "-name", name,
                         "-seed", str(seed)]) == 0
            scores[model] = evaluate_files(tmp_path, f"{name}.theta", labels).nmi_mean
        assert scores["DMM"] >= 0.93 and scores["LDA"] >= 0.80, (seed, scores)
        assert scores["DMM"] - scores["LDA"] >= 0.05, (seed, scores)
