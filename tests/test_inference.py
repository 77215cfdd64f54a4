import itertools
import math
import re
import shutil
from collections import Counter
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from gibbstopics import train_dmm, train_lda
from gibbstopics.cli import main
from gibbstopics.core import (
    Hyperparams,
    ToolError,
    estimate_theta_lda,
    make_rng,
    recount_dmm,
    recount_lda,
)
from gibbstopics.dmm import dmm_chain
from gibbstopics.inference import fold_corpus, infer, load_pretrained
from gibbstopics.lda import lda_sweep
from gibbstopics.persistence import load_corpus, read_assignments

from conftest import two_topic_lines
from oracles import tv_distance


def train_small_lda(tmp_path, lines, name="m", ntopics=2, niters=30, seed=7):
    path = tmp_path / "corpus.txt"
    path.write_text("\n".join(lines) + "\n")
    corpus = load_corpus(path)
    hp = Hyperparams(model="LDA", ntopics=ntopics, niters=niters, name=name, seed=seed)
    train_lda(corpus, hp)
    return corpus, tmp_path / f"{name}.paras"


def test_load_pretrained_replays_counts(tmp_path):
    corpus, paras = train_small_lda(tmp_path, ["a b a", "c b", "a c c b"])
    model = load_pretrained(paras)
    assert model.hp.ntopics == 2
    assert model.nkw.sum() == corpus.n_tokens
    assert model.vocab == corpus.vocab


def test_load_pretrained_dmm(tmp_path):
    path = tmp_path / "corpus.txt"
    path.write_text("a b\nc a\nb b\n")
    corpus = load_corpus(path)
    hp = Hyperparams(model="DMM", ntopics=3, beta=0.1, niters=10, name="dm", seed=5)
    train_dmm(corpus, hp)
    model = load_pretrained(tmp_path / "dm.paras")
    assert model.hp.model == "DMM"
    assert model.nkw.sum() == corpus.n_tokens


@pytest.mark.parametrize("kind,train,recount", [("LDA", train_lda, recount_lda),
                                                 ("DMM", train_dmm, recount_dmm)])
def test_load_pretrained_replays_the_save_point_it_names(tmp_path, kind, train, recount):
    # m.paras.1 goes with m.topicAssignments.1, not with the last sample's.
    shutil.copy(Path(__file__).resolve().parent.parent / "sample_data" / "corpus.txt", tmp_path)
    corpus = load_corpus(tmp_path / "corpus.txt")
    train(corpus, Hyperparams(model=kind, ntopics=3, niters=2, sstep=1, name="m", seed=3))
    saved, _ = read_assignments(str(tmp_path / "m.topicAssignments.1"))
    final, _ = read_assignments(str(tmp_path / "m.topicAssignments"))
    assert not np.array_equal(saved, final)
    model = load_pretrained(tmp_path / "m.paras.1")
    state = recount(corpus, saved, 3)
    assert np.array_equal(model.nkw, state.nkw)


def test_load_pretrained_missing_corpus(tmp_path):
    _, paras = train_small_lda(tmp_path, ["a b", "b c"])
    (tmp_path / "corpus.txt").unlink()
    with pytest.raises(ToolError, match="corpus"):
        load_pretrained(paras)


@pytest.mark.parametrize("kind,train", [("LDA", train_lda), ("DMM", train_dmm)])
def test_load_pretrained_refuses_an_inference_model(tmp_path, kind, train):
    corpus = tmp_path / "corpus.txt"
    corpus.write_text("a b a\nc b\n")
    train(load_corpus(corpus), Hyperparams(model=kind, ntopics=2, niters=2, name="m", seed=7))
    infer(load_pretrained(tmp_path / "m.paras"), str(corpus),
          Hyperparams(model=kind + "inf", niters=1, name="inf", seed=1))
    before = sorted(tmp_path.iterdir())
    inf_paras = tmp_path / "inf.paras"
    with pytest.raises(ToolError, match=f"^paras file {re.escape(str(inf_paras))} is from model "
                                        f"{kind}inf, expected LDA or DMM$"):
        load_pretrained(inf_paras)
    assert sorted(tmp_path.iterdir()) == before


def test_load_pretrained_finds_corpus_next_to_paras_not_in_cwd(tmp_path, monkeypatch):
    # The model is trained from A/ on data/c.txt, then data/ moves to B/; the
    # working directory C/ holds another data/c.txt with as many documents.
    for folder, text in (("A", "a b\nc a\n"), ("C", "x y\nz q\n")):
        (tmp_path / folder / "data").mkdir(parents=True)
        (tmp_path / folder / "data" / "c.txt").write_text(text)
    monkeypatch.chdir(tmp_path / "A")
    hp = Hyperparams(model="DMM", ntopics=2, beta=0.1, niters=2, name="m", seed=1)
    train_dmm(load_corpus("data/c.txt"), hp)
    (tmp_path / "B").mkdir()
    (tmp_path / "A" / "data").rename(tmp_path / "B" / "data")
    monkeypatch.chdir(tmp_path / "C")
    model = load_pretrained(tmp_path / "B" / "data" / "m.paras")
    assert model.vocab == ("a", "b", "c")


def test_load_pretrained_assignment_mismatch(tmp_path):
    _, paras = train_small_lda(tmp_path, ["a b", "b c"])
    for text, error in [("0 1\n", "assignment count 1 != document count 2"),
                        ("0 1\n1\n", "assignment length mismatch at document 2"),
                        ("0\n1 1 0\n", "assignment length mismatch at document 1")]:
        (tmp_path / "m.topicAssignments").write_text(text)
        with pytest.raises(ToolError, match=error):
            load_pretrained(paras)
    # DMM: exactly one topic per document
    path = tmp_path / "corpus.txt"
    hp = Hyperparams(model="DMM", ntopics=2, beta=0.1, niters=1, name="dm", seed=5)
    train_dmm(load_corpus(path), hp)
    (tmp_path / "dm.topicAssignments").write_text("0\n1 0\n")
    with pytest.raises(ToolError, match="assignment length mismatch at document 2"):
        load_pretrained(tmp_path / "dm.paras")


@pytest.mark.parametrize("topic", [-1, 2])
def test_load_pretrained_lda_topic_out_of_range(tmp_path, topic):
    _, paras = train_small_lda(tmp_path, ["a b", "b c"], ntopics=2)
    path = tmp_path / "m.topicAssignments"
    for text, line in ((f"{topic} 0\n1 0\n", 1), (f"0 1\n1 {topic}\n", 2)):
        path.write_text(text)
        with pytest.raises(ToolError, match=f"^topic id {topic} out of range \\[0, 2\\) at line "
                                            f"{line} in {re.escape(str(path))}$"):
            load_pretrained(paras)
    # DMM: one topic per document, so the line is the document
    hp = Hyperparams(model="DMM", ntopics=2, beta=0.1, niters=1, name="dm", seed=5)
    train_dmm(load_corpus(tmp_path / "corpus.txt"), hp)
    path = tmp_path / "dm.topicAssignments"
    path.write_text(f"0\n{topic}\n")
    with pytest.raises(ToolError, match=f"^topic id {topic} out of range \\[0, 2\\) at line 2 "
                                        f"in {re.escape(str(path))}$"):
        load_pretrained(tmp_path / "dm.paras")


@pytest.mark.parametrize("key, value, error", [
    ("ntopics", "0", r"ntopics must be in \[1, 2\*\*63\), got 0"),
    ("alpha", "-1.0", r"alpha must be finite and > 0, got -1.0"),
    ("name", "../x", r"name must be a plain file name, got '\.\./x'"),
    ("seed", "-1", r"seed must be >= 0, got -1"),
], ids=["ntopics", "alpha", "name", "seed"])
def test_load_pretrained_names_the_paras_file_of_a_bad_value(tmp_path, capsys, key, value,
                                                              error):
    _, paras = train_small_lda(tmp_path, ["a b", "b c"])
    paras.write_text(re.sub(f"(?m)^{key}=.*$", f"{key}={value}", paras.read_text()))
    unseen = tmp_path / "unseen.txt"
    unseen.write_text("a c\n")
    before = sorted(tmp_path.iterdir())
    capsys.readouterr()
    assert main(["-model", "LDAinf", "-paras", str(paras), "-corpus", str(unseen),
                 "-name", "inf"]) == 1
    assert re.fullmatch(f"error: bad value in paras file {re.escape(str(paras))}: {error}\n",
                        capsys.readouterr().err)
    assert sorted(tmp_path.iterdir()) == before


def test_oov_tokens_dropped(tmp_path):
    _, paras = train_small_lda(tmp_path, ["a b a", "c b"])
    model = load_pretrained(paras)
    unseen = tmp_path / "unseen.txt"
    unseen.write_text("a zzz b\nqqq qqq\n")
    folded = fold_corpus(model, unseen)
    assert [len(d) for d in folded.docs] == [2, 0]
    assert [d.tolist() for d in folded.docs] == [[0, 1], []]  # training ids
    assert all(d.dtype == np.int64 for d in folded.docs)


def test_all_oov_document_gets_uniform_theta(tmp_path):
    _, paras = train_small_lda(tmp_path, ["a b a", "c b"], ntopics=4)
    model = load_pretrained(paras)
    unseen = tmp_path / "unseen.txt"
    unseen.write_text("a c\nzzz qqq\n")
    state = infer(model, unseen, Hyperparams(model="LDAinf", niters=20, twords=10,
        name="inf", seed=3))
    hp = Hyperparams(model="LDAinf", ntopics=4, alpha=model.hp.alpha, beta=model.hp.beta)
    theta = estimate_theta_lda(fold_corpus(model, unseen), state, hp)
    assert np.allclose(theta[1], 0.25, atol=1e-12)


def test_all_oov_document_gets_cluster_prior_theta_dmm(tmp_path):
    # DMMinf: an emptied document adds no word or length term, so its theta
    # row is the leave-one-out cluster prior (m_k + alpha) / (D - 1 + K*alpha),
    # m_k counting the other unseen documents in cluster k.
    path = tmp_path / "corpus.txt"
    path.write_text("a b b\nc c a\nb a\n")
    train_dmm(load_corpus(path), Hyperparams(model="DMM", ntopics=3, alpha=0.1, beta=0.1,
                                             niters=5, name="dm", seed=5))
    model = load_pretrained(tmp_path / "dm.paras")
    unseen = tmp_path / "unseen.txt"
    unseen.write_text("zzz\nqqq qqq\n")
    hp = Hyperparams(model="DMMinf", niters=20, name="inf", seed=3)
    state = infer(model, unseen, hp)
    _, chain_theta = dmm_chain(fold_corpus(model, unseen), state, hp, make_rng(3)[0])
    theta = chain_theta()
    for d in range(2):
        m = np.bincount(state.z, minlength=3) - np.eye(3, dtype=np.int64)[state.z[d]]
        assert np.allclose(theta[d], (m + 0.1) / (2 - 1 + 3 * 0.1), rtol=1e-12, atol=0)
    rows = [sorted(line.split()) for line in (tmp_path / "inf.theta").read_text().splitlines()]
    assert rows == [["0.0769231", "0.0769231", "0.846154"]] * 2


def test_frozen_counts_not_mutated(tmp_path):
    _, paras = train_small_lda(tmp_path, ["a b a", "c b", "a a c"])
    model = load_pretrained(paras)
    frozen_nkw = model.nkw.copy()
    unseen = tmp_path / "unseen.txt"
    unseen.write_text("a c b\nb b\n")
    state = infer(model, unseen, Hyperparams(model="LDAinf", niters=25, twords=10,
        name="inf", seed=9))
    assert np.array_equal(model.nkw, frozen_nkw)
    # state tables = frozen + new-corpus contributions, conserving totals
    new_tokens = 5
    assert state.nk.sum() == frozen_nkw.sum() + new_tokens
    folded = fold_corpus(model, unseen)
    recount = frozen_nkw.copy()
    np.add.at(recount, (state.z, folded.words), 1)
    assert np.array_equal(recount, state.nkw)


MALFORMED_FROZEN = {  # each breaks one rule: a nonnegative integer K x V table
    "one topic's row": lambda nkw: nkw[:1],  # would be added to every topic
    "five words": lambda nkw: nkw[:, :5],
    "float64 nkw": lambda nkw: nkw.astype(np.float64),
    "negative counts": lambda nkw: nkw - 1,  # 12 tokens, 24 cells
}


@pytest.mark.parametrize("case", MALFORMED_FROZEN)
@pytest.mark.parametrize("kind, train", [("LDA", train_lda), ("DMM", train_dmm)])
def test_malformed_frozen_counts_refused_before_any_write(tmp_path, kind, train, case):
    # run_chain adds the frozen tables to the chain's, where NumPy would
    # broadcast a wrong shape; a refusal names the .paras file they came from.
    path = tmp_path / "corpus.txt"
    path.write_text("a b c d\ne f g a\nb c h h\n")
    train(load_corpus(path), Hyperparams(model=kind, ntopics=3, niters=2, name="m", seed=5))
    model = load_pretrained(tmp_path / "m.paras")
    nkw = MALFORMED_FROZEN[case](model.nkw)
    unseen = tmp_path / "unseen.txt"
    unseen.write_text("a b\nzzz c\n")
    before = sorted(p.name for p in tmp_path.iterdir())
    with pytest.raises(ToolError, match=f"^trained counts of {re.escape(model.paras_path)} "):
        infer(replace(model, nkw=nkw), unseen,
              Hyperparams(model=kind + "inf", niters=2, name="inf", seed=6))
    assert sorted(p.name for p in tmp_path.iterdir()) == before


def test_assignment_count_equals_in_vocab_tokens(tmp_path):
    _, paras = train_small_lda(tmp_path, ["a b", "c a"])
    model = load_pretrained(paras)
    unseen = tmp_path / "unseen.txt"
    unseen.write_text("a xx b\nc yy zz\n")
    infer(model, unseen, Hyperparams(model="LDAinf", niters=10, twords=5,
        name="inf", seed=4))
    lines = (tmp_path / "inf.topicAssignments").read_text().splitlines()
    assert [len(line.split()) for line in lines] == [2, 1]


@pytest.mark.parametrize("name", [5, None, ["x"]])
def test_infer_checks_hp_before_any_path(tmp_path, name):
    # A name that is not a string is refused as such, before it can reach
    # os.path.join, and nothing is written.
    _, paras = train_small_lda(tmp_path, ["a b", "b c"])
    model = load_pretrained(paras)
    unseen = tmp_path / "unseen.txt"
    unseen.write_text("a b\n")
    before = sorted(p.name for p in tmp_path.iterdir())
    with pytest.raises(ToolError, match=r"name must be a string, got"):
        infer(model, unseen, Hyperparams(model="LDAinf", niters=1, name=name))
    assert sorted(p.name for p in tmp_path.iterdir()) == before


def test_dmm_inference_outputs(tmp_path):
    path = tmp_path / "corpus.txt"
    path.write_text("a b b\nc c a\nb a\n")
    corpus = load_corpus(path)
    hp = Hyperparams(model="DMM", ntopics=2, beta=0.1, niters=20, name="dm", seed=5)
    train_dmm(corpus, hp)
    model = load_pretrained(tmp_path / "dm.paras")
    unseen = tmp_path / "unseen.txt"
    unseen.write_text("a b\nc\n")
    infer(model, unseen, Hyperparams(model="DMMinf", niters=20, twords=5,
        name="dminf", seed=8))
    for suffix in ("theta", "phi", "topWords", "topicAssignments", "paras"):
        assert (tmp_path / f"dminf.{suffix}").is_file()
    lines = (tmp_path / "dminf.topicAssignments").read_text().splitlines()
    assert len(lines) == 2 and all(line.isdigit() for line in lines)
    theta = [[float(v) for v in line.split()]
             for line in (tmp_path / "dminf.theta").read_text().splitlines()]
    assert len(theta) == 2
    assert all(abs(sum(row) - 1.0) < 1e-5 for row in theta)


def test_inference_recovers_topics_on_separated_corpus(tmp_path):
    gen = np.random.Generator(np.random.PCG64(31))
    train_lines, train_topics = two_topic_lines(gen, 60, 8)
    corpus, paras = train_small_lda(tmp_path, train_lines, ntopics=2, niters=150, seed=17)
    model = load_pretrained(paras)

    # map trained topic ids to generator topics via training-time argmax
    train_theta = [[float(v) for v in line.split()]
                   for line in (tmp_path / "m.theta").read_text().splitlines()]
    votes = {0: [0, 0], 1: [0, 0]}
    for row, t in zip(train_theta, train_topics):
        votes[int(np.argmax(row))][t] += 1
    mapping = {k: int(np.argmax(v)) for k, v in votes.items()}
    assert mapping[0] != mapping[1]

    heldout_lines, heldout_topics = two_topic_lines(gen, 30, 8)
    unseen = tmp_path / "unseen.txt"
    unseen.write_text("\n".join(heldout_lines) + "\n")
    infer(model, unseen, Hyperparams(model="LDAinf", niters=100, twords=5,
        name="inf", seed=23))
    inf_theta = [[float(v) for v in line.split()]
                 for line in (tmp_path / "inf.theta").read_text().splitlines()]
    hits = sum(mapping[int(np.argmax(row))] == t for row, t in zip(inf_theta, heldout_topics))
    assert hits / len(heldout_topics) >= 0.9


def folded_posterior(kind, corpus, frozen_nkw, hp):
    """The exact folding-in posterior p(z | w, frozen counts), enumerated:
    the collapsed joint of the new documents (for LDA the D x K counts of z,
    for DMM mk) with the word term over frozen plus new counts, up to
    constants."""
    lgamma = np.vectorize(math.lgamma)
    recount = recount_lda if kind == "LDA" else recount_dmm
    n = corpus.n_tokens if kind == "LDA" else corpus.n_docs
    doc_of = np.arange(corpus.n_docs).repeat(np.diff(corpus.offsets))
    scores = {}
    for z in itertools.product(range(hp.ntopics), repeat=n):
        new = recount(corpus, np.array(z), hp.ntopics)
        total = new.nkw + frozen_nkw
        docs = (np.bincount(doc_of * hp.ntopics + z, minlength=corpus.n_docs * hp.ntopics)
                .reshape(corpus.n_docs, hp.ntopics) if kind == "LDA" else new.mk)
        scores[z] = (lgamma(docs + hp.alpha).sum()
                     + lgamma(total + hp.beta).sum()
                     - lgamma(total.sum(axis=1) + len(corpus.vocab) * hp.beta).sum())
    mx = max(scores.values())
    weights = {z: math.exp(v - mx) for z, v in scores.items()}
    total = sum(weights.values())
    return {z: w / total for z, w in weights.items()}


@pytest.mark.parametrize("kind, unseen_text, seed", [
    ("LDA", "a b\nc a\n", 11),             # 4 tokens: 81 states
    ("DMM", "a b\nb c c\na\nc a\n", 21),  # 4 documents: 81 states
], ids=["LDA", "DMM"])
def test_folding_in_matches_exact_posterior(tmp_path, kind, unseen_text, seed):
    # LDAinf and DMMinf sample the new documents against the frozen training
    # counts; their sweeps must reach the enumerated posterior at K=3, as
    # criteria 2 and 3 do for training.
    path = tmp_path / "corpus.txt"
    path.write_text("a a b\nb b c\nc c a\na a\nb c c\n")
    train = train_lda if kind == "LDA" else train_dmm
    train(load_corpus(path), Hyperparams(model=kind, ntopics=3, alpha=0.5, beta=0.5, niters=20,
                                         name="m", seed=seed))
    model = load_pretrained(tmp_path / "m.paras")
    unseen = tmp_path / "unseen.txt"
    unseen.write_text(unseen_text)
    # One iteration through infer, so run_chain itself adds the frozen counts.
    hp = Hyperparams(model=kind + "inf", niters=1, name="inf", seed=seed + 1)
    state = infer(model, unseen, hp)
    corpus = fold_corpus(model, unseen)
    exact = folded_posterior(kind, corpus, model.nkw, hp)
    # A chain that dropped the frozen counts would sample this one instead.
    assert tv_distance(folded_posterior(kind, corpus, 0 * model.nkw, hp), exact) >= 0.2

    rng, _ = make_rng(seed + 2)
    if kind == "LDA":
        def sweep():
            lda_sweep(corpus, state, hp, rng)
    else:
        sweep, _ = dmm_chain(corpus, state, hp, rng)
    for _ in range(200):
        sweep()
    n_samples, tally = 15000, Counter()
    for _ in range(n_samples):
        sweep()
        tally[tuple(state.z.tolist())] += 1
    tv = tv_distance({z: c / n_samples for z, c in tally.items()}, exact)
    assert tv < 0.05, f"TV distance {tv:.4f}"
