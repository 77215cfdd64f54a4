"""chain.run_chain sets up every chain: the model kind and the seed are read
from hp alone, so a trainer or infer call cannot write artifacts of one kind
or seed while sampling another."""

import re
import shutil
from pathlib import Path

import pytest

from gibbstopics import Hyperparams, ToolError, infer, load_corpus, load_pretrained
from gibbstopics import train_dmm, train_lda
from gibbstopics.chain import run_chain
from gibbstopics.cli import main


def write_corpus(tmp_path):
    path = tmp_path / "corpus.txt"
    path.write_text("a b c\nb\nc a a\n")
    return path


@pytest.mark.parametrize("train,kind", [(train_lda, "DMM"), (train_dmm, "LDA"),
                                        (train_lda, "LDAinf"), (train_dmm, "DMMinf")])
def test_trainer_refuses_another_model_kind(tmp_path, train, kind):
    # An LDA chain's .topicAssignments under model=DMM (or the reverse) is
    # refused by the replay of LDAinf/DMMinf, so nothing may be written.
    corpus = load_corpus(write_corpus(tmp_path))
    with pytest.raises(ToolError, match=f"hp.model is '{kind}'"):
        train(corpus, Hyperparams(model=kind, ntopics=2, niters=1, seed=1))
    assert [p.name for p in tmp_path.iterdir()] == ["corpus.txt"]


def test_run_chain_takes_trained_counts_only_when_folding_in(tmp_path):
    corpus_path = write_corpus(tmp_path)
    assert main(["-model", "LDA", "-corpus", str(corpus_path), "-ntopics", "2",
                 "-niters", "1", "-seed", "1"]) == 0
    model = load_pretrained(tmp_path / "model.paras")
    before = set(tmp_path.iterdir())
    corpus = load_corpus(corpus_path)
    with pytest.raises(ToolError, match="model LDA takes no trained model counts"):
        run_chain(corpus, Hyperparams(model="LDA", ntopics=2, niters=1, name="x"), model)
    with pytest.raises(ToolError, match="model LDAinf needs trained model counts"):
        run_chain(corpus, Hyperparams(model="LDAinf", ntopics=2, niters=1, name="x"))
    assert set(tmp_path.iterdir()) == before


@pytest.mark.parametrize("kind", ["DMMinf", "LDA", "DMM"])
def test_infer_refuses_another_model_kind(tmp_path, kind):
    corpus_path = write_corpus(tmp_path)
    assert main(["-model", "LDA", "-corpus", str(corpus_path), "-ntopics", "2",
                 "-niters", "1", "-seed", "1"]) == 0
    model = load_pretrained(tmp_path / "model.paras")
    before = set(tmp_path.iterdir())
    with pytest.raises(ToolError, match=f"is from a LDA model, but -model {kind} was requested"):
        infer(model, corpus_path, Hyperparams(model=kind, niters=1, name="x", seed=1))
    assert set(tmp_path.iterdir()) == before


@pytest.mark.parametrize("model", ["LDA", "DMM", "LDAinf", "DMMinf"])
def test_drawn_seed_is_recorded_and_replays(tmp_path, model, capsys):
    # A library run without a seed draws one, stores it in hp and .paras, and
    # the CLI given that -seed writes the same five artifacts byte for byte.
    corpus = write_corpus(tmp_path)
    args = ["-model", model, "-corpus", str(corpus), "-name", "t", "-niters", "5"]
    hp = Hyperparams(model=model, niters=5, name="t")
    if model.endswith("inf"):
        assert main(["-model", model[:3], "-corpus", str(corpus), "-ntopics", "2",
                     "-niters", "5", "-seed", "1"]) == 0
        paras = str(tmp_path / "model.paras")
        args += ["-paras", paras]
        infer(load_pretrained(paras), str(corpus), hp)
    else:
        hp.ntopics = 2
        args += ["-ntopics", "2"]
        (train_lda if model == "LDA" else train_dmm)(load_corpus(str(corpus)), hp)
    assert isinstance(hp.seed, int)
    artifacts = {p.name: p.read_bytes() for p in tmp_path.glob("t.*")}
    assert len(artifacts) == 5
    assert f"seed={hp.seed}\n".encode() in artifacts["t.paras"]
    assert f"{model} done: 5 iterations" in capsys.readouterr().out
    assert main([*args, "-seed", str(hp.seed)]) == 0
    assert {p.name: p.read_bytes() for p in tmp_path.glob("t.*")} == artifacts


PRIORS = {  # -model, the prior flags, and whether every weight stays finite and positive
    "LDA alpha 1e308": ("LDA", ["-alpha", "1e308"], False),
    "DMM alpha 1e308": ("DMM", ["-alpha", "1e308"], False),
    "LDA beta 1e308": ("LDA", ["-beta", "1e308"], False),
    "DMM beta 1e308": ("DMM", ["-beta", "1e308"], False),
    "LDA both 1e-170": ("LDA", ["-alpha", "1e-170", "-beta", "1e-170"], False),  # empty topic: 0
    "LDA alpha 1e-300": ("LDA", ["-alpha", "1e-300"], True),
    "DMM alpha 1e-300": ("DMM", ["-alpha", "1e-300"], True),
    "LDA alpha 1e200": ("LDA", ["-alpha", "1e200"], True),
    "DMM alpha 1e200": ("DMM", ["-alpha", "1e200"], True),
    "LDA beta 1e300": ("LDA", ["-beta", "1e300"], True),
    "DMM beta 1e300": ("DMM", ["-beta", "1e300"], True),
    "DMM both 1e-200": ("DMM", ["-alpha", "1e-200", "-beta", "1e-200"], True),  # log weights
}


@pytest.mark.parametrize("case", PRIORS)
def test_priors_whose_weights_leave_the_doubles_refused_before_any_write(tmp_path, case, capsys):
    # Valid alpha and beta can still give a kernel a weight that overflows or
    # underflows: that is refused up front, not reported by the kernel as
    # corrupt count bookkeeping, and priors short of that still run.
    model, flags, runs = PRIORS[case]
    shutil.copy(Path(__file__).resolve().parent.parent / "sample_data" / "corpus.txt", tmp_path)
    assert main(["-model", model, "-corpus", str(tmp_path / "corpus.txt"), "-ntopics", "3",
                 "-niters", "3", "-seed", "1", *flags]) == (0 if runs else 1)
    if runs:
        assert len(list(tmp_path.glob("model.*"))) == 5
    else:
        assert re.fullmatch(rf"error: alpha \S+ and beta \S+ give model {model} a weight "
                            r"that is not finite and positive\n", capsys.readouterr().err)
        assert [p.name for p in tmp_path.iterdir()] == ["corpus.txt"]
