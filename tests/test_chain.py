"""chain.run_chain sets up every chain: the model kind and the seed are read
from hp alone, so a trainer or infer call cannot write artifacts of one kind
or seed while sampling another."""

import re
import shutil
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from gibbstopics import Hyperparams, ToolError, infer, load_corpus, load_pretrained
from gibbstopics import train_dmm, train_lda
from gibbstopics.cli import main
from gibbstopics.core import make_rng
from gibbstopics.dmm import dmm_chain, init_dmm
from gibbstopics.lda import init_lda, lda_chain
from gibbstopics.persistence import read_paras

from conftest import ANY_VALUE

SAMPLE_CORPUS = Path(__file__).resolve().parent.parent / "sample_data" / "corpus.txt"


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


@pytest.mark.parametrize("train,prior", [
    (train_lda, {"beta": 2**63 - 1}), (train_lda, {"alpha": 2**62}),
    (train_dmm, {"alpha": 2**63 - 1}), (train_dmm, {"beta": 2**63 - 1}),
], ids=["LDA beta 2**63-1", "LDA alpha 2**62", "DMM alpha 2**63-1", "DMM beta 2**63-1"])
def test_integer_priors_run_as_floats(tmp_path, train, prior):
    # An int prior at int64's limit, where NumPy's integer arithmetic fails, runs
    # as its float: the value every layer computes with and .paras stores.
    model = "LDA" if train is train_lda else "DMM"
    hp = Hyperparams(model=model, ntopics=3, niters=2, seed=1, name="run", **prior)
    train(load_corpus(write_corpus(tmp_path)), hp)
    assert len(list(tmp_path.glob("run.*"))) == 5
    paras = read_paras(tmp_path / "run.paras").hp
    for field in ("alpha", "beta"):
        value = float(prior.get(field, getattr(Hyperparams, field)))
        assert getattr(hp, field) == getattr(paras, field) == value
        assert f"{field}={value!r}\n" in (tmp_path / "run.paras").read_text()


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
    shutil.copy(SAMPLE_CORPUS, tmp_path)
    assert main(["-model", model, "-corpus", str(tmp_path / "corpus.txt"), "-ntopics", "3",
                 "-niters", "3", "-seed", "1", *flags]) == (0 if runs else 1)
    if runs:
        assert len(list(tmp_path.glob("model.*"))) == 5
    else:
        assert re.fullmatch(rf"error: alpha \S+ and beta \S+ give model {model} a weight "
                            r"that is not finite and positive\n", capsys.readouterr().err)
        assert [p.name for p in tmp_path.iterdir()] == ["corpus.txt"]


BUILDER_PRIORS = {  # -model, alpha and beta that leave a kernel weight outside the doubles
    "LDA K*alpha overflows": ("LDA", 1e308, 0.01),
    "DMM K*alpha overflows": ("DMM", 1e308, 0.1),
    "LDA V*beta overflows": ("LDA", 0.1, 1e308),
    "DMM V*beta overflows": ("DMM", 0.1, 1e308),
    "LDA least weight is 0": ("LDA", 1e-170, 1e-170),
}


@pytest.mark.parametrize("case", BUILDER_PRIORS)
def test_chain_builders_refuse_priors_before_touching_state_or_rng(tmp_path, case):
    # lda_chain and dmm_chain refuse the priors themselves, so a library chain
    # built without run_chain cannot reach the kernel with them either.
    model, alpha, beta = BUILDER_PRIORS[case]
    corpus = load_corpus(write_corpus(tmp_path))
    hp = Hyperparams(model=model, ntopics=3, alpha=alpha, beta=beta)
    rng, _ = make_rng(1)
    init, chain = (init_lda, lda_chain) if model == "LDA" else (init_dmm, dmm_chain)
    state = init(corpus, hp, rng)
    tables = {name: getattr(state, name).copy() for name in ("z", "nkw", "nk", "mk")
              if getattr(state, name) is not None}
    generator = rng.bit_generator.state
    message = f"alpha {alpha} and beta {beta} give model {model} a weight that is not finite"
    with pytest.raises(ToolError, match=f"^{re.escape(message)} and positive$"):
        chain(corpus, state, hp, rng)
    assert rng.bit_generator.state == generator
    for name, table in tables.items():
        assert np.array_equal(getattr(state, name), table), name


@pytest.mark.parametrize("train", [train_lda, train_dmm])
@pytest.mark.parametrize("field", ["seed", "twords", "sstep"])
def test_field_paras_cannot_store_refused_before_any_write(tmp_path, train, field):
    model = "LDA" if train is train_lda else "DMM"
    hp = Hyperparams(model=model, ntopics=2, niters=1, name="run", **{field: 10**5000})
    with pytest.raises(ToolError, match=rf"^{field} must be in \[0, (2|10)\*\*"):
        train(load_corpus(write_corpus(tmp_path)), hp)
    assert [p.name for p in tmp_path.iterdir()] == ["corpus.txt"]


@pytest.mark.parametrize("train", [train_lda, train_dmm])
@settings(suppress_health_check=[HealthCheck.function_scoped_fixture], deadline=None)
@given(ntopics=st.integers(1, 8) | st.integers(min_value=2**63),
       fields=st.dictionaries(st.sampled_from(["alpha", "beta", "twords", "sstep", "seed"]),
                              ANY_VALUE, max_size=3))
def test_training_completes_or_refuses_before_any_write(tmp_path, train, ntopics, fields):
    # ntopics of 9 to 2**63 - 1 is left out: such a count table may be too
    # large to allocate, or take a while.
    model = "LDA" if train is train_lda else "DMM"
    hp = Hyperparams(model=model, ntopics=ntopics, niters=1, name="run", **fields)
    with tempfile.TemporaryDirectory(dir=tmp_path) as folder:
        corpus = load_corpus(write_corpus(Path(folder)))
        try:
            train(corpus, hp)
        except ToolError:
            assert [p.name for p in Path(folder).iterdir()] == ["corpus.txt"]
        else:
            assert len(list(Path(folder).glob("run.*"))) == 5


CLOBBERS = {  # the corpus's file name, the -name and flags of a run that would replace it
    "LDA run.theta": ("run.theta", "run", ["-model", "LDA", "-ntopics", "2"]),
    "DMM run.phi.2": ("run.phi.2", "run", ["-model", "DMM", "-ntopics", "2", "-niters", "4",
                                           "-sstep", "2"]),
    "LDAinf inf.topicAssignments": ("inf.topicAssignments", "inf",
                                    ["-model", "LDAinf", "-paras", "{dir}/model.paras"]),
}


@pytest.mark.parametrize("case", CLOBBERS)
@pytest.mark.parametrize("link", [False, True], ids=["given", "through a link"])
def test_run_that_would_replace_its_corpus_refused(tmp_path, capsys, case, link):
    file_name, name, flags = CLOBBERS[case]
    shutil.copy(SAMPLE_CORPUS, tmp_path)
    assert main(["-model", "LDA", "-corpus", str(tmp_path / "corpus.txt"), "-ntopics", "2",
                 "-niters", "1", "-seed", "1"]) == 0
    shutil.copy(SAMPLE_CORPUS, tmp_path / file_name)
    corpus = tmp_path / file_name
    if link:
        corpus = tmp_path / "link.txt"
        corpus.symlink_to(file_name)
    before = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
    capsys.readouterr()
    args = [a.replace("{dir}", str(tmp_path)) for a in flags]
    assert main([*args, "-corpus", str(corpus), "-name", name, "-seed", "1"]) == 1
    assert capsys.readouterr().err == (f"error: -name {name} would overwrite the corpus "
                                       f"{corpus}; choose another -name\n")
    assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == before


@pytest.mark.parametrize("file_name", ["run.phi.3", "run.phi.4", "run.phi.02", "run2.phi"])
def test_corpus_named_like_a_file_the_run_does_not_write_runs(tmp_path, file_name):
    # Save points are written at 2 only: at 4, the last iteration, the names
    # carry no number.
    shutil.copy(SAMPLE_CORPUS, tmp_path / file_name)
    assert main(["-model", "DMM", "-corpus", str(tmp_path / file_name), "-name", "run",
                 "-ntopics", "2", "-niters", "4", "-sstep", "2", "-seed", "1"]) == 0
    assert (tmp_path / file_name).read_bytes() == SAMPLE_CORPUS.read_bytes()
    assert len(list(tmp_path.glob("run.*"))) == 10 + (file_name.startswith("run."))
