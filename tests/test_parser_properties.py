"""Property tests of the input parsers: .paras round-trips every valid
Hyperparams exactly, and no input bytes make a reader fail with anything but
a ToolError."""

import os

import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from gibbstopics.core import MODEL_KINDS, Hyperparams, ToolError
from gibbstopics.corpus import load_corpus, load_labels
from gibbstopics.persistence import ParasRecord, read_assignments, read_matrix, read_paras, write_paras

# tmp_path is shared by a test's examples; each example rewrites its one file
tmp_path_ok = settings(suppress_health_check=[HealthCheck.function_scoped_fixture])

priors = st.floats(min_value=0, exclude_min=True, allow_infinity=False) | st.sampled_from(
    [1e-300, 5e-324, 0.1, 0.30000000000000004, 1.0, 1e300])

hyperparams = st.builds(
    Hyperparams,
    model=st.sampled_from(MODEL_KINDS),
    ntopics=st.integers(1, 10**6),
    alpha=priors,
    beta=priors,
    niters=st.integers(1, 10**9),
    twords=st.integers(0, 10**6),
    name=st.text(min_size=1),
    sstep=st.integers(0, 10**9),
    seed=st.none() | st.sampled_from([0, 2**63, 2**128]) | st.integers(min_value=0),
)


@tmp_path_ok
@given(hp=hyperparams)
def test_paras_round_trip_exact(tmp_path, hp):
    try:
        hp.validate()
    except ToolError:
        assume(False)
    path = str(tmp_path / "m.paras")
    write_paras(hp, "c.txt", path)
    assert read_paras(path) == ParasRecord(hp, "c.txt", os.path.abspath("c.txt"))


def _paras_bytes():
    return ("".join(f"{k}={v}\n" for k, v in [
        ("model", "LDA"), ("corpus", "c.txt"), ("corpus_abs", "/d/c.txt"), ("ntopics", 2),
        ("alpha", 0.1), ("beta", 0.01), ("niters", 5), ("twords", 3), ("name", "m"),
        ("sstep", 0), ("seed", 1)])).encode()


# each reader with a valid input of its format, which the fuzzer mutates
READERS = {
    "corpus": (load_corpus, b"a b a\nc b\n"),
    "labels": (load_labels, b"X\nY\n"),
    "matrix": (read_matrix, b"0.5 0.5\n0.25 0.75\n"),
    "lda_assignments": (read_assignments, b"0 1 0\n1 1\n"),
    "dmm_assignments": (read_assignments, b"0\n1\n"),
    "paras": (lambda path: read_paras(path).hp.validate(), _paras_bytes()),
}


def _mutations(valid: bytes):
    """valid with a span of up to 8 bytes replaced by up to 8 arbitrary bytes"""
    return st.tuples(st.integers(0, len(valid)), st.integers(0, 8), st.binary(max_size=8)).map(
        lambda t: valid[:t[0]] + t[2] + valid[t[0] + t[1]:])


@pytest.mark.parametrize("reader", sorted(READERS))
@tmp_path_ok
@given(data=st.data())
def test_reader_returns_or_raises_tool_error(tmp_path, reader, data):
    read, valid = READERS[reader]
    path = tmp_path / "input"
    path.write_bytes(data.draw(st.binary(max_size=64) | _mutations(valid), label="bytes"))
    try:
        read(str(path))
    except ToolError:
        pass
