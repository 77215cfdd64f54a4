import io
import os
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from gibbstopics import native
from gibbstopics.core import Hyperparams, ToolError
from gibbstopics.persistence import (
    load_corpus,
    load_labels,
    read_assignments,
    read_matrix,
    read_paras,
    write_assignments,
    write_matrix,
    write_paras,
    write_top_words,
)

from oracles import INLINE_WHITESPACE


def make_vocab(words):
    return tuple(words)


def test_theta_format(tmp_path):
    path = str(tmp_path / "m.theta")
    write_matrix([[0.5, 0.5]], path)
    assert Path(path).read_text() == "0.5 0.5\n"


def test_matrix_shape(tmp_path):
    path = str(tmp_path / "m.theta")
    write_matrix(np.full((3, 2), 0.5), path)
    lines = Path(path).read_text().splitlines()
    assert len(lines) == 3
    assert all(len(line.split()) == 2 for line in lines)


def test_matrix_round_trip(tmp_path):
    path = str(tmp_path / "m.phi")
    matrix = np.array([[0.123456789, 0.876543211], [0.25, 0.75]])
    write_matrix(matrix, path)
    back = read_matrix(path)
    assert np.allclose(np.vstack(back), matrix, atol=1e-6)


def savetxt_bytes(matrix) -> bytes:
    """The reference: what np.savetxt(fmt="%.6g") writes for the matrix."""
    buf = io.StringIO()
    np.savetxt(buf, np.asarray(matrix, dtype=np.float64), fmt="%.6g")
    return buf.getvalue().encode()


@pytest.mark.parametrize("values,text", [
    # fixed style: decimal exponent -4 to 5, trailing zeros stripped
    ([0.5, 0.25, 123456.0, 0.000123457, 12345.65], "0.5 0.25 123456 0.000123457 12345.6"),
    # exponent style: below -4 or from 6, at least two exponent digits
    ([1e-5, 1234567.0, 2.5e-10, 1e-16], "1e-05 1.23457e+06 2.5e-10 1e-16"),
    # rounding carries into the next decade, across the style switches too
    ([999999.7, 0.09999996, 9.9999996e-5], "1e+06 0.1 0.0001"),
    # snprintf: ties round half to even, near-ties by their exact value;
    # zeros. Then the smallest subnormal and a huge value, scaled in steps
    ([123457.5, 1234565.0, 0.1000005, 0.0, -0.0, 5e-324, 1e300],
     "123458 1.23456e+06 0.100001 0 -0 4.94066e-324 1e+300"),
    # three exponent digits from 100, the extremes of the normal doubles
    # included, and a carry from 99 to 100
    ([1e-100, 1.234567e100, 2.2250738585072014e-308, 1.7976931348623157e308, 9.9999996e99],
     "1e-100 1.23457e+100 2.22507e-308 1.79769e+308 1e+100"),
])
def test_matrix_format_branches(tmp_path, values, text):
    path = tmp_path / "m.theta"
    write_matrix([values], str(path))
    assert path.read_bytes() == savetxt_bytes([values]) == (text + "\n").encode()


def _near(x: float):
    """x and its neighbouring doubles one ulp down and up"""
    return st.sampled_from([np.nextafter(x, 0.0), x, np.nextafter(x, np.inf)])


matrix_values = st.one_of(
    st.floats(min_value=0.0, allow_nan=False, allow_infinity=False),  # subnormals included
    st.integers(-323, 308).flatmap(lambda e: _near(10.0 ** e)),  # powers of ten
    # decimal near-ties at the seventh digit, such as 0.1234565
    st.tuples(st.integers(10**5, 10**6 - 1), st.integers(-20, 20)).flatmap(
        lambda t: _near(float(f"{t[0]}5e{t[1] - 7}"))),
    # both sides of the style switches at decimal exponents -5/-4 and 6
    st.floats(9e-6, 1.1e-5) | st.floats(9e-5, 1.1e-4) | st.floats(9e5, 1.1e6),
)


@settings(suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_write_matrix_matches_savetxt(tmp_path, data):
    m, n = data.draw(st.integers(1, 8), label="m"), data.draw(st.integers(1, 8), label="n")
    rows, cols = data.draw(st.sampled_from([(1, 1), (1, n), (m, 1), (m, n)]), label="shape")
    matrix = np.array(data.draw(st.lists(matrix_values, min_size=rows * cols,
                                         max_size=rows * cols), label="values")).reshape(rows, cols)
    path = tmp_path / "m.phi"
    write_matrix(matrix, str(path))
    assert path.read_bytes() == savetxt_bytes(matrix)


@pytest.mark.parametrize("matrix", [[[0.5, np.nan]], [[np.inf, 0.5]], [[0.5], [-1e-300]],
                                    [0.5, 0.5]])
def test_write_matrix_refuses_non_finite_negative_or_not_2d(tmp_path, matrix):
    path = tmp_path / "m.theta"
    with pytest.raises(ToolError, match=re.escape(f"cannot write {path}: not a 2-D matrix")):
        write_matrix(matrix, str(path))
    assert list(tmp_path.iterdir()) == []


def test_read_matrix_errors(tmp_path):
    with pytest.raises(ToolError):
        read_matrix(str(tmp_path / "missing"))
    bad = tmp_path / "bad"
    for text, line in [("0.5 oops\n", 1),
                       ("0.5 0.5\nnan 0.5\n", 2),
                       ("0.5 0.5\n0.2 0.3 0.5\n0.5 0.5\n", 2),
                       ("0.5 0.5\n0.5 0.5\n-1 2\n", 3),
                       ("0.5 0.5\n0.5 0.4998\n", 2),
                       ("0.5 0.5\n\n", 2),
                       ("0.5 0.5\n \n", 2),
                       ("0.5 0.5\n\x1d\n", 2),
                       ("0.5 0.5\n0.2_5 0.75\n", 2),  # float() reads "_" as a digit separator
                       ("0.5 0.5\n\u0660.5 0.5\n", 2)]:  # and float() of str other digits
        bad.write_text(text)
        with pytest.raises(ToolError, match=f"line {line} in .*bad"):
            read_matrix(str(bad))
    # rounding to 6 significant digits stays within the 1e-4 tolerance
    bad.write_text("0.333333 0.333333 0.333333\n0.49995 0.50004 0\n")
    assert [len(r) for r in read_matrix(str(bad))] == [3, 3]


def test_read_matrix_splits_values_at_ascii_whitespace(tmp_path):
    # Space, tab, VT and FF separate values; str.split()'s other in-line
    # whitespace (\x1c-\x1f, NBSP, U+3000, ...) is no separator np.savetxt
    # writes, so it is refused.
    path = tmp_path / "m.theta"
    for space in INLINE_WHITESPACE:
        path.write_text(f"0.5{space}0.5\n0.25{space * 2}0.75{space}\n", encoding="utf-8")
        if space in " \t\x0b\x0c":
            assert read_matrix(str(path)) == [[0.5, 0.5], [0.25, 0.75]], repr(space)
        else:
            message = re.escape(f"bad numeric row at line 1 in {path}") + "$"
            with pytest.raises(ToolError, match=message):
                read_matrix(str(path))


def test_read_matrix_reports_parse_then_ragged_then_distribution(tmp_path):
    # Line 2 is not a distribution, line 3 is ragged, line 4 is unparsable:
    # each check runs over every line before the next check starts.
    path = tmp_path / "m.theta"
    lines = ["0.5 0.5", "0.5 0.6", "0.2 0.3 0.5", "0.5 x"]
    for n_lines, message in [(4, "bad numeric row at line 4 in {}"),
                             (3, "line 3 in {} has 3 values, line 1 has 2"),
                             (2, "row at line 2 in {} is not a distribution")]:
        path.write_text("\n".join(lines[:n_lines]) + "\n")
        with pytest.raises(ToolError, match="^" + re.escape(message.format(path))):
            read_matrix(str(path))


def test_top_words_block(tmp_path):
    path = str(tmp_path / "m.topWords")
    write_top_words([[0.9, 0.1]], make_vocab(["a", "b"]), 2, path)
    assert Path(path).read_text() == "Topic 0: a b\n"


def test_top_words_zero(tmp_path):
    path = str(tmp_path / "m.topWords")
    write_top_words([[0.5, 0.5], [0.5, 0.5]], make_vocab(["a", "b"]), 0, path)
    assert Path(path).read_text() == "Topic 0:\nTopic 1:\n"


def test_top_words_clamped(tmp_path):
    path = str(tmp_path / "m.topWords")
    write_top_words([[0.4, 0.6]], make_vocab(["a", "b"]), 10, path)
    assert Path(path).read_text() == "Topic 0: b a\n"


def test_top_words_tie_goes_to_lower_word_id(tmp_path):
    path = str(tmp_path / "m.topWords")
    phi = [[0.2, 0.4, 0.4], [0.3, 0.3, 0.4], [0.5, 0.25, 0.25]]
    write_top_words(phi, make_vocab(["c", "b", "a"]), 2, path)
    assert Path(path).read_text() == "Topic 0: b a\nTopic 1: a c\nTopic 2: c b\n"
    # Twenty words on a few levels: an unstable sort reorders these ties.
    rows = np.array([[(7 * i) % 3 + 1 for i in range(20)], [(i * i) % 4 + 1 for i in range(20)]])
    vocab = make_vocab([str(i) for i in range(20)])
    write_top_words(rows / rows.sum(axis=1, keepdims=True), vocab, 15, path)
    ranked = [sorted(range(20), key=lambda i: (-row[i], i))[:15] for row in rows.tolist()]
    assert Path(path).read_text() == "".join(
        f"Topic {k}: {' '.join(map(str, ids))}\n" for k, ids in enumerate(ranked))


@pytest.mark.parametrize("twords", [0, 1, 7, 40, 41])
def test_top_words_match_stable_argsort(tmp_path, twords):
    # Rows full of ties (a few levels, all equal, ascending, descending), with
    # twords from 0 to V = 40 and past it: the words are the first twords of
    # the stable argsort, so a tie at the cut keeps its lower word ids.
    gen = np.random.Generator(np.random.PCG64(5))
    phi = np.vstack([gen.integers(0, 4, size=(6, 40)), np.ones((1, 40)), np.arange(40),
                     np.arange(40)[::-1], np.arange(40) // 3, np.arange(40) % 5]) / 64
    vocab = make_vocab([f"w{i}" for i in range(40)])
    path = tmp_path / "m.topWords"
    write_top_words(phi, vocab, twords, str(path))
    ranked = np.argsort(-phi, axis=1, kind="stable")[:, :twords]
    assert path.read_text() == "".join(f"Topic {k}:" + "".join(" " + vocab[i] for i in row) + "\n"
                                       for k, row in enumerate(ranked.tolist()))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_top_words_refuse_non_finite_phi(tmp_path, bad):
    # A NaN has no rank (argsort puts it last, a scan never admits it).
    path = tmp_path / "m.topWords"
    with pytest.raises(ToolError, match=re.escape(f"cannot write {path}: not a 2-D matrix")):
        write_top_words([[0.5, bad, 0.25]], make_vocab("abc"), 2, str(path))
    assert list(tmp_path.iterdir()) == []


def colliding_matrix():
    """1600 distinct values that collide in the formatter's 256 slots, keyed
    by the value's 64 bits; groups of them (one mantissa times powers of two)
    share their low 32 bits. They repeat within and across rows, with texts of
    every length from "0" to "1.23457e+100" (12 bytes, the longest a
    non-negative value takes)."""
    by_length = [0.0, 1.0, 10.0, -0.0, 0.5, 100.0, 0.25, 0.125, 1e-05, 0.0625, 0.03125,
                 0.015625, 0.0078125, 1.2345e-05, 0.00390625, 1.23457e-05, 1.23457e+28,
                 1.23457e+100, 1.23457e-100]
    powers = [m * 2.0 ** e for m in (1.1, 1.3, 1.23456789, 1.7) for e in range(-60, 61)]
    gen = np.random.Generator(np.random.PCG64(3))
    pool = np.concatenate([by_length, powers, gen.random(1100)])
    return np.vstack([pool, gen.choice(pool, size=(40, pool.size))])


def test_write_matrix_cache_matches_savetxt(tmp_path):
    matrix = colliding_matrix()
    path = tmp_path / "m.phi"
    write_matrix(matrix, str(path))
    assert np.unique(matrix).size > 1500
    assert path.read_bytes() == savetxt_bytes(matrix)
    assert {len(v) for v in path.read_text().split()} == set(range(1, 13))


@pytest.mark.parametrize("matrix", [colliding_matrix(), np.array([[1.23457e+100]])],
                         ids=["colliding", "one-longest"])
def test_format_matrix_writes_nothing_past_its_bound(matrix):
    # Each value is copied as its slot's 16 bytes, so the last one's copy runs
    # past its text: write_matrix's size for out must hold it, and a guard of
    # sentinel bytes after that size must stay as it was.
    rows, cols = matrix.shape
    size = rows * (14 * cols + 1) + 16
    buf = np.full(size + 64, 0xA5, np.uint8)
    n = native.call("format_matrix", rows, cols, matrix, buf)
    assert (buf[size:] == 0xA5).all()
    assert buf[:n].tobytes() == savetxt_bytes(matrix)


def test_write_assignments_match_str(tmp_path):
    # Every int64 as str() writes it: each digit count, both signs, 0, the
    # extremes; LDA lines may be empty (a document whose every token was out
    # of vocabulary), DMM has one id per line.
    ids = [0, -2**63, 2**63 - 1] + [s * (10**i - d) for i in range(1, 19) for d in (0, 1)
                                     for s in (1, -1)]
    rows = [[], ids, [], [7], ids[::-1], []]
    path = tmp_path / "m.topicAssignments"
    write_assignments([np.array(row, np.int64) for row in rows], str(path), "LDA")
    assert path.read_text() == "".join(" ".join(map(str, row)) + "\n" for row in rows)
    write_assignments(np.array(ids, np.int64), str(path), "DMM")
    assert path.read_text() == "".join(f"{v}\n" for v in ids)


def test_assignments_lda(tmp_path):
    path = str(tmp_path / "m.topicAssignments")
    write_assignments([np.array([0, 1]), np.array([1])], path, "LDA")
    assert Path(path).read_text() == "0 1\n1\n"
    topics, offsets = read_assignments(path)
    assert topics.tolist() == [0, 1, 1] and offsets.tolist() == [0, 2, 3]
    assert topics.dtype == offsets.dtype == np.int64


def test_assignments_dmm(tmp_path):
    path = str(tmp_path / "m.topicAssignments")
    write_assignments(np.array([1, 0]), path, "DMM")
    assert Path(path).read_text() == "1\n0\n"
    topics, offsets = read_assignments(path)
    assert topics.tolist() == [1, 0] and offsets.tolist() == [0, 1, 2]


def test_read_assignments_errors(tmp_path):
    path = tmp_path / "m.topicAssignments"
    # not an int, past int64, a space at either end of a line
    for text in ("0 x\n", "0 99999999999999999999\n", " 0\n", "0 \n"):
        path.write_text(text)
        with pytest.raises(ToolError, match="bad topic assignment"):
            read_assignments(str(path))


@pytest.mark.parametrize("bad", ["1_0", "+1", "\u0663", "1-2", "--1", "x", "99999999999999999999",
                                 "9223372036854775808", "-9223372036854775809", "1\t0", "1  0",
                                 "-", "1-", "- 1",
                                 pytest.param("0" * 4300 + "1", id="4301-digits")]
                         + [pytest.param(f"{c}2", id=f"U+{ord(c):04X}") for c in INLINE_WHITESPACE]
                         + [pytest.param(None, id="spaces-only-line")])
def test_read_assignments_accepts_only_written_ids(tmp_path, bad):
    # int() would read "1_0" as 10, "+1" as 1 and an Arabic-Indic digit as 3;
    # the writer never writes those, nor any of str.split()'s other in-line
    # whitespace (put before id 2 in "1 2 0"), nor a run of spaces or a line
    # of spaces only, so they are errors naming their line. An id past int64
    # is refused too, as is one of more digits than int() reads (4300 by
    # default), whatever its value.
    path = tmp_path / "m.topicAssignments"
    line = "   " if bad is None else f"1 {bad} 0"
    path.write_text(f"0 1\n{line}\n", encoding="utf-8")
    message = re.escape(f"bad topic assignment at line 2 in {path}") + "$"
    with pytest.raises(ToolError, match=message):
        read_assignments(str(path))


def test_read_assignments_keeps_negative_ids(tmp_path):
    # so that load_pretrained can say which id is out of range
    path = tmp_path / "m.topicAssignments"
    path.write_text("0 -1\n\n2\n")
    topics, offsets = read_assignments(str(path))
    assert topics.tolist() == [0, -1, 2] and offsets.tolist() == [0, 2, 2, 3]


def test_assignments_line_count(tmp_path):
    path = str(tmp_path / "m.topicAssignments")
    z = [np.array([0]), np.array([1, 1]), np.array([0, 1, 0])]
    write_assignments(z, path, "LDA")
    assert len(Path(path).read_text().splitlines()) == 3


@pytest.mark.parametrize("seed", [42, None])
def test_paras_round_trip(tmp_path, seed):
    # a library-trained model may carry seed=None
    path = str(tmp_path / "m.paras")
    hp = Hyperparams(model="DMM", ntopics=7, alpha=0.1, beta=0.1, niters=50,
                     twords=5, name="exp", sstep=10, seed=seed)
    write_paras(hp, "data/corpus.txt", path)
    rec = read_paras(path)
    assert rec.corpus == "data/corpus.txt"
    assert rec.corpus_abs == os.path.abspath("data/corpus.txt")
    assert rec.hp == hp


def test_paras_missing_key(tmp_path):
    path = tmp_path / "m.paras"
    write_paras(Hyperparams(model="LDA", seed=1), "c.txt", str(path))
    text = "\n".join(l for l in path.read_text().splitlines() if not l.startswith("ntopics="))
    path.write_text(text + "\n")
    with pytest.raises(ToolError, match="missing key ntopics"):
        read_paras(str(path))


def test_paras_unknown_and_duplicate_key(tmp_path):
    path = tmp_path / "m.paras"
    write_paras(Hyperparams(model="LDA", seed=1), "c.txt", str(path))
    good = path.read_text()
    path.write_text(good + "bogus=1\n")
    with pytest.raises(ToolError, match="unknown key bogus"):
        read_paras(str(path))
    path.write_text(good + "alpha=0.2\n")
    with pytest.raises(ToolError, match="duplicate key alpha"):
        read_paras(str(path))


def test_paras_alpha_exact(tmp_path):
    path = str(tmp_path / "m.paras")
    write_paras(Hyperparams(model="LDA", alpha=0.1, seed=0), "c.txt", path)
    assert read_paras(path).hp.alpha == 0.1


@pytest.mark.parametrize("key,value", [
    ("ntopics", "+0_3"), ("ntopics", "3_0"), ("ntopics", "+3"), ("ntopics", " 3"),
    ("niters", "\u0662"), ("twords", "\uff15"), ("sstep", "-"), ("sstep", ""),
    ("seed", "1_0"), ("seed", "none"), ("seed", "\u0967"),
    ("alpha", "0_1"), ("alpha", "0.1_0"), ("beta", "\u0660.\u0661"), ("beta", "1e\u0662"),
])
def test_paras_numbers_are_ascii(tmp_path, key, value):
    # int() and float() accept "_", a sign and non-ASCII digits, which
    # write_paras never writes: such a value is refused, naming the file.
    path = tmp_path / "m.paras"
    write_paras(Hyperparams(model="LDA", seed=1), "c.txt", str(path))
    lines = [f"{key}={value}" if l.startswith(f"{key}=") else l
             for l in path.read_text(encoding="utf-8").splitlines()]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    with pytest.raises(ToolError, match=f"bad value in paras file {re.escape(str(path))}"):
        read_paras(str(path))


def test_paras_numbers_keep_their_written_forms(tmp_path):
    path = tmp_path / "m.paras"
    hp = Hyperparams(model="LDA", ntopics=3, alpha=1e-300, beta=5e-324, niters=2**63 - 1,
                     seed=None)
    write_paras(hp, "c.txt", str(path))
    assert read_paras(str(path)).hp == hp
    path.write_text(path.read_text().replace("alpha=1e-300", "alpha=-0.5E+3"))
    with pytest.raises(ToolError, match=r"alpha must be finite and > 0, got -500\.0$"):
        read_paras(str(path))  # read as -500.0, which validate() refuses


def test_write_failure_names_path(tmp_path):
    with pytest.raises(ToolError, match="no_such_dir"):
        write_matrix([[1.0]], str(tmp_path / "no_such_dir" / "m.theta"))


def test_no_temp_file_left_behind(tmp_path):
    path = str(tmp_path / "m.theta")
    write_matrix([[1.0]], path)
    assert [p.name for p in tmp_path.iterdir()] == ["m.theta"]


def test_temp_file_unique_per_write(tmp_path):
    # a directory at <path>.tmp stands in for another run's temp file
    (tmp_path / "m.theta.tmp").mkdir()
    path = str(tmp_path / "m.theta")
    write_matrix([[1.0]], path)
    assert Path(path).read_text() == "1\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["m.theta", "m.theta.tmp"]


def test_failed_write_removes_temp_file(tmp_path):
    # renaming the temp file over a directory fails after it was written
    (tmp_path / "m.theta").mkdir()
    with pytest.raises(ToolError, match="m.theta"):
        write_matrix([[1.0]], str(tmp_path / "m.theta"))
    assert [p.name for p in tmp_path.iterdir()] == ["m.theta"]


# a valid first line, then an invalid UTF-8 byte on line 2
@pytest.mark.parametrize("read,data,what", [
    (load_corpus, b"a b\nc \xff d\n", "corpus file"),
    (load_corpus, b"a b\rc \xff d\r", "corpus file"),
    (load_labels, b"X\r\n\xffY\r\n", "label file"),
    (load_labels, b"X\n\xffY\n", "label file"),
    (read_matrix, b"0.5 0.5\n0.5 \xff\n", "matrix file"),
    (lambda path: read_assignments(path), b"0 1\n1 \xff\n", "assignments file"),
    (read_paras, b"model=LDA\nname=\xff\n", "paras file"),
])
def test_invalid_utf8_names_file_and_line(tmp_path, read, data, what):
    path = tmp_path / "input"
    path.write_bytes(data)
    with pytest.raises(ToolError, match=f"invalid UTF-8 at line 2 in {what} {path}"):
        read(str(path))
