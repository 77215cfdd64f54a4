"""Property tests of the input parsers: .paras round-trips every valid
Hyperparams exactly, no input bytes make a reader fail with anything but a
ToolError, and the bulk readers of corpora, matrices and assignments agree
with the per-line readers they replaced."""

import bisect
import os
import re
import warnings
from collections import defaultdict

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from gibbstopics import native
from gibbstopics.core import MODEL_KINDS, Hyperparams, ToolError
from gibbstopics.persistence import (
    Corpus,
    ParasRecord,
    load_corpus,
    load_labels,
    read_assignments,
    read_lines,
    read_matrix,
    read_paras,
    write_assignments,
    write_matrix,
    write_paras,
)

from oracles import INLINE_WHITESPACE, WHITESPACE

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
    # "error": a NumPy parser's warning about input it skipped or could not
    # read fails the test instead of passing unseen.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            read(str(path))
        except ToolError:
            pass


# The per-line readers that the bulk readers replaced, kept as their oracles.

def loop_load_corpus(path) -> Corpus:
    """load_corpus with one setdefault per token and a blank check per line."""
    path = str(path)
    lines = read_lines(path, "corpus file")
    if not lines:
        raise ToolError(f"corpus file {path} is empty")
    index: dict[str, int] = {}
    ids: list[int] = []
    offsets = [0]
    for lineno, line in enumerate(lines, start=1):
        tokens = line.split()
        if not tokens:
            raise ToolError(f"blank document at line {lineno} in {path}")
        ids += [index.setdefault(tok, len(index)) for tok in tokens]
        offsets.append(len(ids))
    return Corpus(words=np.array(ids, dtype=np.int64), offsets=np.array(offsets, dtype=np.int64),
                  vocab=tuple(index), source_path=path)


def loop_read_matrix(path: str) -> np.ndarray:
    """read_matrix with one float() per value and one array per row."""
    rows = []
    for lineno, line in enumerate(read_lines(path, "matrix file"), start=1):
        try:
            rows.append(np.array([float(v) for v in line.encode().split()], dtype=np.float64))
        except ValueError as exc:
            raise ToolError(f"bad numeric row at line {lineno} in {path}") from exc
    if not rows:
        raise ToolError(f"{path} contains no rows")
    ragged = [i for i, row in enumerate(rows, start=1) if len(row) != len(rows[0])]
    if ragged:
        raise ToolError(f"line {ragged[0]} in {path} has {len(rows[ragged[0] - 1])} values, "
                        f"line 1 has {len(rows[0])}")
    matrix = np.vstack(rows)
    bad = ~np.isfinite(matrix).all(1) | (matrix < 0).any(1) | (abs(matrix.sum(1) - 1) > 1e-4)
    if bad.any():
        raise ToolError(f"row at line {np.argmax(bad) + 1} in {path} is not a distribution "
                        "(finite, non-negative values summing to 1 within 1e-4)")
    return matrix


def loop_read_assignments(path: str) -> tuple[np.ndarray, np.ndarray]:
    """read_assignments with one int() per id; the range is checked after the
    last line."""
    topics: list[int] = []
    offsets = [0]
    for lineno, line in enumerate(read_lines(path, "assignments file"), start=1):
        try:
            if not line.isascii() or "+" in line or "_" in line:
                raise ValueError(f"{line!r} holds +, _ or a non-ASCII character")
            topics += map(int, line.split())
        except ValueError as exc:
            raise ToolError(f"bad topic assignment at line {lineno} in {path}") from exc
        offsets.append(len(topics))
    try:
        return np.array(topics, dtype=np.int64), np.array(offsets, dtype=np.int64)
    except OverflowError as exc:
        first = next(i for i, t in enumerate(topics) if not -2**63 <= t < 2**63)
        raise ToolError(f"bad topic assignment at line {bisect.bisect_right(offsets, first)} "
                        f"in {path}") from exc


def _outcome(read, path):
    """What read makes of path: ("ok", its result) or ("error", the message)."""
    try:
        return "ok", read(str(path))
    except ToolError as exc:
        return "error", str(exc)


def _assert_same_result(kind, got, want):
    if kind == "corpus":
        assert got.vocab == want.vocab and got.source_path == want.source_path
        got, want = (got.words, got.offsets), (want.words, want.offsets)
    elif kind == "matrix":  # read_matrix's rows of floats, held to the oracle's array
        got, want = (np.array(got, dtype=np.float64),), (want,)
    for a, b in zip(got, want, strict=True):
        # bit for bit: the same dtype, shape and bytes (a -0 stays -0)
        assert a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


ORACLES = {"corpus": (load_corpus, loop_load_corpus),
           "matrix": (read_matrix, loop_read_matrix),
           "assignments": (read_assignments, loop_read_assignments)}

ids = st.integers(-30, 30) | st.sampled_from([-2**63, 2**63 - 1])
# subnormals, zeros and a -0 among the values of a row
row_values = st.floats(0, 1) | st.sampled_from([5e-324, 1e-310, 2.2250738585072014e-308, -0.0])


@st.composite
def matrices(draw):
    m, n = draw(st.integers(1, 6)), draw(st.integers(1, 6))
    rows, cols = draw(st.sampled_from([(1, n), (m, 1), (m, n)]))
    matrix = np.array(draw(st.lists(row_values, min_size=rows * cols, max_size=rows * cols)))
    matrix = matrix.reshape(rows, cols) / cols
    # the last value of each row makes it sum to 1
    matrix[:, -1] = np.maximum(1 - matrix[:, :-1].sum(1), 0)
    return matrix


@st.composite
def corpus_text(draw):
    words = st.text(st.sampled_from("ab\u00e9\u4e2d\U0001f600\U00010348.,-_0\x00"),
                    min_size=1, max_size=4)
    spaces = st.text(st.sampled_from(INLINE_WHITESPACE), min_size=1, max_size=3)
    lines = draw(st.lists(st.lists(st.tuples(words, spaces), min_size=1, max_size=6),
                          min_size=1, max_size=6))
    ends = draw(st.lists(st.sampled_from(["\n", "\r\n", "\r"]), min_size=len(lines),
                         max_size=len(lines)))
    return "".join(draw(st.sampled_from(["", " "])) + "".join(w + s for w, s in line) + end
                   for line, end in zip(lines, ends))


@pytest.mark.parametrize("kind", ["lda", "dmm", "matrix", "corpus"])
@tmp_path_ok
@given(data=st.data())
def test_bulk_readers_match_oracles_on_valid_input(tmp_path, kind, data):
    # What the writers write, assignments with every line end the readers
    # take, and corpora with every whitespace the split takes: each bulk
    # reader gives the oracle's arrays, dtypes and vocabulary.
    path = tmp_path / "input"
    if kind == "lda":  # empty lines: LDAinf documents whose every token was out of vocabulary
        rows = data.draw(st.lists(st.lists(ids, max_size=5), min_size=1, max_size=6))
        write_assignments([np.array(row, dtype=np.int64) for row in rows], str(path), "LDA")
    elif kind == "dmm":
        z = data.draw(st.lists(ids, min_size=1, max_size=6))
        write_assignments(np.array(z, dtype=np.int64), str(path), "DMM")
    if kind in ("lda", "dmm"):  # the LF the writer ends lines with, or CR LF, CR or none
        lines = path.read_bytes().split(b"\n")[:-1]
        ends = data.draw(st.lists(st.sampled_from([b"\n", b"\r\n", b"\r"]),
                                  min_size=len(lines), max_size=len(lines)))
        ends[-1] = data.draw(st.sampled_from([ends[-1], b""]))
        path.write_bytes(b"".join(line + end for line, end in zip(lines, ends)))
    elif kind == "matrix":
        write_matrix(data.draw(matrices()), str(path))
    else:
        path.write_bytes(data.draw(corpus_text()).encode())
    reader = "assignments" if kind in ("lda", "dmm") else kind
    new, oracle = ORACLES[reader]
    got, want = _outcome(new, path), _outcome(oracle, path)
    assert got[0] == want[0] == "ok", (got, want)
    _assert_same_result(reader, got[1], want[1])


def _first_line(lines, bad):
    """The number of the first line for which bad holds, or None."""
    return next((i for i, line in enumerate(lines, start=1) if bad(line)), None)


def _stricter_line(reader, path):
    """The first line the bulk reader refuses by a rule the oracle lacks:
    in assignments, whitespace other than single spaces between ids, or an
    id past int64 (the oracle names a later bad line first); in a matrix, a
    "_", which float() reads as a digit separator."""
    try:
        lines = read_lines(str(path), "input")
    except ToolError:
        return None
    if reader == "assignments":
        def past_int64(line):
            try:
                return any(not -2**63 <= int(v) < 2**63 for v in line.split())
            except ValueError:
                return False
        return min(filter(None, (_first_line(lines, lambda l: " ".join(l.split()) != l),
                                 _first_line(lines, past_int64))), default=None)
    if reader == "matrix":
        return _first_line(lines, lambda l: "_" in l)
    return None


# valid inputs to mutate; the second matrix separates its values by FS, NBSP
# and U+3000, which str.split() splits at and read_matrix refuses
FUZZ = {"corpus": [READERS["corpus"][1]],
        "matrix": [READERS["matrix"][1], "0.5\x1c0.5\n0.25\xa00.75\n1\u30000\n".encode()],
        "assignments": [READERS["lda_assignments"][1] + b"\n-3 12\n0\n"]}
STRICTER_MESSAGE = {"assignments": "bad topic assignment at line {} in {}",
                    "matrix": "bad numeric row at line {} in {}"}


@pytest.mark.parametrize("reader", sorted(FUZZ))
@tmp_path_ok
@given(data=st.data())
def test_bulk_readers_agree_with_oracles_on_fuzzed_input(tmp_path, reader, data):
    # Both accept with equal results, or both refuse with the same message;
    # on a line under a stricter rule the bulk reader refuses, at the first
    # line where either reader's rules fail.
    path = tmp_path / "input"
    path.write_bytes(data.draw(st.binary(max_size=64) | st.sampled_from(FUZZ[reader]).flatmap(
        _mutations), label="bytes"))
    new, oracle = ORACLES[reader]
    got, want = _outcome(new, path), _outcome(oracle, path)
    stricter = _stricter_line(reader, path)
    if stricter is None:
        assert got[0] == want[0], (got, want)
        if got[0] == "ok":
            _assert_same_result(reader, got[1], want[1])
        else:
            assert got[1] == want[1]
        return
    message = STRICTER_MESSAGE[reader]
    found = want[0] == "error" and re.fullmatch(
        re.escape(message).replace(r"\{\}", "(.+)"), want[1])
    line = min(stricter, int(found[1])) if found else stricter
    assert got == ("error", message.format(line, path))


# The tokenize kernel behind load_corpus, held to loop_load_corpus.

def _assert_loads_as_oracle(path, text):
    """load_corpus and loop_load_corpus make the same of text: equal corpora,
    or the same error message. Returns load_corpus's outcome."""
    path.write_bytes(text.encode() if isinstance(text, str) else text)
    got, want = _outcome(load_corpus, path), _outcome(loop_load_corpus, path)
    assert got[0] == want[0], (got, want)
    if got[0] == "ok":
        _assert_same_result("corpus", got[1], want[1])
    else:
        assert got[1] == want[1]
    return got


def test_whitespace_is_what_str_split_splits_on():
    assert len(WHITESPACE) == 29
    assert [c for c in map(chr, range(0x110000)) if len(f"a{c}b".split()) == 2] == list(WHITESPACE)


@pytest.mark.parametrize("space", WHITESPACE, ids=lambda c: f"U+{ord(c):04X}")
def test_each_whitespace_code_point_separates_tokens(tmp_path, space):
    # between, before and after tokens; as the file's last bytes, after a
    # final token with no line end, and after a line end
    for text in (f"a{space}b\n", f"{space}a b\n", f"a b{space}\n", f"a{space}{space}é\nb\n",
                 f"a{space}b", f"a\nb{space}", f"a\nb{space}{space}", f"a\n{space}b\n"):
        _assert_loads_as_oracle(tmp_path / "c.txt", text)
    if space in INLINE_WHITESPACE:
        corpus = load_corpus(tmp_path / "c.txt")
        assert corpus.offsets.tolist() == [0, 1, 2] and corpus.vocab == ("a", "b")


@pytest.mark.parametrize("text", ["a\rb\rc", "a\r\nb\r\n", "a\nb\r\nc\rd\n", "a\r\r\nb\n",
                                  "a\n\rb", "a\r\n\r\nb", "a\r", "a\r\n", "\r\na", "a\n\n",
                                  "a \r\n b\r c \n"])
def test_line_ends(tmp_path, text):
    _assert_loads_as_oracle(tmp_path / "c.txt", text)


def test_crlf_is_one_line_end(tmp_path):
    path = tmp_path / "c.txt"
    path.write_bytes(b"a b\r\nc\r\nd\re\n")
    assert load_corpus(path).offsets.tolist() == [0, 2, 3, 4, 5]


@pytest.mark.parametrize("brk", ["\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\u2028"])
def test_other_line_breaks_stay_inside_a_line(tmp_path, brk):
    # str.splitlines breaks at these; a corpus line does not
    _, corpus = _assert_loads_as_oracle(tmp_path / "c.txt", f"a{brk}b\nc{brk}\n{brk}d")
    assert corpus.offsets.tolist() == [0, 2, 3, 4]


def test_non_ascii_and_nul_tokens(tmp_path):
    text = ("é 中文 \U0001f600 a\x00b \x00 \U0001f600\U00010348\n"
            "中文 \x00 a\x00b \U00010348\n")
    _, corpus = _assert_loads_as_oracle(tmp_path / "c.txt", text)
    assert corpus.vocab == ("é", "中文", "\U0001f600", "a\x00b", "\x00",
                                  "\U0001f600\U00010348", "\U00010348")
    assert corpus.words.tolist() == [0, 1, 2, 3, 4, 5, 1, 4, 3, 6]


def test_vocabulary_past_the_initial_table(tmp_path):
    # 20000 distinct words double the kernel's 256-slot table seven times;
    # every word comes back in a shuffled second half, so a word the table
    # lost while growing would get a second id.
    words = [f"w{i}" for i in range(20000)]
    order = np.random.default_rng(3).permutation(len(words))
    again = [words[i] for i in order]
    lines = [" ".join(ws[i:i + 10]) for ws in (words, again) for i in range(0, len(ws), 10)]
    _, corpus = _assert_loads_as_oracle(tmp_path / "c.txt", "\n".join(lines) + "\n")
    assert len(corpus.vocab) == 20000


def _fnv1a(data: bytes) -> int:
    """The kernel's 64-bit FNV-1a hash."""
    h = 14695981039346656037
    for b in data:
        h = ((h ^ b) * 1099511628211) % 2**64
    return h


def test_tokens_sharing_a_hash_slot(tmp_path):
    # Words whose hashes start in one slot of the first 256 are told apart
    # by their bytes; so are words that are prefixes of each other.
    by_slot = defaultdict(list)
    for word in (f"{p}{i}" for p in ("x", "é", "x\x00") for i in range(3000)):
        by_slot[_fnv1a(word.encode()) % 256].append(word)
    shared = max(by_slot.values(), key=len)[:60]
    assert len(shared) >= 40
    prefixes = ["a", "ab", "abc", "b", "ba", "a\x00", "a\x00\x00"]
    lines = [" ".join(shared), " ".join(prefixes), " ".join(reversed(shared + prefixes))]
    _, corpus = _assert_loads_as_oracle(tmp_path / "c.txt", "\n".join(lines))
    assert len(corpus.vocab) == len(shared) + len(prefixes)


def _tokenize(text):
    """The kernel's words, offsets and vocabulary bytes for the uint8 text."""
    n = text.size
    words, offsets = np.empty((n + 1) // 2, np.int64), np.empty(n + 1, np.int64)
    vocab, sizes = np.empty(n + 1, np.uint8), np.empty(3, np.int64)
    native.check("test", ("text", text, np.uint8, (n,), False))
    native.call("tokenize", n, text, words, offsets, vocab, sizes)
    n_tokens, n_lines, n_vocab = sizes.tolist()
    return words[:n_tokens].tolist(), offsets[:n_lines + 1].tolist(), vocab[:n_vocab].tobytes()


@pytest.mark.parametrize("data,n,want", [
    (b"x y\xe2\x80\xa8", 5, ([0, 1], [0, 2], b"x\ny\xe2\x80\n")),
    (b"x\xe1\x9a\x80", 3, ([0], [0, 1], b"x\xe1\x9a\n")),
    (b"x \xe3\x80\x80", 3, ([0, 1], [0, 2], b"x\n\xe3\n")),
    (b"x\xc2\x85", 2, ([0], [0, 1], b"x\xc2\n")),
    (b"xy z", 1, ([0], [0, 1], b"x\n")),
])
def test_tokenize_reads_nothing_past_the_buffer(data, n, want):
    # The first n bytes of a longer buffer: the bytes after them would make
    # a whitespace code point of the last ones, or extend the last token.
    assert _tokenize(np.frombuffer(data, np.uint8)[:n]) == want
