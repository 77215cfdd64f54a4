"""Model artifact IO: .theta, .phi, .topWords, .topicAssignments and .paras.

All files are UTF-8 with Unix newlines and written atomically (a unique temp
file in the same directory, fsync, rename), so an interrupted run never leaves
a truncated artifact and concurrent runs never share a temp file. Outputs land
in the directory of the input corpus, named <name>.<suffix> with save-point
variants <name>.<suffix>.<iteration>.

.theta and .phi hold the bytes np.savetxt(fmt="%.6g") would write. The library
of native.py formats them and tokenizes corpora and .topicAssignments; reading
a matrix needs no compiler, so Eval runs without one.
"""

from __future__ import annotations

import contextlib
import os
from dataclasses import asdict, dataclass, fields

import numpy as np

from gibbstopics import native
from gibbstopics.core import Hyperparams, ToolError, replacing

# The .paras keys: the model kind, the training corpus as given and as an
# absolute path, then the other Hyperparams fields in declaration order.
PARAS_KEYS = ("model", "corpus", "corpus_abs") + tuple(
    f.name for f in fields(Hyperparams) if f.name != "model")


def _parse_int(v: str) -> int:
    """An ASCII decimal integer -?[0-9]+, as str(int) writes one."""
    digits = v[1:] if v.startswith("-") else v
    if not (digits.isascii() and digits.isdigit()):
        raise ValueError(f"{v!r} is not an integer -?[0-9]+")
    return int(v)


def _parse_float(v: str) -> float:
    """A float() of ASCII text with no "_", as str(float) writes one."""
    if not v.isascii() or "_" in v:
        raise ValueError(f"{v!r} is not an ASCII decimal")
    return float(v)


# Parsers of the Hyperparams fields, keyed by their annotation strings.
_PARSE = {"str": str, "int": _parse_int, "float": _parse_float,
          "int | None": lambda v: None if v == "None" else _parse_int(v)}


@dataclass
class ParasRecord:
    hp: Hyperparams   # as read, not yet validated
    corpus: str
    corpus_abs: str


def read_text(path, what: str) -> tuple[bytes, str]:
    """The bytes of a UTF-8 input file and their text. Every input format is
    read here, so an unreadable or undecodable file is a ToolError naming it,
    and invalid UTF-8 names its line as read_lines counts lines."""
    try:
        with open(path, "rb") as f:
            data = f.read()
        return data, data.decode("utf-8")
    except OSError as exc:
        raise ToolError(f"cannot read {what} {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        head = exc.object[:exc.start]
        line = head.count(b"\n") + head.count(b"\r") - head.count(b"\r\n") + 1
        raise ToolError(f"invalid UTF-8 at line {line} in {what} {path}") from exc


def read_lines(path, what: str) -> list[str]:
    """The lines of a UTF-8 input file, each ended by LF, CR LF or CR only:
    the other breaks of str.splitlines (form feed, U+2028, ...) stay inside
    their line, so corpus and label lines stay aligned."""
    return _split_lines(read_text(path, what)[1])


def _split_lines(text: str) -> list[str]:
    lines = text.replace("\r\n", "\n").replace("\r", "\n").split("\n")
    return lines[:-1] if lines[-1] == "" else lines


def read_tokens(path, what: str) -> tuple[bytes, np.ndarray, np.ndarray, list]:
    """Split a UTF-8 file with the tokenize kernel: lines end at LF, CR LF or CR,
    tokens at the whitespace of str.split(). Returns the bytes, each token's
    int64 id (in first-occurrence order), the int64 offsets (lines + 1, from 0)
    where each line's tokens start, and the distinct tokens."""
    data, _ = read_text(path, what)  # decoded once: invalid UTF-8 names its line
    text = np.frombuffer(data, np.uint8)
    n = text.size
    # Worst-case capacities, allocated but touched only as far as written.
    words = np.empty((n + 1) // 2, np.int64)
    offsets = np.empty(n + 1, np.int64)
    vocab = np.empty(n + 1, np.uint8)
    sizes = np.empty(3, np.int64)
    native.check("tokenize", ("text", text, np.uint8, (n,), False),
                 ("words", words, np.int64, ((n + 1) // 2,), True),
                 ("offsets", offsets, np.int64, (n + 1,), True),
                 ("vocab", vocab, np.uint8, (n + 1,), True), ("sizes", sizes, np.int64, (3,), True))
    if native.call("tokenize", n, text, words, offsets, vocab, sizes) < 0:
        raise ToolError(f"out of memory tokenizing {what} {path}")
    n_tokens, n_lines, n_vocab = sizes.tolist()
    # The distinct tokens, each followed by "\n": none when a file has no token.
    tokens = vocab[:n_vocab].tobytes().decode().split("\n")[:-1]
    return data, words[:n_tokens], offsets[:n_lines + 1], tokens


def _atomic_write(path: str, data):
    """Write the bytes-like data to path atomically."""
    try:
        with replacing(path) as (f, _):
            f.write(data)
            f.flush()
            os.fsync(f.fileno())
    except OSError as exc:
        raise ToolError(f"cannot write {path}: {exc}") from exc


def write_matrix(matrix, path: str):
    """Write a 2-D matrix of finite, non-negative values (a .theta or .phi):
    one line per row, values "%.6g"-formatted and separated by one space."""
    matrix = np.ascontiguousarray(matrix, dtype=np.float64)
    if matrix.ndim != 2 or not np.isfinite(matrix).all() or (matrix < 0).any():
        raise ToolError(f"cannot write {path}: not a 2-D matrix of finite, non-negative values")
    rows, cols = matrix.shape
    # At most 13 bytes per "%.6g" value, plus its space or newline.
    out = np.empty(rows * (14 * cols + 1), np.uint8)
    size = native.call("format_matrix", rows, cols, matrix, out)
    _atomic_write(path, out[:size])


def read_matrix(path: str) -> np.ndarray:
    """Read a .theta or .phi file: rectangular, finite, non-negative rows that
    each sum to 1 within 1e-4, the precision of the 6-digit format. Values
    are split on whitespace and parsed as ASCII decimals (no "_"), bit for
    bit as float() parses them."""
    lines = read_lines(path, "matrix file")
    if not lines:
        raise ToolError(f"{path} contains no rows")
    # loadtxt skips a line that is blank or holds only whitespace (str.isspace,
    # as it splits on), so such a line must not reach it.
    matrix = None
    if all(map(str.strip, lines)):
        with contextlib.suppress(ValueError):
            matrix = np.loadtxt(lines, dtype=np.float64, comments=None, ndmin=2)
    if matrix is None:
        _refuse_matrix_lines(lines, path)
    bad = ~np.isfinite(matrix).all(1) | (matrix < 0).any(1) | (abs(matrix.sum(1) - 1) > 1e-4)
    if bad.any():
        raise ToolError(_not_a_distribution(np.argmax(bad) + 1, path))
    return matrix


def _not_a_distribution(lineno, path) -> str:
    return (f"row at line {lineno} in {path} is not a distribution "
            "(finite, non-negative values summing to 1 within 1e-4)")


def _refuse_matrix_lines(lines, path):
    """Raise the ToolError naming the first line that breaks the rules
    read_matrix parses by: a value that is not an ASCII decimal float()
    reads, then a line whose value count differs from line 1's, then, when
    every line is blank, line 1 as an empty distribution."""
    widths = []
    for lineno, line in enumerate(lines, start=1):
        values = line.split()
        try:
            for v in values:
                _parse_float(v)
        except ValueError as exc:
            raise ToolError(f"bad numeric row at line {lineno} in {path}") from exc
        widths.append(len(values))
    ragged = next((i for i, w in enumerate(widths, start=1) if w != widths[0]), None)
    if ragged:
        raise ToolError(f"line {ragged} in {path} has {widths[ragged - 1]} values, "
                        f"line 1 has {widths[0]}")
    raise ToolError(_not_a_distribution(1, path))


def write_top_words(phi, vocab, twords: int, path: str):
    """Write each topic's min(twords, V) most probable words, descending by
    probability; the stable sort breaks ties by ascending word id."""
    ranked = np.argsort(-np.asarray(phi, np.float64), axis=1, kind="stable")[:, :max(twords, 0)]
    lines = (f"Topic {k}:" + "".join(" " + vocab.words[i] for i in row)
             for k, row in enumerate(ranked.tolist()))
    _atomic_write(path, ("\n".join(lines) + "\n").encode())


def write_assignments(z, path: str, kind: str):
    """z is one int array of topics per document (DMM) or one per document
    of its tokens' topics (LDA); each document is one line."""
    if kind in ("DMM", "DMMinf"):
        lines = map(str, z.tolist())
    else:
        lines = (" ".join(map(str, row.tolist())) for row in z)
    _atomic_write(path, ("\n".join(lines) + "\n").encode())


def read_assignments(path: str) -> tuple[np.ndarray, np.ndarray]:
    """The topic ids of a .topicAssignments file as one flat int64 array, and
    the int64 offsets (lines + 1, from 0) where each line's ids start. Each
    line is empty or holds int64 ids -?[0-9]+ separated by single spaces, as
    write_assignments writes them."""
    data, ids, offsets, tokens = read_tokens(path, "assignments file")
    try:  # each distinct token once: a valid file has at most K of them
        topics = np.array(list(map(_parse_int, tokens)), np.int64)[ids]
        # The tokens hold only digits and "-": every other byte must be a space
        # or a line end, with one space fewer than ids on each non-empty line.
        spaces = np.count_nonzero(np.frombuffer(data, np.uint8) == ord(" "))
        if data.translate(None, b"0123456789- \n\r") or (
                spaces != ids.size - np.count_nonzero(np.diff(offsets))):
            raise ValueError("a separator other than one space")
    except (ValueError, OverflowError):  # also int()'s limit on the number of digits
        _refuse_id_lines(_split_lines(data.decode()), path)
    return topics, offsets


def _refuse_id_lines(lines, path):
    """Raise the ToolError naming the first line that is not empty or int64
    ids -?[0-9]+ separated by single spaces."""
    for lineno, line in enumerate(lines, start=1):
        try:  # the parse and the int64 conversion of read_assignments
            np.array([_parse_int(v) for v in line.split(" ")] if line else [], np.int64)
        except (ValueError, OverflowError) as exc:
            raise ToolError(f"bad topic assignment at line {lineno} in {path}") from exc
    raise AssertionError(f"read_assignments refused {path}, whose every line is valid")


def write_paras(hp: Hyperparams, corpus_path: str, path: str):
    values = {**asdict(hp), "corpus": corpus_path, "corpus_abs": os.path.abspath(corpus_path),
              "alpha": float(hp.alpha), "beta": float(hp.beta)}
    _atomic_write(path, "".join(f"{key}={values[key]}\n" for key in PARAS_KEYS).encode())


def read_paras(path: str) -> ParasRecord:
    raw: dict[str, str] = {}
    for line in read_lines(path, "paras file"):
        if not line.strip():
            continue
        key, sep, value = line.partition("=")
        if not sep:
            raise ToolError(f"malformed line {line!r} in {path}")
        if key not in PARAS_KEYS:
            raise ToolError(f"unknown key {key} in {path}")
        if key in raw:
            raise ToolError(f"duplicate key {key} in {path}")
        raw[key] = value
    for key in PARAS_KEYS:
        if key not in raw:
            raise ToolError(f"missing key {key} in {path}")
    try:
        hp = Hyperparams(**{f.name: _PARSE[f.type](raw[f.name]) for f in fields(Hyperparams)})
    except ValueError as exc:
        raise ToolError(f"bad value in paras file {path}: {exc}") from exc
    return ParasRecord(hp, raw["corpus"], raw["corpus_abs"])


def output_base(corpus_path: str, name: str) -> str:
    return os.path.join(os.path.dirname(os.path.abspath(corpus_path)), name)


def save_outputs(base, theta, phi, corpus, z, hp, iteration=None):
    """Write the five artifacts; iteration, when given, suffixes each name."""
    sfx = f".{iteration}" if iteration is not None else ""
    write_matrix(theta, f"{base}.theta{sfx}")
    write_matrix(phi, f"{base}.phi{sfx}")
    write_top_words(phi, corpus.vocab, hp.twords, f"{base}.topWords{sfx}")
    write_assignments(z, f"{base}.topicAssignments{sfx}", hp.model)
    write_paras(hp, corpus.source_path, f"{base}.paras{sfx}")
