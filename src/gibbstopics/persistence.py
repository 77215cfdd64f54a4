"""Model artifact IO: .theta, .phi, .topWords, .topicAssignments and .paras.

All files are UTF-8 with Unix newlines and written atomically (a unique temp
file in the same directory, fsync, rename), so an interrupted run never leaves
a truncated artifact and concurrent runs never share a temp file. Outputs land
in the directory of the input corpus, named <name>.<suffix> with save-point
variants <name>.<suffix>.<iteration>.

.theta and .phi hold the bytes np.savetxt(fmt="%.6g") would write; the
compiled library of native.py formats them. Reading needs no compiler, so
Eval runs without one.
"""

from __future__ import annotations

import contextlib
import os
from dataclasses import asdict, dataclass, fields

import numpy as np

from gibbstopics import native
from gibbstopics.core import Hyperparams, ToolError, top_words

# The .paras keys: the model kind, the training corpus as given and as an
# absolute path, then the other Hyperparams fields in declaration order.
PARAS_KEYS = ("model", "corpus", "corpus_abs") + tuple(
    f.name for f in fields(Hyperparams) if f.name != "model")
# Parsers of the Hyperparams fields, keyed by their annotation strings.
_PARSE = {"str": str, "int": int, "float": float,
          "int | None": lambda v: None if v == "None" else int(v)}
# translate deletes every character a .topicAssignments file may hold
_ID_CHARS = str.maketrans("", "", "0123456789 -\n")
_INT64 = np.iinfo(np.int64)


@dataclass
class ParasRecord:
    hp: Hyperparams   # as read, not yet validated
    corpus: str
    corpus_abs: str


def read_lines(path, what: str) -> list[str]:
    """The lines of a UTF-8 input file, each ended by LF, CR LF or CR only:
    the other breaks of str.splitlines (form feed, U+2028, ...) stay inside
    their line, so corpus and label lines stay aligned. Every input format
    is read here, so an unreadable or undecodable file is a ToolError naming
    it."""
    try:
        with open(path, "rb") as f:
            data = f.read()
        lines = data.decode("utf-8").replace("\r\n", "\n").replace("\r", "\n").split("\n")
        return lines[:-1] if lines[-1] == "" else lines
    except OSError as exc:
        raise ToolError(f"cannot read {what} {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        head = exc.object[:exc.start]
        line = head.count(b"\n") + head.count(b"\r") - head.count(b"\r\n") + 1
        raise ToolError(f"invalid UTF-8 at line {line} in {what} {path}") from exc


def _atomic_write(path: str, data):
    """Write the bytes-like data to path atomically."""
    # A fresh random name per write keeps concurrent runs off each other's temp
    # file; O_EXCL refuses an existing one. Unlike mkstemp's fixed 0600, the
    # file gets the umask's mode, as the artifacts always had.
    tmp = f"{path}.{os.urandom(8).hex()}.tmp"
    created = False
    try:
        fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
        created = True
        with open(fd, "wb") as f:
            f.write(data)
            f.flush()
            os.fsync(fd)
        os.replace(tmp, path)
        created = False
    except OSError as exc:
        raise ToolError(f"cannot write {path}: {exc}") from exc
    finally:
        if created:
            with contextlib.suppress(OSError):
                os.unlink(tmp)


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
                if not v.isascii() or "_" in v:
                    raise ValueError(f"{v!r} is not an ASCII decimal")
                float(v)
        except ValueError as exc:
            raise ToolError(f"bad numeric row at line {lineno} in {path}") from exc
        widths.append(len(values))
    ragged = next((i for i, w in enumerate(widths, start=1) if w != widths[0]), None)
    if ragged:
        raise ToolError(f"line {ragged} in {path} has {widths[ragged - 1]} values, "
                        f"line 1 has {widths[0]}")
    raise ToolError(_not_a_distribution(1, path))


def write_top_words(phi, vocab, twords: int, path: str):
    lines = []
    for k, row in enumerate(phi):
        ranked = top_words(row, vocab, twords)
        suffix = (" " + " ".join(w for w, _ in ranked)) if ranked else ""
        lines.append(f"Topic {k}:{suffix}")
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
    lines = read_lines(path, "assignments file")
    text = "\n".join(lines)
    # A line of ids separated by single spaces holds one id more than spaces.
    offsets = np.cumsum([0] + [line.count(" ") + (line != "") for line in lines], dtype=np.int64)
    valid = not text.translate(_ID_CHARS) and _minus_starts_ids(text)
    topics = np.empty(0, np.int64)
    if valid and offsets[-1]:
        topics = np.fromstring(text, np.int64, sep=" ")
    # fromstring takes any run of whitespace as one separator, so a run of
    # spaces or an edge space shows as fewer ids than counted; it saturates
    # past int64, so an id read as a limit is checked exactly.
    if not valid or topics.size != offsets[-1] or (
            topics.size and (topics.min() == _INT64.min or topics.max() == _INT64.max)):
        _refuse_id_lines(lines, path)
    return topics, offsets


def _minus_starts_ids(text: str) -> bool:
    """Whether every "-" in text starts a line or follows a space, and is
    followed by a digit."""
    return "-" not in text or (
        text.count("-") == text.count(" -") + text.count("\n-") + text.startswith("-")
        and "- " not in text and "-\n" not in text and not text.endswith("-"))


def _refuse_id_lines(lines, path):
    """Raise the ToolError naming the first line that is not empty or int64
    ids -?[0-9]+ separated by single spaces; return if there is none (an id
    at an int64 limit is valid)."""
    for lineno, line in enumerate(lines, start=1):
        try:
            for v in line.split(" ") if line else ():
                digits = v[1:] if v.startswith("-") else v
                if not (digits.isascii() and digits.isdigit() and -2**63 <= int(v) < 2**63):
                    raise ValueError(f"{v!r} is not an int64 id")
        except ValueError as exc:  # also int()'s limit on the number of digits
            raise ToolError(f"bad topic assignment at line {lineno} in {path}") from exc


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
