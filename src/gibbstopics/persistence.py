"""Every data file, read and written: the corpus (one document per line,
whitespace tokens, word ids in first-occurrence order), the gold labels (one
per line, aligned by line number with the corpus) and the model artifacts
.theta, .phi, .topWords, .topicAssignments and .paras.

Outputs are UTF-8 with Unix newlines and written atomically (a unique temp
file in the same directory, fsync, rename), so an interrupted run never leaves
a truncated artifact and concurrent runs never share a temp file. They land in
the input corpus's directory, named <name>.<suffix> with save-point variants
<name>.<suffix>.<iteration>.

The library of native.py tokenizes corpora and .topicAssignments, writes
.theta and .phi as the bytes np.savetxt(fmt="%.6g") would, writes the ids of
.topicAssignments and ranks .topWords; native.check_corpus is the rule the
kernels hold a corpus to. NumPy and native.py are imported by
the functions that use them: labels and matrices (ASCII decimals split at
ASCII whitespace) are read with the standard library only, so Eval needs
neither NumPy nor a compiler.
"""

from __future__ import annotations

import os
from functools import cached_property
from typing import TYPE_CHECKING

from gibbstopics.core import ArrayRecord, Hyperparams, Record, ToolError, replacing

if TYPE_CHECKING:
    import numpy as np

# The .paras keys: the model kind, the training corpus as given and as an
# absolute path, then the other Hyperparams fields in declaration order.
PARAS_KEYS = ("model", "corpus", "corpus_abs") + tuple(
    name for name in Hyperparams.__annotations__ if name != "model")


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


class ParasRecord(Record):
    hp: Hyperparams   # as read, not yet validated
    corpus: str
    corpus_abs: str


def read_text(path, what: str) -> bytes:
    """The bytes of a UTF-8 input file. Every input format is read here, so
    an unreadable or undecodable file is a ToolError naming it, and invalid
    UTF-8 names its line. Every reader splits lines as bytes.splitlines()
    does, at LF, CR LF or CR only, as the tokenize kernel does."""
    try:
        with open(path, "rb") as f:
            data = f.read()
        data.decode("utf-8")
        return data
    except OSError as exc:
        raise ToolError(f"cannot read {what} {path}: {exc}") from exc
    except UnicodeDecodeError as exc:  # the bad byte is not ASCII, so no line end
        line = len(data[:exc.start + 1].splitlines())
        raise ToolError(f"invalid UTF-8 at line {line} in {what} {path}") from exc


def read_lines(path, what: str) -> list[str]:
    """The lines of a UTF-8 input file: the other breaks of str.splitlines
    (form feed, U+2028, ...) stay inside their line, so corpus and label
    lines stay aligned."""
    return [line.decode() for line in read_text(path, what).splitlines()]


def read_tokens(path, what: str) -> tuple[bytes, np.ndarray, np.ndarray, list]:
    """Split a UTF-8 file with the tokenize kernel: lines end at LF, CR LF or CR,
    tokens at the whitespace of str.split(). Returns the bytes, each token's
    int64 id (in first-occurrence order), the int64 offsets (lines + 1, from 0)
    where each line's tokens start, and the distinct tokens."""
    import numpy as np
    from gibbstopics import native
    data = read_text(path, what)
    text = np.frombuffer(data, np.uint8)
    n = text.size
    # Worst-case capacities, allocated but touched only as far as written.
    words = np.empty((n + 1) // 2, np.int64)
    offsets = np.empty(n + 1, np.int64)
    vocab = np.empty(n + 1, np.uint8)
    sizes = np.empty(3, np.int64)
    if native.call("tokenize", n, text, words, offsets, vocab, sizes) < 0:
        raise ToolError(f"out of memory tokenizing {what} {path}")
    n_tokens, n_lines, n_vocab = sizes.tolist()
    # The distinct tokens, each followed by "\n": none when a file has no token.
    tokens = vocab[:n_vocab].tobytes().decode().split("\n")[:-1]
    return data, words[:n_tokens], offsets[:n_lines + 1], tokens


class Corpus(ArrayRecord):
    words: np.ndarray    # int64 word id of every token, document after document
    offsets: np.ndarray  # int64, D+1 from 0: document d is words[offsets[d]:offsets[d+1]]
    vocab: tuple         # the distinct words: word id i is vocab[i]
    source_path: str

    @cached_property
    def docs(self) -> tuple:
        """One view into words per document (empty only after OOV folding)."""
        return split_docs(self.words, self.offsets)

    @property
    def n_docs(self) -> int:
        return self.offsets.size - 1

    @property
    def n_tokens(self) -> int:
        return self.words.size


def split_docs(flat: np.ndarray, offsets: np.ndarray) -> tuple:
    """Per-document views of an array holding one value per token."""
    bounds = offsets.tolist()
    return tuple(flat[start:end] for start, end in zip(bounds[:-1], bounds[1:]))


def load_corpus(path) -> Corpus:
    """Load a UTF-8 corpus file, one document per line, as read_tokens splits
    it. Blank lines are fatal so that line numbers stay aligned with any
    gold-label file."""
    path = str(path)
    data, words, offsets, tokens = read_tokens(path, "corpus file")
    if not data:
        raise ToolError(f"corpus file {path} is empty")
    blank = (offsets[1:] == offsets[:-1]).nonzero()[0]
    if blank.size:
        raise ToolError(f"blank document at line {blank[0] + 1} in {path}")
    return Corpus(words=words, offsets=offsets, vocab=tuple(tokens), source_path=path)


def load_labels(path) -> tuple:
    """Load one gold label per line, aligned by line number with the corpus."""
    path = str(path)
    labels = []
    for lineno, line in enumerate(read_lines(path, "label file"), start=1):
        label = line.strip()
        if not label:
            raise ToolError(f"blank label at line {lineno} in {path}")
        labels.append(label)
    return tuple(labels)


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
    import numpy as np
    from gibbstopics import native
    matrix = np.ascontiguousarray(matrix, dtype=np.float64)
    if matrix.ndim != 2 or not np.isfinite(matrix).all() or (matrix < 0).any():
        raise ToolError(f"cannot write {path}: not a 2-D matrix of finite, non-negative values")
    rows, cols = matrix.shape
    # At most 13 bytes per "%.6g" value, plus its space or newline, and room
    # for the kernel's 16-byte copy of the last value.
    out = np.empty(rows * (14 * cols + 1) + 16, np.uint8)
    size = native.call("format_matrix", rows, cols, matrix, out)
    _atomic_write(path, out[:size])


def read_matrix(path: str) -> list:
    """Read a .theta or .phi file as one list of floats per row: rectangular,
    finite, non-negative rows that each sum to 1 within 1e-4, the precision of
    the 6-digit format. Values are ASCII decimals without "_" separated by
    ASCII whitespace (space, tab, VT, FF), parsed by float(). The first line
    that breaks this rule is reported, else the first line whose value count
    differs from line 1's, else the first row that is not a distribution."""
    data = read_text(path, "matrix file")
    rows = []
    for lineno, line in enumerate(data.splitlines(), start=1):
        try:  # float() of bytes refuses a non-ASCII byte, but reads "_" as a digit separator
            if b"_" in line:
                raise ValueError(f"{line!r} holds _")
            rows.append(list(map(float, line.split())))
        except ValueError as exc:
            raise ToolError(f"bad numeric row at line {lineno} in {path}") from exc
    if not rows:
        raise ToolError(f"{path} contains no rows")
    for lineno, row in enumerate(rows, start=1):
        if len(row) != len(rows[0]):
            raise ToolError(f"line {lineno} in {path} has {len(row)} values, "
                            f"line 1 has {len(rows[0])}")
    for lineno, row in enumerate(rows, start=1):
        # A sum within 1e-4 of 1 is finite, so no value is an inf or a NaN.
        if not (abs(sum(row) - 1) <= 1e-4 and min(row) >= 0):
            raise ToolError(f"row at line {lineno} in {path} is not a distribution "
                            "(finite, non-negative values summing to 1 within 1e-4)")
    return rows


def write_top_words(phi, vocab, twords: int, path: str):
    """Write each topic's min(twords, V) most probable words, descending by
    probability, ties by ascending word id, as a stable sort ranks them."""
    import numpy as np
    from gibbstopics import native
    phi = np.ascontiguousarray(phi, dtype=np.float64)
    if phi.ndim != 2 or not np.isfinite(phi).all():
        raise ToolError(f"cannot write {path}: not a 2-D matrix of finite values")
    ranked = np.empty((phi.shape[0], min(max(twords, 0), phi.shape[1])), np.int64)
    native.call("top_ids", *phi.shape, phi, ranked.shape[1], ranked)
    lines = (f"Topic {k}:" + "".join(" " + vocab[i] for i in row)
             for k, row in enumerate(ranked.tolist()))
    _atomic_write(path, ("\n".join(lines) + "\n").encode())


def write_assignments(z, path: str, kind: str):
    """z is one int array of topics per document (DMM) or one per document
    of its tokens' topics (LDA): a line per document, ids as str() writes them."""
    import numpy as np
    from gibbstopics import native
    if kind in ("DMM", "DMMinf"):
        ids, offsets = np.ascontiguousarray(z, np.int64), np.arange(np.size(z) + 1)
    else:
        ids = np.concatenate([np.empty(0, np.int64), *z]).astype(np.int64, copy=False)
        offsets = np.cumsum([0, *map(len, z)], dtype=np.int64)
    # At most 20 bytes per int64, plus its space or newline; a newline per line.
    out = np.empty(21 * ids.size + offsets.size - 1, np.uint8)
    _atomic_write(path, out[:native.call("format_ids", offsets.size - 1, offsets, ids, out)])


def read_assignments(path: str) -> tuple[np.ndarray, np.ndarray]:
    """The topic ids of a .topicAssignments file as one flat int64 array, and
    the int64 offsets (lines + 1, from 0) where each line's ids start. Each
    line is empty or holds int64 ids -?[0-9]+ separated by single spaces, as
    write_assignments writes them."""
    import numpy as np
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
        _refuse_id_lines(data.splitlines(), path)
    return topics, offsets


def _refuse_id_lines(lines, path):
    """Raise the ToolError naming the first of the lines (bytes of valid
    UTF-8) that is not empty or int64 ids -?[0-9]+ separated by single spaces."""
    import numpy as np
    for lineno, line in enumerate(lines, start=1):
        try:  # the parse and the int64 conversion of read_assignments
            np.array([_parse_int(v) for v in line.decode().split(" ")] if line else [], np.int64)
        except (ValueError, OverflowError) as exc:
            raise ToolError(f"bad topic assignment at line {lineno} in {path}") from exc
    raise AssertionError(f"read_assignments refused {path}, whose every line is valid")


def write_paras(hp: Hyperparams, corpus_path: str, path: str):
    values = {**vars(hp), "corpus": corpus_path, "corpus_abs": os.path.abspath(corpus_path),
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
        hp = Hyperparams(**{name: _PARSE[kind](raw[name])
                            for name, kind in Hyperparams.__annotations__.items()})
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
