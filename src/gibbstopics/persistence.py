"""Model artifact IO: .theta, .phi, .topWords, .topicAssignments and .paras.

All files are UTF-8 with Unix newlines and written atomically (a unique temp
file in the same directory, fsync, rename), so an interrupted run never leaves
a truncated artifact and concurrent runs never share a temp file. Outputs land
in the directory of the input corpus, named <name>.<suffix> with save-point
variants <name>.<suffix>.<iteration>.
"""

from __future__ import annotations

import contextlib
import io
import os
import secrets
from dataclasses import dataclass, fields

import numpy as np

from gibbstopics.core import Hyperparams, ToolError, top_words

PARAS_KEYS = (
    "model",
    "corpus",
    "corpus_abs",
    "ntopics",
    "alpha",
    "beta",
    "niters",
    "twords",
    "name",
    "sstep",
    "seed",
)


@dataclass
class ParasRecord:
    model: str
    corpus: str
    corpus_abs: str
    ntopics: int
    alpha: float
    beta: float
    niters: int
    twords: int
    name: str
    sstep: int
    seed: int | None

    def to_hyperparams(self) -> Hyperparams:
        values = {f.name: getattr(self, f.name) for f in fields(Hyperparams)}
        return Hyperparams(**values).validate()


def _atomic_write(path: str, text: str):
    # A fresh random name per write keeps concurrent runs off each other's temp
    # file; O_EXCL refuses an existing one. Unlike mkstemp's fixed 0600, the
    # file gets the umask's mode, as the artifacts always had.
    tmp = f"{path}.{secrets.token_hex(8)}.tmp"
    created = False
    try:
        fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
        created = True
        with open(fd, "w", encoding="utf-8", newline="\n") as f:
            f.write(text)
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
    buf = io.StringIO()
    np.savetxt(buf, matrix, fmt="%.6g")
    _atomic_write(path, buf.getvalue())


def read_matrix(path: str) -> list[np.ndarray]:
    try:
        with open(path, encoding="utf-8") as f:
            lines = f.read().splitlines()
    except OSError as exc:
        raise ToolError(f"cannot read {path}: {exc}") from exc
    rows = []
    for lineno, line in enumerate(lines, start=1):
        try:
            rows.append(np.array([float(v) for v in line.split()], dtype=np.float64))
        except ValueError as exc:
            raise ToolError(f"bad numeric row at line {lineno} in {path}") from exc
    if not rows:
        raise ToolError(f"{path} contains no rows")
    return rows


def write_top_words(phi, vocab, twords: int, path: str):
    lines = []
    for k, row in enumerate(phi):
        ranked = top_words(row, vocab, twords)
        suffix = (" " + " ".join(w for w, _ in ranked)) if ranked else ""
        lines.append(f"Topic {k}:{suffix}")
    _atomic_write(path, "\n".join(lines) + "\n")


def write_assignments(z, path: str, kind: str):
    if kind in ("DMM", "DMMinf"):
        lines = [str(int(zd)) for zd in z]
    else:
        lines = [" ".join(str(int(t)) for t in zd) for zd in z]
    _atomic_write(path, "\n".join(lines) + "\n")


def read_assignments(path: str, kind: str) -> list:
    try:
        with open(path, encoding="utf-8") as f:
            lines = f.read().splitlines()
    except OSError as exc:
        raise ToolError(f"cannot read assignments file {path}: {exc}") from exc
    try:
        if kind in ("DMM", "DMMinf"):
            return [int(line) for line in lines]
        return [np.array([int(t) for t in line.split()], dtype=np.int64) for line in lines]
    except ValueError as exc:
        raise ToolError(f"bad topic assignment in {path}") from exc


def write_paras(hp: Hyperparams, corpus_path: str, path: str):
    values = {
        "model": hp.model,
        "corpus": corpus_path,
        "corpus_abs": os.path.abspath(corpus_path),
        "ntopics": hp.ntopics,
        "alpha": repr(float(hp.alpha)),
        "beta": repr(float(hp.beta)),
        "niters": hp.niters,
        "twords": hp.twords,
        "name": hp.name,
        "sstep": hp.sstep,
        "seed": hp.seed,
    }
    _atomic_write(path, "\n".join(f"{key}={values[key]}" for key in PARAS_KEYS) + "\n")


def read_paras(path: str) -> ParasRecord:
    try:
        with open(path, encoding="utf-8") as f:
            lines = f.read().splitlines()
    except OSError as exc:
        raise ToolError(f"cannot read paras file {path}: {exc}") from exc
    raw: dict[str, str] = {}
    for line in lines:
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
        return ParasRecord(
            model=raw["model"],
            corpus=raw["corpus"],
            corpus_abs=raw["corpus_abs"],
            ntopics=int(raw["ntopics"]),
            alpha=float(raw["alpha"]),
            beta=float(raw["beta"]),
            niters=int(raw["niters"]),
            twords=int(raw["twords"]),
            name=raw["name"],
            sstep=int(raw["sstep"]),
            seed=None if raw["seed"] == "None" else int(raw["seed"]),
        )
    except ValueError as exc:
        raise ToolError(f"bad value in paras file {path}: {exc}") from exc


def output_base(corpus_path: str, name: str) -> str:
    return os.path.join(os.path.dirname(os.path.abspath(corpus_path)), name)


def save_outputs(base, theta, phi, vocab, z, hp, corpus_path, iteration=None):
    """Write the five artifacts; iteration, when given, suffixes each name."""
    sfx = f".{iteration}" if iteration is not None else ""
    write_matrix(theta, f"{base}.theta{sfx}")
    write_matrix(phi, f"{base}.phi{sfx}")
    write_top_words(phi, vocab, hp.twords, f"{base}.topWords{sfx}")
    write_assignments(z, f"{base}.topicAssignments{sfx}", hp.model)
    write_paras(hp, corpus_path, f"{base}.paras{sfx}")
