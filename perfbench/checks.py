"""Output checks of one CLI invocation. Each returns a list of problems; an
empty list means the invocation's outputs are correct."""

from __future__ import annotations

import hashlib
import os
import re

import numpy as np

SUFFIXES = ("theta", "phi", "topWords", "topicAssignments", "paras")
ROW_SUM_TOL = 1e-4  # precision of the 6-significant-digit matrix format
EVAL_LINE = re.compile(r"^(\S+)\tpurity=([0-9.]+)\tnmi=([0-9.]+)$")


def artifact_paths(base):
    return [f"{base}.{suffix}" for suffix in SUFFIXES]


def digest(paths) -> str:
    h = hashlib.sha256()
    for path in paths:
        with open(path, "rb") as f:
            h.update(f.read())
    return h.hexdigest()


def _read_table(path):
    with open(path, encoding="utf-8") as f:
        rows = [line.split() for line in f.read().splitlines()]
    if len({len(row) for row in rows}) > 1:
        raise ValueError("ragged rows")
    return np.array(rows, dtype=np.float64)


def _stochastic_problems(path, n_rows, n_cols):
    try:
        table = _read_table(path)
    except ValueError as exc:
        return [f"{path}: unreadable matrix ({exc})"]
    if table.shape != (n_rows, n_cols):
        return [f"{path}: shape {table.shape} != ({n_rows}, {n_cols})"]
    problems = []
    if not np.all(np.isfinite(table)) or np.any(table < 0):
        problems.append(f"{path}: non-finite or negative entries")
    worst = float(np.max(np.abs(table.sum(axis=1) - 1.0)))
    if worst > ROW_SUM_TOL:
        problems.append(f"{path}: a row sums to 1 +- {worst:.2e}")
    return problems


def read_assignments(path, kind):
    """Parse .topicAssignments: per-token arrays (LDA) or per-document ids (DMM)."""
    with open(path, encoding="utf-8") as f:
        lines = f.read().splitlines()
    if kind == "DMM":
        return np.array([int(line) for line in lines], dtype=np.int64)
    return [np.array(line.split(), dtype=np.int64) for line in lines]


def _assignment_problems(path, run):
    try:
        z = read_assignments(path, run.kind)
    except ValueError:
        return [f"{path}: not one integer topic id per token"]
    if len(z) != run.lengths.size:
        return [f"{path}: {len(z)} lines != {run.lengths.size} documents"]
    if run.kind == "LDA":
        if not np.array_equal([zd.size for zd in z], run.lengths):
            return [f"{path}: token counts do not match the corpus"]
        z = np.concatenate(z)
    if z.size and (z.min() < 0 or z.max() >= run.ntopics):
        return [f"{path}: topic id out of range"]
    return []


def model_problems(run) -> list:
    """All five artifacts exist; theta is D x K and phi K x V, both
    row-stochastic; assignments match the (folded) corpus."""
    missing = [p for p in artifact_paths(run.base) if not os.path.isfile(p)]
    if missing:
        return [f"missing artifact {p}" for p in missing]
    return (_stochastic_problems(run.base + ".theta", run.lengths.size, run.ntopics)
            + _stochastic_problems(run.base + ".phi", run.ntopics, run.n_vocab)
            + _assignment_problems(run.base + ".topicAssignments", run))


def parse_eval(stdout: str):
    """The NMI of the single file an Eval invocation scored, or None."""
    lines = stdout.strip().splitlines()
    match = EVAL_LINE.match(lines[0]) if len(lines) == 1 else None
    return float(match.group(3)) if match else None
