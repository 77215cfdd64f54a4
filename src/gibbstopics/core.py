"""Shared model state: hyperparameters, Gibbs count tables, seeded sampling and
the theta/phi estimators used by both samplers. NumPy is imported by the
functions that call it, so Eval, which needs only ToolError, never loads it."""

from __future__ import annotations

import contextlib
import numbers
import os
from types import SimpleNamespace
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    import numpy as np

MODEL_KINDS = ("LDA", "DMM", "LDAinf", "DMMinf")

class ToolError(Exception):
    """Fatal, user-facing error: bad input, corrupt state or failed IO."""


class Record(SimpleNamespace):
    """A record whose fields are its class's annotations, in order, each
    defaulting to its class attribute if it has one; SimpleNamespace gives the
    repr and the equality by value."""

    def __init__(self, *args, **kwargs):
        cls = type(self)
        names = list(cls.__annotations__)
        values = {name: value for name, value in vars(cls).items() if name in names}
        values.update(zip(names, args), **kwargs)
        if (len(args) > len(names) or not kwargs.keys() <= set(names[len(args):])
                or len(values) < len(names)):
            raise TypeError(f"{cls.__name__}() takes {', '.join(names)}, each once, by position "
                            "or keyword; only a field with a default may be left out")
        super().__init__(**{name: values[name] for name in names})


class ArrayRecord(Record):
    """A Record that holds arrays, which have no truth value: equal only to
    itself, and hashable by identity."""

    __eq__, __ne__, __hash__ = object.__eq__, object.__ne__, object.__hash__


@contextlib.contextmanager
def replacing(path: str):
    """Yield (file, name): a fresh temp file <path>.<16 hex>.tmp, open for
    binary writing. When the block ends it is closed and renamed onto path;
    on any failure it is removed instead."""
    # A fresh random name keeps concurrent runs off each other's temp file, and
    # mode "x" (O_CREAT | O_EXCL, mode 0o666) refuses an existing one. Unlike
    # mkstemp's fixed 0600, the file gets the umask's mode.
    tmp = f"{path}.{os.urandom(8).hex()}.tmp"
    f = open(tmp, "xb")
    try:
        with f:
            yield f, tmp
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(OSError):
            os.unlink(tmp)
        raise


class Hyperparams(Record):
    model: str = "LDA"
    ntopics: int = 20
    alpha: float = 0.1
    beta: float = 0.01
    niters: int = 2000
    twords: int = 20
    name: str = "model"
    sstep: int = 0
    seed: int | None = None

    def validate(self):
        import numpy as np
        if self.model not in MODEL_KINDS:
            raise ToolError(f"unknown model kind {self.model!r}")
        # Refused before any range check: 2.5 topics, or a bool, would pass those.
        kinds = {"alpha": (numbers.Real, "a number"), "beta": (numbers.Real, "a number"),
                 "name": (str, "a string")}
        for field in ("ntopics", "alpha", "beta", "niters", "twords", "sstep", "seed", "name"):
            value = getattr(self, field)
            kind, what = kinds.get(field, (numbers.Integral, "an integer"))
            if (isinstance(value, bool) or not isinstance(value, kind)) and not (
                    field == "seed" and value is None):
                raise ToolError(f"{field} must be {what}, got {value!r}")
        for field in ("alpha", "beta"):  # a Fraction, or an int past int64, is an object to NumPy
            value = getattr(self, field)
            if np.asarray(value).dtype.kind not in "iuf":
                raise ToolError(f"{field} must be a number NumPy holds as a float or integer, "
                                f"got {value!r}")
        if not 1 <= self.ntopics < 2**63:  # topic ids are int64
            raise ToolError(f"ntopics must be in [1, 2**63), got {self.ntopics}")
        if not 0 < self.alpha < np.inf:
            raise ToolError(f"alpha must be finite and > 0, got {self.alpha}")
        if not 0 < self.beta < np.inf:
            raise ToolError(f"beta must be finite and > 0, got {self.beta}")
        if self.niters < 1:
            raise ToolError(f"niters must be >= 1, got {self.niters}")
        if self.twords < 0:
            raise ToolError(f"twords must be >= 0, got {self.twords}")
        if self.sstep < 0:
            raise ToolError(f"sstep must be >= 0, got {self.sstep}")
        if self.seed is not None and self.seed < 0:
            raise ToolError(f"seed must be >= 0, got {self.seed}")
        # Outputs are <corpus dir>/<name>.*, so a path would escape that directory;
        # .paras holds the name on one line.
        if (self.name in ("", ".", "..") or os.path.basename(self.name) != self.name
                or "\0" in self.name or self.name.splitlines() != [self.name]):
            raise ToolError(f"name must be a plain file name, got {self.name!r}")
        return self


class CountState(ArrayRecord):
    """Gibbs count tables and current assignments. LDA keeps no per-document
    counts: a document's are counted from its z when needed.

    nkw: K x V tokens of word w assigned to topic k: an F-contiguous view of
         a word-major V x K table, which the kernels get as state.nkw.T
    nk:  length-K topic token totals
    z:   int64 topics, one per token of corpus.words (LDA) or per document (DMM)
    mk:  length-K document counts per topic (DMM only)
    """

    ndk = None  # not a field: the frozen perfbench/tracer.py reads state.ndk
    nkw: np.ndarray
    nk: np.ndarray
    z: np.ndarray
    mk: np.ndarray | None = None


def make_rng(seed: int | None = None) -> tuple[np.random.Generator, int]:
    """Build a PCG64 generator; when seed is None, draw one from OS entropy
    and return it so the run can be reproduced."""
    import numpy as np
    if seed is None:
        seed = int(np.random.SeedSequence().entropy)
    return np.random.Generator(np.random.PCG64(seed)), seed


def estimate_theta_lda(corpus, state: CountState, hp: Hyperparams) -> np.ndarray:
    """theta[d,k] = (n_dk + alpha) / (N_d + K*alpha), row-stochastic D x K,
    with n_dk counted from the topic of every token."""
    import numpy as np
    doc_of = np.repeat(np.arange(corpus.n_docs), np.diff(corpus.offsets))
    counts = _count_table(doc_of, state.z, corpus.n_docs, hp.ntopics)
    theta = np.add(counts, hp.alpha, order="C", dtype=np.float64)
    theta /= counts.sum(axis=1, keepdims=True) + hp.ntopics * hp.alpha
    return theta


def estimate_phi(state: CountState, hp: Hyperparams) -> np.ndarray:
    """phi[k,w] = (n_kw + beta) / (n_k + V*beta), row-stochastic K x V in C order."""
    import numpy as np
    phi = np.add(state.nkw, hp.beta, order="C", dtype=np.float64)
    phi /= state.nk[:, None] + state.nkw.shape[1] * hp.beta
    return phi


def _count_table(rows, cols, n_rows: int, n_cols: int) -> np.ndarray:
    """Counts of the cells (rows[i], cols[i]) in an n_rows x n_cols table, D x K
    or K x V, stored column-major: the transpose of an n_cols x n_rows table, so
    a K x V one is word-major, as the kernels read it. One that cannot be
    allocated is a ToolError naming ntopics."""
    import numpy as np
    try:
        if int(n_rows) * int(n_cols) > np.iinfo(np.intp).max // 8:  # numpy cannot size its bytes
            raise MemoryError
        cells = cols * n_rows
        cells += rows
        return np.bincount(cells, minlength=n_rows * n_cols).reshape(n_cols, n_rows).T
    except MemoryError as exc:
        raise ToolError(f"ntopics is too large: its {n_rows} x {n_cols} count table "
                        "cannot be allocated") from exc


def recount_lda(corpus, z, ntopics: int) -> CountState:
    """Build all LDA count tables from the topic of every token."""
    import numpy as np
    z = np.asarray(z, dtype=np.int64)
    nkw = _count_table(z, corpus.words, ntopics, len(corpus.vocab))
    return CountState(nkw=nkw, nk=nkw.sum(axis=1), z=z)


def recount_dmm(corpus, z, ntopics: int) -> CountState:
    """Build all DMM count tables from the per-document topics."""
    import numpy as np
    z = np.asarray(z, dtype=np.int64)
    nkw = _count_table(z.repeat(np.diff(corpus.offsets)), corpus.words, ntopics, len(corpus.vocab))
    return CountState(nkw=nkw, nk=nkw.sum(axis=1), z=z, mk=np.bincount(z, minlength=ntopics))

