"""The compiled kernels (sweeps.c) in one library: lda_sweep and dmm_sweep,
the sweeps of both samplers; format_matrix, format_ids and top_ids, which
persistence writes .theta, .phi, .topicAssignments and .topWords with; and
tokenize, which persistence.read_tokens reads corpora and .topicAssignments
with. Every mode but Eval, which only reads matrices, loads the library.

It is compiled with the system `cc` on first use and cached under
$XDG_CACHE_HOME/gibbstopics (~/.cache/gibbstopics when that is unset or
relative), one library per source and flags, and loaded through ctypes.

This module is the only way into the library. Its kernels check no array, so a
caller passes every array it did not make itself to a check: a corpus's
offsets and word ids (or DMM's sorted words) to check_corpus, and count
tables, assignments and log tables to check (exact dtype and shape,
C-contiguous, writable if written) and their ids to check_range. Arrays the
caller makes with the kernel's dtype and shape (uniforms, scratch and output
buffers, tokenize's arrays, the writers' matrices and ids) need no check.
call runs a kernel, passing each ndarray as its .ctypes object, which keeps
the array alive for the call.
"""

from __future__ import annotations

import ctypes
import os
from functools import cache

import numpy as np

from gibbstopics.core import ToolError, replacing

_SOURCE = os.path.join(os.path.dirname(os.path.abspath(__file__)), "sweeps.c")
# No -march=native or -ffast-math: FMA contraction or reassociation would
# change rounding, and with it the draws.
_BUILD = ("cc", "-O2", "-fPIC", "-shared", "-ffp-contract=off")


def _build(lib_path: str):
    """Compile sweeps.c into lib_path. The compiler writes a fresh temp file
    that is then renamed into place, so concurrent first runs never load a
    half-written library."""
    import subprocess  # here, not at the top: only a build needs it, every import would pay

    try:
        os.makedirs(os.path.dirname(lib_path), exist_ok=True)
        with replacing(lib_path) as (_, tmp):
            subprocess.run([*_BUILD, "-o", tmp, _SOURCE], check=True, capture_output=True,
                           text=True)
    except subprocess.CalledProcessError as exc:
        first = (exc.stderr.strip().splitlines() or [f"exit status {exc.returncode}"])[0]
        raise ToolError(f"cannot build the compiled kernels with `{' '.join(_BUILD)}`: "
                        f"{first}") from exc
    except OSError as exc:
        raise ToolError(f"cannot build the compiled kernels with `{' '.join(_BUILD)}`: "
                        f"{exc}") from exc


@cache
def _kernel():
    """The compiled library, built on first use, with the argument types of
    every kernel set."""
    import hashlib  # here, not at the top: import and Eval never need it

    try:
        with open(_SOURCE, "rb") as f:
            source = f.read()
    except OSError as exc:
        raise ToolError(f"cannot read the kernel source {_SOURCE}: {exc}") from exc
    digest = hashlib.sha256(source + " ".join(_BUILD).encode()).hexdigest()[:16]
    cache_home = os.environ.get("XDG_CACHE_HOME", "")
    if not os.path.isabs(cache_home):  # the XDG spec: relative values are ignored
        cache_home = os.path.join(os.path.expanduser("~"), ".cache")
    lib_path = os.path.join(cache_home, "gibbstopics", f"sweeps-{digest}.so")
    if not os.path.isfile(lib_path):
        _build(lib_path)
    try:
        lib = ctypes.CDLL(lib_path)
    except OSError as exc:
        raise ToolError(f"cannot load the compiled kernels {lib_path}: {exc}") from exc
    i64, ptr, f64 = ctypes.c_int64, ctypes.c_void_p, ctypes.c_double
    kernels = {"lda_sweep": (i64, ptr, ptr, ptr, ptr, ptr, ptr, i64, i64, f64, f64, ptr, ptr),
               "dmm_sweep": (i64, ptr, ptr, ptr, ptr, ptr, ptr, i64, ptr, i64, ptr, i64, ptr,
                             ptr, ptr, ptr),
               "format_matrix": (i64, i64, ptr, ptr), "format_ids": (i64, ptr, ptr, ptr),
               "top_ids": (i64, i64, ptr, i64, ptr), "tokenize": (i64, ptr, ptr, ptr, ptr, ptr)}
    for name, argtypes in kernels.items():
        getattr(lib, name).argtypes, getattr(lib, name).restype = argtypes, i64
    return lib


def check(who: str, *arrays):
    """Refuse, with a ToolError naming who, each (what, array, dtype, shape,
    written) whose array is not an ndarray of exactly that dtype and shape,
    C-contiguous, and writable if the kernel writes it."""
    for what, a, dtype, shape, written in arrays:
        if not (isinstance(a, np.ndarray) and a.dtype == dtype and a.shape == shape
                and a.flags.c_contiguous and (a.flags.writeable or not written)):
            raise ToolError(f"{who}: {what} is not a {'writable ' if written else ''}"
                            f"C-contiguous {np.dtype(dtype)} array of shape {shape}")


def check_range(who: str, what: str, a: np.ndarray, lo: int, hi: int):
    """Refuse a checked array holding a value outside [lo, hi)."""
    if a.size and not lo <= a.min() <= a.max() < hi:
        raise ToolError(f"{who}: {what} are not in [{lo}, {hi})")


def check_corpus(who: str, offsets, words, n_vocab: int) -> int:
    """Refuse, with a ToolError naming who, a corpus a kernel cannot read:
    offsets or word ids that are not C-contiguous int64 vectors, offsets that
    do not rise (non-strictly) from 0 to the number of words, or a word id
    outside [0, n_vocab). Returns the number of documents, D: the offsets come
    first, as D is only a count once they are known to rise from 0."""
    n_docs = np.size(offsets) - 1
    check(who, ("document offsets", offsets, np.int64, (n_docs + 1,), False),
          ("word ids", words, np.int64, (np.size(words),), False))
    if not (offsets.size and offsets[0] == 0 and offsets[-1] == words.size
            and (np.diff(offsets) >= 0).all()):
        raise ToolError(f"{who}: document offsets do not rise from 0 to {words.size}")
    check_range(who, "word ids", words, 0, n_vocab)
    return n_docs


def call(name: str, *args) -> int:
    """Run the kernel name on args, each ndarray passed as its .ctypes object
    (which holds the array until the call returns) and None as NULL."""
    return getattr(_kernel(), name)(*[a.ctypes if isinstance(a, np.ndarray) else a for a in args])
