"""The compiled kernels (sweeps.c) in one library: lda_sweep and dmm_sweep,
the sweeps of both samplers, format_matrix, the matrix writer's formatter,
and tokenize, which persistence.read_tokens reads corpora and .topicAssignments
with. Every mode but Eval, which only reads matrices, loads the library.

It is compiled with the system `cc` on first use and cached under
$XDG_CACHE_HOME/gibbstopics (~/.cache/gibbstopics when that is unset or
relative), one library per source and flags, and loaded through ctypes.

This module is the only way into the library. Its kernels check no array, so
a caller passes every array it did not make itself (the corpus, count tables,
assignments and log tables) to check (exact dtype and shape, C-contiguous,
writable if written) and their ids, counts and offsets to check_range and
check_offsets. Arrays the caller makes with the kernel's dtype and shape
(uniforms, scratch and output buffers, write_matrix's matrix) need no check.
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
    lib.lda_sweep.argtypes = (i64, ptr, ptr, ptr, ptr, ptr, ptr, i64, i64, f64, f64, ptr, ptr)
    lib.dmm_sweep.argtypes = (i64, ptr, ptr, ptr, ptr, ptr, ptr, ptr, i64, i64,
                              ptr, i64, ptr, i64, ptr, ptr, ptr, ptr)
    lib.format_matrix.argtypes = (i64, i64, ptr, ptr)
    lib.tokenize.argtypes = (i64, ptr, ptr, ptr, ptr, ptr)
    for kernel in (lib.lda_sweep, lib.dmm_sweep, lib.format_matrix, lib.tokenize):
        kernel.restype = i64
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


def check_offsets(who: str, what: str, offsets: np.ndarray, n: int):
    """Refuse checked offsets that do not rise (non-strictly) from 0 to n."""
    if not (offsets.size and offsets[0] == 0 and offsets[-1] == n
            and (np.diff(offsets) >= 0).all()):
        raise ToolError(f"{who}: {what} do not rise from 0 to {n}")


def call(name: str, *args) -> int:
    """Run the kernel name on args, each ndarray passed as its .ctypes object
    (which holds the array until the call returns) and None as NULL."""
    return getattr(_kernel(), name)(*[a.ctypes if isinstance(a, np.ndarray) else a for a in args])
