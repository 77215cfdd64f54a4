"""The compiled kernels (sweeps.c) in one library: lda_sweep and dmm_sweep,
the sweeps of both samplers, and format_matrix, the matrix writer's
formatter.

It is compiled with the system `cc` on first use and cached under
$XDG_CACHE_HOME/gibbstopics, one library per source and flags, and loaded
through ctypes. The kernels read and write through raw pointers, so every
caller checks its arrays first (the sweeps with c_int64).
"""

from __future__ import annotations

import contextlib
import ctypes
import hashlib
import os
import secrets
from functools import cache

import numpy as np

from gibbstopics.core import ToolError

_SOURCE = os.path.join(os.path.dirname(os.path.abspath(__file__)), "sweeps.c")
# No -march=native or -ffast-math: FMA contraction or reassociation would
# change rounding, and with it the draws.
_BUILD = ("cc", "-O2", "-fPIC", "-shared", "-ffp-contract=off")


def _build(lib_path: str):
    """Compile sweeps.c into lib_path. The compiler writes a fresh O_EXCL
    temp name that is then renamed into place, so concurrent first runs never
    load a half-written library."""
    import subprocess  # here, not at the top: only a build needs it, every import would pay

    tmp = f"{lib_path}.{secrets.token_hex(8)}.tmp"
    created = False
    try:
        os.makedirs(os.path.dirname(lib_path), exist_ok=True)
        os.close(os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666))
        created = True
        subprocess.run([*_BUILD, "-o", tmp, _SOURCE], check=True, capture_output=True, text=True)
        os.replace(tmp, lib_path)
        created = False
    except subprocess.CalledProcessError as exc:
        first = (exc.stderr.strip().splitlines() or [f"exit status {exc.returncode}"])[0]
        raise ToolError(f"cannot build the compiled kernels with `{' '.join(_BUILD)}`: "
                        f"{first}") from exc
    except OSError as exc:
        raise ToolError(f"cannot build the compiled kernels with `{' '.join(_BUILD)}`: "
                        f"{exc}") from exc
    finally:
        if created:
            with contextlib.suppress(OSError):
                os.unlink(tmp)


@cache
def _kernel():
    """The compiled library, built on first use, with the argument types of
    every kernel set."""
    try:
        with open(_SOURCE, "rb") as f:
            source = f.read()
    except OSError as exc:
        raise ToolError(f"cannot read the kernel source {_SOURCE}: {exc}") from exc
    digest = hashlib.sha256(source + " ".join(_BUILD).encode()).hexdigest()[:16]
    cache_home = os.environ.get("XDG_CACHE_HOME") or os.path.join(os.path.expanduser("~"), ".cache")
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
    lib.lda_sweep.restype = lib.dmm_sweep.restype = lib.format_matrix.restype = i64
    return lib


def c_int64(a, shape) -> bool:
    """Whether a is a C-contiguous int64 ndarray of exactly this shape."""
    return (isinstance(a, np.ndarray) and a.dtype == np.int64 and a.flags.c_contiguous
            and a.shape == shape)
