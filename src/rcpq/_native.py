"""Build, cache and load the package's C kernels, from two C sources.

* ``w2a4`` (``_w2a4.c``): the exact integer row sums of ``gemv.gemv_fast``.
  The same library holds ``w2a4_tiles``, the repack of a
  ``pack.PackedWeights`` into that kernel's tiles, which ``gemv`` runs at
  the weights' first call.
* ``ldp``, ``ldp_grads`` and ``clip`` (``_quant.c``): the LDP encoder
  behind ``ldp.fake_quant``, its backward pass behind ``ldp.grads``, and
  the uniform scorer of the clip candidates in ``calib.grid_search_clip``,
  which writes either every candidate's error cast to float32 as numpy's
  plain cast rounds it, with its float32 sum of squares (the screen's
  operand), or the kept candidates' float64 errors. The LDP entries take
  the sigmoids of the logits from their callers, and derive thresholds,
  levels and derivatives per group. One library serves the quantize side
  and training, so neither compiles the GEMV.

Each kernel is compiled on first use, with ``cc`` and ``_CFLAGS``, into
``$XDG_CACHE_HOME/rcpq/`` (default ``~/.cache/rcpq/``) and called through
``ctypes``. A library's file name carries a hash of its source and the
flags, so a later process loads it without compiling. The cache keeps one
library per hash, and nothing prunes it: checkouts with different sources
can share it without rebuilding in turn. The kernels are AVX2 code
compiled under a target attribute (the repack is plain C), and each library
is chosen by its run-time probe ``rcpq_has_avx2``, so the flags carry no
``-march=native`` and a cache directory may be shared between machines.
``-ffp-contract=off`` keeps the compiler from fusing a multiply and an add
into one FMA: the LDP entries' and the clip scorer's bits equal numpy's only
when each float operation rounds once, as numpy's do. The GEMV sums
integers, which the flag cannot change.

Every entry takes raw pointers (see ``_ENTRY``), so nothing here checks an
array; each caller says why its arrays fit. Each entry also takes whole
blocks only: groups of a multiple of its block size (``_ENTRY``: 4 values
for the GEMV, its repack and the two LDP entries, 8 for the clip scorer,
whose values must also be finite), and ``covering`` gives it only for such
groups. The LDP backward pass also says where it meets a value that is not
finite, and ``ldp.grads`` then runs its reference. A kernel that fails to
build or load, or a CPU without AVX2, gives ``None`` for the rest of the
process. Either way its caller runs its numpy reference.
"""

from __future__ import annotations

import ctypes
import functools
import hashlib
import os
import subprocess
import tempfile
from pathlib import Path

_CFLAGS = ("-O3", "-ffp-contract=off", "-fPIC", "-shared")

_i64 = ctypes.c_int64
_f64 = ctypes.c_double
_ptr = ctypes.c_void_p

# Each kernel's source (``_<source>.c``), entry point, C signature and block
# size, which its group sizes must be a multiple of; every one returns int64.
# Arrays go as raw pointers (an int, or None for NULL), and a caller may take
# a buffer's address once for many calls: with numpy's ndpointer checks,
# ``ldp.fake_quant`` on a (32, 4, 16) layer took ~85 us per call against
# ~71 us without, on a 2-vCPU AVX2 host. So no dtype, shape or order is
# checked here: each caller builds C-ordered arrays of the dtypes and shapes
# its entry's C comment gives, and holds them while the kernel runs.
_ENTRY = {
    "w2a4": ("w2a4", "rcpq_w2a4_gemv", [_ptr, _ptr, _ptr, _ptr, _ptr, _i64, _i64, _i64, _ptr], 4),
    "w2a4_tiles": ("w2a4", "rcpq_w2a4_tiles", [_ptr, _i64, _i64, _i64, _ptr], 4),
    "ldp": ("quant", "rcpq_ldp_encode", [_ptr, _i64, _i64, _ptr, _ptr, _ptr], 4),
    "ldp_grads": ("quant", "rcpq_ldp_grads", [_ptr, _i64, _i64, _ptr, _ptr, _ptr, _ptr, _ptr], 4),
    "clip": ("quant", "rcpq_clip_errors", [_ptr, _i64, _f64, _f64, _ptr, _ptr, _i64, _ptr, _ptr, _ptr, _ptr], 8),
}


def source_of(name: str) -> Path:
    """The C source of kernel ``name``."""
    return Path(__file__).with_name(f"_{_ENTRY[name][0]}.c")


def _cache_dir() -> Path:
    base = os.environ.get("XDG_CACHE_HOME") or os.path.join(os.path.expanduser("~"), ".cache")
    return Path(base) / "rcpq"


def _build(source: bytes, lib: Path) -> None:
    """Compile ``source`` to ``lib``, through a temp file renamed onto it."""
    fd, tmp = tempfile.mkstemp(dir=lib.parent, prefix=lib.name, suffix=".tmp")
    os.close(fd)
    try:
        subprocess.run(
            ["cc", *_CFLAGS, "-x", "c", "-", "-o", tmp], input=source, capture_output=True, check=True
        )
        os.replace(tmp, lib)
    finally:
        if os.path.exists(tmp):
            os.remove(tmp)


def _has_avx2(lib) -> bool:
    """The library's run-time probe: whether this CPU runs its AVX2 code."""
    lib.rcpq_has_avx2.argtypes = []
    lib.rcpq_has_avx2.restype = ctypes.c_int
    return bool(lib.rcpq_has_avx2())


def open_kernel(name: str, path: Path):
    """Kernel ``name``'s entry point in the built library at ``path``; None if the CPU lacks AVX2."""
    lib = ctypes.CDLL(str(path))
    if not _has_avx2(lib):
        return None
    _, entry, argtypes, _ = _ENTRY[name]
    kernel = getattr(lib, entry)
    kernel.argtypes = argtypes
    kernel.restype = _i64
    return kernel


@functools.cache
def kernel(name: str):
    """Kernel ``name``, built into the cache on first use; None if that
    fails or the CPU lacks AVX2.

    A failure is not retried: the process keeps the numpy path.
    """
    try:
        code = source_of(name).read_bytes()
        digest = hashlib.sha256(code + " ".join(_CFLAGS).encode()).hexdigest()[:16]
        lib = _cache_dir() / f"{_ENTRY[name][0]}-{digest}.so"
        if not lib.exists():
            lib.parent.mkdir(parents=True, exist_ok=True)
            _build(code, lib)
        return open_kernel(name, lib)
    except (OSError, subprocess.CalledProcessError):
        return None


def covering(name: str, size: int):
    """Kernel ``name`` where it covers groups of ``size`` values, a positive
    multiple of its block size, and loads; else None."""
    return kernel(name) if size > 0 and size % _ENTRY[name][3] == 0 else None


def path(name: str, size: int | None = None) -> str:
    """``"c"`` or ``"numpy"``: whether kernel ``name`` loads in this process,
    or with ``size`` whether its caller runs it on groups of that size."""
    found = kernel(name) if size is None else covering(name, size)
    return "numpy" if found is None else "c"
