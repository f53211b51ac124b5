"""Dense matrix I/O, deterministic randomness, and the group layout.

Matrices are plain ``numpy.ndarray`` values: 2-D, C-order, float32 storage.
Code whose contract says "accumulate in binary64", such as ``rotation.fuse``,
promotes to float64 itself and narrows the result back to float32.

Randomness is pinned project-wide to the counter-based Philox4x64 bit
generator, so any seed reproduces the identical stream on every platform.
Independent sub-streams are derived from (seed, stream) key pairs rather than
by jumping, which keeps parallel Monte Carlo splits order-independent.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DataError, FormatError, ShapeError, UnsupportedLayoutError

__all__ = [
    "GroupLayout",
    "make_rng",
    "load_npy",
    "save_npy",
    "as_matrix",
]


@dataclass(frozen=True)
class GroupLayout:
    """Group-wise quantization layout for a weight of shape (H, C).

    Quantization parameters are shared by runs of ``group_size`` consecutive
    input channels within each output row, so a weight splits into
    ``out_channels x num_groups`` independent groups.
    """

    out_channels: int
    in_channels: int
    group_size: int = 128

    def __post_init__(self):
        if self.out_channels < 1 or self.in_channels < 1 or self.group_size < 1:
            raise ShapeError("layout dimensions must be positive")
        if self.in_channels % self.group_size != 0:
            raise ShapeError(
                f"group size {self.group_size} does not divide {self.in_channels} input channels"
            )

    @property
    def num_groups(self) -> int:
        return self.in_channels // self.group_size

    def check(self, w: np.ndarray) -> None:
        if w.shape != (self.out_channels, self.in_channels):
            raise ShapeError(f"weight {w.shape} does not match layout {self}")

    def grouped(self, w: np.ndarray) -> np.ndarray:
        """View of ``w`` reshaped to (out_channels, num_groups, group_size)."""
        self.check(w)
        return w.reshape(self.out_channels, self.num_groups, self.group_size)


def make_rng(seed: int, stream: int = 0) -> np.random.Generator:
    """Deterministic Philox-backed generator for (seed, stream)."""
    if seed < 0 or stream < 0:
        raise ValueError("seed and stream must be non-negative")
    return np.random.Generator(np.random.Philox(key=[seed, stream]))


def as_matrix(a: np.ndarray) -> np.ndarray:
    """Validate and normalize an array to the package's matrix convention."""
    a = np.asarray(a)
    if a.ndim != 2:
        raise UnsupportedLayoutError(f"expected a 2-D array, got ndim={a.ndim}")
    if not np.isfinite(a).all():
        raise DataError("matrix contains NaN or Inf")
    return np.ascontiguousarray(a, dtype=np.float32)


def load_npy(path) -> np.ndarray:
    """Load a 2-D float matrix from an NPY file.

    Accepts little-endian float32/float64 payloads in C order; float64 is
    narrowed to float32. Anything else is rejected rather than coerced, and
    so is a payload that is not finite after the narrowing.
    """
    try:
        arr = np.load(path, allow_pickle=False)
    except (ValueError, EOFError) as exc:
        raise FormatError(f"not a readable NPY file: {path}: {exc}") from exc

    if arr.ndim != 2:
        raise UnsupportedLayoutError(f"{path}: expected 2-D, got shape {arr.shape}")
    if arr.size and not arr.flags["C_CONTIGUOUS"]:
        raise UnsupportedLayoutError(f"{path}: Fortran-order payload not supported")
    if arr.dtype.byteorder == ">":
        raise UnsupportedLayoutError(f"{path}: big-endian payload not supported")
    if arr.dtype not in (np.dtype(np.float32), np.dtype(np.float64)):
        raise FormatError(f"{path}: dtype {arr.dtype} not supported (need <f4 or <f8)")
    # Checked after the narrowing: a finite float64 past float32's range becomes inf.
    with np.errstate(over="ignore"):
        arr = np.ascontiguousarray(arr.astype(np.float32, copy=False))
    if not np.isfinite(arr).all():
        raise DataError(f"{path}: payload contains NaN or Inf, or values past float32's range")
    return arr


def save_npy(m: np.ndarray, path) -> None:
    """Write a matrix as little-endian float32 NPY v1.0; round-trips bit-exactly."""
    m = as_matrix(m)
    with open(path, "wb") as fh:
        np.save(fh, m)
