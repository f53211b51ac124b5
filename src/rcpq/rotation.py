"""Hadamard rotations: construction, weight fusion, and online application.

Only power-of-two sizes are supported; the matrices come from the standard
doubling construction ``H_{2n} = [[H_n, H_n], [H_n, -H_n]]`` starting from
``[1]``. The randomized variant left-multiplies by a uniform random +/-1
diagonal, which preserves orthogonality while decorrelating signs.

Fusion computes ``R_front^T @ W @ R_rear`` in float64 and narrows to float32,
so a rotation baked into a weight is exact enough that rotating the matching
activations online leaves layer outputs unchanged to ~1e-9 relative.
"""

from __future__ import annotations

import numpy as np

from .core import make_rng
from .errors import ConfigError, ShapeError

__all__ = [
    "hadamard",
    "randomized_hadamard",
    "fuse",
    "apply_online",
]


def _check_pow2(n: int) -> None:
    if n < 1 or (n & (n - 1)) != 0:
        raise ConfigError(f"Hadamard size must be a power of two >= 1, got {n}")


def hadamard(n: int, normalized: bool = True) -> np.ndarray:
    """Doubling-construction Hadamard matrix of order ``n`` (float64).

    Unnormalized entries are +/-1 with an all-ones first row; the normalized
    variant scales by 1/sqrt(n) and satisfies ``H @ H.T == I``.
    """
    _check_pow2(n)
    h = np.ones((1, 1), dtype=np.float64)
    while h.shape[0] < n:
        h = np.block([[h, h], [h, -h]])
    if normalized:
        h /= np.sqrt(float(n))
    return h


def randomized_hadamard(n: int, seed: int) -> np.ndarray:
    """Random-sign Hadamard: D @ H with D a seeded +/-1 diagonal, H normalized."""
    _check_pow2(n)
    rng = make_rng(seed)
    signs = rng.integers(0, 2, size=n, dtype=np.int64) * 2 - 1
    h = hadamard(n, normalized=True)
    h *= signs[:, None]
    return h


def fuse(
    w: np.ndarray,
    r_front: np.ndarray | None = None,
    r_rear: np.ndarray | None = None,
) -> np.ndarray:
    """Bake rotations into a weight: ``R_front^T @ W @ R_rear`` -> float32.

    Either side may be None (identity). Computed in float64 so the fused
    weight loses only the final float32 narrowing.
    """
    out = np.asarray(w, dtype=np.float64)
    if out.ndim != 2:
        raise ShapeError("fuse expects a 2-D weight")
    if r_front is not None:
        r_front = np.asarray(r_front, dtype=np.float64)
        if r_front.shape[0] != out.shape[0]:
            raise ShapeError(f"front rotation {r_front.shape} does not match weight {out.shape}")
        out = r_front.T @ out
    if r_rear is not None:
        r_rear = np.asarray(r_rear, dtype=np.float64)
        if r_rear.shape[0] != out.shape[1]:
            raise ShapeError(f"rear rotation {r_rear.shape} does not match weight {out.shape}")
        out = out @ r_rear
    return out.astype(np.float32)


def apply_online(x: np.ndarray, r: np.ndarray) -> np.ndarray:
    """Rotate activations on the fly: ``x @ r`` in the dtype of ``x``."""
    x = np.asarray(x)
    r = np.asarray(r)
    if x.ndim != 2 or x.shape[1] != r.shape[0]:
        raise ShapeError(f"activation {x.shape} does not match rotation {r.shape}")
    return x @ r.astype(x.dtype, copy=False)

