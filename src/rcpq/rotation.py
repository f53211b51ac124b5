"""Hadamard rotations: construction, weight fusion, and online application.

Only power-of-two sizes are supported; the matrices come from the standard
doubling construction ``H_{2n} = [[H_n, H_n], [H_n, -H_n]]`` starting from
``[1]``. The randomized variant left-multiplies by a uniform random +/-1
diagonal, which preserves orthogonality while decorrelating signs.

``randomized_hadamard`` returns that rotation as its seeded sign vector, a
``RandomizedHadamard``; nothing dense is built until numpy asks for the
matrix. Both consumers apply it the same way: they sign the rows and apply
the unnormalized transform by the Kronecker factorization
``H_n = H_p (x) H_q`` (p the largest power of two not above ``sqrt(n)``,
q = n / p), two small matmuls against ``hadamard(p)`` and ``hadamard(q)``
in float64, then scale once by ``1/sqrt(n)`` and narrow once. For
``n = 4096`` that is 2 x 64 x 4096 multiply-adds per row instead of
4096^2, with no 64 MB matrix in memory. Each row is transformed by the same
calls whatever the number of rows, so a row's bits do not depend on the
rows beside it.

* ``fuse`` bakes it into a weight once, 256 rows at a time, narrowing to
  float32. Containers are made this way.
* ``apply_online`` rotates activations on every call and narrows to the
  dtype of ``x``.

``fuse``'s ``r_rear`` and ``apply_online`` take no dense matrix in its place.

Fusion computes ``R_front^T @ W @ R_rear`` in float64 and narrows to float32,
so a rotation baked into a weight is exact enough that rotating the matching
activations online leaves layer outputs unchanged to ~1e-9 relative.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .core import make_rng
from .errors import ConfigError, ShapeError

__all__ = [
    "RandomizedHadamard",
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


@dataclass(frozen=True, eq=False)
class RandomizedHadamard:
    """The rotation ``D @ H / sqrt(n)``, held as the diagonal of ``D``.

    ``signs`` is the float64 +/-1 vector of length ``n``. ``np.asarray(r)``
    builds the dense matrix, so numpy code (``w @ r``) sees the same
    float64 bits as ``hadamard(n)`` with its rows signed; ``fuse`` and
    ``apply_online`` use the signs without it.
    """

    signs: np.ndarray

    def __array__(self, dtype=None, copy=None):
        if copy is False:
            raise ValueError("a RandomizedHadamard has no dense matrix to share")
        h = hadamard(self.signs.size, normalized=True)
        h *= self.signs[:, None]
        return h if dtype is None else h.astype(dtype, copy=False)


def randomized_hadamard(n: int, seed: int) -> RandomizedHadamard:
    """Random-sign Hadamard: D @ H with D a seeded +/-1 diagonal, H normalized.

    Returns the signs only, as a ``RandomizedHadamard`` (n floats); the
    dense matrix is built by whoever asks numpy for it.
    """
    _check_pow2(n)
    signs = make_rng(seed).integers(0, 2, size=n, dtype=np.int64) * 2 - 1
    return RandomizedHadamard(signs.astype(np.float64))


def fuse(
    w: np.ndarray,
    r_front: np.ndarray | RandomizedHadamard | None = None,
    r_rear: RandomizedHadamard | None = None,
) -> np.ndarray:
    """Bake rotations into a weight: ``R_front^T @ W @ R_rear`` -> float32.

    Either side may be None (identity). Computed in float64 so the fused
    weight loses only the final float32 narrowing. ``r_rear`` is applied by
    the transform, as in ``apply_online``, over fixed blocks of rows, so a
    row's bits do not depend on the rows beside it and no dense rotation or
    whole-weight float64 copy is made. An ``r_rear`` that is not a
    ``RandomizedHadamard`` raises ``TypeError``. ``r_front`` is multiplied
    as a matrix.
    """
    if r_rear is not None and not isinstance(r_rear, RandomizedHadamard):
        raise TypeError(f"fuse rotates the rear by a RandomizedHadamard, got {type(r_rear).__name__}")
    out = np.asarray(w)
    if out.ndim != 2:
        raise ShapeError("fuse expects a 2-D weight")
    if r_front is not None:
        r_front = np.asarray(r_front, dtype=np.float64)
        if r_front.shape[0] != out.shape[0]:
            raise ShapeError(f"front rotation {r_front.shape} does not match weight {out.shape}")
        out = r_front.T @ out.astype(np.float64, copy=False)
    if r_rear is None:
        return out.astype(np.float32)
    return _fuse_transform(out, r_rear)


_FUSE_ROWS = 256  # rows per float64 block: ~8 MB each at n = 4096


def _fuse_transform(w: np.ndarray, r: RandomizedHadamard) -> np.ndarray:
    n = r.signs.size
    if w.shape[1] != n:
        raise ShapeError(f"rear rotation ({n}, {n}) does not match weight {w.shape}")
    out = np.empty(w.shape, dtype=np.float32)
    for start in range(0, w.shape[0], _FUSE_ROWS):
        out[start : start + _FUSE_ROWS] = _rotate_rows(w[start : start + _FUSE_ROWS], r)
    return out


@functools.lru_cache(maxsize=None)
def _factor(n: int) -> np.ndarray:
    h = hadamard(n, normalized=False)
    h.flags.writeable = False
    return h


def _hadamard_transform(x: np.ndarray) -> np.ndarray:
    """``x @ hadamard(n, normalized=False)`` for the rows of a 2-D float64 ``x``.

    Uses ``H_n = H_p (x) H_q``: a row viewed as a (p, q) matrix ``X`` maps to
    ``H_p @ X @ H_q`` (both factors are symmetric). Each row goes through
    the same (p, q)-sized products, whatever the number of rows.
    """
    rows, n = x.shape
    _check_pow2(n)
    p = 1 << ((n.bit_length() - 1) // 2)
    y = _factor(p) @ (x.reshape(rows, p, n // p) @ _factor(n // p))
    return y.reshape(rows, n)


def _rotate_rows(x: np.ndarray, r: RandomizedHadamard) -> np.ndarray:
    """``x @ np.asarray(r)`` in float64 by signs, the transform and one scaling."""
    y = _hadamard_transform(x * r.signs)
    y *= 1.0 / np.sqrt(r.signs.size)
    return y


def apply_online(x: np.ndarray, r: RandomizedHadamard) -> np.ndarray:
    """Rotate activations on the fly: ``x @ np.asarray(r)`` in the dtype of ``x``.

    Applied as signs, the Kronecker-factored transform and one scaling, in
    float64, narrowed once at the end. Raises ``TypeError`` for any ``r``
    that is not a ``RandomizedHadamard``.
    """
    if not isinstance(r, RandomizedHadamard):
        raise TypeError(f"apply_online rotates by a RandomizedHadamard, got {type(r).__name__}")
    x = np.asarray(x)
    n = r.signs.size
    if x.ndim != 2 or x.shape[1] != n:
        raise ShapeError(f"activation {x.shape} does not match rotation of size {n}")
    return _rotate_rows(x, r).astype(x.dtype, copy=False)
