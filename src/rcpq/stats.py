"""Kurtosis analytics and quantization-error measurement.

Excess kurtosis here is the biased sample estimator ``m4 / m2**2 - 3``
(central moments, divide-by-n); negative values mean the distribution is
flatter than Gaussian. A normalized Hadamard rotation divides the excess
kurtosis of i.i.d. inputs by the transform size, so flat (platykurtic)
weight groups become more peaked after rotation, and ``qerr_vs_kurt``
measures how that shift tracks the output quantization error by Spearman
rank correlation, computed in numpy with the same bits as scipy's spearmanr.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .core import GroupLayout, make_rng
from .errors import ConfigError, DegenerateDistributionError
from .rotation import Rotation, apply_online, fuse, hadamard

__all__ = [
    "KurtosisReport",
    "QErrReport",
    "McReport",
    "excess_kurtosis",
    "groupwise_kurtosis",
    "qerr_vs_kurt",
    "rotation_kurtosis_mc",
    "analytic_kurtosis",
]

# Excess kurtosis of the supported zero-mean sampling distributions.
_DIST_KURT = {
    "uniform": -1.2,
    "rademacher": -2.0,
    "gaussian": 0.0,
    "arcsine": -1.5,
}

_MC_CHUNK = 20_000  # trials drawn per batch; each batch's random stream is keyed by its offset


@dataclass
class KurtosisReport:
    """Per-group excess kurtosis, shape (num_groups, out_channels)."""

    per_group: np.ndarray
    platykurtic_fraction: float

    @property
    def per_channel(self) -> np.ndarray:
        """Group kurtosis averaged over the group axis, length out_channels."""
        return self.per_group.mean(axis=0)


@dataclass
class QErrReport:
    """Output-channel quantization error and kurtosis, before/after rotation."""

    qerr_before: np.ndarray
    qerr_after: np.ndarray
    kurt_before: np.ndarray
    kurt_after: np.ndarray
    tokens: int

    @property
    def delta_qerr(self) -> np.ndarray:
        return self.qerr_after - self.qerr_before

    @property
    def delta_kurt(self) -> np.ndarray:
        return self.kurt_after - self.kurt_before

    @property
    def spearman(self) -> float:
        """Rank correlation of the kurtosis and error increases: NaN if either is constant or has a NaN."""
        # Two columns, as scipy's spearmanr lays them out: np.corrcoef of two
        # rows rounds differently and misses scipy's bits on some tied inputs.
        ranks = np.column_stack((_average_ranks(self.delta_kurt), _average_ranks(self.delta_qerr)))
        return float(np.corrcoef(ranks, rowvar=False)[1, 0])


def _average_ranks(x: np.ndarray) -> np.ndarray:
    """1-based ranks, a tie getting the mean of the ranks it spans; all NaN if ``x`` has a NaN."""
    if np.isnan(x).any():
        return np.full(x.shape, np.nan)
    _, inverse, counts = np.unique(x, return_inverse=True, return_counts=True)
    ends = np.cumsum(counts)
    return (ends - 0.5 * (counts - 1))[inverse]


@dataclass
class McReport:
    # The field order is the key order of ``rcpq lemma1 --json``.
    n: int
    dist: str
    trials: int
    kurt_before: float
    kurt_after: float
    expected_after: float
    mean_first: float
    mean_rest: float
    var_before: float
    var_after: float


def excess_kurtosis(samples: np.ndarray) -> float:
    """Biased sample excess kurtosis ``m4/m2^2 - 3`` in float64."""
    x = np.asarray(samples, dtype=np.float64).ravel()
    if x.size < 4:
        raise ValueError(f"need at least 4 samples, got {x.size}")
    return float(_kurtosis_along_last(x))


def _kurtosis_along_last(grouped: np.ndarray) -> np.ndarray:
    """Vectorized biased excess kurtosis along the trailing axis."""
    x = grouped.astype(np.float64)
    centered = x - x.mean(axis=-1, keepdims=True)
    m2 = np.mean(centered**2, axis=-1)
    m4 = np.mean(centered**4, axis=-1)
    if np.any(m2 == 0.0):
        idx = np.argwhere(m2 == 0.0)[0]
        raise DegenerateDistributionError(f"constant group at index {tuple(idx)}")
    return m4 / (m2 * m2) - 3.0


def groupwise_kurtosis(w: np.ndarray, layout: GroupLayout) -> KurtosisReport:
    """Excess kurtosis of every (output row, group) cell of a weight.

    Returns the (num_groups, out_channels) kurtosis matrix plus the fraction
    of groups that are platykurtic (negative excess kurtosis).
    """
    grouped = layout.grouped(np.asarray(w))
    kurt = _kurtosis_along_last(grouped)  # (H, N)
    per_group = kurt.T.copy()  # (N, H)
    return KurtosisReport(
        per_group=per_group,
        platykurtic_fraction=float(np.mean(per_group < 0.0)),
    )


def qerr_vs_kurt(
    w: np.ndarray,
    x: np.ndarray,
    rotation: Rotation,
    quantizer: Callable[[np.ndarray, np.ndarray, GroupLayout], tuple[np.ndarray, np.ndarray]],
    layout: GroupLayout,
) -> QErrReport:
    """Pair the rotation-induced changes in group kurtosis and output error.

    ``quantizer(w, x, layout)`` must return ``(w_hat, w_target)``: the
    fake-quantized weight and the (possibly clipped) weight the error is
    measured against. Per output channel h the error is the token-mean of
    ``|x @ (w_hat - w_target).T|`` and the kurtosis is the group-mean of the
    per-group excess kurtosis, evaluated on the plain and the rotated pair.
    """
    w = np.asarray(w)
    x = np.asarray(x)
    layout.check(w)
    if x.shape[1] != layout.in_channels:
        raise ConfigError(f"activations {x.shape} do not match layout {layout}")

    w_rot = fuse(w, None, rotation)
    x_rot = apply_online(x.astype(np.float64), rotation)

    def _channel_error(weights: np.ndarray, acts: np.ndarray) -> np.ndarray:
        w_hat, w_target = quantizer(weights, acts, layout)
        delta = w_hat.astype(np.float64) - w_target.astype(np.float64)
        out_err = np.abs(acts.astype(np.float64) @ delta.T)  # (T, H)
        return out_err.mean(axis=0)

    return QErrReport(
        qerr_before=_channel_error(w, x),
        qerr_after=_channel_error(w_rot, x_rot),
        kurt_before=groupwise_kurtosis(w, layout).per_channel,
        kurt_after=groupwise_kurtosis(w_rot, layout).per_channel,
        tokens=x.shape[0],
    )


def _draw(dist: str, rng: np.random.Generator, shape: tuple[int, int]) -> np.ndarray:
    if dist == "uniform":
        return rng.uniform(-1.0, 1.0, size=shape)
    if dist == "rademacher":
        return rng.integers(0, 2, size=shape).astype(np.float64) * 2.0 - 1.0
    if dist == "gaussian":
        return rng.standard_normal(shape)
    if dist == "arcsine":
        return np.cos(np.pi * rng.uniform(0.0, 1.0, size=shape))
    raise ConfigError(f"unknown distribution '{dist}' (have {sorted(_DIST_KURT)})")


def analytic_kurtosis(dist: str) -> float:
    if dist not in _DIST_KURT:
        raise ConfigError(f"unknown distribution '{dist}' (have {sorted(_DIST_KURT)})")
    return _DIST_KURT[dist]


class _Pooled:
    """Streaming raw moments up to order four, pooled over everything."""

    def __init__(self):
        self.n = 0
        self.s = np.zeros(4)

    def add(self, x: np.ndarray) -> None:
        flat = x.ravel()
        self.n += flat.size
        p = flat.copy()
        for i in range(4):
            self.s[i] += p.sum()
            if i < 3:
                p *= flat

    def mean(self) -> float:
        return self.s[0] / self.n

    def var(self) -> float:
        mu = self.mean()
        return self.s[1] / self.n - mu * mu

    def kurtosis(self) -> float:
        mu = self.mean()
        m2 = self.s[1] / self.n - mu**2
        m4 = (
            self.s[3] / self.n
            - 4 * mu * self.s[2] / self.n
            + 6 * mu**2 * self.s[1] / self.n
            - 3 * mu**4
        )
        if m2 == 0.0:
            raise DegenerateDistributionError("zero variance in pooled moments")
        return float(m4 / (m2 * m2) - 3.0)


def rotation_kurtosis_mc(
    dist: str,
    n: int,
    trials: int,
    seed: int,
) -> McReport:
    """Monte Carlo estimate of excess kurtosis before/after Hadamard rotation.

    Draws ``trials`` i.i.d. vectors of length ``n``, applies the normalized
    Hadamard transform, and pools all output components into one kurtosis
    estimate (valid because every component obeys the same kurt(X)/n law).
    Also tracks the first/rest component means and the pooled variances so
    the mean- and variance-preservation laws can be checked from one run.
    """
    if n < 2:
        raise ConfigError("transform size must be at least 2")
    h_t = hadamard(n, normalized=True).T
    before = _Pooled()
    after = _Pooled()
    first_sum = 0.0
    rest_sum = 0.0
    done = 0
    while done < trials:
        take = min(_MC_CHUNK, trials - done)
        rng = make_rng(seed, stream=done)
        x = _draw(dist, rng, (take, n))
        y = x @ h_t
        before.add(x)
        after.add(y)
        first_sum += y[:, 0].sum()
        rest_sum += y[:, 1:].sum()
        done += take
    return McReport(
        n=n,
        dist=dist,
        trials=trials,
        kurt_before=before.kurtosis(),
        kurt_after=after.kurtosis(),
        expected_after=analytic_kurtosis(dist) / n,
        mean_first=first_sum / trials,
        mean_rest=rest_sum / (trials * (n - 1)),
        var_before=before.var(),
        var_after=after.var(),
    )
