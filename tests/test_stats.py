"""Kurtosis estimators, the rotation flattening law, error-vs-kurtosis."""

import numpy as np
import pytest
from scipy.stats import kurtosis as scipy_kurtosis
from scipy.stats import spearmanr

from rcpq.calib import ClipSearchConfig
from rcpq.core import GroupLayout, make_rng
from rcpq.errors import ConfigError, DegenerateDistributionError
from rcpq.rotation import randomized_hadamard
from rcpq.stats import (
    QErrReport,
    excess_kurtosis,
    groupwise_kurtosis,
    qerr_vs_kurt,
    rotation_kurtosis_mc,
)


class TestExcessKurtosis:
    def test_rademacher_exact(self):
        x = np.array([1.0, -1.0] * 50)
        assert excess_kurtosis(x) == pytest.approx(-2.0, abs=1e-12)

    def test_uniform_analytic(self):
        # mu4 = 1/5, sigma^2 = 1/3 for U(-1, 1) -> excess kurtosis -1.2
        x = make_rng(0).uniform(-1, 1, size=1_000_000)
        assert excess_kurtosis(x) == pytest.approx(-1.2, abs=0.01)

    def test_gaussian_zero(self):
        x = make_rng(1).standard_normal(1_000_000)
        assert excess_kurtosis(x) == pytest.approx(0.0, abs=0.02)

    def test_matches_scipy(self):
        x = make_rng(2).standard_gamma(3.0, size=20_000)
        ours = excess_kurtosis(x)
        theirs = scipy_kurtosis(x, fisher=True, bias=True)
        assert ours == pytest.approx(theirs, abs=1e-10)

    def test_location_scale_invariance(self):
        x = make_rng(3).standard_normal(5_000)
        base = excess_kurtosis(x)
        assert excess_kurtosis(3.7 * x - 11.0) == pytest.approx(base, abs=1e-9)
        assert excess_kurtosis(-0.2 * x + 4.0) == pytest.approx(base, abs=1e-9)

    def test_zero_variance(self):
        with pytest.raises(DegenerateDistributionError):
            excess_kurtosis(np.full(10, 3.0))

    def test_too_short(self):
        with pytest.raises(ValueError):
            excess_kurtosis(np.array([1.0, 2.0, 3.0]))


class TestGroupwiseKurtosis:
    def test_uniform_groups(self):
        rng = make_rng(4)
        layout = GroupLayout(16, 512, 128)
        w = rng.uniform(-1, 1, size=(16, 512))
        rep = groupwise_kurtosis(w, layout)
        assert rep.per_group.shape == (4, 16)
        assert rep.per_group.mean() == pytest.approx(-1.2, abs=0.15)
        assert rep.platykurtic_fraction > 0.95

    def test_outlier_group_leptokurtic(self):
        w = np.full((1, 128), 1e-3)
        w += make_rng(5).normal(0, 1e-4, size=w.shape)
        w[0, 7] = 10.0
        rep = groupwise_kurtosis(w, GroupLayout(1, 128, 128))
        assert rep.per_group[0, 0] > 10.0

    def test_constant_group_raises(self):
        w = np.ones((2, 8))
        with pytest.raises(DegenerateDistributionError):
            groupwise_kurtosis(w, GroupLayout(2, 8, 4))

    def test_per_channel_average(self):
        rng = make_rng(6)
        layout = GroupLayout(3, 64, 32)
        w = rng.standard_normal((3, 64))
        rep = groupwise_kurtosis(w, layout)
        np.testing.assert_allclose(rep.per_channel, rep.per_group.mean(axis=0))


class TestRotationKurtosisMc:
    def test_uniform_n16_law(self):
        rep = rotation_kurtosis_mc("uniform", 16, 100_000, seed=0)
        assert rep.kurt_after == pytest.approx(-1.2 / 16, abs=0.02)
        assert rep.kurt_before == pytest.approx(-1.2, abs=0.02)

    def test_gaussian_fixed_point(self):
        rep = rotation_kurtosis_mc("gaussian", 32, 100_000, seed=1)
        assert rep.kurt_before == pytest.approx(0.0, abs=0.02)
        assert rep.kurt_after == pytest.approx(0.0, abs=0.02)

    def test_rademacher_n64(self):
        rep = rotation_kurtosis_mc("rademacher", 64, 100_000, seed=2)
        assert rep.kurt_after == pytest.approx(-2.0 / 64, abs=0.01)

    def test_arcsine_law(self):
        rep = rotation_kurtosis_mc("arcsine", 16, 100_000, seed=3)
        assert rep.kurt_before == pytest.approx(-1.5, abs=0.02)
        assert rep.kurt_after == pytest.approx(-1.5 / 16, abs=0.02)

    def test_mean_and_variance_preservation(self):
        rep = rotation_kurtosis_mc("uniform", 16, 50_000, seed=4)
        assert rep.mean_first == pytest.approx(0.0, abs=0.01)  # zero-mean input
        assert rep.mean_rest == pytest.approx(0.0, abs=0.01)
        assert rep.var_after == pytest.approx(rep.var_before, rel=0.02)

    def test_direction_for_platykurtic(self):
        for seed in range(3):
            rep = rotation_kurtosis_mc("uniform", 16, 10_000, seed=seed)
            assert rep.kurt_after > rep.kurt_before

    def test_unknown_dist(self):
        with pytest.raises(ConfigError):
            rotation_kurtosis_mc("cauchy", 16, 100, seed=0)

    def test_deterministic(self):
        a = rotation_kurtosis_mc("uniform", 8, 5_000, seed=9)
        b = rotation_kurtosis_mc("uniform", 8, 5_000, seed=9)
        assert a.kurt_after == b.kurt_after


def _mixed_kurtosis_weights(rng, rows, cols):
    """Half platykurtic (uniform), half leptokurtic (laplace) rows."""
    w = np.empty((rows, cols))
    for i in range(rows):
        if i % 2 == 0:
            w[i] = rng.uniform(-1, 1, size=cols)
        else:
            w[i] = rng.laplace(0, 0.3, size=cols)
    return w


class TestQerrVsKurt:
    def test_platykurtic_kurtosis_increases(self):
        rng = make_rng(8)
        layout = GroupLayout(16, 64, 64)
        w = rng.uniform(-1, 1, size=(16, 64)).astype(np.float32)
        x = rng.standard_normal((64, 64)).astype(np.float32)
        rep = qerr_vs_kurt(w, x, randomized_hadamard(64, 0), layout, ClipSearchConfig(grid=8))
        assert rep.delta_kurt.mean() > 0.0

    def test_mixed_groups_rank_correlation(self):
        rng = make_rng(9)
        layout = GroupLayout(96, 64, 64)
        w = _mixed_kurtosis_weights(rng, 96, 64).astype(np.float32)
        x = rng.standard_normal((128, 64)).astype(np.float32)
        rep = qerr_vs_kurt(w, x, randomized_hadamard(64, 1), layout, ClipSearchConfig(grid=16))
        assert rep.spearman > 0.3
        assert rep.tokens == 128


def _rank_inputs(kind, seed):
    rng = make_rng(seed)
    n = int(rng.integers(3, 400))
    a = rng.standard_normal(n)
    b = rng.standard_normal(n) + 0.5 * a
    if kind == "rounded_ties":
        a, b = np.round(a, 1), np.round(b, 1)
    elif kind == "integer_ties":
        a, b = rng.integers(0, 4, n).astype(np.float64), rng.integers(0, 3, n).astype(np.float64)
    elif kind == "all_equal":
        a = np.full(n, 0.25)
    elif kind == "nan":
        a[rng.integers(0, n)] = np.nan
    return a, b


class TestSpearman:
    """``QErrReport.spearman`` against scipy's ``spearmanr`` as the oracle."""

    @pytest.mark.parametrize("kind", ["no_ties", "rounded_ties", "integer_ties"])
    def test_bits_equal_scipy(self, kind):
        for seed in range(40):
            a, b = _rank_inputs(kind, seed)
            zeros = np.zeros_like(a)
            ours = QErrReport(zeros, b, zeros, a, tokens=1).spearman
            theirs = spearmanr(a, b).statistic
            assert np.float64(ours).tobytes() == np.float64(theirs).tobytes(), (kind, seed)

    @pytest.mark.filterwarnings("ignore")
    @pytest.mark.parametrize("kind", ["all_equal", "nan"])
    def test_undefined_is_nan(self, kind):
        for seed in range(5):
            a, b = _rank_inputs(kind, seed)
            zeros = np.zeros_like(a)
            assert np.isnan(QErrReport(zeros, b, zeros, a, tokens=1).spearman)
            assert np.isnan(QErrReport(zeros, a, zeros, b, tokens=1).spearman)
            assert np.isnan(spearmanr(a, b).statistic)
