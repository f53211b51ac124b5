"""Partition grids, fake quantization, exact gradients, NF3 variant."""

import numpy as np
import pytest

from rcpq.core import make_rng
from rcpq.errors import DegenerateGroupError, InvalidRangeError
from rcpq.ldp import (
    UNIFORM_SIDE_GRID,
    LdpParams,
    Nf3Params,
    derive_grids,
    fake_quant,
    grads,
    logit,
    nf3_fake_quant,
    sigmoid,
    uniform_split_logits,
)
from rcpq.uniform import asym_quant_dequant

SAT = 20.0  # saturated clip logits: sigmoid(20) ~ 1 - 2e-9


def _uniform_params() -> LdpParams:
    s1, s2 = uniform_split_logits()
    return LdpParams(SAT, SAT, s1, s2)


class TestDeriveGrids:
    def test_uniform_init(self):
        g = derive_grids(np.array([-1.0, 1.0]), _uniform_params())
        np.testing.assert_allclose(g.shares, [1 / 3, 1 / 3, 1 / 3], atol=1e-12)
        np.testing.assert_allclose(g.thresholds, [1 / 6, 1 / 2, 5 / 6], atol=1e-12)
        np.testing.assert_allclose(g.levels, [0, 1 / 3, 2 / 3, 1], atol=1e-12)

    def test_zero_split_logits(self):
        g = derive_grids(np.array([-1.0, 1.0]), LdpParams(SAT, SAT, 0.0, 0.0))
        np.testing.assert_allclose(g.shares, [0.5, 0.25, 0.25], atol=1e-15)
        np.testing.assert_allclose(g.thresholds, [0.25, 0.625, 0.875], atol=1e-15)
        np.testing.assert_allclose(g.levels, [0.0, 0.4375, 0.75, 1.0], atol=1e-15)

    def test_saturated_clip_limits(self):
        g = derive_grids(np.array([-1.0, 1.0]), _uniform_params())
        assert g.lo == pytest.approx(-1.0, abs=1e-8)
        assert g.hi == pytest.approx(1.0, abs=1e-8)
        assert g.span == pytest.approx(2.0, abs=1e-8)

    def test_invalid_range_all_positive_group(self):
        # min > 0 with a harsh low-side clip pushes lo above hi.
        with pytest.raises(InvalidRangeError):
            derive_grids(np.array([5.0, 5.1]), LdpParams(SAT, -SAT, 0.0, 0.0))

    def test_property_sweep(self):
        # Simplex sum, strict ordering, endpoint identities on 1e5 draws.
        rng = make_rng(30)
        n = 100_000
        params = LdpParams(
            rng.uniform(-20, 20, n),
            rng.uniform(-20, 20, n),
            rng.uniform(-20, 20, n),
            rng.uniform(-20, 20, n),
        )
        groups = np.stack([np.full(n, -1.5), np.full(n, 2.0)], axis=-1)
        g = derive_grids(groups, params)
        assert np.max(np.abs(g.shares.sum(axis=-1) - 1.0)) < 1e-12
        assert np.all(np.diff(g.thresholds, axis=-1) > 0)
        assert np.all(np.diff(g.levels, axis=-1) > 0)
        # t3 < 1 holds exactly in reals; at +/-20 logits the last share is
        # ~4e-18 and t3 rounds to 1.0 in float64, so the bound is one ulp.
        assert np.all(g.thresholds[..., 0] > 0) and np.all(g.thresholds[..., -1] <= 1.0)
        assert np.all(g.levels[..., 0] == 0.0) and np.all(g.levels[..., -1] == 1.0)
        assert np.all(g.lo + g.span == g.hi)


class TestFakeQuant:
    def test_center_value_uniform_grids(self):
        codes, w_hat = fake_quant(np.array([-1.0, 0.0, 1.0]), _uniform_params())
        np.testing.assert_array_equal(codes, [0, 2, 3])
        assert w_hat[1] == pytest.approx(1 / 3, abs=1e-8)

    def test_endpoints_exact(self):
        rng = make_rng(31)
        for _ in range(20):
            group = rng.normal(size=16)
            group[0] = group.min() - 1.0
            group[1] = group.max() + 1.0
            p = LdpParams(rng.uniform(-3, 3), rng.uniform(-3, 3), rng.normal(), rng.normal())
            g = derive_grids(group, p)
            codes, w_hat = fake_quant(group, p)
            below = group <= g.lo
            above = group >= g.hi
            assert np.all(codes[below] == 0) and np.all(w_hat[below] == g.lo)
            assert np.all(codes[above] == 3) and np.all(w_hat[above] == g.hi)

    def test_threshold_tie_goes_up(self):
        # A value exactly at a threshold takes the upper bin: u(0) = 1.
        # Anchor min and max so the probe value does not move the range;
        # lo = 0 and span * 0.5 / span round-trip exactly in binary64.
        p = _uniform_params()
        g = derive_grids(np.array([0.0, 1.0]), p)
        v_at_t2 = g.lo + g.span * g.thresholds[1]
        codes, _ = fake_quant(np.array([0.0, v_at_t2, 1.0]), p)
        assert codes[1] == 2

    def test_monotone_codes(self):
        rng = make_rng(32)
        for _ in range(50):
            group = np.sort(rng.normal(size=64))
            p = LdpParams(rng.uniform(-4, 4), rng.uniform(-4, 4), rng.normal(), rng.normal())
            codes, _ = fake_quant(group, p)
            assert np.all(np.diff(codes.astype(int)) >= 0)

    def test_uniform_init_matches_2bit_asym_on_grid(self):
        # With saturated clips and uniform thirds, levels coincide with the
        # integer grid codes/3, so grid-aligned inputs dequantize identically.
        group = np.array([0.0, 1.0, 2.0, 3.0])
        codes, w_hat = fake_quant(group, _uniform_params())
        ref_codes, ref_w_hat, *_ = asym_quant_dequant(group, None, None, 2)
        np.testing.assert_array_equal(codes, ref_codes)
        np.testing.assert_allclose(w_hat, ref_w_hat, atol=1e-7)

    def test_broadcast_batched_groups(self):
        rng = make_rng(33)
        groups = rng.normal(size=(5, 3, 8))
        params = LdpParams(
            rng.uniform(-2, 2, (5, 3)),
            rng.uniform(-2, 2, (5, 3)),
            rng.normal(size=(5, 3)),
            rng.normal(size=(5, 3)),
        )
        codes, w_hat = fake_quant(groups, params)
        assert codes.shape == (5, 3, 8) and w_hat.shape == (5, 3, 8)
        # each cell matches the scalar path
        c0, w0 = fake_quant(groups[2, 1], LdpParams(
            params.lo_logit[2, 1], params.hi_logit[2, 1],
            params.split1[2, 1], params.split2[2, 1]))
        np.testing.assert_array_equal(codes[2, 1], c0)
        np.testing.assert_array_equal(w_hat[2, 1], w0)


def _fd_param_grads(group, vals, up, eps=1e-4):
    """Central differences of <up, fake_quant(...)> per parameter."""
    out = []
    for k in range(4):
        shifted = []
        for sign in (+1, -1):
            v = list(vals)
            v[k] += sign * eps
            _, w = fake_quant(group, LdpParams(*v))
            shifted.append(float((w * up).sum()))
        out.append((shifted[0] - shifted[1]) / (2 * eps))
    return out


def _codes_stable(group, vals, eps=1e-4):
    base, _ = fake_quant(group, LdpParams(*vals))
    for k in range(4):
        for sign in (+1, -1):
            v = list(vals)
            v[k] += sign * eps
            c, _ = fake_quant(group, LdpParams(*v))
            if not np.array_equal(c, base):
                return False
    return True


class TestGrads:
    def test_zero_upstream(self):
        group = make_rng(34).normal(size=8)
        out = grads(group, _uniform_params(), np.zeros(8))
        for g in out:
            assert np.all(np.asarray(g) == 0.0)

    def test_code_zero_element_closed_form(self):
        # A min-clipped element: hi-side gradient vanishes, lo-side gradient
        # is upstream * sigmoid'(lo_logit) * min(group).
        group = np.array([-2.0, -1.0, 0.5, 1.0])
        p = LdpParams(0.3, 0.7, -0.2, 0.4)
        up = np.array([1.7, 0.0, 0.0, 0.0])  # only the min element
        codes, _ = fake_quant(group, p)
        assert codes[0] == 0
        _, d_lo, d_hi, _, _ = grads(group, p, up)
        s = sigmoid(0.3)
        assert d_hi == pytest.approx(0.0, abs=1e-15)
        assert d_lo == pytest.approx(1.7 * s * (1 - s) * group.min(), rel=1e-12)

    def test_finite_difference_oracle(self):
        rng = make_rng(35)
        checked = 0
        max_rel = 0.0
        while checked < 100:
            group = rng.normal(size=16)
            group[0] -= 2.0
            group[1] += 2.0
            vals = [rng.uniform(-2, 2), rng.uniform(-2, 2), rng.normal(), rng.normal()]
            if not _codes_stable(group, vals):
                continue
            up = rng.normal(size=16)
            _, *analytic = grads(group, LdpParams(*vals), up)
            fd = _fd_param_grads(group, vals, up)
            for a, f in zip(analytic, fd):
                rel = abs(a - f) / max(abs(f), abs(a), 1e-8)
                max_rel = max(max_rel, rel)
            checked += 1
        assert max_rel <= 1e-4

    def test_clipped_ste_weight_gradient(self):
        group = np.array([-5.0, -0.1, 0.1, 5.0])
        p = LdpParams(-1.0, -1.0, 0.0, 0.0)  # heavy clipping
        g = derive_grids(group, p)
        up = np.ones(4)
        d_group, *_ = grads(group, p, up)
        inside = (group >= g.lo) & (group <= g.hi)
        np.testing.assert_array_equal(d_group, np.where(inside, 1.0, 0.0))


class TestNf3:
    def test_center_fixed_point(self):
        p = Nf3Params(2.0, 2.0, 0.3)
        lo = sigmoid(2.0) * -2.0
        span = sigmoid(2.0) * 2.0 - lo
        center = lo + span * sigmoid(0.3)
        codes, w_hat = nf3_fake_quant(np.array([center, -2.0, 2.0]), p)
        assert codes[0] == 0
        assert w_hat[0] == center

    def test_endpoints_map_to_clip(self):
        p = Nf3Params(1.0, 1.5, -0.2)
        group = np.array([-3.0, 1.0, 4.0])
        codes, w_hat = nf3_fake_quant(group, p)
        lo = sigmoid(1.0) * -3.0
        hi = lo + (sigmoid(1.5) * 4.0 - lo)
        assert codes[0] == -3 and codes[-1] == 3
        assert w_hat[0] == pytest.approx(lo, rel=1e-12)
        assert w_hat[-1] == pytest.approx(hi, rel=1e-12)

    def test_round_trip_error_bound_exhaustive(self):
        # 1e4-value scan: error <= half the local level gap on each side.
        p = Nf3Params(SAT, SAT, 0.0)
        group = np.linspace(-1.0, 1.0, 10_000)
        codes, w_hat = nf3_fake_quant(group, p)
        lo, hi, center = -1.0, 1.0, 0.0
        gaps = np.diff(UNIFORM_SIDE_GRID)
        scale = np.where(group > center, hi - center, center - lo)
        normalized = np.abs(group - center) / scale
        chosen = UNIFORM_SIDE_GRID[np.abs(codes)]
        assert np.all(np.abs(normalized - chosen) <= gaps.max() / 2 + 1e-12)
        assert np.max(np.abs(w_hat - group)) <= gaps.max() / 2 * scale.max() + 1e-12

    def test_degenerate_side_raises(self):
        with pytest.raises(DegenerateGroupError):
            nf3_fake_quant(np.array([-1.0, 1.0]), Nf3Params(5.0, 5.0, 50.0))


class TestLogitSigmoid:
    def test_inverse_pair(self):
        x = np.linspace(-15, 15, 101)
        np.testing.assert_allclose(logit(sigmoid(x)), x, atol=1e-9)

    def test_uniform_split_values(self):
        s1, s2 = uniform_split_logits()
        assert sigmoid(s1) == pytest.approx(1 / 3, abs=1e-12)
        assert sigmoid(s2) == 0.5
