"""Asymmetric group quantizer and the per-token activation path."""

import numpy as np
import pytest

from rcpq.core import make_rng
from rcpq.errors import ZeroTokenError
from rcpq.uniform import ACT_CLIP_RATIO, asym_quant_dequant, quant_act_per_token


def _quant(group, bits, lo=None, hi=None):
    """(codes, dequant, step, zero_point, span) of one unclipped or clipped group."""
    return asym_quant_dequant(np.asarray(group, dtype=np.float64), lo, hi, bits)


class TestQuantAsym:
    def test_grid_aligned_round_trip(self):
        codes, deq, step, zero, span = _quant([0.0, 1.0, 2.0, 3.0], 2)
        assert span == 3.0
        assert step == 1.0
        assert zero == 0.0
        np.testing.assert_array_equal(codes, [0, 1, 2, 3])
        np.testing.assert_array_equal(deq, [0.0, 1.0, 2.0, 3.0])

    def test_ties_to_even_hand_case(self):
        codes, deq, step, zero, span = _quant([-2.0, -1.0, 0.0, 4.0], 2)
        assert span == 6.0
        assert step == 2.0
        assert zero == 0.0
        np.testing.assert_array_equal(codes, [0, 0, 0, 2])
        np.testing.assert_array_equal(deq, [0.0, 0.0, 0.0, 4.0])

    @pytest.mark.parametrize("bits", [2, 3, 4, 8])
    def test_error_bound_brute_force(self, bits):
        # For every unclipped value, |w - w_hat| <= step/2 exactly.
        rng = make_rng(10 + bits)
        for _ in range(1000 // 4):
            g = rng.normal(0, rng.uniform(0.1, 5.0), size=16)
            _, deq, step, zero, _ = _quant(g, bits)
            raw = np.round(g / step) + zero
            unclipped = (raw >= 0) & (raw <= (1 << bits) - 1)
            assert np.all(np.abs(g - deq)[unclipped] <= step / 2 + 1e-12)

    def test_monotonicity(self):
        rng = make_rng(20)
        for _ in range(50):
            g = np.sort(rng.normal(size=32))
            codes, *_ = _quant(g, 4)
            assert np.all(np.diff(codes) >= 0)

    def test_idempotence_under_held_constants(self):
        # Re-encoding dequantized values with the step/zero-point that
        # produced them reproduces the codes exactly: (code - z) is already
        # an integer multiple of the step. (Re-estimating the constants from
        # the dequantized data is a different operation: the range shrinks
        # and z = -round(min/span) shifts, so codes legitimately move.)
        rng = make_rng(21)
        for _ in range(100):
            g = rng.normal(size=64)
            codes, deq, step, zero, _ = _quant(g, 4)
            recoded = np.clip(np.round(deq / step) + zero, 0, 15)
            np.testing.assert_array_equal(codes, recoded.astype(np.int64))

    def test_idempotence_grid_aligned(self):
        first, deq, *_ = _quant([0.0, 1.0, 2.0, 3.0], 2)
        second, *_ = _quant(deq, 2)
        np.testing.assert_array_equal(first, second)

    def test_codes_in_range(self):
        g = make_rng(22).normal(size=128)
        codes, *_ = _quant(g, 2, -0.5, 0.5)
        assert codes.min() >= 0 and codes.max() <= 3

    def test_degenerate_group(self):
        codes, deq, _, _, span = _quant(np.full(8, 2.5), 4)
        assert span == 0.0
        np.testing.assert_array_equal(codes, 0)
        np.testing.assert_array_equal(deq, 2.5)

    def test_degenerate_after_clip(self):
        codes, deq, _, _, span = _quant([5.0, 6.0, 7.0], 4, 1.0, 1.0)
        assert span == 0.0
        np.testing.assert_array_equal(codes, 0)
        np.testing.assert_array_equal(deq, 1.0)


class TestActQuant:
    def test_full_range_token(self):
        # The top 10% of max|x| clips: +9 lands past the top code 7 and -9
        # rounds onto -8, so the token spans the full int4 range.
        codes, scale = quant_act_per_token(np.array([[-9.0, 9.0]]))
        assert scale[0] == ACT_CLIP_RATIO * 9.0 / 7.0
        np.testing.assert_array_equal(codes, [[-8, 7]])

    def test_clipping_at_ratio(self):
        codes, scale = quant_act_per_token(np.array([[0.0, 10.0]]))
        assert scale[0] == pytest.approx(9.0 / 7.0)
        np.testing.assert_array_equal(codes, [[0, 7]])

    def test_zero_token_raises(self):
        with pytest.raises(ZeroTokenError):
            quant_act_per_token(np.zeros((1, 4)))

    def test_codes_within_int4(self):
        x = make_rng(23).normal(0, 10, size=(16, 32))
        codes, _ = quant_act_per_token(x)
        assert codes.min() >= -8 and codes.max() <= 7
