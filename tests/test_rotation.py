"""Hadamard construction, orthogonality, fusion invariance."""

import numpy as np
import pytest

from rcpq.core import make_rng
from rcpq.errors import ConfigError, ShapeError
from rcpq.rotation import apply_online, fuse, hadamard, randomized_hadamard


class TestHadamard:
    def test_order_one(self):
        np.testing.assert_array_equal(hadamard(1, normalized=False), [[1.0]])

    def test_order_two_unnormalized(self):
        np.testing.assert_array_equal(hadamard(2, normalized=False), [[1, 1], [1, -1]])

    def test_orthogonality_n4(self):
        h = hadamard(4)
        assert np.max(np.abs(h @ h.T - np.eye(4))) < 1e-7

    def test_first_row_all_ones(self):
        h = hadamard(16, normalized=False)
        assert np.all(h[0] == 1.0)

    def test_other_rows_balanced(self):
        h = hadamard(32, normalized=False)
        for row in h[1:]:
            assert np.sum(row == 1.0) == 16

    @pytest.mark.parametrize("n", [3, 6, 12, 100])
    def test_non_power_of_two_rejected(self, n):
        with pytest.raises(ConfigError):
            hadamard(n)


class TestRandomizedHadamard:
    def test_orthogonal(self):
        r = randomized_hadamard(64, seed=5)
        assert np.max(np.abs(r @ r.T - np.eye(64))) < 1e-6

    def test_deterministic(self):
        np.testing.assert_array_equal(randomized_hadamard(32, 9), randomized_hadamard(32, 9))

    def test_entry_magnitudes(self):
        r = randomized_hadamard(16, seed=1)
        np.testing.assert_allclose(np.abs(r), 1.0 / 4.0, rtol=0, atol=1e-15)

    def test_seeds_differ(self):
        assert not np.array_equal(randomized_hadamard(16, 0), randomized_hadamard(16, 1))


class TestFuse:
    def test_absent_rotations_identity(self):
        w = make_rng(0).standard_normal((4, 4)).astype(np.float32)
        np.testing.assert_array_equal(fuse(w), w)

    def test_identity_weight_orthogonality(self):
        h = hadamard(8)
        out = fuse(np.eye(8, dtype=np.float32), h, h)
        np.testing.assert_allclose(out, np.eye(8), atol=1e-6)

    def test_rotated_product_invariance(self):
        # X H @ (rotated W with H fused rear) must reproduce X @ W.T ... the
        # layout here is a plain (C, H) matrix product checked in float64.
        rng = make_rng(11)
        w = rng.standard_normal((64, 64)).astype(np.float32)
        x = rng.standard_normal((8, 64))
        h = randomized_hadamard(64, seed=2)
        w_rot = w.astype(np.float64) @ h  # float64 fusion for the 1e-9 check
        base = x @ w.astype(np.float64).T
        rotated = apply_online(x, h) @ w_rot.T
        assert np.max(np.abs(base - rotated)) / np.abs(base).max() < 1e-9

    def test_fuse_matches_matmul_ref(self):
        rng = make_rng(12)
        w = rng.standard_normal((16, 16)).astype(np.float32)
        h = hadamard(16)
        got = fuse(w, None, h)
        expect = (w.astype(np.float64) @ h).astype(np.float32)
        assert got.tobytes() == expect.tobytes()

    def test_shape_mismatch(self):
        with pytest.raises(ShapeError):
            fuse(np.zeros((4, 8)), hadamard(8), None)
        with pytest.raises(ShapeError):
            fuse(np.zeros((4, 8)), None, hadamard(4))


class TestApplyOnline:
    def test_zero_input(self):
        out = apply_online(np.zeros((3, 8)), hadamard(8))
        np.testing.assert_array_equal(out, 0.0)

    def test_round_trip(self):
        x = make_rng(4).standard_normal((5, 32))
        h = randomized_hadamard(32, seed=3)
        back = apply_online(apply_online(x, h), h.T)
        assert np.max(np.abs(back - x)) < 1e-9

    def test_row_norms_preserved(self):
        x = make_rng(5).standard_normal((6, 64))
        h = randomized_hadamard(64, seed=4)
        before = np.linalg.norm(x, axis=1)
        after = np.linalg.norm(apply_online(x, h), axis=1)
        np.testing.assert_allclose(before, after, rtol=1e-9)

    def test_shape_mismatch(self):
        with pytest.raises(ShapeError):
            apply_online(np.zeros((2, 8)), hadamard(16))


class TestComputationalInvariance:
    def test_hidden_pair_with_linear_activation(self):
        # act(X W1) W2 with W1 <- W1 R, W2 <- R^T W2 and identity act.
        rng = make_rng(21)
        x = rng.standard_normal((12, 32))
        w1 = rng.standard_normal((32, 32))
        w2 = rng.standard_normal((32, 8))
        r = randomized_hadamard(32, seed=6)
        base = (x @ w1) @ w2
        rotated = (x @ (w1 @ r)) @ (r.T @ w2)
        assert np.max(np.abs(base - rotated)) / np.abs(base).max() < 1e-9

    def test_input_pair_with_relu(self):
        rng = make_rng(22)
        x = rng.standard_normal((12, 64))
        w1 = rng.standard_normal((16, 64))
        r = randomized_hadamard(64, seed=7)
        base = np.maximum(x @ w1.T, 0.0)
        rotated = np.maximum(apply_online(x, r) @ (w1 @ r).T, 0.0)
        assert np.max(np.abs(base - rotated)) / np.abs(base).max() < 1e-9

