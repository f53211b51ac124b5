"""Hadamard construction, orthogonality, fusion invariance, the online transform."""

import tracemalloc

import numpy as np
import pytest

from rcpq.core import make_rng
from rcpq.errors import ConfigError, ShapeError
from rcpq.rotation import _hadamard_transform, apply_online, fuse, hadamard, randomized_hadamard


def max_rel_err(got, ref):
    return float(np.abs(got.astype(np.float64) - ref).max() / np.abs(ref).max())


def peak_bytes(fn, *args):
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


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
        r = np.asarray(randomized_hadamard(64, seed=5))
        assert np.max(np.abs(r @ r.T - np.eye(64))) < 1e-6

    def test_deterministic(self):
        np.testing.assert_array_equal(randomized_hadamard(32, 9), randomized_hadamard(32, 9))

    def test_entry_magnitudes(self):
        r = randomized_hadamard(16, seed=1)
        np.testing.assert_allclose(np.abs(r), 1.0 / 4.0, rtol=0, atol=1e-15)

    def test_seeds_differ(self):
        assert not np.array_equal(randomized_hadamard(16, 0), randomized_hadamard(16, 1))

    @pytest.mark.parametrize("n, seed", [(1, 0), (16, 3), (256, 7), (4096, 7)])
    def test_dense_form_is_the_signed_hadamard(self, n, seed):
        signs = make_rng(seed).integers(0, 2, size=n, dtype=np.int64) * 2 - 1
        ref = hadamard(n) * signs[:, None]
        assert np.asarray(randomized_hadamard(n, seed)).tobytes() == ref.tobytes()

    def test_construction_builds_nothing_dense(self):
        assert peak_bytes(randomized_hadamard, 4096, 7) <= 1 << 20


class TestFuse:
    def test_absent_rotations_identity(self):
        w = make_rng(0).standard_normal((4, 4)).astype(np.float32)
        np.testing.assert_array_equal(fuse(w), w)

    def test_identity_weight_orthogonality(self):
        h = randomized_hadamard(8, seed=1)
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
        # At n = 16 every partial sum of float32 entries times +/-1 or +/-1/4
        # is exact in float64, so the transform and the matrix product agree
        # bit for bit.
        rng = make_rng(12)
        w = rng.standard_normal((16, 16)).astype(np.float32)
        h = randomized_hadamard(16, seed=12)
        got = fuse(w, None, h)
        expect = (w.astype(np.float64) @ np.asarray(h)).astype(np.float32)
        assert got.tobytes() == expect.tobytes()

    def test_sign_rotation_fuses_as_its_dense_matrix(self):
        w = make_rng(13).standard_normal((32, 256)).astype(np.float32)
        rot = randomized_hadamard(256, 7)
        dense = (w.astype(np.float64) @ np.asarray(rot)).astype(np.float32)
        assert fuse(w, None, rot).tobytes() == dense.tobytes()
        assert fuse(w.T, rot, None).tobytes() == fuse(w.T, np.asarray(rot), None).tobytes()

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("n", [64, 1024, 2048])
    def test_transform_within_one_ulp_of_the_dense_product(self, n, dtype):
        w = make_rng(14).laplace(scale=0.02, size=(300, n)).astype(dtype)
        rot = randomized_hadamard(n, 7)
        got = fuse(w, None, rot)
        dense = (w.astype(np.float64) @ np.asarray(rot)).astype(np.float32)
        assert got.dtype == dense.dtype == np.float32
        ulp = np.spacing(np.maximum(np.abs(got), np.abs(dense)))
        assert np.all(np.abs(got.astype(np.float64) - dense) <= ulp)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_a_row_does_not_depend_on_its_neighbours(self, dtype):
        # Blocks are 256 rows; slices start inside one block and end in the next.
        w = make_rng(15).laplace(scale=0.02, size=(600, 1024)).astype(dtype)
        rot = randomized_hadamard(1024, 7)
        whole = fuse(w, None, rot)
        for rows in (1, 3, 256, 257):
            for start in (0, 130, 255, 600 - rows):
                part = fuse(w[start : start + rows], None, rot)
                assert part.tobytes() == whole[start : start + rows].tobytes(), (rows, start)

    def test_allocates_no_dense_rotation(self):
        # Three float64 temporaries of one 256-row block are 24 MB; the dense
        # rotation alone is 128 MB, a float64 copy of w 16 MB.
        w = make_rng(16).laplace(scale=0.02, size=(512, 4096)).astype(np.float32)
        rot = randomized_hadamard(4096, 7)
        fuse(w, None, rot)  # warm the cached Hadamard factors
        assert peak_bytes(fuse, w, None, rot) <= w.nbytes + (32 << 20)

    def test_shape_mismatch(self):
        with pytest.raises(ShapeError):
            fuse(np.zeros((4, 8)), hadamard(8), None)
        with pytest.raises(TypeError):
            fuse(np.zeros((4, 8)), None, hadamard(4))
        with pytest.raises(ShapeError):
            fuse(np.zeros((4, 8)), None, randomized_hadamard(4, 0))

    def test_rear_takes_only_a_randomized_hadamard(self):
        w = make_rng(17).standard_normal((4, 8))
        rot = randomized_hadamard(8, 0)
        for dense in (hadamard(8), np.asarray(rot)):
            with pytest.raises(TypeError, match="RandomizedHadamard"):
                fuse(w, None, dense)
        for dtype in (np.float32, np.float64):
            assert fuse(w.astype(dtype)).tobytes() == w.astype(dtype).astype(np.float32).tobytes()


class TestApplyOnline:
    def test_zero_input(self):
        out = apply_online(np.zeros((3, 8)), randomized_hadamard(8, seed=2))
        np.testing.assert_array_equal(out, 0.0)

    def test_round_trip(self):
        x = make_rng(4).standard_normal((5, 32))
        h = randomized_hadamard(32, seed=3)
        back = apply_online(x, h) @ np.asarray(h).T
        assert np.max(np.abs(back - x)) < 1e-9

    def test_row_norms_preserved(self):
        x = make_rng(5).standard_normal((6, 64))
        h = randomized_hadamard(64, seed=4)
        before = np.linalg.norm(x, axis=1)
        after = np.linalg.norm(apply_online(x, h), axis=1)
        np.testing.assert_allclose(before, after, rtol=1e-9)

    def test_result_in_the_dtype_of_x(self):
        x = make_rng(6).standard_normal((3, 16))
        r = randomized_hadamard(16, seed=5)
        dense = np.asarray(r)
        for dtype, bound in ((np.float32, 1e-7), (np.float64, 1e-15)):
            out = apply_online(x.astype(dtype), r)
            assert out.dtype == dtype
            assert max_rel_err(out, x.astype(dtype).astype(np.float64) @ dense) <= bound

    def test_shape_mismatch(self):
        with pytest.raises(ShapeError):
            apply_online(np.zeros((2, 8)), randomized_hadamard(16, 0))
        with pytest.raises(ShapeError):
            apply_online(np.zeros(8), randomized_hadamard(8, 0))

    def test_rejects_a_dense_matrix(self):
        r = randomized_hadamard(8, 0)
        for dense in (np.asarray(r), hadamard(8), np.eye(8)):
            with pytest.raises(TypeError, match="RandomizedHadamard"):
                apply_online(np.zeros((2, 8)), dense)


class TestOnlineTransform:
    @pytest.mark.parametrize("k", range(13))
    def test_matches_the_dense_unnormalized_product(self, k):
        n = 1 << k
        x = make_rng(30 + k).standard_normal((5, n))
        assert max_rel_err(_hadamard_transform(x), x @ hadamard(n, normalized=False)) <= 1e-12

    @pytest.mark.parametrize("n", [64, 1024, 4096])
    def test_float32_within_1e7_of_the_float64_product(self, n):
        # One rounding at the end; a float32 matvec against the dense
        # rotation accumulates 2-6e-7 here.
        x = make_rng(40).standard_normal((16, n)).astype(np.float32)
        r = randomized_hadamard(n, 7)
        ref = x.astype(np.float64) @ np.asarray(r)
        assert max_rel_err(apply_online(x, r), ref) <= 1e-7

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("n", [8, 1024, 2048, 4096])
    def test_a_row_does_not_depend_on_its_batch(self, n, dtype):
        x = make_rng(50).standard_normal((257, n)).astype(dtype)
        r = randomized_hadamard(n, 7)
        batch = apply_online(x, r)
        for i in range(x.shape[0]):
            assert batch[i].tobytes() == apply_online(x[i : i + 1], r)[0].tobytes()

    def test_one_token_allocates_no_dense_rotation(self):
        r = randomized_hadamard(4096, 7)
        x = make_rng(60).standard_normal((1, 4096)).astype(np.float32)
        assert peak_bytes(apply_online, x, r) <= 1 << 20


class TestComputationalInvariance:
    def test_hidden_pair_with_linear_activation(self):
        # act(X W1) W2 with W1 <- W1 R, W2 <- R^T W2 and identity act.
        rng = make_rng(21)
        x = rng.standard_normal((12, 32))
        w1 = rng.standard_normal((32, 32))
        w2 = rng.standard_normal((32, 8))
        r = np.asarray(randomized_hadamard(32, seed=6))
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

