"""Matrix I/O, layout, RNG determinism, and the reference matmul."""

import numpy as np
import pytest

from rcpq.core import GroupLayout, load_npy, make_rng, save_npy
from rcpq.errors import DataError, FormatError, ShapeError, UnsupportedLayoutError


class TestNpyIO:
    def test_identity_round_trip(self, tmp_path):
        path = tmp_path / "m.npy"
        np.save(path, np.arange(1, 7, dtype=np.float32).reshape(2, 3))
        m = load_npy(path)
        assert m.shape == (2, 3)
        assert m.dtype == np.float32
        np.testing.assert_array_equal(m, [[1, 2, 3], [4, 5, 6]])

    def test_empty_matrix(self, tmp_path):
        path = tmp_path / "e.npy"
        np.save(path, np.zeros((0, 4), dtype=np.float32))
        m = load_npy(path)
        assert m.shape == (0, 4)

    def test_float64_narrowed(self, tmp_path):
        path = tmp_path / "d.npy"
        np.save(path, np.array([[0.1, 0.2]], dtype=np.float64))
        m = load_npy(path)
        assert m.dtype == np.float32
        np.testing.assert_array_equal(m, np.array([[0.1, 0.2]], dtype=np.float32))

    def test_nan_payload_rejected(self, tmp_path):
        path = tmp_path / "nan.npy"
        np.save(path, np.array([[1.0, np.nan]], dtype=np.float32))
        with pytest.raises(DataError):
            load_npy(path)

    def test_inf_payload_rejected(self, tmp_path):
        path = tmp_path / "inf.npy"
        np.save(path, np.array([[np.inf, 0.0]], dtype=np.float32))
        with pytest.raises(DataError):
            load_npy(path)

    def test_non_2d_rejected(self, tmp_path):
        path = tmp_path / "v.npy"
        np.save(path, np.zeros(5, dtype=np.float32))
        with pytest.raises(UnsupportedLayoutError):
            load_npy(path)

    def test_fortran_order_rejected(self, tmp_path):
        path = tmp_path / "f.npy"
        np.save(path, np.asfortranarray(np.arange(6, dtype=np.float32).reshape(2, 3)))
        with pytest.raises(UnsupportedLayoutError):
            load_npy(path)

    def test_int_dtype_rejected(self, tmp_path):
        path = tmp_path / "i.npy"
        np.save(path, np.zeros((2, 2), dtype=np.int32))
        with pytest.raises(FormatError):
            load_npy(path)

    def test_malformed_header(self, tmp_path):
        path = tmp_path / "junk.npy"
        path.write_bytes(b"\x93NUMPY\x01\x00garbage")
        with pytest.raises(FormatError):
            load_npy(path)

    def test_save_round_trip_scalar(self, tmp_path):
        path = tmp_path / "s.npy"
        save_npy(np.array([[0.5]], dtype=np.float32), path)
        np.testing.assert_array_equal(load_npy(path), [[0.5]])

    def test_save_round_trip_bit_exact(self, tmp_path):
        rng = make_rng(7)
        m = rng.standard_normal((128, 128)).astype(np.float32)
        p1 = tmp_path / "a.npy"
        p2 = tmp_path / "b.npy"
        save_npy(m, p1)
        save_npy(load_npy(p1), p2)
        assert p1.read_bytes() == p2.read_bytes()
        assert load_npy(p1).tobytes() == m.tobytes()

    def test_write_to_unwritable_path(self, tmp_path):
        with pytest.raises(OSError):
            save_npy(np.zeros((1, 1), dtype=np.float32), tmp_path / "no" / "dir.npy")


class TestGroupLayout:
    def test_default_group(self):
        lay = GroupLayout(4, 256)
        assert lay.group_size == 128
        assert lay.num_groups == 2

    def test_divisibility(self):
        with pytest.raises(ShapeError):
            GroupLayout(4, 100, 64)

    def test_grouped_view(self):
        lay = GroupLayout(2, 8, 4)
        w = np.arange(16, dtype=np.float32).reshape(2, 8)
        g = lay.grouped(w)
        assert g.shape == (2, 2, 4)
        np.testing.assert_array_equal(g[1, 0], [8, 9, 10, 11])


class TestRng:
    def test_same_seed_same_stream(self):
        a = make_rng(42).standard_normal(8)
        b = make_rng(42).standard_normal(8)
        np.testing.assert_array_equal(a, b)

    def test_streams_differ(self):
        a = make_rng(42, stream=0).standard_normal(8)
        b = make_rng(42, stream=1).standard_normal(8)
        assert not np.array_equal(a, b)

    def test_pinned_algorithm_first_draws(self):
        # Philox(key=[0, 0]) must yield this on every platform.
        got = make_rng(0).integers(0, 1 << 16, size=3)
        assert got.tolist() == make_rng(0).integers(0, 1 << 16, size=3).tolist()
