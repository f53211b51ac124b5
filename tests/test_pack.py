"""Bit packing, LUT construction, and the RCPQ container."""

import struct
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rcpq import pack
from rcpq.calib import ClipSearchConfig, grid_search_clip, ldp_init
from rcpq.core import GroupLayout, make_rng
from rcpq.errors import DataError, EncodeError, FormatError, RcpqError, ShapeError
from rcpq.ldp import LdpParams, derive_grids, fake_quant, uniform_split_logits
from rcpq.pack import (
    DequantLut,
    PackedActivations,
    PackedWeights,
    build_lut,
    pack_activation_codes,
    pack_weight_codes,
    read_rcpq,
    stored_params,
    unpack_activation_codes,
    unpack_weight_codes,
    write_rcpq,
)


class TestWeightPacking:
    def test_spec_byte(self):
        lay = GroupLayout(1, 4, 4)
        pw = pack_weight_codes(np.array([[3, 2, 1, 0]]), lay)
        assert pw.data[0, 0] == 0xE4

    def test_zero_byte(self):
        lay = GroupLayout(1, 4, 4)
        assert pack_weight_codes(np.array([[0, 0, 0, 0]]), lay).data[0, 0] == 0x00

    def test_random_round_trip(self):
        rng = make_rng(50)
        lay = GroupLayout(8, 64, 32)
        codes = rng.integers(0, 4, size=(8, 64))
        np.testing.assert_array_equal(unpack_weight_codes(pack_weight_codes(codes, lay)), codes)

    def test_exhaustive_all_bytes(self):
        # every byte value decodes to codes that re-encode to the same byte
        every = np.arange(256, dtype=np.uint8).reshape(1, 256)
        pw = PackedWeights(every, GroupLayout(1, 1024, 128))
        codes = unpack_weight_codes(pw)
        again = pack_weight_codes(codes, pw.layout)
        np.testing.assert_array_equal(again.data, every)

    def test_out_of_range_code(self):
        with pytest.raises(EncodeError):
            pack_weight_codes(np.array([[0, 1, 2, 4]]), GroupLayout(1, 4, 4))

    def test_transient_memory_bound(self):
        # 4096x4096 uint8 codes (16 MiB) pack into 4096x1024 bytes: the packed
        # array and one shifted temporary, with no copy of the codes or of the result.
        codes = make_rng(58).integers(0, 4, size=(4096, 4096), dtype=np.uint8)
        tracemalloc.start()
        try:
            pw = pack_weight_codes(codes, GroupLayout(4096, 4096, 128))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert pw.data.shape == (4096, 1024) and not pw.data.flags.writeable
        assert peak <= 2 * pw.data.nbytes + 2**16


class TestActivationPacking:
    def test_spec_pair(self):
        pa = pack_activation_codes(np.array([-1, 7]))
        assert pa.data.view(np.uint8)[0] == 0xF7
        np.testing.assert_array_equal(unpack_activation_codes(pa), [-1, 7])

    def test_zero_pair(self):
        assert pack_activation_codes(np.array([0, 0])).data[0] == 0

    def test_exhaustive_all_nibble_pairs(self):
        hi, lo = np.meshgrid(np.arange(-8, 8), np.arange(-8, 8), indexing="ij")
        codes = np.stack([hi.ravel(), lo.ravel()], axis=-1).reshape(-1)
        pa = pack_activation_codes(codes)
        np.testing.assert_array_equal(unpack_activation_codes(pa), codes)

    def test_exhaustive_all_bytes_repack(self):
        every = PackedActivations(np.arange(256, dtype=np.uint8).view(np.int8))
        codes = unpack_activation_codes(every)
        again = pack_activation_codes(codes)
        np.testing.assert_array_equal(again.data, every.data)

    def test_out_of_range(self):
        with pytest.raises(EncodeError):
            pack_activation_codes(np.array([8, 0]))

    def test_odd_length(self):
        with pytest.raises(EncodeError):
            pack_activation_codes(np.array([1, 2, 3]))


class TestBuildLut:
    def test_uniform_grid_row(self):
        lay = GroupLayout(1, 2, 2)
        s1, s2 = uniform_split_logits()
        params = LdpParams(np.full((1, 1), 20.0), np.full((1, 1), 20.0),
                           np.full((1, 1), s1), np.full((1, 1), s2))
        lut = build_lut(np.array([[-1.0, 1.0]]), lay, params)
        np.testing.assert_allclose(
            lut.table[0, 0].astype(np.float64), [-1, -1 / 3, 1 / 3, 1], atol=1e-3
        )

    def test_endpoints_differ_by_span(self):
        rng = make_rng(51)
        lay = GroupLayout(4, 64, 16)
        w = rng.standard_normal((4, 64))
        params = LdpParams(
            rng.uniform(-2, 2, (4, 4)), rng.uniform(-2, 2, (4, 4)),
            rng.normal(size=(4, 4)), rng.normal(size=(4, 4)),
        )
        lut = build_lut(w, lay, params)
        from rcpq.ldp import derive_grids

        grids = derive_grids(lay.grouped(w), params)
        got = lut.table[..., 3].astype(np.float64) - lut.table[..., 0].astype(np.float64)
        # within float16 rounding of the true span
        assert np.max(np.abs(got - grids.span)) <= 2e-3 * np.maximum(1.0, np.abs(grids.span)).max()

    def test_monotone_rows(self):
        rng = make_rng(52)
        lay = GroupLayout(8, 32, 8)
        w = rng.standard_normal((8, 32))
        params = LdpParams(
            rng.uniform(-3, 3, (8, 4)), rng.uniform(-3, 3, (8, 4)),
            rng.normal(size=(8, 4)), rng.normal(size=(8, 4)),
        )
        lut = build_lut(w, lay, params)
        assert np.all(np.diff(lut.table.astype(np.float32), axis=-1) > 0)

    def test_fake_quant_consistency(self):
        # LUT[code] reproduces fake_quant within float16 rounding, 1e4 values
        rng = make_rng(53)
        lay = GroupLayout(10, 1000, 100)
        w = rng.standard_normal((10, 1000))
        params = LdpParams(
            rng.uniform(-2, 2, (10, 10)), rng.uniform(-2, 2, (10, 10)),
            rng.normal(size=(10, 10)), rng.normal(size=(10, 10)),
        )
        lut = build_lut(w, lay, params)
        codes, w_hat = fake_quant(lay.grouped(w), params)
        decoded = np.take_along_axis(
            lut.table.astype(np.float64), codes.astype(np.int64), axis=-1
        )
        scale = np.maximum(1.0, np.abs(w_hat))
        assert np.max(np.abs(decoded - w_hat) / scale) < 1e-3  # fp16 eps ~ 9.8e-4

    def test_table_is_the_derived_table_in_float16(self):
        rng = make_rng(54)
        lay = GroupLayout(6, 64, 16)
        w = rng.laplace(size=(6, 64)).astype(np.float32)
        params = LdpParams(*[rng.uniform(-4, 4, (6, 4)) for _ in range(4)])
        table = derive_grids(lay.grouped(w), params).table
        assert build_lut(w, lay, params).table.tobytes() == table.astype(np.float16).tobytes()

    def test_transient_memory_bound(self):
        # Group min/max are taken in the weight's dtype: no float64 copy of it.
        rng = make_rng(55)
        lay = GroupLayout(512, 1024, 128)
        w = rng.standard_normal((512, 1024)).astype(np.float32)
        params = LdpParams(*[rng.uniform(-3, 3, (512, 8)) for _ in range(4)])
        tracemalloc.start()
        try:
            build_lut(w, lay, params)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= w.nbytes

    @pytest.mark.filterwarnings("error")  # no float16 overflow warning either
    def test_float16_overflow_raises(self):
        lay = GroupLayout(2, 8, 4)
        w = np.tile([-1.0, 0.0, 0.0, 1.0], (2, 2))
        w[1, 7] = 1e5  # past float16's largest finite value, 65504
        params = LdpParams(np.full((2, 2), 20.0), np.full((2, 2), 20.0), np.zeros((2, 2)), np.zeros((2, 2)))
        with pytest.raises(EncodeError, match=r"\(row 1, group 1\) is not finite"):
            build_lut(w, lay, params)

    def test_equal_float16_levels_are_valid(self, tmp_path):
        # A narrow group far from zero: all four levels round to one float16,
        # so the LUT is non-decreasing but not strictly increasing.
        lay = GroupLayout(1, 4, 4)
        w = np.array([[1000.0, 1000.03, 1000.06, 1000.1]])
        s1, s2 = uniform_split_logits()
        params = LdpParams(np.full((1, 1), 20.0), np.full((1, 1), 20.0),
                           np.full((1, 1), s1), np.full((1, 1), s2))
        lut = build_lut(w, lay, params)
        assert np.any(np.diff(lut.table.astype(np.float32), axis=-1) == 0)
        codes, _ = fake_quant(lay.grouped(w), params)
        path = tmp_path / "flat.rcpq"
        write_rcpq(path, pack_weight_codes(codes.reshape(1, 4), lay), lut, params)
        np.testing.assert_array_equal(read_rcpq(path).lut.table, lut.table)


def _section_entries(blob) -> dict:
    """{tag: (position in the section table, offset, length)} of a container."""
    count = struct.unpack_from("<I", blob, 20)[0]
    entries = {}
    for pos in range(24, 24 + 20 * count, 20):
        tag, off, length = struct.unpack_from("<IQQ", blob, pos)
        entries[tag] = (pos, off, length)
    return entries


def _small_container(tmp_path, with_params=True):
    rng = make_rng(54)
    lay = GroupLayout(4, 32, 16)
    codes = rng.integers(0, 4, size=(4, 32))
    pw = pack_weight_codes(codes, lay)
    w = rng.standard_normal((4, 32))
    x = rng.standard_normal((16, 32))
    params = ldp_init(grid_search_clip(w, x, lay, ClipSearchConfig(grid=4)))
    lut = build_lut(w, lay, params)
    path = tmp_path / "m.rcpq"
    write_rcpq(path, pw, lut, params if with_params else None)
    return path, pw, lut, params


class TestContainer:
    def test_round_trip(self, tmp_path):
        path, pw, lut, params = _small_container(tmp_path)
        box = read_rcpq(path)
        np.testing.assert_array_equal(box.weights.data, pw.data)
        assert box.weights.layout == pw.layout
        np.testing.assert_array_equal(box.lut.table, lut.table)
        np.testing.assert_allclose(box.params.lo_logit, params.lo_logit, rtol=1e-6)
        np.testing.assert_allclose(box.params.split2, params.split2, rtol=1e-6)

    def test_stored_params_are_the_read_back_params(self, tmp_path):
        path, _, _, params = _small_container(tmp_path)
        box, stored = read_rcpq(path), stored_params(params)
        for name in ("lo_logit", "hi_logit", "split1", "split2"):
            np.testing.assert_array_equal(getattr(stored, name), getattr(box.params, name))

    def test_no_params_flag(self, tmp_path):
        path, *_ = _small_container(tmp_path, with_params=False)
        assert read_rcpq(path).params is None

    def test_flipped_magic(self, tmp_path):
        path, *_ = _small_container(tmp_path)
        blob = bytearray(path.read_bytes())
        blob[0] ^= 0xFF
        path.write_bytes(bytes(blob))
        with pytest.raises(FormatError):
            read_rcpq(path)

    def test_bad_version(self, tmp_path):
        path, *_ = _small_container(tmp_path)
        blob = bytearray(path.read_bytes())
        blob[4] = 99
        path.write_bytes(bytes(blob))
        with pytest.raises(FormatError):
            read_rcpq(path)

    @pytest.mark.parametrize("version", [0, 1, 3])
    def test_versions_around_the_readable_ones(self, tmp_path, version):
        path, *_ = _small_container(tmp_path)
        blob = bytearray(path.read_bytes())
        struct.pack_into("<H", blob, 4, version)
        path.write_bytes(bytes(blob))
        with pytest.raises(FormatError, match=f"unsupported version {version}"):
            read_rcpq(path)

    def test_rejects_version_1(self, tmp_path):
        path, *_ = _small_container(tmp_path)
        blob = bytearray(path.read_bytes())
        assert struct.unpack_from("<H", blob, 4)[0] == pack.VERSION == 2
        struct.pack_into("<H", blob, 4, 1)
        path.write_bytes(bytes(blob))
        with pytest.raises(FormatError, match="unsupported version 1; re-run rcpq quantize"):
            read_rcpq(path)

    def test_truncated_payload(self, tmp_path):
        path, *_ = _small_container(tmp_path)
        blob = path.read_bytes()
        path.write_bytes(blob[:-3])
        with pytest.raises(DataError):
            read_rcpq(path)

    @pytest.mark.parametrize(
        "tag, entry, message",
        [
            (3, lambda off, length: (2, off, length), "duplicate section 2"),
            (2, lambda off, length: (2, 0, length), "section 2 starts inside the header"),
            (3, lambda off, length: (3, off - 8, length), "sections 2 and 3 overlap"),
        ],
        ids=["duplicate", "inside_header", "overlap"],
    )
    def test_bad_section_table(self, tmp_path, tag, entry, message):
        path, *_ = _small_container(tmp_path)
        blob = bytearray(path.read_bytes())
        pos, off, length = _section_entries(blob)[tag]
        struct.pack_into("<IQQ", blob, pos, *entry(off, length))
        path.write_bytes(bytes(blob))
        with pytest.raises(DataError, match=message):
            read_rcpq(path)

    @pytest.mark.parametrize("value, message", [(np.inf, "is not finite"), (-1e4, "decreases")])
    def test_bad_lut_entry(self, tmp_path, value, message):
        path, *_ = _small_container(tmp_path)
        blob = bytearray(path.read_bytes())
        _, off, length = _section_entries(blob)[2]
        table = np.frombuffer(bytes(blob[off : off + length]), dtype="<f2").reshape(4, 2, 4).copy()
        table[1, 1, 2] = value
        blob[off : off + length] = table.tobytes()
        path.write_bytes(bytes(blob))
        with pytest.raises(DataError, match=rf"\(row 1, group 1\) {message}"):
            read_rcpq(path)

    @pytest.mark.parametrize("value, field, name", [(np.nan, 1, "hi_logit"), (-np.inf, 3, "split2")])
    def test_non_finite_param(self, tmp_path, value, field, name):
        path, *_ = _small_container(tmp_path)
        blob = bytearray(path.read_bytes())
        _, off, length = _section_entries(blob)[3]
        raw = np.frombuffer(bytes(blob[off : off + length]), dtype="<f4").reshape(4, 2, 4).copy()
        raw[2, 1, field] = value
        blob[off : off + length] = raw.tobytes()
        path.write_bytes(bytes(blob))
        with pytest.raises(DataError, match=rf"params at \(row 2, group 1\) {name} is not finite"):
            read_rcpq(path)

    def test_in_channels_not_multiple_of_4(self, tmp_path):
        # H=2, C=6, G=6: the section sizes H*C/4 = 3 and H*(C/G)*4*2 = 16 match the header
        head = struct.pack("<4sHBIIIBI", b"RCPQ", 2, 2, 2, 6, 6, 0, 2)
        table = struct.pack("<IQQ", 1, 64, 3) + struct.pack("<IQQ", 2, 67, 16)
        path = tmp_path / "m.rcpq"
        path.write_bytes(head + table + bytes(3) + np.zeros((2, 1, 4), "<f2").tobytes())
        with pytest.raises(FormatError, match="6 input channels are not a multiple of 4"):
            read_rcpq(path)

    def test_write_rejects_in_channels_not_multiple_of_4(self, tmp_path):
        lay = GroupLayout(2, 6, 6)
        lut = DequantLut(np.zeros((2, 1, 4), dtype=np.float16))
        with pytest.raises(ShapeError, match="do not match layout"):
            write_rcpq(tmp_path / "m.rcpq", PackedWeights(np.zeros((2, 1), dtype=np.uint8), lay), lut)
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("wrong", ["weights", "lut", "params"])
    def test_write_rejects_a_section_of_another_layout(self, tmp_path, wrong):
        # A 4x32 layout at G = 16 with 4x16 packed weights, or with a LUT or
        # params at G = 8: read_rcpq would reject the file's section sizes.
        rng = make_rng(55)
        w = rng.standard_normal((4, 32))
        coarse, fine = GroupLayout(4, 32, 16), GroupLayout(4, 32, 8)
        s1, s2 = uniform_split_logits()
        params = {lay: LdpParams(*(np.full((4, lay.num_groups), v) for v in (3.0, 3.0, s1, s2)))
                  for lay in (coarse, fine)}
        lut_lay, params_lay = (fine, coarse) if wrong == "lut" else (coarse, fine)
        pw = pack_weight_codes(rng.integers(0, 4, size=(4, 32)), coarse)
        if wrong == "weights":
            pw = PackedWeights(pw.data[:, :4], coarse)
        with pytest.raises(ShapeError, match="do not match layout"):
            write_rcpq(tmp_path / "m.rcpq", pw, build_lut(w, lut_lay, params[lut_lay]), params[params_lay])
        assert list(tmp_path.iterdir()) == []

    def test_write_rejects_a_lut_past_float16s_range(self, tmp_path):
        # A float64 entry with no float16 value: the cast would write an inf.
        path, pw, lut, params = _small_container(tmp_path)
        table = lut.table.astype(np.float64)
        table[1, 1, 3] = 1e5
        with pytest.raises(EncodeError, match=r"float16 LUT at \(row 1, group 1\) is not finite"):
            write_rcpq(tmp_path / "new.rcpq", pw, DequantLut(table), params)
        assert [p.name for p in tmp_path.iterdir()] == [path.name]

    @pytest.mark.parametrize("value", [np.nan, 1e300])
    def test_write_rejects_params_not_finite_in_float32(self, tmp_path, value):
        # NaN, or a finite float64 logit that float32 stores as inf: read_rcpq rejects both.
        path, pw, lut, params = _small_container(tmp_path)
        params.hi_logit[1, 0] = value
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # no RuntimeWarning from the float32 cast
            with pytest.raises(EncodeError, match=r"params at \(row 1, group 0\) hi_logit is not finite"):
                write_rcpq(tmp_path / "new.rcpq", pw, lut, params)
        assert [p.name for p in tmp_path.iterdir()] == [path.name]

    def test_failed_write_keeps_existing_file(self, tmp_path, monkeypatch):
        path, pw, lut, _ = _small_container(tmp_path)
        before = path.read_bytes()

        class FailAfterHeader:
            """A file whose writes fail after the first one, the header."""

            def __init__(self, name, mode):
                self.fh, self.writes = open(name, mode), 0

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                self.fh.close()

            def write(self, data):
                self.writes += 1
                if self.writes > 1:
                    raise OSError("disk full")
                return self.fh.write(data)

        monkeypatch.setattr(pack, "open", FailAfterHeader, raising=False)
        with pytest.raises(OSError, match="disk full"):
            write_rcpq(path, pw, lut)
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["m.rcpq"]

    def test_section_sizes_4096(self, tmp_path):
        # H=C=4096, G=128: weights 4,194,304 B; LUT 1,048,576 B
        lay = GroupLayout(4096, 4096, 128)
        codes = np.zeros((4096, 4096), dtype=np.uint8)
        pw = pack_weight_codes(codes, lay)
        assert pw.data.nbytes == 4_194_304
        table = np.zeros((4096, 32, 4), dtype=np.float16)
        table[...] = np.arange(4, dtype=np.float16)  # keep rows increasing
        lut = DequantLut(table)
        assert lut.table.nbytes == 1_048_576
        path = tmp_path / "big.rcpq"
        write_rcpq(path, pw, lut)
        box = read_rcpq(path)
        assert box.weights.data.nbytes == 4_194_304
        assert box.lut.table.nbytes == 1_048_576
        # effective bits: 2 packed + 64/G amortized LUT = 2.5 -> 6.4x vs fp16
        total = pw.data.nbytes + lut.table.nbytes
        assert total * 8 / (4096 * 4096) == 2.5
        assert (4096 * 4096 * 2) / total == 6.4


    def test_read_copies_each_section_once(self, tmp_path):
        # The file's bytes, plus one copy of the weight and LUT sections in
        # the arrays kept: 2x the file. A second copy of each would be 3x.
        lay = GroupLayout(2048, 2048, 128)
        pw = pack_weight_codes(make_rng(57).integers(0, 4, size=(2048, 2048), dtype=np.uint8), lay)
        table = np.broadcast_to(np.arange(4, dtype=np.float16), (2048, 16, 4))
        path = tmp_path / "m.rcpq"
        write_rcpq(path, pw, DequantLut(table))
        size = path.stat().st_size
        assert size > 1.25 * 2**20
        tracemalloc.start()
        try:
            read_rcpq(path)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2.5 * size


@pytest.fixture(scope="module")
def container_bytes(tmp_path_factory):
    """The bytes of ``_small_container`` (with params), and a directory to write variants into."""
    path, *_ = _small_container(tmp_path_factory.mktemp("fuzz"))
    return path.read_bytes(), path.parent


class TestCorruptedContainers:
    @settings(max_examples=400, deadline=None, derandomize=True, database=None)
    @given(
        flips=st.lists(st.tuples(st.integers(0, 2**16), st.integers(1, 255)), max_size=6),
        cut=st.none() | st.integers(0, 2**16),
    )
    def test_fail_closed_or_read_back_valid(self, container_bytes, flips, cut):
        # Random byte flips, then perhaps a truncation: the reader raises an
        # RcpqError, or what it returns satisfies every documented invariant.
        blob, where = container_bytes
        data = bytearray(blob)
        for pos, mask in flips:
            data[pos % len(data)] ^= mask
        if cut is not None:
            data = data[: cut % len(data)]
        path = where / "fuzzed.rcpq"
        path.write_bytes(bytes(data))
        try:
            box = read_rcpq(path)
        except RcpqError:
            return
        lay = box.weights.layout
        rows, groups = lay.out_channels, lay.num_groups
        assert struct.unpack_from("<H", data, 4)[0] == pack.VERSION
        assert box.weights.data.dtype == np.uint8 and box.weights.data.shape == (rows, lay.in_channels // 4)
        table = box.lut.table
        assert table.dtype == np.float16 and table.shape == (rows, groups, 4)
        assert np.isfinite(table).all() and (np.diff(table.astype(np.float64), axis=-1) >= 0).all()
        if box.params is not None:
            for name in ("lo_logit", "hi_logit", "split1", "split2"):
                field = getattr(box.params, name)
                assert field.shape == (rows, groups) and np.isfinite(field).all()
