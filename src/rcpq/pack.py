"""Sub-byte packing, dequantization LUT construction, and the RCPQ container.

Weight codes pack four 2-bit values per byte, first code in bits 7-6 (so
extraction shifts are 6, 4, 2, 0 with an 0x03 mask). Activation codes pack
two two's-complement 4-bit values per signed byte, first element in the high
nibble; unpacking uses arithmetic shifts so the sign bit fills correctly.

RCPQ on-disk layout (all little-endian):

    offset  size  field
    0       4     magic "RCPQ"
    4       2     version (u16) = 1
    6       1     bits (u8) = 2
    7       4     out channels H (u32)
    11      4     in channels C (u32)
    15      4     group size G (u32)
    19      1     flags (u8), bit 0 = params section present
    20      4     section count (u32)
    24      20*k  section table: (tag u32, offset u64, length u64)
    ...           payload sections

Section tags: 1 = packed weights (H*C/4 bytes), 2 = dequant LUT
(H*(C/G)*4 float16), 3 = raw quantizer parameters (H*(C/G)*4 float32, last
axis ordered lo_logit, hi_logit, split1, split2).
"""

from __future__ import annotations

import os
import struct
from dataclasses import dataclass

import numpy as np

from .core import GroupLayout
from .errors import DataError, EncodeError, FormatError, RcpqError
from .ldp import LdpParams, derive_grids

__all__ = [
    "PackedWeights",
    "PackedActivations",
    "DequantLut",
    "RcpqContainer",
    "pack_weight_codes",
    "unpack_weight_codes",
    "pack_activation_codes",
    "unpack_activation_codes",
    "build_lut",
    "stored_params",
    "write_rcpq",
    "read_rcpq",
]

MAGIC = b"RCPQ"
VERSION = 1
BITS = 2
_TAG_WEIGHTS = 1
_TAG_LUT = 2
_TAG_PARAMS = 3
_HEADER = struct.Struct("<4sHBIIIBI")
_SECTION = struct.Struct("<IQQ")


@dataclass
class PackedWeights:
    """2-bit weight codes, four per byte, shape (H, C/4)."""

    data: np.ndarray
    layout: GroupLayout


@dataclass
class PackedActivations:
    """4-bit signed activation codes, two per byte, shape (C/2,)."""

    data: np.ndarray


@dataclass
class DequantLut:
    """Per-group dequantization table, shape (H, N, 4), float16, non-decreasing."""

    table: np.ndarray


@dataclass
class RcpqContainer:
    weights: PackedWeights
    lut: DequantLut
    params: LdpParams | None


def pack_weight_codes(codes: np.ndarray, layout: GroupLayout) -> PackedWeights:
    codes = np.asarray(codes)
    layout.check(codes)
    if layout.in_channels % 4 != 0:
        raise EncodeError("input channels must be divisible by 4")
    if codes.min() < 0 or codes.max() > 3:
        raise EncodeError("weight codes must be in {0..3}")
    q = codes.astype(np.uint8).reshape(layout.out_channels, layout.in_channels // 4, 4)
    packed = (q[..., 0] << 6) | (q[..., 1] << 4) | (q[..., 2] << 2) | q[..., 3]
    return PackedWeights(data=packed, layout=layout)


def unpack_weight_codes(pw: PackedWeights) -> np.ndarray:
    b = pw.data
    out = np.empty((b.shape[0], b.shape[1] * 4), dtype=np.uint8)
    out[:, 0::4] = b >> 6
    out[:, 1::4] = (b >> 4) & 0x03
    out[:, 2::4] = (b >> 2) & 0x03
    out[:, 3::4] = b & 0x03
    return out


def pack_activation_codes(codes: np.ndarray) -> PackedActivations:
    codes = np.asarray(codes)
    if codes.ndim != 1 or codes.size % 2 != 0:
        raise EncodeError("need a 1-D code vector with even length")
    if codes.min() < -8 or codes.max() > 7:
        raise EncodeError("activation codes must be in [-8, 7]")
    c = codes.astype(np.int64)
    hi = c[0::2] & 0xF
    lo = c[1::2] & 0xF
    return PackedActivations(data=((hi << 4) | lo).astype(np.uint8).view(np.int8))


def unpack_activation_codes(pa: PackedActivations) -> np.ndarray:
    b = pa.data.astype(np.int8)
    out = np.empty(b.size * 2, dtype=np.int8)
    out[0::2] = b >> 4  # arithmetic shift: sign-filled
    out[1::2] = (b << 4) >> 4  # sign bit moved to MSB first, then sign-filled
    return out


def _check_lut(table: np.ndarray, error: type[RcpqError], where: str) -> None:
    """Raise ``error`` at the first (row, group) whose entries are not finite or decrease."""
    for bad, what in ((~np.isfinite(table), "is not finite"), (table[..., 1:] < table[..., :-1], "decreases")):
        if bad.any():
            row, group = np.argwhere(bad.any(axis=-1))[0]
            raise error(f"{where}LUT at (row {row}, group {group}) {what}")


def build_lut(w: np.ndarray, layout: GroupLayout, params: LdpParams) -> DequantLut:
    """Dequantization table per group: ``lo + span * level`` in float16.

    Entries are non-decreasing per group and the first/last entries equal
    the clip endpoints up to float16 rounding. Raises ``EncodeError`` where
    an entry overflows float16.
    """
    grids = derive_grids(layout.grouped(np.asarray(w)), params)
    table = grids.lo[..., None] + grids.span[..., None] * grids.levels
    with np.errstate(over="ignore"):  # reported below by (row, group)
        table = table.astype(np.float16)
    _check_lut(table, EncodeError, "float16 ")
    return DequantLut(table=table)


def _params_to_raw(params: LdpParams) -> np.ndarray:
    """Params section payload: (H, N, 4) float32 in the documented field order."""
    return np.stack(
        [params.lo_logit, params.hi_logit, params.split1, params.split2], axis=-1
    ).astype("<f4")


def _params_from_raw(raw: np.ndarray) -> LdpParams:
    return LdpParams(
        lo_logit=raw[..., 0].astype(np.float64),
        hi_logit=raw[..., 1].astype(np.float64),
        split1=raw[..., 2].astype(np.float64),
        split2=raw[..., 3].astype(np.float64),
    )


def stored_params(params: LdpParams) -> LdpParams:
    """``params`` as ``write_rcpq`` stores them and ``read_rcpq`` returns them.

    The params section holds float32 logits. Codes and a LUT derived from
    these rounded values are the ones a reader re-derives from the container;
    derived from the float64 originals they can differ in a group whose
    threshold or endpoint moves by the rounding.
    """
    return _params_from_raw(_params_to_raw(params))


def write_rcpq(
    path,
    pw: PackedWeights,
    lut: DequantLut,
    params: LdpParams | None = None,
) -> None:
    layout = pw.layout
    sections: list[tuple[int, bytes]] = [
        (_TAG_WEIGHTS, np.ascontiguousarray(pw.data, dtype=np.uint8).tobytes()),
        (_TAG_LUT, np.ascontiguousarray(lut.table, dtype="<f2").tobytes()),
    ]
    flags = 0
    if params is not None:
        sections.append((_TAG_PARAMS, _params_to_raw(params).tobytes()))
        flags |= 1

    header_len = _HEADER.size + _SECTION.size * len(sections)
    offset = header_len
    table = b""
    for tag, payload in sections:
        table += _SECTION.pack(tag, offset, len(payload))
        offset += len(payload)
    head = _HEADER.pack(
        MAGIC,
        VERSION,
        BITS,
        layout.out_channels,
        layout.in_channels,
        layout.group_size,
        flags,
        len(sections),
    )
    # Written beside the target and renamed onto it, so a failed write leaves
    # any file already at ``path`` as it was.
    tmp = f"{os.fspath(path)}.{os.getpid()}.tmp"
    try:
        with open(tmp, "wb") as fh:
            fh.write(head)
            fh.write(table)
            for _, payload in sections:
                fh.write(payload)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.remove(tmp)
        raise


def read_rcpq(path) -> RcpqContainer:
    with open(path, "rb") as fh:
        blob = fh.read()
    if len(blob) < _HEADER.size:
        raise DataError(f"{path}: truncated header")
    magic, version, bits, h, c, g, flags, count = _HEADER.unpack_from(blob, 0)
    if magic != MAGIC:
        raise FormatError(f"{path}: bad magic {magic!r}")
    if version != VERSION:
        raise FormatError(f"{path}: unsupported version {version}")
    if bits != BITS:
        raise FormatError(f"{path}: unsupported bit width {bits}")
    layout = GroupLayout(h, c, g)
    n = layout.num_groups

    sections = {}
    spans = []
    pos = _HEADER.size
    for _ in range(count):
        if pos + _SECTION.size > len(blob):
            raise DataError(f"{path}: truncated section table")
        tag, off, length = _SECTION.unpack_from(blob, pos)
        pos += _SECTION.size
        if off + length > len(blob):
            raise DataError(f"{path}: section {tag} overruns file")
        if tag in sections:
            raise DataError(f"{path}: duplicate section {tag}")
        if off < _HEADER.size + _SECTION.size * count:
            raise DataError(f"{path}: section {tag} starts inside the header or section table")
        sections[tag] = blob[off : off + length]
        spans.append((off, off + length, tag))
    spans.sort()
    for (_, end, first), (start, _, second) in zip(spans, spans[1:]):
        if start < end:
            raise DataError(f"{path}: sections {first} and {second} overlap")

    expect_w = h * c // 4
    expect_lut = h * n * 4 * 2
    if _TAG_WEIGHTS not in sections or len(sections[_TAG_WEIGHTS]) != expect_w:
        raise DataError(f"{path}: weight section missing or wrong size")
    if _TAG_LUT not in sections or len(sections[_TAG_LUT]) != expect_lut:
        raise DataError(f"{path}: LUT section missing or wrong size")

    pw = PackedWeights(
        data=np.frombuffer(sections[_TAG_WEIGHTS], dtype=np.uint8).reshape(h, c // 4).copy(),
        layout=layout,
    )
    lut = DequantLut(
        table=np.frombuffer(sections[_TAG_LUT], dtype="<f2").reshape(h, n, 4).copy()
    )
    _check_lut(lut.table, DataError, f"{path}: ")
    params = None
    if flags & 1:
        expect_p = h * n * 4 * 4
        if _TAG_PARAMS not in sections or len(sections[_TAG_PARAMS]) != expect_p:
            raise DataError(f"{path}: params section missing or wrong size")
        params = _params_from_raw(np.frombuffer(sections[_TAG_PARAMS], dtype="<f4").reshape(h, n, 4))
    return RcpqContainer(weights=pw, lut=lut, params=params)
