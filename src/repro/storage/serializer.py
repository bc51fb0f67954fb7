"""Exact binary layout for compressed row-groups.

Everything the in-memory dataclasses of :mod:`repro.core` carry is given
a little-endian byte layout here, so columns survive a disk round-trip
bit-exactly.  The format is deliberately simple (length-prefixed
sections, no alignment games): the benchmarks measure the *encodings*,
not the framing.

Layout of one serialized row-group::

    u8   scheme          0 = ALP, 1 = ALP_rd
    u32  value count
    -- ALP --
    u8   candidate count, then (u8 exponent, u8 factor) per candidate
    u16  vector count, then per vector:
         u8 e, u8 f, u16 count,
         i64 ffor reference, u8 ffor bit width, u32 payload len, payload,
         u16 exception count, positions (u16 each), values (f64 each)
    -- ALP_rd --
    u8   right bit width, u8 total bits,
    u8   dictionary size, entries (u16 each),
    u16  vector count, then per vector:
         u16 count, u32 left len, left bytes, u32 right len, right bytes,
         u16 exception count, positions (u16 each), values (u16 each)
"""

from __future__ import annotations

import struct
from typing import Any

import numpy as np

from repro.core.alp import AlpVector
from repro.core.alprd import AlpRdParameters, AlpRdRowGroup, AlpRdVector
from repro.core.compressor import (
    AlpRowGroup,
    CompressedRowGroup,
    CompressionStats,
    FirstLevelResult,
)
from repro.core.sampler import ExponentFactor
from repro.encodings.dictionary import SkewedDictionary
from repro.encodings.ffor import FforEncoded

_SCHEME_ALP = 0
_SCHEME_ALPRD = 1


class ByteWriter:
    """Tiny append-only little-endian struct writer."""

    __slots__ = ("_parts",)

    def __init__(self) -> None:
        self._parts: list[bytes] = []

    def u8(self, value: int) -> None:
        self._parts.append(struct.pack("<B", value))

    def u16(self, value: int) -> None:
        self._parts.append(struct.pack("<H", value))

    def u32(self, value: int) -> None:
        self._parts.append(struct.pack("<I", value))

    def u64(self, value: int) -> None:
        self._parts.append(struct.pack("<Q", value))

    def i64(self, value: int) -> None:
        self._parts.append(struct.pack("<q", value))

    def f64(self, value: float) -> None:
        self._parts.append(struct.pack("<d", value))

    def raw(self, data: bytes) -> None:
        self._parts.append(data)

    def array(self, values: np.ndarray) -> None:
        """Raw dump of a numpy array's little-endian bytes."""
        self._parts.append(np.ascontiguousarray(values).tobytes())

    def getvalue(self) -> bytes:
        return b"".join(self._parts)


class ByteReader:
    """Sequential little-endian struct reader over a buffer."""

    __slots__ = ("_buffer", "_pos")

    def __init__(self, buffer: bytes, offset: int = 0) -> None:
        self._buffer = buffer
        self._pos = offset

    def _take(self, fmt: str) -> Any:
        size = struct.calcsize(fmt)
        value = struct.unpack_from(fmt, self._buffer, self._pos)[0]
        self._pos += size
        return value

    def u8(self) -> int:
        return self._take("<B")

    def u16(self) -> int:
        return self._take("<H")

    def u32(self) -> int:
        return self._take("<I")

    def u64(self) -> int:
        return self._take("<Q")

    def i64(self) -> int:
        return self._take("<q")

    def f64(self) -> float:
        return self._take("<d")

    def unpack(self, layout: struct.Struct) -> tuple[Any, ...]:
        """Every field of one precompiled ``struct`` at once."""
        fields = layout.unpack_from(self._buffer, self._pos)
        self._pos += layout.size
        return fields

    def raw(self, size: int) -> bytes:
        data = self._buffer[self._pos : self._pos + size]
        if len(data) != size:
            raise ValueError("truncated buffer")
        self._pos += size
        return data

    def array(self, dtype: np.dtype, count: int) -> np.ndarray:
        """``count`` little-endian items, copied once into a native array.

        The copy never aliases the buffer, so arrays read off an mmap
        do not pin it.
        """
        dtype = np.dtype(dtype)
        native = dtype.newbyteorder("=")
        if count == 0:
            return np.empty(0, dtype=native)
        values = np.frombuffer(
            self._buffer, dtype=dtype, count=count, offset=self._pos
        ).astype(native)
        self._pos += dtype.itemsize * count
        return values

    @property
    def position(self) -> int:
        return self._pos


#: FFOR frame head: reference, bit width, payload length.
_FFOR_HEAD = struct.Struct("<qBI")
#: ALP vector head: exponent, factor, count, then the FFOR frame head.
_ALP_HEAD = struct.Struct("<BBHqBI")
#: What follows an ALP vector's payload: FFOR count, exception count.
_ALP_TAIL = struct.Struct("<IH")
#: ALP_rd vector head: count, left payload length.
_RD_HEAD = struct.Struct("<HI")
_LE_U16 = np.dtype("<u2")
_LE_F64 = np.dtype("<f8")


def _write_ffor(w: ByteWriter, ffor: FforEncoded) -> None:
    w.i64(ffor.reference)
    w.u8(ffor.bit_width)
    w.u32(len(ffor.payload))
    w.raw(ffor.payload)
    w.u32(ffor.count)


def _read_ffor(r: ByteReader) -> FforEncoded:
    reference, bit_width, payload_len = r.unpack(_FFOR_HEAD)
    payload = r.raw(payload_len)
    count = r.u32()
    return FforEncoded(
        payload=payload, reference=reference, bit_width=bit_width, count=count
    )


def _write_alp_vector(w: ByteWriter, vector: AlpVector) -> None:
    w.u8(vector.exponent)
    w.u8(vector.factor)
    w.u16(vector.count)
    _write_ffor(w, vector.ffor)
    w.u16(vector.exc_positions.size)
    w.array(vector.exc_positions.astype("<u2"))
    w.array(vector.exc_values.astype("<f8"))


def _read_alp_vector(r: ByteReader) -> AlpVector:
    exponent, factor, count, reference, bit_width, payload_len = r.unpack(
        _ALP_HEAD
    )
    payload = r.raw(payload_len)
    ffor_count, n_exc = r.unpack(_ALP_TAIL)
    exc_positions = r.array(_LE_U16, n_exc)
    exc_values = r.array(_LE_F64, n_exc)
    return AlpVector(
        ffor=FforEncoded(
            payload=payload,
            reference=reference,
            bit_width=bit_width,
            count=ffor_count,
        ),
        exponent=exponent,
        factor=factor,
        exc_values=exc_values,
        exc_positions=exc_positions,
        count=count,
    )


def _write_rd_vector(w: ByteWriter, vector: AlpRdVector) -> None:
    w.u16(vector.count)
    w.u32(len(vector.left_payload))
    w.raw(vector.left_payload)
    w.u32(len(vector.right_payload))
    w.raw(vector.right_payload)
    w.u16(vector.exc_positions.size)
    w.array(vector.exc_positions.astype("<u2"))
    w.array(vector.exc_values.astype("<u2"))


def _read_rd_vector(r: ByteReader) -> AlpRdVector:
    count, left_len = r.unpack(_RD_HEAD)
    left = r.raw(left_len)
    right = r.raw(r.u32())
    n_exc = r.u16()
    exc_positions = r.array(_LE_U16, n_exc)
    exc_values = r.array(_LE_U16, n_exc)
    return AlpRdVector(
        left_payload=left,
        right_payload=right,
        exc_positions=exc_positions,
        exc_values=exc_values,
        count=count,
    )


def serialize_rowgroup(rowgroup: CompressedRowGroup) -> bytes:
    """Serialize one compressed row-group to bytes."""
    w = ByteWriter()
    if rowgroup.alp is not None:
        w.u8(_SCHEME_ALP)
        w.u32(rowgroup.count)
        alp = rowgroup.alp
        w.u8(len(alp.candidates))
        for candidate in alp.candidates:
            w.u8(candidate.exponent)
            w.u8(candidate.factor)
        w.u16(len(alp.vectors))
        for vector in alp.vectors:
            _write_alp_vector(w, vector)
    else:
        if rowgroup.rd is None:
            raise ValueError("row-group has neither ALP nor ALP_rd payload")
        rd = rowgroup.rd
        w.u8(_SCHEME_ALPRD)
        w.u32(rowgroup.count)
        w.u8(rd.parameters.right_bit_width)
        w.u8(rd.parameters.total_bits)
        entries = rd.parameters.dictionary.entries
        w.u8(entries.size)
        w.array(entries.astype("<u2"))
        w.u16(len(rd.vectors))
        for vector in rd.vectors:
            _write_rd_vector(w, vector)
    return w.getvalue()


def deserialize_rowgroup(
    buffer: bytes, offset: int = 0
) -> tuple[CompressedRowGroup, int]:
    """Deserialize one row-group; returns (row-group, bytes consumed).

    Compression-time sampling statistics are not stored (they describe
    the act of compressing, not the data), so the deserialized row-group
    carries a placeholder :class:`FirstLevelResult`.
    """
    r = ByteReader(buffer, offset)
    scheme = r.u8()
    count = r.u32()
    if scheme == _SCHEME_ALP:
        n_candidates = r.u8()
        candidates = tuple(
            ExponentFactor(r.u8(), r.u8()) for _ in range(n_candidates)
        )
        n_vectors = r.u16()
        vectors = tuple(_read_alp_vector(r) for _ in range(n_vectors))
        alp = AlpRowGroup(vectors=vectors, candidates=candidates, count=count)
        rowgroup = CompressedRowGroup(
            alp=alp,
            rd=None,
            first_level=FirstLevelResult(
                candidates=candidates,
                use_rd=False,
                best_estimated_bits_per_value=0.0,
            ),
            count=count,
        )
    elif scheme == _SCHEME_ALPRD:
        right_bit_width = r.u8()
        total_bits = r.u8()
        n_entries = r.u8()
        entries = r.array(_LE_U16, n_entries)
        width = max(int(entries.size - 1).bit_length(), 0)
        parameters = AlpRdParameters(
            right_bit_width=right_bit_width,
            dictionary=SkewedDictionary(entries=entries, code_width=width),
            total_bits=total_bits,
        )
        n_vectors = r.u16()
        vectors = tuple(_read_rd_vector(r) for _ in range(n_vectors))
        rd = AlpRdRowGroup(parameters=parameters, vectors=vectors, count=count)
        rowgroup = CompressedRowGroup(
            alp=None,
            rd=rd,
            first_level=FirstLevelResult(
                candidates=(ExponentFactor(0, 0),),
                use_rd=True,
                best_estimated_bits_per_value=0.0,
            ),
            count=count,
        )
    else:
        raise ValueError(f"unknown scheme tag {scheme}")
    return rowgroup, r.position - offset


def empty_stats() -> CompressionStats:
    """Placeholder stats for deserialized columns."""
    return CompressionStats()
