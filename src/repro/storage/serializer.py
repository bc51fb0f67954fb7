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
from repro.encodings.bitpack import packed_size_bytes, vector_grid
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

    def u32(self, value: int) -> None:
        self._parts.append(struct.pack("<I", value))

    def raw(self, data: bytes) -> None:
        self._parts.append(data)

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

    def i64(self) -> int:
        return self._take("<q")

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


#: Row-group head: scheme tag, value count, then a u8 (candidate count
#: for ALP, right bit width for ALP_rd).
_ROWGROUP_HEAD = struct.Struct("<BIB")
#: Two u8s: an (exponent, factor) candidate, or ALP_rd's total bits and
#: dictionary size.
_PAIR = struct.Struct("<BB")
_U16 = struct.Struct("<H")
_U32 = struct.Struct("<I")
#: FFOR (and delta) frame head: reference, bit width, payload length;
#: the frame's u32 value count follows the payload.
_FFOR_HEAD = struct.Struct("<qBI")
#: ALP vector head: exponent, factor, count, then the FFOR frame head.
_ALP_HEAD = struct.Struct("<BBHqBI")
#: What follows an ALP vector's payload: FFOR count, exception count.
_ALP_TAIL = struct.Struct("<IH")
#: ALP_rd vector head: count, left payload length.
_RD_HEAD = struct.Struct("<HI")
_LE_U16 = np.dtype("<u2")
_LE_F64 = np.dtype("<f8")


def _read_ffor(r: ByteReader) -> FforEncoded:
    reference, bit_width, payload_len = r.unpack(_FFOR_HEAD)
    payload = r.raw(payload_len)
    count = r.u32()
    return FforEncoded(
        payload=payload, reference=reference, bit_width=bit_width, count=count
    )


#: The exception arrays of every exception-free vector (ALP_rd's
#: values are uint16 like its positions): read-only, so sharing them
#: across vectors is safe.
_NO_POSITIONS = np.empty(0, dtype=np.uint16)
_NO_VALUES = np.empty(0, dtype=np.float64)
_NO_POSITIONS.flags.writeable = False
_NO_VALUES.flags.writeable = False


def _read_alp_vectors(
    buffer: Any, pos: int, n_vectors: int
) -> tuple[tuple[AlpVector, ...], int]:
    """``n_vectors`` ALP vectors starting at ``pos``; returns them and
    the position after the last.

    One local loop over the precompiled head and tail structs.  Each
    payload is a slice of ``buffer`` (zero-copy on an mmap view); the
    exception arrays are gathered once per row-group
    (:func:`_attach_exceptions`), so they never pin the buffer.  A
    vector whose header count, FFOR count, payload length, exception
    count or exception positions disagree raises ``ValueError``.
    """
    unpack_head, head_size = _ALP_HEAD.unpack_from, _ALP_HEAD.size
    unpack_tail, tail_size = _ALP_TAIL.unpack_from, _ALP_TAIL.size
    vectors = []
    spans = []
    for i in range(n_vectors):
        exponent, factor, count, reference, width, payload_len = unpack_head(
            buffer, pos
        )
        pos += head_size
        payload = buffer[pos : pos + payload_len]
        pos += payload_len
        ffor_count, n_exc = unpack_tail(buffer, pos)
        pos += tail_size
        if (
            ffor_count != count
            or width > 64
            or payload_len != packed_size_bytes(count, width)
            or len(payload) != payload_len
        ):
            raise ValueError(
                f"ALP vector of {count} values has FFOR count "
                f"{ffor_count} and a {payload_len}-byte payload of "
                f"width {width}"
            )
        if n_exc:
            if n_exc > count:
                raise ValueError(
                    f"{n_exc} exceptions in a vector of {count} values"
                )
            spans.append((i, count, pos, n_exc))
            pos += 10 * n_exc
        vectors.append(
            AlpVector(
                ffor=FforEncoded(
                    payload=payload,
                    reference=reference,
                    bit_width=width,
                    count=count,
                ),
                exponent=exponent,
                factor=factor,
                exc_values=_NO_VALUES,
                exc_positions=_NO_POSITIONS,
                count=count,
            )
        )
    if spans:
        positions, limits = _attach_exceptions(
            vectors, buffer, spans, pos, _LE_F64
        )
        if (positions >= limits).any():
            raise ValueError("exception position outside its vector")
    return tuple(vectors), pos


def _attach_exceptions(
    vectors: list[Any],
    buffer: Any,
    spans: list[tuple[int, int, int, int]],
    end: int,
    value_dtype: np.dtype,
) -> tuple[np.ndarray, np.ndarray]:
    """Give every vector of ``spans`` its exception arrays.

    A span is ``(vector index, vector count, offset, n_exc)``: ``n_exc``
    u16 positions start at ``offset`` and ``n_exc`` values of
    ``value_dtype`` follow them; ``end`` is where the last block ends.
    The row-group's positions and values are each joined into one
    ``bytes`` copy, so they never pin the buffer and are read-only; each
    vector's arrays are slices of them, so one stored row-group can be
    shared.  A buffer that ends inside the blocks raises
    ``ValueError``.  Returns every position and, for each, its vector's
    count.
    """
    if end > len(buffer):
        raise ValueError("truncated buffer")
    size = value_dtype.itemsize
    position_parts = []
    value_parts = []
    for _, _, offset, n_exc in spans:
        middle = offset + 2 * n_exc
        position_parts.append(buffer[offset:middle])
        value_parts.append(buffer[middle : middle + size * n_exc])
    # Views of the joined bytes on a little-endian host, copies elsewhere.
    positions = np.frombuffer(b"".join(position_parts), dtype=_LE_U16).astype(
        np.uint16, copy=False
    )
    values = np.frombuffer(b"".join(value_parts), dtype=value_dtype).astype(
        value_dtype.newbyteorder("="), copy=False
    )
    positions.flags.writeable = False
    values.flags.writeable = False
    start = 0
    for i, _, _, n_exc in spans:
        stop = start + n_exc
        vector = vectors[i]
        vector.exc_positions = positions[start:stop]
        vector.exc_values = values[start:stop]
        start = stop
    _, counts, _, n_excs = zip(*spans)
    return positions, np.repeat(np.array(counts, dtype=np.int64), n_excs)


def _check_counts(counts: list[int], total: int) -> None:
    """Reject vector counts a row-group of ``total`` values cannot have:
    the layout :func:`~repro.encodings.bitpack.vector_grid` requires,
    summing to ``total``."""
    vector_grid(counts)
    if sum(counts) != total:
        raise ValueError(
            f"vector counts sum to {sum(counts)}, row-group holds {total}"
        )


def _read_rd_vectors(
    buffer: Any, pos: int, n_vectors: int
) -> tuple[tuple[AlpRdVector, ...], int]:
    """``n_vectors`` ALP_rd vectors starting at ``pos``; returns them and
    the position after the last.

    The same local loop as :func:`_read_alp_vectors`: both payloads are
    slices of ``buffer`` and the exception arrays are gathered once per
    row-group.  A payload or exception block cut short by the buffer's
    end raises ``ValueError``; exception positions are checked when the
    row-group decodes.
    """
    unpack_head, head_size = _RD_HEAD.unpack_from, _RD_HEAD.size
    unpack_u32, unpack_u16 = _U32.unpack_from, _U16.unpack_from
    vectors = []
    spans = []
    for i in range(n_vectors):
        count, left_len = unpack_head(buffer, pos)
        pos += head_size
        left = buffer[pos : pos + left_len]
        pos += left_len
        if len(left) != left_len:
            raise ValueError("truncated buffer")
        (right_len,) = unpack_u32(buffer, pos)
        pos += _U32.size
        right = buffer[pos : pos + right_len]
        pos += right_len
        if len(right) != right_len:
            raise ValueError("truncated buffer")
        (n_exc,) = unpack_u16(buffer, pos)
        pos += _U16.size
        if n_exc:
            spans.append((i, count, pos, n_exc))
            pos += 4 * n_exc
        vectors.append(
            AlpRdVector(
                left_payload=left,
                right_payload=right,
                exc_positions=_NO_POSITIONS,
                exc_values=_NO_POSITIONS,
                count=count,
            )
        )
    if spans:
        _attach_exceptions(vectors, buffer, spans, pos, _LE_U16)
    return tuple(vectors), pos


def serialize_rowgroup(rowgroup: CompressedRowGroup) -> bytes:
    """Serialize one compressed row-group to bytes.

    Every vector is one precompiled ``struct`` head, its payload(s) and
    one ``struct`` tail appended to a single part list, joined once.
    """
    parts: list[bytes] = []
    if rowgroup.alp is not None:
        alp = rowgroup.alp
        parts.append(
            _ROWGROUP_HEAD.pack(_SCHEME_ALP, rowgroup.count, len(alp.candidates))
        )
        for candidate in alp.candidates:
            parts.append(_PAIR.pack(candidate.exponent, candidate.factor))
        parts.append(_U16.pack(len(alp.vectors)))
        for vector in alp.vectors:
            ffor = vector.ffor
            n_exc = vector.exc_positions.size
            parts.append(
                _ALP_HEAD.pack(
                    vector.exponent,
                    vector.factor,
                    vector.count,
                    ffor.reference,
                    ffor.bit_width,
                    len(ffor.payload),
                )
            )
            parts.append(ffor.payload)
            parts.append(_ALP_TAIL.pack(ffor.count, n_exc))
            if n_exc:
                parts.append(vector.exc_positions.astype(_LE_U16).tobytes())
                parts.append(vector.exc_values.astype(_LE_F64).tobytes())
    else:
        if rowgroup.rd is None:
            raise ValueError("row-group has neither ALP nor ALP_rd payload")
        rd = rowgroup.rd
        entries = rd.parameters.dictionary.entries
        parts.append(
            _ROWGROUP_HEAD.pack(
                _SCHEME_ALPRD, rowgroup.count, rd.parameters.right_bit_width
            )
        )
        parts.append(_PAIR.pack(rd.parameters.total_bits, entries.size))
        parts.append(entries.astype(_LE_U16).tobytes())
        parts.append(_U16.pack(len(rd.vectors)))
        for vector in rd.vectors:
            n_exc = vector.exc_positions.size
            parts.append(_RD_HEAD.pack(vector.count, len(vector.left_payload)))
            parts.append(vector.left_payload)
            parts.append(_U32.pack(len(vector.right_payload)))
            parts.append(vector.right_payload)
            parts.append(_U16.pack(n_exc))
            if n_exc:
                parts.append(vector.exc_positions.astype(_LE_U16).tobytes())
                parts.append(vector.exc_values.astype(_LE_U16).tobytes())
    return b"".join(parts)


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
        vectors, end = _read_alp_vectors(buffer, r.position, n_vectors)
        _check_counts([v.count for v in vectors], count)
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
        vectors, end = _read_rd_vectors(buffer, r.position, n_vectors)
        _check_counts([v.count for v in vectors], count)
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
    return rowgroup, end - offset


#: Heap one parsed vector holds (its records and payload views, and its
#: share of the row-group's), and the headers of one vector's two
#: exception arrays.  Fitted with ``tracemalloc`` on row-groups of 100
#: vectors parsed from memory-mapped files (CPython 3.11, 64-bit):
#: within 25% of the measurement for ALP and ALP_rd, with and without
#: exceptions.
_HEAP_VECTOR = 440
_HEAP_EXCEPTIONS = 300


def parsed_heap_bytes(rowgroup: CompressedRowGroup) -> int:
    """The estimated heap bytes a :func:`deserialize_rowgroup` result
    over a memory-mapped buffer holds: a constant per vector plus each
    vector's exception arrays.  Payloads are views of the map and cost
    nothing more."""
    part = rowgroup.alp if rowgroup.alp is not None else rowgroup.rd
    if part is None:
        raise ValueError("row-group has neither ALP nor ALP_rd payload")
    total = _HEAP_VECTOR * len(part.vectors)
    for vector in part.vectors:
        if vector.exc_positions.size:
            total += (
                _HEAP_EXCEPTIONS
                + vector.exc_positions.nbytes
                + vector.exc_values.nbytes
            )
    return total


def empty_stats() -> CompressionStats:
    """Placeholder stats for deserialized columns."""
    return CompressionStats()
