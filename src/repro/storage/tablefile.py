"""ALPC table files: the one writer (format v4) and the one reader (v2-v4).

Format v4 is a schema-described table (see docs/FORMAT.md):

- the 14-byte header is ``ALPC`` magic, u16 version = 4, u32 vector
  size and a u32 CRC32C of the first 10 bytes;
- the body is a sequence of *row-groups*; inside each row-group every
  column of the schema gets its own independently-addressed **chunk**
  (validity bitmap + codec tag + encoded payload), so a reader seeks
  and decodes only the columns a query projects;
- the footer carries the JSON schema, per-row-group row counts, and a
  per-chunk table of offsets, CRC32C checksums, and typed zone maps at
  both chunk and vector granularity (min/max over *valid* values plus
  a null count) — the zone maps drive predicate push-down that skips
  vectors without touching their payload bytes;
- the trailer is a u32 footer CRC, the u64 footer offset and the
  trailing magic.

Codecs per logical type (see :mod:`repro.storage.schema`): float64
columns store one serialized ALP/ALP_rd row-group per chunk, int64
columns store per-vector FFOR or delta frames (chosen by encoded size
unless pinned), and string columns store a sorted dictionary plus
bit-packed codes.  Null slots are filled with a neutral value before
encoding and masked back out by the validity bitmap on read.

The older single-column formats are read-only.  :class:`TableFileReader`
opens a v3 file (checksummed) or a v2 file (no checksums) as a
one-column table: its footer fills the same row-count and chunk tables
the v4 footer does, and each row-group section is a bare serialized
float row-group — a chunk without the flags/codec framing.  Everything
above the footer parse is one code path for all three generations.
"""

from __future__ import annotations

import itertools
import math
import mmap as _mmaplib
import os
import struct
from dataclasses import dataclass, field
from typing import (
    TYPE_CHECKING,
    Any,
    Callable,
    Hashable,
    Iterator,
    Protocol,
    Sequence,
)

import numpy as np

from repro import obs
from repro.concurrency import create_lock
from repro.core.compressor import (
    CompressedRowGroup,
    CompressedRowGroups,
    check_geometry,
    coerce_decode_out,
    compress_rowgroup,
    decode_rowgroup_vector,
    decompress,
)
from repro.core.constants import ROWGROUP_VECTORS, VECTOR_SIZE
from repro.encodings.bitpack import bit_width_required, pack_bits, unpack_bits
from repro.encodings.delta import (
    DeltaEncoded,
    delta_decode,
    delta_encode,
    delta_encode_rowgroup,
)
from repro.encodings.ffor import (
    FforEncoded,
    ffor_decode,
    ffor_encode,
    ffor_encode_rowgroup,
)
from repro.storage.errors import (
    BufferLifetimeError,
    CorruptFileError,
    CorruptRowGroupError,
)
from repro.storage.integrity import crc32c
from repro.storage.schema import (
    CODECS_BY_TYPE,
    FLOAT64,
    INT64,
    STRING,
    Column,
    Schema,
)
from repro.storage.serializer import (
    ByteReader,
    ByteWriter,
    _FFOR_HEAD,
    _U32,
    _read_ffor,
    deserialize_rowgroup,
    empty_stats,
    serialize_rowgroup,
)

if TYPE_CHECKING:
    from repro.api import CompressionOptions

MAGIC = b"ALPC"
FORMAT_VERSION_V2 = 2
FORMAT_VERSION_V3 = 3
FORMAT_VERSION_V4 = 4
SUPPORTED_VERSIONS = (FORMAT_VERSION_V2, FORMAT_VERSION_V3, FORMAT_VERSION_V4)

#: Files smaller than this stay on the buffered (slurp) read path even
#: when ``mmap=True`` is requested: mapping cost and page-fault overhead
#: beat one small sequential read only past a few pages.
MMAP_MIN_BYTES = 1 << 16

#: Header bytes before the header checksum (absent in v2).
_HEADER_BODY = struct.calcsize("<4sHI")

#: Per-chunk footer entry: offset, length, payload CRC, zone flags,
#: raw min, raw max (type-tagged 8-byte fields), null count, vectors.
_CHUNK_ENTRY = struct.Struct("<QQIB8s8sQI")
#: Per-vector zone entry: zone flags, min, max, null count — a packed
#: 21-byte record whose bounds are int64 in int64 columns and float64
#: in every other column (string columns store no bounds).
_VZONE_FLOAT = np.dtype(
    [("flags", "u1"), ("min", "<f8"), ("max", "<f8"), ("nulls", "<u4")]
)
_VZONE_INT = np.dtype(
    [("flags", "u1"), ("min", "<i8"), ("max", "<i8"), ("nulls", "<u4")]
)

#: v2/v3 footer entry per row-group (offset, length, count, min, max,
#: non-finite flag, and from v3 on the payload CRC) and per vector.
_LEGACY_ENTRY = {
    FORMAT_VERSION_V2: struct.Struct("<QQQddB"),
    FORMAT_VERSION_V3: struct.Struct("<QQQddBI"),
}
_LEGACY_ZONE = np.dtype([("min", "<f8"), ("max", "<f8"), ("special", "u1")])

_ZONE_HAS_MINMAX = 1
_ZONE_NON_FINITE = 2

_CHUNK_HAS_NULLS = 1

#: Chunk codec tags (the chunk header's ``codec`` byte).
CODEC_FLOAT_ROWGROUP = 0
CODEC_INT_FFOR = 1
CODEC_INT_DELTA = 2
CODEC_STRING_DICT = 3

_DECODE_ERRORS = (
    ValueError,
    IndexError,
    KeyError,
    OverflowError,
    struct.error,
    UnicodeDecodeError,
)

_TMP_COUNTER = itertools.count()


def file_format_version(path: str | os.PathLike) -> int:
    """The ALPC format version of ``path`` (2, 3 or 4).

    Raises :class:`CorruptFileError` when the file is too short or the
    magic does not match.
    """
    path = os.fspath(path)
    with open(path, "rb") as f:
        head = f.read(_HEADER_BODY)
    if len(head) < _HEADER_BODY or head[:4] != MAGIC:
        raise CorruptFileError(path, "not an ALPC file (bad magic)")
    return int(struct.unpack_from("<H", head, 4)[0])


def default_column_name(path: str | os.PathLike) -> str:
    """The column name of a single-column file: its file stem."""
    return os.path.splitext(os.path.basename(os.fspath(path)))[0] or "values"


class RowGroupCache(Protocol):
    """The cache contract bulk reads accept (see
    :class:`repro.server.cache.DecodedVectorCache`): decoded row-group
    values memoized under a ``(file path, rowgroup index)`` key."""

    def get_or_load(
        self, key: "Hashable", loader: "Callable[[], np.ndarray]"
    ) -> np.ndarray:
        ...


def _to_bytes(data: "bytes | memoryview") -> bytes:
    """Materialize a buffer slice for text decoding (mmap path)."""
    return data.tobytes() if isinstance(data, memoryview) else data


def _validity_to_bitmap(validity: np.ndarray) -> bytes:
    return np.packbits(
        validity.astype(np.uint8), bitorder="little"
    ).tobytes()


def _bitmap_to_validity(data: "bytes | memoryview", count: int) -> np.ndarray:
    bits = np.unpackbits(
        np.frombuffer(data, dtype=np.uint8), count=count, bitorder="little"
    )
    return bits.astype(bool)


def _fsync_directory(directory: str) -> None:
    """Best-effort fsync of a directory entry after a rename."""
    try:
        fd = os.open(directory, os.O_RDONLY)
    except OSError:
        return
    try:
        os.fsync(fd)
    except OSError:
        pass
    finally:
        os.close(fd)


# -- zone maps --------------------------------------------------------


@dataclass(frozen=True)
class ChunkZone:
    """Typed zone map over the *valid* values of a chunk or vector.

    ``min_value``/``max_value`` are ``None`` when no finite valid value
    exists (all-null, empty, or a string column, which carries only the
    null count).  A zone without bounds can never match a range
    predicate — null and absent values never satisfy comparisons.
    """

    min_value: "float | int | None"
    max_value: "float | int | None"
    has_non_finite: bool
    null_count: int

    def may_contain_range(self, low: float, high: float) -> bool:
        if self.has_non_finite:
            return True
        if self.min_value is None or self.max_value is None:
            return False
        return self.max_value >= low and self.min_value <= high


def _chunk_zone(
    column: Column, values: np.ndarray, validity: "np.ndarray | None"
) -> ChunkZone:
    total = len(values)
    if validity is None:
        valid = values
        null_count = 0
    else:
        valid = values[validity]
        null_count = total - len(valid)
    if column.type == STRING:
        return ChunkZone(None, None, False, null_count)
    valid = np.asarray(valid)
    if column.type == FLOAT64:
        finite = valid[np.isfinite(valid)]
        has_non_finite = finite.size != valid.size
        if finite.size == 0:
            return ChunkZone(None, None, has_non_finite, null_count)
        return ChunkZone(
            float(finite.min()), float(finite.max()), has_non_finite, null_count
        )
    if valid.size == 0:
        return ChunkZone(None, None, False, null_count)
    return ChunkZone(int(valid.min()), int(valid.max()), False, null_count)


def _vector_zones_typed(
    column: Column,
    values: np.ndarray,
    validity: "np.ndarray | None",
    vector_size: int,
) -> tuple[ChunkZone, ...]:
    """One :func:`_chunk_zone` per vector, full vectors in one batch.

    The full vectors are reduced as a ``(vectors, vector_size)`` matrix;
    only the short tail vector goes through :func:`_chunk_zone`.
    """
    n_full = len(values) // vector_size
    split = n_full * vector_size
    full_mask = tail_mask = None
    if validity is not None:
        full_mask = validity[:split].reshape(n_full, vector_size)
        tail_mask = validity[split:]
    rows = values[:split].reshape(n_full, vector_size)
    zones = _full_vector_zones(column, rows, full_mask)
    if split < len(values):
        zones.append(_chunk_zone(column, values[split:], tail_mask))
    return tuple(zones)


def _full_vector_zones(
    column: Column, rows: np.ndarray, validity: "np.ndarray | None"
) -> list[ChunkZone]:
    """:func:`_chunk_zone` of every row of ``rows``, batched."""
    n_rows, width = rows.shape
    valid_counts = (
        np.full(n_rows, width) if validity is None else validity.sum(axis=1)
    )
    null_counts = (width - valid_counts).tolist()
    if column.type == STRING:
        return [ChunkZone(None, None, False, nulls) for nulls in null_counts]
    if column.type == FLOAT64:
        usable = np.isfinite(rows)
        if validity is not None:
            usable &= validity
        low_fill, high_fill = np.inf, -np.inf
    else:
        usable = validity
        info = np.iinfo(np.int64)
        low_fill, high_fill = info.max, info.min
    if usable is None or usable.all():
        lows, highs = rows.min(axis=1), rows.max(axis=1)
        usable_counts = valid_counts
    else:
        lows = np.where(usable, rows, low_fill).min(axis=1)
        highs = np.where(usable, rows, high_fill).max(axis=1)
        usable_counts = usable.sum(axis=1)
    non_finite = (usable_counts != valid_counts).tolist()
    present = (usable_counts > 0).tolist()
    per_vector: set[int] = set()
    if column.type == FLOAT64:
        # A zero bound is exact unless the row holds both -0.0 and +0.0;
        # then it is whichever zero the per-vector reduction returns, so
        # those rows take the per-vector path.
        candidates = np.flatnonzero((lows == 0) | (highs == 0))
        if candidates.size:
            zeros = usable[candidates] & (rows[candidates] == 0)
            negative = np.signbit(rows[candidates])
            has_negative = (zeros & negative).any(axis=1)
            has_positive = (zeros & ~negative).any(axis=1)
            per_vector = set(candidates[has_negative & has_positive].tolist())
    zones = []
    for i, (low, high) in enumerate(zip(lows.tolist(), highs.tolist())):
        if not present[i]:
            zones.append(ChunkZone(None, None, non_finite[i], null_counts[i]))
        elif i in per_vector:
            mask = None if validity is None else validity[i]
            zones.append(_chunk_zone(column, rows[i], mask))
        else:
            zones.append(ChunkZone(low, high, non_finite[i], null_counts[i]))
    return zones


def _legacy_zone(low: float, high: float, special: int) -> ChunkZone:
    """A v2/v3 float zone (NaN bounds meant "no finite value")."""
    if math.isnan(low) or math.isnan(high):
        return ChunkZone(None, None, bool(special), 0)
    return ChunkZone(low, high, bool(special), 0)


def _legacy_zone_table(legacy: np.ndarray) -> np.ndarray:
    """v2/v3 vector zones (:data:`_LEGACY_ZONE` records) as a new
    :data:`_VZONE_FLOAT` table, :func:`_legacy_zone` record by record."""
    bounded = ~(np.isnan(legacy["min"]) | np.isnan(legacy["max"]))
    table = np.zeros(legacy.size, dtype=_VZONE_FLOAT)
    table["flags"] = np.where(bounded, _ZONE_HAS_MINMAX, 0) | np.where(
        legacy["special"] != 0, _ZONE_NON_FINITE, 0
    )
    table["min"] = np.where(bounded, legacy["min"], 0.0)
    table["max"] = np.where(bounded, legacy["max"], 0.0)
    return table


def _pack_bound(column: Column, value: "float | int | None") -> bytes:
    if value is None:
        return b"\x00" * 8
    if column.type == INT64:
        return struct.pack("<q", int(value))
    return struct.pack("<d", float(value))


def _unpack_bound(
    column: Column, raw: bytes, flags: int
) -> "float | int | None":
    if not flags & _ZONE_HAS_MINMAX:
        return None
    if column.type == INT64:
        return int(struct.unpack("<q", raw)[0])
    return float(struct.unpack("<d", raw)[0])


def _zone_flags(zone: ChunkZone) -> int:
    flags = 0
    if zone.min_value is not None:
        flags |= _ZONE_HAS_MINMAX
    if zone.has_non_finite:
        flags |= _ZONE_NON_FINITE
    return flags


def _zone_dtype(column: Column) -> np.dtype:
    return _VZONE_INT if column.type == INT64 else _VZONE_FLOAT


def _zone_table(column: Column, zones: Sequence[ChunkZone]) -> np.ndarray:
    """The footer records of ``zones`` (see :data:`_VZONE_FLOAT`)."""
    table = np.zeros(len(zones), dtype=_zone_dtype(column))
    table["flags"] = [_zone_flags(zone) for zone in zones]
    table["min"] = [0 if z.min_value is None else z.min_value for z in zones]
    table["max"] = [0 if z.max_value is None else z.max_value for z in zones]
    table["nulls"] = [zone.null_count for zone in zones]
    return table


def _zone_survivors(table: np.ndarray, low: float, high: float) -> np.ndarray:
    """Indices of the records in ``table`` that may hold a value in
    ``[low, high]`` — :meth:`ChunkZone.may_contain_range` over the
    whole table in one expression."""
    flags = table["flags"]
    keep = (flags & _ZONE_NON_FINITE) != 0
    if table.dtype == _VZONE_INT:
        bounds = _int_bounds(low, high)
        if bounds is None:
            return np.flatnonzero(keep)
        low, high = bounds
    keep |= (
        ((flags & _ZONE_HAS_MINMAX) != 0)
        & (table["max"] >= low)
        & (table["min"] <= high)
    )
    return np.flatnonzero(keep)


_INT64 = np.iinfo(np.int64)


def _int_bounds(low: float, high: float) -> "tuple[int, int] | None":
    """The int64 range ``[lo, hi]`` holding exactly the integers ``v``
    with ``low <= v <= high``, so int zones compare exactly (a float
    comparison would round bounds past 2**53); ``None`` when empty."""
    if math.isnan(low) or math.isnan(high):
        return None
    if low > _INT64.max or high < _INT64.min:
        return None
    lo = _INT64.min if low < _INT64.min else math.ceil(low)
    hi = _INT64.max if high > _INT64.max else math.floor(high)
    return lo, hi


@dataclass(frozen=True)
class ChunkMeta:
    """Footer entry for one (row-group, column) chunk.

    ``zone_table`` holds the per-vector zone maps as one record array
    (see :data:`_VZONE_FLOAT`), read off the footer in one copy and
    pruned in one expression; :attr:`vector_zones` builds the
    :class:`ChunkZone` objects on access.
    """

    offset: int
    length: int
    payload_crc: int
    zone: ChunkZone
    zone_table: np.ndarray = field(compare=False, repr=False)

    @property
    def vector_zones(self) -> tuple[ChunkZone, ...]:
        """One :class:`ChunkZone` per vector, built from the table."""
        table = self.zone_table
        return tuple(
            ChunkZone(
                low if flags & _ZONE_HAS_MINMAX else None,
                high if flags & _ZONE_HAS_MINMAX else None,
                bool(flags & _ZONE_NON_FINITE),
                nulls,
            )
            for flags, low, high, nulls in zip(
                table["flags"].tolist(),
                table["min"].tolist(),
                table["max"].tolist(),
                table["nulls"].tolist(),
                strict=True,
            )
        )


# -- quarantine reports -----------------------------------------------


@dataclass(frozen=True)
class QuarantinedChunk:
    """One corrupt chunk a degraded table reader skipped."""

    rowgroup: int
    column: str
    offset: int
    length: int
    count: int
    reason: str

    def as_dict(self) -> dict[str, object]:
        return {
            "rowgroup": self.rowgroup,
            "column": self.column,
            "offset": self.offset,
            "length": self.length,
            "count": self.count,
            "reason": self.reason,
        }


@dataclass(frozen=True)
class ScanReport:
    """What a degraded reader quarantined so far, counted in rows.

    One entry per corrupt chunk.  A corrupt chunk drops its whole
    row-group from every row-aligned read, so ``rowgroups_quarantined``
    counts distinct row-groups and ``values_quarantined`` their rows,
    however many of a row-group's chunks are damaged.
    """

    path: str
    format_version: int
    rowgroups_total: int
    rowgroups_quarantined: int
    values_quarantined: int
    quarantined: tuple[QuarantinedChunk, ...]

    @property
    def clean(self) -> bool:
        """True when nothing was quarantined."""
        return not self.quarantined

    def as_dict(self) -> dict[str, object]:
        return {
            "path": self.path,
            "format_version": self.format_version,
            "rowgroups_total": self.rowgroups_total,
            "rowgroups_quarantined": self.rowgroups_quarantined,
            "values_quarantined": self.values_quarantined,
            "quarantined": [entry.as_dict() for entry in self.quarantined],
        }


# -- chunk encoding ---------------------------------------------------


def _coerce_column_values(column: Column, values: object) -> np.ndarray:
    if column.type == FLOAT64:
        return np.ascontiguousarray(values, dtype=np.float64)
    if column.type == INT64:
        return np.ascontiguousarray(values, dtype=np.int64)
    arr = np.asarray(values, dtype=object)
    if arr.ndim != 1:
        raise ValueError(f"column {column.name!r}: values must be 1-D")
    return arr


def _fill_nulls(
    column: Column, values: np.ndarray, validity: "np.ndarray | None"
) -> np.ndarray:
    """Replace null slots with a codec-neutral fill before encoding."""
    if validity is None or bool(validity.all()):
        return values
    if column.type == FLOAT64:
        return np.where(validity, values, 0.0)
    if column.type == INT64:
        return np.where(validity, values, np.int64(0))
    out = values.copy()
    out[~validity] = ""
    return out


def _read_delta(r: ByteReader) -> DeltaEncoded:
    first_value = r.i64()
    bit_width = r.u8()
    payload = r.raw(r.u32())
    count = r.u32()
    return DeltaEncoded(
        payload=payload,
        first_value=first_value,
        bit_width=bit_width,
        count=count,
    )


def _encode_int_payload(
    values: np.ndarray, vector_size: int, codec: "str | None"
) -> tuple[bytes, int]:
    """Encode an int64 chunk as per-vector FFOR or delta frames.

    One frame per vector keeps vector-granular random access (the zone
    map skip path decodes only surviving vectors).  Without a pinned
    codec both encodings are produced and the smaller payload wins.
    Each encoding runs once over the whole chunk
    (:func:`~repro.encodings.ffor.ffor_encode_rowgroup`,
    :func:`~repro.encodings.delta.delta_encode_rowgroup`).
    """

    def build(name: str) -> bytes:
        if name == "ffor":
            frames = [
                (f.reference, f.bit_width, f.payload, f.count)
                for f in ffor_encode_rowgroup(values, vector_size)
            ]
        else:
            frames = [
                (d.first_value, d.bit_width, d.payload, d.count)
                for d in delta_encode_rowgroup(values, vector_size)
            ]
        return _int_frames(frames)

    if codec == "ffor":
        return build("ffor"), CODEC_INT_FFOR
    if codec == "delta":
        return build("delta"), CODEC_INT_DELTA
    ffor_bytes = build("ffor")
    delta_bytes = build("delta")
    if len(delta_bytes) < len(ffor_bytes):
        return delta_bytes, CODEC_INT_DELTA
    return ffor_bytes, CODEC_INT_FFOR


def _int_frames(frames: "list[tuple[int, int, bytes, int]]") -> bytes:
    """u32 frame count, then per frame: i64 head value (FFOR reference
    or delta first value), u8 bit width, u32 payload length, payload,
    u32 value count."""
    parts = [_U32.pack(len(frames))]
    for head, width, payload, count in frames:
        parts.append(_FFOR_HEAD.pack(head, width, len(payload)))
        parts.append(payload)
        parts.append(_U32.pack(count))
    return b"".join(parts)


def _encode_int_payload_reference(
    values: np.ndarray, vector_size: int, codec: str
) -> bytes:
    """Per-vector reference of :func:`_encode_int_payload` for one codec:
    one :func:`ffor_encode` or :func:`delta_encode` call per vector."""
    frames = []
    for start in range(0, values.size, vector_size):
        vector = values[start : start + vector_size]
        if codec == "ffor":
            f = ffor_encode(vector)
            frames.append((f.reference, f.bit_width, f.payload, f.count))
        else:
            d = delta_encode(vector)
            frames.append((d.first_value, d.bit_width, d.payload, d.count))
    return _int_frames(frames)


def _encode_string_payload(values: np.ndarray) -> bytes:
    """Dictionary-encode a string chunk: sorted dict + packed codes."""
    strings: list[str] = []
    for v in values:
        if not isinstance(v, str):
            raise ValueError(
                f"string column values must be str, got {type(v).__name__}"
            )
        strings.append(v)
    entries = sorted(set(strings))
    index = {s: i for i, s in enumerate(entries)}
    codes = np.fromiter(
        (index[s] for s in strings), dtype=np.uint64, count=len(strings)
    )
    width = bit_width_required(codes)
    packed = pack_bits(codes, width) if width else b""
    w = ByteWriter()
    w.u32(len(entries))
    for s in entries:
        raw = s.encode("utf-8")
        w.u32(len(raw))
        w.raw(raw)
    w.u32(len(strings))
    w.u8(width)
    w.u32(len(packed))
    w.raw(packed)
    return w.getvalue()


def chunk_frame(
    tag: int, payload: "bytes | memoryview", bitmap: "bytes | None" = None
) -> bytes:
    """One on-disk chunk: flags, optional validity bitmap, codec tag, payload."""
    w = ByteWriter()
    w.u8(0 if bitmap is None else _CHUNK_HAS_NULLS)
    if bitmap is not None:
        w.u32(len(bitmap))
        w.raw(bitmap)
    w.u8(tag)
    w.u32(len(payload))
    w.raw(payload)  # type: ignore[arg-type]
    return w.getvalue()


def _encode_chunk(
    column: Column,
    values: np.ndarray,
    validity: "np.ndarray | None",
    vector_size: int,
    codec: "str | None",
) -> bytes:
    """Encode one column's slice of a row-group into a framed chunk."""
    has_nulls = validity is not None and not bool(validity.all())
    filled = _fill_nulls(column, values, validity if has_nulls else None)
    if column.type == FLOAT64:
        force = codec if codec in ("alp", "alprd") else None
        rowgroup, _, _ = compress_rowgroup(
            filled, vector_size=vector_size, force_scheme=force
        )
        payload, tag = serialize_rowgroup(rowgroup), CODEC_FLOAT_ROWGROUP
    elif column.type == INT64:
        payload, tag = _encode_int_payload(filled, vector_size, codec)
    else:
        payload, tag = _encode_string_payload(filled), CODEC_STRING_DICT
    bitmap = _validity_to_bitmap(validity) if has_nulls else None
    return chunk_frame(tag, payload, bitmap)


# -- writer -----------------------------------------------------------


class TableFileWriter:
    """Stream a multi-column table into ALPC format v4 (the only writer).

    The writer is crash-safe: all bytes go to a temp file in the target
    directory, which is fsynced and atomically renamed over ``path``
    only when :meth:`close` completes.  Exiting the ``with`` block on an
    exception (or calling :meth:`abort`) removes the temp file and
    leaves the target path untouched.  :meth:`close` and :meth:`abort`
    are both idempotent.  Every file carries CRC32C integrity sections.
    """

    def __init__(
        self,
        path: str | os.PathLike,
        schema: Schema,
        *,
        vector_size: int = VECTOR_SIZE,
        rowgroup_vectors: int = ROWGROUP_VECTORS,
        options: "CompressionOptions | None" = None,
    ) -> None:
        if not isinstance(schema, Schema):
            raise ValueError(
                f"schema must be a Schema, got {type(schema).__name__}"
            )
        overrides: dict[str, str] = {}
        force_scheme: "str | None" = None
        if options is not None:
            vector_size = options.vector_size
            rowgroup_vectors = options.rowgroup_vectors
            force_scheme = options.force_scheme
            overrides = dict(getattr(options, "column_codecs", ()) or ())
        check_geometry(vector_size, rowgroup_vectors)
        for name in overrides:
            # Unknown names are a caller bug, not a soft no-op.
            schema.column(name)
        self._schema = schema
        self._codecs: dict[str, "str | None"] = {}
        for col in schema:
            codec = col.codec if col.codec is not None else overrides.get(col.name)
            if col.type == FLOAT64 and codec is None and force_scheme is not None:
                codec = force_scheme
            if codec is not None and codec not in CODECS_BY_TYPE[col.type]:
                raise ValueError(
                    f"codec {codec!r} does not apply to column "
                    f"{col.name!r} ({col.type}); valid: "
                    f"{CODECS_BY_TYPE[col.type]}"
                )
            self._codecs[col.name] = codec
        self._path = os.fspath(path)
        self._tmp_path = f"{self._path}.tmp-{os.getpid()}-{next(_TMP_COUNTER)}"
        self._vector_size = vector_size
        self._rowgroup_size = vector_size * rowgroup_vectors
        self._rows: list[int] = []
        self._chunks: list[list[ChunkMeta]] = []
        self._closed = False
        self._file = open(self._tmp_path, "wb")
        try:
            header = MAGIC + struct.pack("<HI", FORMAT_VERSION_V4, vector_size)
            self._file.write(header)
            self._file.write(struct.pack("<I", crc32c(header)))
        except BaseException:
            self.abort()
            raise

    @property
    def path(self) -> str:
        """The destination path (materializes on successful close)."""
        return self._path

    @property
    def schema(self) -> Schema:
        return self._schema

    @property
    def format_version(self) -> int:
        return FORMAT_VERSION_V4

    def write_rows(
        self,
        columns: "dict[str, object]",
        validity: "dict[str, np.ndarray] | None" = None,
    ) -> None:
        """Compress and append rows (sliced into row-groups).

        ``columns`` must provide values for every schema column, all of
        the same length.  ``validity`` maps *nullable* column names to
        boolean masks (True = valid); omitted nullable columns are
        fully valid, and masks for non-nullable columns are rejected.
        """
        if self._closed:
            raise ValueError(f"writer for {self._path} is closed")
        validity = dict(validity or {})
        missing = set(self._schema.names) - set(columns)
        if missing:
            raise ValueError(f"missing values for columns {sorted(missing)}")
        extra = set(columns) - set(self._schema.names)
        if extra:
            raise ValueError(f"unknown columns {sorted(extra)}")
        for name in validity:
            if self._schema.column(name).nullable is False:
                raise ValueError(
                    f"column {name!r} is not nullable; validity mask rejected"
                )
        arrays: dict[str, np.ndarray] = {}
        masks: dict[str, "np.ndarray | None"] = {}
        n_rows: "int | None" = None
        for col in self._schema:
            arr = _coerce_column_values(col, columns[col.name])
            if n_rows is None:
                n_rows = len(arr)
            elif len(arr) != n_rows:
                raise ValueError(
                    f"column {col.name!r} has {len(arr)} values, "
                    f"expected {n_rows}"
                )
            mask = validity.get(col.name)
            if mask is not None:
                mask = np.ascontiguousarray(mask, dtype=bool)
                if mask.shape != (len(arr),):
                    raise ValueError(
                        f"validity mask for {col.name!r} must have "
                        f"{len(arr)} entries"
                    )
            arrays[col.name] = arr
            masks[col.name] = mask
        if n_rows is None:
            raise ValueError("cannot write rows for an empty schema")
        with obs.span("tablefile.write"):
            for start in range(0, n_rows, self._rowgroup_size):
                stop = min(start + self._rowgroup_size, n_rows)
                self._append_rowgroup(
                    {n: a[start:stop] for n, a in arrays.items()},
                    {
                        n: (m[start:stop] if m is not None else None)
                        for n, m in masks.items()
                    },
                    stop - start,
                )

    def _append_rowgroup(
        self,
        arrays: dict[str, np.ndarray],
        masks: dict[str, "np.ndarray | None"],
        n_rows: int,
    ) -> None:
        chunks = []
        for col in self._schema:
            values = arrays[col.name]
            mask = masks[col.name]
            chunk = _encode_chunk(
                col, values, mask, self._vector_size, self._codecs[col.name]
            )
            zone = _chunk_zone(col, values, mask)
            vzones = _vector_zones_typed(col, values, mask, self._vector_size)
            chunks.append(
                (chunk, ChunkMeta(0, 0, 0, zone, _zone_table(col, vzones)))
            )
        self.append_chunks(n_rows, chunks)

    def append_chunks(
        self, n_rows: int, chunks: "list[tuple[bytes | memoryview, ChunkMeta]]"
    ) -> None:
        """Append one row-group from already-encoded chunk bytes.

        Also the repair path: intact chunks of a damaged file are
        copied byte-for-byte (no recompression), reusing their zone
        maps, while offsets and checksums come from the bytes actually
        written.
        """
        if self._closed:
            raise ValueError(f"writer for {self._path} is closed")
        if len(chunks) != len(self._schema):
            raise ValueError(
                f"expected {len(self._schema)} chunks, got {len(chunks)}"
            )
        metas: list[ChunkMeta] = []
        for raw, meta in chunks:
            offset = self._file.tell()
            self._file.write(raw)
            if obs.ENABLED:
                obs.metrics.counter_add("tablefile.chunks_written", 1)
                obs.metrics.counter_add("tablefile.bytes_written", len(raw))
            metas.append(
                ChunkMeta(
                    offset=offset,
                    length=len(raw),
                    payload_crc=crc32c(raw),
                    zone=meta.zone,
                    zone_table=meta.zone_table,
                )
            )
        self._rows.append(n_rows)
        self._chunks.append(metas)

    def _footer_bytes(self) -> bytes:
        schema_json = self._schema.to_json().encode("utf-8")
        parts = [struct.pack("<I", len(schema_json)), schema_json]
        parts.append(struct.pack("<I", len(self._rows)))
        for n_rows in self._rows:
            parts.append(struct.pack("<Q", n_rows))
        for metas in self._chunks:
            for col, meta in zip(self._schema, metas, strict=True):
                parts.append(
                    _CHUNK_ENTRY.pack(
                        meta.offset,
                        meta.length,
                        meta.payload_crc,
                        _zone_flags(meta.zone),
                        _pack_bound(col, meta.zone.min_value),
                        _pack_bound(col, meta.zone.max_value),
                        meta.zone.null_count,
                        len(meta.zone_table),
                    )
                )
                parts.append(meta.zone_table.tobytes())
        return b"".join(parts)

    def close(self) -> None:
        """Write footer + trailer, fsync, atomically publish (idempotent).

        On any error the temp file is removed and the target path is
        left exactly as it was.
        """
        if self._closed:
            return
        try:
            footer_offset = self._file.tell()
            footer = self._footer_bytes()
            self._file.write(footer)
            self._file.write(struct.pack("<I", crc32c(footer)))
            self._file.write(struct.pack("<Q", footer_offset))
            self._file.write(MAGIC)
            self._file.flush()
            os.fsync(self._file.fileno())
            self._file.close()
            os.replace(self._tmp_path, self._path)
            _fsync_directory(os.path.dirname(self._path) or ".")
        except BaseException:
            self.abort()
            raise
        self._closed = True

    def abort(self) -> None:
        """Discard everything written so far; the target path is untouched."""
        if self._closed:
            return
        self._closed = True
        try:
            self._file.close()
        finally:
            try:
                os.unlink(self._tmp_path)
            except OSError:
                pass

    def __enter__(self) -> "TableFileWriter":
        return self

    def __exit__(self, exc_type: object, *exc_info: object) -> None:
        if exc_type is not None:
            self.abort()
        else:
            self.close()


# -- reader -----------------------------------------------------------


@dataclass(frozen=True)
class _ParsedChunk:
    """Decoded chunk framing: validity plus payload location."""

    validity: "np.ndarray | None"
    codec: int
    payload_offset: int
    payload_length: int


class TableFileReader:
    """Random-access reader over any ALPC file (format v2, v3 or v4).

    A v2/v3 file reads as a one-column table: one non-nullable float64
    column named after the file stem.

    Header and footer checksums verify at open; chunk checksums verify
    lazily on first access (and are cached).  With ``degraded=True``
    bulk reads quarantine corrupt chunks — dropping the affected
    row-group's *rows* from every requested column, so multi-column
    results stay row-aligned — instead of raising, recording them for
    :meth:`scan_report`; direct chunk access (:meth:`read_chunk`)
    always raises so a caller asking for specific bytes never silently
    gets nothing.  v2 files carry no checksums: only decode failures
    can be detected there.

    With ``mmap=True`` the file is memory-mapped instead of slurped,
    and every payload access runs over zero-copy ``memoryview`` slices
    of the map (files below :data:`MMAP_MIN_BYTES` stay buffered).
    Mapped readers have an explicit lifetime: :meth:`close` refuses
    with a typed :class:`BufferLifetimeError` while payload views are
    still alive, and every later access raises ``ValueError``.
    """

    def __init__(
        self,
        path: str | os.PathLike,
        *,
        degraded: bool = False,
        mmap: bool = False,
    ) -> None:
        self._path = os.fspath(path)
        self._degraded = degraded
        self._closed = False
        self._mmap: "_mmaplib.mmap | None" = None
        # One reader may be hammered from many threads (the serving
        # layer shares readers across requests): the integrity
        # bookkeeping is lock-protected so checksum verdicts and
        # quarantine entries — and their obs counters — stay exact.
        self._integrity_lock = create_lock("TableFileReader._integrity_lock")
        self._quarantined: dict[tuple[int, int], CorruptRowGroupError] = {}
        self._checked: dict[tuple[int, int], "CorruptRowGroupError | None"] = {}
        with obs.span("tablefile.open"):
            if mmap and self._mmap_eligible():
                with open(self._path, "rb") as f:
                    self._mmap = _mmaplib.mmap(
                        f.fileno(), 0, access=_mmaplib.ACCESS_READ
                    )
                # The reader owns this view; close() refuses while
                # exported slices are live.  # reprolint: ignore[RL10]
                self._data: "bytes | memoryview" = memoryview(self._mmap)
                if obs.ENABLED:
                    obs.metrics.counter_add(
                        "tablefile.bytes_mapped", len(self._data)
                    )
            else:
                with open(self._path, "rb") as f:
                    data = f.read()
                if obs.ENABLED:
                    obs.metrics.counter_add("tablefile.bytes_read", len(data))
                self._data = data
        try:
            self._parse_header_and_trailer()
            if self.format_version == FORMAT_VERSION_V4:
                self._parse_footer()
            else:
                self._parse_legacy_footer()
        except BaseException:
            # A failed open must not leak the map (there are no caller
            # views yet, so this close cannot raise BufferLifetimeError).
            self._release_data()
            raise

    def _mmap_eligible(self) -> bool:
        try:
            return os.path.getsize(self._path) >= MMAP_MIN_BYTES
        except OSError:
            return False

    # -- lifetime -----------------------------------------------------

    @property
    def closed(self) -> bool:
        """True once :meth:`close` has released the underlying buffer."""
        return self._closed

    @property
    def mapped(self) -> bool:
        """True when this reader serves payloads from an mmap."""
        return self._mmap is not None

    def _release_data(self) -> None:
        data, self._data = self._data, b""
        if isinstance(data, memoryview):
            data.release()
        if self._mmap is not None:
            self._mmap.close()
            self._mmap = None

    def close(self) -> None:
        """Release the underlying buffer (idempotent).

        On the mmap path every payload ``memoryview`` (and every numpy
        array borrowing one) aliases the map, so closing while such
        views are live would dangle them; CPython guards this with a
        ``BufferError`` deep inside ``mmap``, which is re-surfaced here
        as the typed :class:`BufferLifetimeError`.  The reader stays
        open and fully usable after that error — drop the views and
        close again.
        """
        if self._closed:
            return
        data, self._data = self._data, b""
        if isinstance(data, memoryview):
            data.release()
        if self._mmap is not None:
            try:
                self._mmap.close()
            except BufferError:
                # Refused close: re-arm the owner's view so the reader
                # stays usable.  # reprolint: ignore[RL10]
                self._data = memoryview(self._mmap)
                raise BufferLifetimeError(self._path) from None
            self._mmap = None
        self._closed = True

    def __enter__(self) -> "TableFileReader":
        return self

    def __exit__(self, exc_type: object, *exc_info: object) -> None:
        self.close()

    def _require_open(self) -> None:
        if self._closed:
            raise ValueError(f"{self._path}: reader is closed")

    # -- open-time parsing --------------------------------------------

    def _corrupt(self, reason: str) -> CorruptFileError:
        return CorruptFileError(self._path, reason)

    def _verify_crc(self, section: str, body: "bytes | memoryview", at: int) -> None:
        stored = struct.unpack_from("<I", self._data, at)[0]
        actual = crc32c(body)
        if stored != actual:
            obs.counter_add("tablefile.checksum_failures")
            raise self._corrupt(
                f"{section} checksum mismatch "
                f"(stored 0x{stored:08x}, computed 0x{actual:08x})"
            )

    def _parse_header_and_trailer(self) -> None:
        data = self._data
        if len(data) < _HEADER_BODY or data[:4] != MAGIC:
            raise self._corrupt("not an ALPC file (bad magic)")
        version = struct.unpack_from("<H", data, 4)[0]
        if version not in SUPPORTED_VERSIONS:
            raise self._corrupt(f"unsupported ALPC version {version}")
        self.format_version = version
        self.vector_size = struct.unpack_from("<I", data, 6)[0]
        # v2 predates checksums: no header CRC and no footer CRC.
        self.checksummed = version >= FORMAT_VERSION_V3
        crc_len = 4 if self.checksummed else 0
        self._header_len = _HEADER_BODY + crc_len
        trailer_len = crc_len + 12
        if len(data) < self._header_len + trailer_len:
            raise self._corrupt("file truncated inside header/trailer")
        if self.checksummed:
            self._verify_crc("header", data[:_HEADER_BODY], _HEADER_BODY)
        if data[-4:] != MAGIC:
            raise self._corrupt("missing trailing magic (truncated file?)")
        self._footer_offset = struct.unpack_from("<Q", data, len(data) - 12)[0]
        self._footer_end = len(data) - trailer_len
        if not self._header_len <= self._footer_offset <= self._footer_end:
            raise self._corrupt(
                f"footer offset {self._footer_offset} outside file bounds"
            )
        if self.checksummed:
            self._verify_crc(
                "footer",
                data[self._footer_offset : self._footer_end],
                self._footer_end,
            )

    def _check_section(self, rowgroup: int, offset: int, length: int) -> None:
        if not (
            self._header_len <= offset
            and offset + length <= self._footer_offset
        ):
            raise self._corrupt(
                f"row-group {rowgroup} section [{offset}, {offset + length}) "
                f"outside the payload area"
            )

    def _parse_footer(self) -> None:
        data = self._data
        try:
            pos = self._footer_offset
            schema_len = struct.unpack_from("<I", data, pos)[0]
            pos += 4
            if pos + schema_len > self._footer_end:
                raise self._corrupt("footer truncated (schema)")
            schema_json = _to_bytes(data[pos : pos + schema_len])
            pos += schema_len
            try:
                self._schema = Schema.from_json(schema_json.decode("utf-8"))
            except (ValueError, UnicodeDecodeError) as exc:
                raise self._corrupt(f"schema does not parse: {exc}") from exc
            n_rowgroups = struct.unpack_from("<I", data, pos)[0]
            pos += 4
            if pos + 8 * n_rowgroups > self._footer_end:
                raise self._corrupt("footer truncated (row counts)")
            self._rows = [
                int(struct.unpack_from("<Q", data, pos + 8 * i)[0])
                for i in range(n_rowgroups)
            ]
            pos += 8 * n_rowgroups
            self._chunks: list[list[ChunkMeta]] = []
            for rg in range(n_rowgroups):
                metas: list[ChunkMeta] = []
                for col in self._schema:
                    if pos + _CHUNK_ENTRY.size > self._footer_end:
                        raise self._corrupt("footer truncated (chunk table)")
                    (
                        offset,
                        length,
                        payload_crc,
                        zflags,
                        raw_min,
                        raw_max,
                        null_count,
                        n_vectors,
                    ) = _CHUNK_ENTRY.unpack_from(data, pos)
                    pos += _CHUNK_ENTRY.size
                    self._check_section(rg, offset, length)
                    zone_dtype = _zone_dtype(col)
                    zones_end = pos + n_vectors * zone_dtype.itemsize
                    if zones_end > self._footer_end:
                        raise self._corrupt("footer truncated (zone maps)")
                    # Copied off the buffer: a view would pin an mmap.
                    zone_table = np.frombuffer(
                        data, dtype=zone_dtype, count=n_vectors, offset=pos
                    ).copy()
                    pos = zones_end
                    metas.append(
                        ChunkMeta(
                            offset=offset,
                            length=length,
                            payload_crc=payload_crc,
                            zone=ChunkZone(
                                _unpack_bound(col, raw_min, zflags),
                                _unpack_bound(col, raw_max, zflags),
                                bool(zflags & _ZONE_NON_FINITE),
                                null_count,
                            ),
                            zone_table=zone_table,
                        )
                    )
                self._chunks.append(metas)
        except struct.error as exc:
            raise self._corrupt(f"footer does not parse: {exc}") from exc

    def _parse_legacy_footer(self) -> None:
        """Fill the row and chunk tables from a v2/v3 footer.

        Layout: u32 row-group count, one entry per row-group, then per
        row-group a u32 vector count and one (min, max, non-finite)
        zone per vector.
        """
        self._schema = Schema((Column(default_column_name(self._path)),))
        data, end = self._data, self._footer_end
        entry = _LEGACY_ENTRY[self.format_version]
        try:
            n_rowgroups = struct.unpack_from("<I", data, self._footer_offset)[0]
            pos = self._footer_offset + 4
            if pos + n_rowgroups * entry.size > end:
                raise self._corrupt("footer truncated (row-group table)")
            entries = [
                entry.unpack_from(data, pos + i * entry.size)
                for i in range(n_rowgroups)
            ]
            pos += n_rowgroups * entry.size
            self._rows = []
            self._chunks = []
            for rg, (offset, length, count, low, high, special, *crc) in (
                enumerate(entries)
            ):
                n_vectors = struct.unpack_from("<I", data, pos)[0]
                pos += 4
                if pos + n_vectors * _LEGACY_ZONE.itemsize > end:
                    raise self._corrupt("footer truncated (zone maps)")
                zones = _legacy_zone_table(
                    np.frombuffer(
                        data, dtype=_LEGACY_ZONE, count=n_vectors, offset=pos
                    )
                )
                pos += n_vectors * _LEGACY_ZONE.itemsize
                self._check_section(rg, offset, length)
                self._rows.append(count)
                self._chunks.append(
                    [
                        ChunkMeta(
                            offset=offset,
                            length=length,
                            payload_crc=crc[0] if crc else 0,
                            zone=_legacy_zone(low, high, special),
                            zone_table=zones,
                        )
                    ]
                )
        except struct.error as exc:
            raise self._corrupt(f"footer does not parse: {exc}") from exc

    # -- shape --------------------------------------------------------

    @property
    def schema(self) -> Schema:
        return self._schema

    @property
    def column_names(self) -> tuple[str, ...]:
        return self._schema.names

    @property
    def rowgroup_count(self) -> int:
        return len(self._rows)

    @property
    def row_count(self) -> int:
        return sum(self._rows)

    @property
    def degraded(self) -> bool:
        return self._degraded

    @property
    def path(self) -> str:
        return self._path

    @property
    def header_length(self) -> int:
        return self._header_len

    @property
    def footer_offset(self) -> int:
        return self._footer_offset

    @property
    def footer_length(self) -> int:
        """Byte length of the footer (checksum/trailer excluded)."""
        return self._footer_end - self._footer_offset

    def vector_count(self, column: str) -> int:
        """Number of vectors of one column across all row-groups."""
        ci = self._schema.index(column)
        return sum(len(metas[ci].zone_table) for metas in self._chunks)

    def chunk_meta(self, rowgroup: int, column: str) -> ChunkMeta:
        ci = self._schema.index(column)
        return self._chunks[rowgroup][ci]

    def rowgroup_rows(self, rowgroup: int) -> int:
        return self._rows[rowgroup]

    # -- integrity ----------------------------------------------------

    def check_chunk(self, rowgroup: int, column: str) -> "CorruptRowGroupError | None":
        """Checksum-verify one chunk (cached; no raise)."""
        self._require_open()
        ci = self._schema.index(column)
        key = (rowgroup, ci)
        with self._integrity_lock:
            if key in self._checked:
                return self._checked[key]
        meta = self._chunks[rowgroup][ci]
        err: "CorruptRowGroupError | None" = None
        if self.checksummed:
            actual = crc32c(self._data[meta.offset : meta.offset + meta.length])
            if actual != meta.payload_crc:
                err = self._chunk_error(
                    rowgroup,
                    ci,
                    f"chunk checksum mismatch (stored 0x{meta.payload_crc:08x}, "
                    f"computed 0x{actual:08x})",
                    record=False,
                )
        with self._integrity_lock:
            if key not in self._checked:
                self._checked[key] = err
                if err is not None:
                    obs.counter_add("tablefile.checksum_failures")
            return self._checked[key]

    def _chunk_error(
        self, rowgroup: int, ci: int, reason: str, *, record: bool = True
    ) -> CorruptRowGroupError:
        meta = self._chunks[rowgroup][ci]
        name = self._schema.columns[ci].name
        err = CorruptRowGroupError(
            self._path,
            rowgroup,
            meta.offset,
            meta.length,
            f"column {name!r}: {reason}",
        )
        if record:
            with self._integrity_lock:
                self._checked[(rowgroup, ci)] = err
        return err

    def _quarantine(self, rowgroup: int, ci: int, err: CorruptRowGroupError) -> None:
        key = (rowgroup, ci)
        with self._integrity_lock:
            if key in self._quarantined:
                return
            # Rows count once per row-group, however many chunks fail.
            new_rows = all(rg != rowgroup for rg, _ in self._quarantined)
            self._quarantined[key] = err
        if obs.ENABLED:
            obs.metrics.counter_add("tablefile.chunks_quarantined", 1)
            if new_rows:
                obs.metrics.counter_add(
                    "tablefile.values_quarantined", self._rows[rowgroup]
                )

    def _salvage(
        self, rowgroup: int, ci: int, load: "Callable[..., Any]", *args: object
    ) -> Any:
        """``load(*args)``, or ``None`` once a degraded reader has
        quarantined chunk ``(rowgroup, ci)``; strict readers re-raise.
        ``load`` must not return ``None`` itself."""
        try:
            return load(*args)
        except CorruptRowGroupError as err:
            if not self._degraded:
                raise
            self._quarantine(rowgroup, ci, err)
            return None

    def scan_report(self, column: "str | None" = None) -> ScanReport:
        """The quarantine account of this reader so far.

        ``column`` restricts the entries (and the row-groups they
        count) to one column's chunks.
        """
        only = None if column is None else self._schema.index(column)
        with self._integrity_lock:
            entries = sorted(self._quarantined.items())
        quarantined = tuple(
            QuarantinedChunk(
                rowgroup=rg,
                column=self._schema.columns[ci].name,
                offset=self._chunks[rg][ci].offset,
                length=self._chunks[rg][ci].length,
                count=self._rows[rg],
                reason=err.reason,
            )
            for (rg, ci), err in entries
            if only is None or ci == only
        )
        rowgroups = {entry.rowgroup for entry in quarantined}
        return ScanReport(
            path=self._path,
            format_version=self.format_version,
            rowgroups_total=len(self._rows),
            rowgroups_quarantined=len(rowgroups),
            values_quarantined=sum(self._rows[rg] for rg in rowgroups),
            quarantined=quarantined,
        )

    # -- zone-map pruning ---------------------------------------------

    def _rowgroup_range(self, start: int, stop: "int | None") -> range:
        """Validate a half-open row-group range against the footer."""
        count = len(self._rows)
        if stop is None:
            stop = count
        if not (0 <= start <= stop <= count):
            raise ValueError(
                f"row-group range [{start}, {stop}) outside [0, {count})"
            )
        return range(start, stop)

    def prune(
        self,
        ci: int,
        bounds: "tuple[float, float] | None",
        start: int = 0,
        stop: "int | None" = None,
    ) -> Iterator[tuple[int, Sequence[int]]]:
        """The zone-map pruning walk over column ``ci``.

        Yields ``(row-group, surviving vector indices)`` for every
        row-group of ``[start, stop)`` whose chunk and vector zone maps
        admit ``bounds = (low, high)``; nothing else is touched, let
        alone decoded.  ``bounds=None`` prunes nothing.  Counts
        ``tablefile.rowgroups_pruned`` / ``vectors_pruned`` /
        ``vectors_decoded`` (vectors handed on to the consumer).
        """
        for rg in self._rowgroup_range(start, stop):
            meta = self._chunks[rg][ci]
            n_vectors = len(meta.zone_table)
            if bounds is None:
                yield rg, range(n_vectors)
                continue
            low, high = bounds
            survivors = (
                _zone_survivors(meta.zone_table, low, high).tolist()
                if meta.zone.may_contain_range(low, high)
                else []
            )
            if obs.ENABLED:
                obs.metrics.counter_add(
                    "tablefile.vectors_pruned", n_vectors - len(survivors)
                )
                obs.metrics.counter_add(
                    "tablefile.vectors_decoded", len(survivors)
                )
                if not survivors:
                    obs.metrics.counter_add("tablefile.rowgroups_pruned", 1)
            if survivors:
                yield rg, survivors

    # -- chunk access -------------------------------------------------

    def chunk_payload(self, rowgroup: int, column: str) -> memoryview:
        """Zero-copy view of one chunk section (repair path).

        On the mmap path the view aliases the map (and pins it:
        :meth:`close` raises :class:`BufferLifetimeError` while it is
        alive).  Callers that need the bytes to outlive the reader must
        copy; the read path never materializes one (lint rule RL7).
        """
        self._require_open()
        ci = self._schema.index(column)
        meta = self._chunks[rowgroup][ci]
        data = self._data
        view = data if isinstance(data, memoryview) else memoryview(data)
        return view[meta.offset : meta.offset + meta.length]

    def _parse_chunk(self, rowgroup: int, ci: int) -> _ParsedChunk:
        """Decode a chunk's framing (validity + payload location).

        Raises :class:`CorruptRowGroupError` on checksum or framing
        damage, even in degraded mode (direct access is explicit).
        """
        self._require_open()
        name = self._schema.columns[ci].name
        err = self.check_chunk(rowgroup, name)
        if err is not None:
            raise err
        meta = self._chunks[rowgroup][ci]
        if self.format_version < FORMAT_VERSION_V4:
            # A v2/v3 row-group section is a bare float row-group.
            return _ParsedChunk(None, CODEC_FLOAT_ROWGROUP, meta.offset, meta.length)
        data = self._data
        n_rows = self._rows[rowgroup]
        try:
            pos = meta.offset
            end = meta.offset + meta.length
            flags = data[pos]
            pos += 1
            validity: "np.ndarray | None" = None
            if flags & _CHUNK_HAS_NULLS:
                bitmap_len = struct.unpack_from("<I", data, pos)[0]
                pos += 4
                if pos + bitmap_len > end:
                    raise ValueError("validity bitmap overruns chunk")
                validity = _bitmap_to_validity(
                    data[pos : pos + bitmap_len], n_rows
                )
                pos += bitmap_len
            codec = data[pos]
            pos += 1
            payload_len = struct.unpack_from("<I", data, pos)[0]
            pos += 4
            if pos + payload_len != end:
                raise ValueError(
                    f"chunk framing mismatch: payload [{pos}, "
                    f"{pos + payload_len}) vs section end {end}"
                )
        except _DECODE_ERRORS as exc:
            raise self._chunk_error(
                rowgroup, ci, f"chunk does not parse: {exc}"
            ) from exc
        return _ParsedChunk(
            validity=validity,
            codec=codec,
            payload_offset=pos,
            payload_length=payload_len,
        )

    def _decode_float_rowgroup(
        self, rowgroup: int, ci: int, parsed: _ParsedChunk
    ) -> CompressedRowGroup:
        if parsed.codec != CODEC_FLOAT_ROWGROUP:
            raise self._chunk_error(
                rowgroup, ci, f"codec tag {parsed.codec} is not a float row-group"
            )
        try:
            rg, consumed = deserialize_rowgroup(
                self._data, parsed.payload_offset
            )
        except _DECODE_ERRORS as exc:
            raise self._chunk_error(
                rowgroup, ci, f"payload does not decode: {exc}"
            ) from exc
        if consumed != parsed.payload_length:
            raise self._chunk_error(
                rowgroup,
                ci,
                f"payload framing mismatch: read {consumed} bytes, "
                f"footer says {parsed.payload_length}",
            )
        if rg.count != self._rows[rowgroup]:
            raise self._chunk_error(
                rowgroup,
                ci,
                f"payload holds {rg.count} values, "
                f"footer says {self._rows[rowgroup]}",
            )
        return rg

    def _decompress_rowgroup(
        self,
        rowgroup: int,
        ci: int,
        compressed: CompressedRowGroup,
        out: "np.ndarray | None" = None,
    ) -> np.ndarray:
        """Decompress one float chunk's row-group, into ``out`` if given.

        A bad ``out`` raises plain ``ValueError`` before the decode, so
        it is never recorded as corruption.
        """
        out = coerce_decode_out(compressed.count, out)
        column = CompressedRowGroups(
            rowgroups=(compressed,),
            count=compressed.count,
            vector_size=self.vector_size,
            stats=empty_stats(),
        )
        try:
            return decompress(column, out=out)
        except _DECODE_ERRORS as exc:
            raise self._chunk_error(
                rowgroup, ci, f"payload does not decompress: {exc}"
            ) from exc

    def _decode_int_frames(
        self, rowgroup: int, ci: int, parsed: _ParsedChunk
    ) -> "list[FforEncoded] | list[DeltaEncoded]":
        reader = ByteReader(self._data, parsed.payload_offset)
        try:
            n_vectors = reader.u32()
            frames: list = []
            for _ in range(n_vectors):
                if parsed.codec == CODEC_INT_FFOR:
                    frames.append(_read_ffor(reader))
                else:
                    frames.append(_read_delta(reader))
        except _DECODE_ERRORS as exc:
            raise self._chunk_error(
                rowgroup, ci, f"payload does not decode: {exc}"
            ) from exc
        consumed = reader.position - parsed.payload_offset
        if consumed != parsed.payload_length:
            raise self._chunk_error(
                rowgroup,
                ci,
                f"payload framing mismatch: read {consumed} bytes, "
                f"footer says {parsed.payload_length}",
            )
        return frames

    def _decode_string_chunk(
        self, rowgroup: int, ci: int, parsed: _ParsedChunk
    ) -> np.ndarray:
        reader = ByteReader(self._data, parsed.payload_offset)
        n_rows = self._rows[rowgroup]
        try:
            n_entries = reader.u32()
            entries = []
            for _ in range(n_entries):
                entries.append(_to_bytes(reader.raw(reader.u32())).decode("utf-8"))
            count = reader.u32()
            width = reader.u8()
            packed = reader.raw(reader.u32())
            if count != n_rows:
                raise ValueError(
                    f"string chunk has {count} values, footer says {n_rows}"
                )
            if width:
                codes = unpack_bits(packed, width, count)
            else:
                codes = np.zeros(count, dtype=np.uint64)
            if count and n_entries == 0:
                raise ValueError("string chunk has values but no dictionary")
            if count and int(codes.max()) >= n_entries:
                raise ValueError("string code outside dictionary")
        except _DECODE_ERRORS as exc:
            raise self._chunk_error(
                rowgroup, ci, f"payload does not decode: {exc}"
            ) from exc
        consumed = reader.position - parsed.payload_offset
        if consumed != parsed.payload_length:
            raise self._chunk_error(
                rowgroup,
                ci,
                f"payload framing mismatch: read {consumed} bytes, "
                f"footer says {parsed.payload_length}",
            )
        lut = np.asarray(entries, dtype=object)
        if count == 0:
            return np.empty(0, dtype=object)
        return lut[codes.astype(np.int64)]

    def read_chunk(
        self, rowgroup: int, column: str
    ) -> tuple[np.ndarray, "np.ndarray | None"]:
        """Decode one (row-group, column) chunk to (values, validity).

        Always raises on corruption, even in degraded mode; bulk reads
        (:meth:`read_columns`, :meth:`scan`) are the quarantining paths.
        """
        ci = self._schema.index(column)
        col = self._schema.columns[ci]
        parsed = self._parse_chunk(rowgroup, ci)
        n_rows = self._rows[rowgroup]
        if col.type == FLOAT64:
            values = self._decompress_rowgroup(
                rowgroup, ci, self._decode_float_rowgroup(rowgroup, ci, parsed)
            )
        elif parsed.codec in (CODEC_INT_FFOR, CODEC_INT_DELTA) and col.type == INT64:
            frames = self._decode_int_frames(rowgroup, ci, parsed)
            try:
                decoded = [
                    ffor_decode(f)
                    if parsed.codec == CODEC_INT_FFOR
                    else delta_decode(f)
                    for f in frames
                ]
                values = (
                    np.concatenate(decoded)
                    if decoded
                    else np.empty(0, dtype=np.int64)
                )
            except _DECODE_ERRORS as exc:
                raise self._chunk_error(
                    rowgroup, ci, f"payload does not decompress: {exc}"
                ) from exc
        elif parsed.codec == CODEC_STRING_DICT and col.type == STRING:
            values = self._decode_string_chunk(rowgroup, ci, parsed)
        else:
            raise self._chunk_error(
                rowgroup,
                ci,
                f"codec tag {parsed.codec} does not match "
                f"column type {col.type!r}",
            )
        if len(values) != n_rows:
            raise self._chunk_error(
                rowgroup,
                ci,
                f"chunk decoded to {len(values)} values, "
                f"footer says {n_rows}",
            )
        obs.counter_add("tablefile.chunks_read")
        return values, parsed.validity

    # -- bulk reads ---------------------------------------------------

    def _resolve_columns(self, columns: "list[str] | tuple[str, ...] | None") -> list[str]:
        if columns is None:
            return list(self._schema.names)
        names = list(columns)
        if not names:
            raise ValueError("projection must name at least one column")
        for name in names:
            self._schema.column(name)
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate columns in projection: {names}")
        return names

    def read_columns(
        self, columns: "list[str] | tuple[str, ...] | None" = None
    ) -> tuple[dict[str, np.ndarray], dict[str, np.ndarray]]:
        """Decode the projected columns of the whole table.

        Returns ``(values, validity)`` dicts; ``validity`` has an entry
        per *nullable* projected column (True = valid; null slots in
        ``values`` hold the codec fill value).  In degraded mode a
        corrupt chunk quarantines its whole row-group — the rows are
        dropped from every requested column so results stay aligned.
        """
        names = self._resolve_columns(columns)
        return self._gather(names, ((rg, None) for rg in range(len(self._rows))))

    def _gather(
        self,
        names: list[str],
        rowgroups: "Iterator[tuple[int, np.ndarray | None]]",
    ) -> tuple[dict[str, np.ndarray], dict[str, np.ndarray]]:
        """Decode ``names`` for each ``(row-group, row mask)``; a
        ``None`` mask keeps every row.  Degraded readers drop a
        row-group with any corrupt chunk from every column."""
        values: dict[str, list[np.ndarray]] = {n: [] for n in names}
        validity: dict[str, list[np.ndarray]] = {
            n: [] for n in names if self._schema.column(n).nullable
        }
        for rg, mask in rowgroups:
            decoded: dict[str, tuple[np.ndarray, "np.ndarray | None"]] = {}
            for name in names:
                chunk = self._salvage(
                    rg,
                    self._schema.index(name),
                    self._read_chunk_masked,
                    rg,
                    name,
                    mask,
                )
                if chunk is None:
                    break
                decoded[name] = chunk
            if len(decoded) < len(names):
                continue  # quarantined: the row-group leaves every column
            for name in names:
                vals, vmask = decoded[name]
                values[name].append(vals)
                if name in validity:
                    if vmask is None:
                        vmask = np.ones(len(vals), dtype=bool)
                    validity[name].append(vmask)
        out_values = {
            n: _concat(parts, self._schema.column(n)) for n, parts in values.items()
        }
        out_validity = {
            n: (np.concatenate(parts) if parts else np.empty(0, dtype=bool))
            for n, parts in validity.items()
        }
        return out_values, out_validity

    def _predicate_masks(
        self, predicate: object
    ) -> "Iterator[tuple[int, np.ndarray]]":
        """Per-row-group predicate masks of the row-groups that match.

        Zone maps prune first: vectors whose zone excludes the range
        are never decoded (their mask slice stays all-False).  Degraded
        readers quarantine a corrupt predicate chunk and move on.
        """
        column = getattr(predicate, "column")
        low = float(getattr(predicate, "low"))
        high = float(getattr(predicate, "high"))
        ci = self._schema.index(column)
        if self._schema.columns[ci].type == STRING:
            raise ValueError(
                f"range predicates are not supported on string "
                f"column {column!r}"
            )
        for rg, survivors in self.prune(ci, (low, high)):
            mask = self._salvage(
                rg, ci, self._predicate_mask, rg, ci, survivors, low, high
            )
            if mask is not None and mask.any():
                yield rg, mask

    def _predicate_mask(
        self, rg: int, ci: int, survivors: Sequence[int], low: float, high: float
    ) -> np.ndarray:
        """Row mask of ``low <= value <= high`` (and valid) in ``rg``,
        decoding only the ``survivors`` vectors."""
        mask = np.zeros(self._rows[rg], dtype=bool)
        parsed = self._parse_chunk(rg, ci)
        for v, vals in self._decode_vectors(rg, ci, parsed, survivors):
            start = v * self.vector_size
            vmask = (vals >= low) & (vals <= high)
            if parsed.validity is not None:
                vmask &= parsed.validity[start : start + len(vals)]
            mask[start : start + len(vals)] = vmask
        return mask

    def _decode_vectors(
        self, rowgroup: int, ci: int, parsed: _ParsedChunk, vectors: Sequence[int]
    ) -> Iterator[tuple[int, np.ndarray]]:
        """Decode only the selected vectors of a numeric chunk."""
        if self._schema.columns[ci].type == FLOAT64:
            rg = self._decode_float_rowgroup(rowgroup, ci, parsed)
            frames = None
        else:
            frames = self._decode_int_frames(rowgroup, ci, parsed)
            int_decode = (
                ffor_decode if parsed.codec == CODEC_INT_FFOR else delta_decode
            )
        for v in vectors:
            try:
                if frames is None:
                    values = decode_rowgroup_vector(rg, v)
                else:
                    values = int_decode(frames[v])
            except _DECODE_ERRORS as exc:
                raise self._chunk_error(
                    rowgroup, ci, f"vector {v} does not decode: {exc}"
                ) from exc
            yield v, values

    def scan(
        self,
        columns: "list[str] | tuple[str, ...] | None" = None,
        predicate: object = None,
    ) -> tuple[dict[str, np.ndarray], dict[str, np.ndarray]]:
        """Filtered projection with zone-map predicate push-down.

        ``predicate`` is any object with ``column``/``low``/``high``
        attributes (:class:`repro.query.table.FilterPredicate` fits);
        rows where the predicate column is null never match.  Returns
        the same ``(values, validity)`` shape as :meth:`read_columns`,
        restricted to matching rows.  Row-groups and vectors whose zone
        maps exclude the range are skipped without touching payload
        bytes (see :meth:`prune`).
        """
        if predicate is None:
            return self.read_columns(columns)
        names = self._resolve_columns(columns)
        with obs.span("tablefile.scan"):
            return self._gather(names, self._predicate_masks(predicate))

    def _read_chunk_masked(
        self, rowgroup: int, name: str, mask: "np.ndarray | None"
    ) -> tuple[np.ndarray, "np.ndarray | None"]:
        """Decode a chunk and keep only ``mask`` rows (``None``: all).

        Numeric chunks decode at vector granularity: vectors whose mask
        slice is empty are skipped entirely.
        """
        if mask is None:
            return self.read_chunk(rowgroup, name)
        ci = self._schema.index(name)
        col = self._schema.columns[ci]
        if col.type == STRING:
            vals, vmask = self.read_chunk(rowgroup, name)
            return vals[mask], None if vmask is None else vmask[mask]
        parsed = self._parse_chunk(rowgroup, ci)
        vsize = self.vector_size
        needed = [
            v
            for v in range(len(self._chunks[rowgroup][ci].zone_table))
            if mask[v * vsize : (v + 1) * vsize].any()
        ]
        parts: list[np.ndarray] = []
        mask_parts: list[np.ndarray] = []
        for v, vals in self._decode_vectors(rowgroup, ci, parsed, needed):
            vmask = mask[v * vsize : v * vsize + len(vals)]
            parts.append(vals[vmask])
            if parsed.validity is not None:
                mask_parts.append(
                    parsed.validity[v * vsize : v * vsize + len(vals)][vmask]
                )
        merged = _concat(parts, col)
        if parsed.validity is None:
            return merged, None
        merged_mask = (
            np.concatenate(mask_parts)
            if mask_parts
            else np.empty(0, dtype=bool)
        )
        return merged, merged_mask

    # -- column adapter -----------------------------------------------

    def column_reader(self, name: str) -> "TableColumnReader":
        """The single-column reader over one column of this file.

        Only non-nullable float64 columns are eligible — they are the
        ones the encoded-domain query engine and the serving layer
        operate on.
        """
        col = self._schema.column(name)
        if col.type != FLOAT64 or col.nullable:
            raise ValueError(
                f"column {name!r} ({col.type}"
                f"{', nullable' if col.nullable else ''}) has no "
                f"single-column reader; use read_columns()/scan()"
            )
        return TableColumnReader(self, self._schema.index(name))


def _concat(parts: list[np.ndarray], column: Column) -> np.ndarray:
    if not parts:
        if column.type == FLOAT64:
            return np.empty(0, dtype=np.float64)
        if column.type == INT64:
            return np.empty(0, dtype=np.int64)
        return np.empty(0, dtype=object)
    return np.concatenate(parts)


class TableColumnReader:
    """The single-column reader: one float64 column of any ALPC file.

    Row-group reads, zone-map scans (through :meth:`TableFileReader.prune`),
    decoded-cache integration and quarantine reporting over one
    non-nullable float64 column.  :class:`FileColumnSource`, the
    serving layer and :func:`repro.api.open` all sit on it.  Closing it
    closes the underlying :class:`TableFileReader`.
    """

    def __init__(self, parent: TableFileReader, ci: int) -> None:
        self._parent = parent
        self._ci = ci
        self._name = parent.schema.columns[ci].name
        # A one-column file is keyed by its path alone (cache keys and
        # quarantine reports); a table column by path plus column name.
        self._cache_path = (
            parent.path
            if len(parent.schema) == 1
            else f"{parent.path}::{self._name}"
        )

    @classmethod
    def open(
        cls,
        path: str | os.PathLike,
        *,
        degraded: bool = False,
        mmap: bool = False,
    ) -> "TableColumnReader":
        """Open a file whose schema is one non-nullable float64 column.

        That covers every v2/v3 file and the v4 files :func:`repro.api.write`
        produces; multi-column tables raise ``ValueError``.
        """
        table = TableFileReader(path, degraded=degraded, mmap=mmap)
        try:
            schema = table.schema
            if len(schema) != 1:
                raise ValueError(
                    f"{table.path}: schema {list(schema.names)} is not a "
                    f"single non-nullable float64 column; use "
                    f"open_table()/read_table() for multi-column tables"
                )
            return table.column_reader(schema.columns[0].name)
        except BaseException:
            table.close()
            raise

    # -- shape --------------------------------------------------------

    @property
    def column_name(self) -> str:
        return self._name

    @property
    def format_version(self) -> int:
        return self._parent.format_version

    @property
    def vector_size(self) -> int:
        return self._parent.vector_size

    @property
    def rowgroup_count(self) -> int:
        return self._parent.rowgroup_count

    @property
    def value_count(self) -> int:
        return self._parent.row_count

    def rowgroup_rows(self, index: int) -> int:
        return self._parent.rowgroup_rows(index)

    @property
    def metadata(self) -> tuple[ChunkMeta, ...]:
        """Offsets, checksums and zone maps, in row-group order."""
        return tuple(metas[self._ci] for metas in self._parent._chunks)

    @property
    def vector_count(self) -> int:
        return self._parent.vector_count(self._name)

    @property
    def degraded(self) -> bool:
        return self._parent.degraded

    @property
    def closed(self) -> bool:
        return self._parent.closed

    @property
    def mapped(self) -> bool:
        return self._parent.mapped

    def close(self) -> None:
        """Close the underlying table reader (all column views share it)."""
        self._parent.close()

    def __enter__(self) -> "TableColumnReader":
        return self

    def __exit__(self, exc_type: object, *exc_info: object) -> None:
        self.close()

    # -- integrity ----------------------------------------------------

    def check_rowgroup(self, index: int) -> "CorruptRowGroupError | None":
        return self._parent.check_chunk(index, self._name)

    def scan_report(self) -> ScanReport:
        """The quarantine account of this column so far."""
        return self._parent.scan_report(self._name)

    # -- access -------------------------------------------------------

    def read_rowgroup_compressed(self, index: int) -> CompressedRowGroup:
        """Decode one row-group's framing without decompressing it.

        Raises :class:`CorruptRowGroupError` on checksum or framing
        damage, even in degraded mode (direct access is explicit).
        """
        parsed = self._parent._parse_chunk(index, self._ci)
        return self._parent._decode_float_rowgroup(index, self._ci, parsed)

    def read_rowgroup(
        self, index: int, out: "np.ndarray | None" = None
    ) -> np.ndarray:
        """Decompress one row-group to float64 (raises on corruption).

        ``out``, when given, must be a writable C-contiguous float64
        array (or slice) of exactly the row-group's value count; the
        decode writes in place and returns ``out``.
        """
        return self._parent._decompress_rowgroup(
            index, self._ci, self.read_rowgroup_compressed(index), out
        )

    def _cached_rowgroup(
        self, index: int, cache: "RowGroupCache | None"
    ) -> np.ndarray:
        """Decompress one row-group through an optional decoded cache.

        The cache key is ``(file path, rowgroup index)`` — the keying
        the serving layer and the local query engine share.  Errors are
        never cached as values.
        """
        if cache is None:
            return self.read_rowgroup(index)
        load_into = getattr(cache, "load_into", None)
        if load_into is not None:
            # Pool-aware caches hand us a fill target, so a cache miss
            # decodes into a recycled buffer, not a fresh allocation.
            return load_into(
                (self._cache_path, index),
                self.rowgroup_rows(index),
                lambda out: self.read_rowgroup(index, out=out),
            )
        return cache.get_or_load(
            (self._cache_path, index), lambda: self.read_rowgroup(index)
        )

    def iter_rowgroups(
        self,
        cache: "RowGroupCache | None" = None,
        bounds: "tuple[float, float] | None" = None,
        start: int = 0,
        stop: int | None = None,
    ) -> Iterator[tuple[int, np.ndarray]]:
        """Yield ``(index, values)`` per row-group of ``[start, stop)``.

        With ``bounds = (low, high)``, row-groups whose zone maps
        exclude the range are skipped without touching their bytes (the
        predicate push-down the paper contrasts with block-based
        general-purpose compression); the survivors decode whole, so the
        caller still filters values.  Decoded row-groups go through
        ``cache``; degraded readers skip quarantined ones.
        """
        for index, _ in self._parent.prune(self._ci, bounds, start, stop):
            values = self._parent._salvage(
                index, self._ci, self._cached_rowgroup, index, cache
            )
            if values is not None:
                yield index, values

    def iter_rowgroups_compressed(
        self,
        bounds: "tuple[float, float] | None" = None,
        start: int = 0,
        stop: int | None = None,
    ) -> Iterator[tuple[int, Sequence[int], CompressedRowGroup]]:
        """Yield (index, surviving vectors, compressed row-group).

        The late-materialization scan path: the pruning walk picks the
        row-groups and vectors that may hold values in ``bounds``; the
        survivors' framing is decoded (and checksum-verified) but the
        payload stays integer-compressed for encoded-domain execution
        (or per-vector decode with
        :func:`~repro.core.compressor.decode_rowgroup_vector`).
        Degraded readers quarantine corrupt row-groups.
        """
        for index, survivors in self._parent.prune(self._ci, bounds, start, stop):
            rowgroup = self._parent._salvage(
                index, self._ci, self.read_rowgroup_compressed, index
            )
            if rowgroup is not None:
                yield index, survivors, rowgroup

    def read_all(
        self,
        cache: "RowGroupCache | None" = None,
        out: "np.ndarray | None" = None,
    ) -> np.ndarray:
        """Decompress the whole column.

        In degraded mode, quarantined row-groups are omitted (the
        result holds every remaining value, in order); consult
        :meth:`scan_report` for what was skipped.

        Allocation behaviour:

        - Without a cache, each row-group decodes *directly into its
          slice* of one output array — no per-group arrays, no
          concatenate pass.
        - With ``out=`` (a writable C-contiguous float64 array of
          exactly :attr:`value_count` values), that output array is the
          caller's buffer and the call allocates nothing; the filled
          prefix ``out[:n]`` is returned (``n < value_count`` only when
          degraded mode quarantined groups).
        - With a cache and a single row-group (and no ``out=``), the
          resident cached array is returned directly — zero copies.  It
          is read-only; callers that mutate must copy.
        """
        self._parent._require_open()
        if out is None and cache is not None and self.rowgroup_count == 1:
            values = self._parent._salvage(
                0, self._ci, self._cached_rowgroup, 0, cache
            )
            return np.empty(0, dtype=np.float64) if values is None else values
        target = coerce_decode_out(self.value_count, out)
        pos = 0
        for index in range(self.rowgroup_count):
            part = target[pos : pos + self.rowgroup_rows(index)]
            if self._parent._salvage(
                index, self._ci, self._fill_rowgroup, index, part, cache
            ) is not None:
                pos += part.size
        return target if pos == target.size else target[:pos]

    def _fill_rowgroup(
        self, index: int, part: np.ndarray, cache: "RowGroupCache | None"
    ) -> np.ndarray:
        """Decode row-group ``index`` into ``part`` (via ``cache``)."""
        if cache is None:
            return self.read_rowgroup(index, out=part)
        np.copyto(part, self._cached_rowgroup(index, cache))
        return part
