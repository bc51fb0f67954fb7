"""Column sources: per-codec vector delivery out of compressed storage.

A :class:`ColumnSource` is the scan-side contract of the engine: it
yields 1024-value float64 vectors.  How expensive that is depends on the
codec's granularity — which is exactly what the paper's end-to-end
experiment (Table 6 / Figure 6) measures:

- ALP and PDE decode *one vector at a time* (vector-granular skipping);
- the XOR family (Gorilla/Chimp/Chimp128/Patas/Elf) is compressed per
  vector here, like the paper's standalone ports, and stream-decodes
  each vector with per-value Python work;
- the general-purpose codec stores row-group-sized blocks — reading any
  vector of a block decompresses the whole block (the paper's "one has
  to decompress 32 8KB vectors even if 31 are not needed"), which the
  source models with a block cache;
- uncompressed data just slices a raw array.

Sources over ALP storage (:class:`AlpSource`, :class:`FileColumnSource`)
also yield encoded batches (:class:`EncodedBatch`), one per row-group,
for the encoded queries.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Iterable, Iterator, Protocol, Sequence

import numpy as np

from repro import obs
from repro.baselines.registry import get_codec
from repro.core.alprd import AlpRdRowGroup, alprd_decode
from repro.core.compressor import (
    AlpRowGroup,
    CompressedRowGroup,
    CompressedRowGroups,
    compress,
    decode_rowgroup_vector,
)
from repro.core.constants import VECTOR_SIZE
from repro.storage.tablefile import TableColumnReader


@dataclass(frozen=True)
class EncodedBatch:
    """One row-group of the late-materialization pipeline.

    ``vectors`` lists the row-group's vectors the query covers (all of
    them, or the survivors of zone-map pruning), in order.  Exactly one
    payload field is set: ``alp`` carries the row-group's still-
    compressed ALP vectors for encoded-domain execution; ``values``
    carries one decoded float64 array per listed vector for payloads
    without an ALP integer domain (ALP_rd row-groups) so every source
    can feed the encoded queries, just without the fast math for those
    batches.
    """

    vectors: Sequence[int]
    alp: AlpRowGroup | None = None
    values: list[np.ndarray] | None = None


class ColumnSource(Protocol):
    """Anything that can feed vectors to a scan."""

    def vectors(self) -> Iterator[np.ndarray]:
        """Yield consecutive float64 vectors."""
        ...

    def partition(self, parts: int) -> list["ColumnSource"]:
        """Split into ~equal independent sources for parallel scans."""
        ...

    @property
    def value_count(self) -> int:
        """Total number of values."""
        ...

    @property
    def compressed_bits(self) -> int:
        """Compressed footprint in bits (0 for uncompressed)."""
        ...


@dataclass
class UncompressedSource:
    """Raw float64 array, sliced into vectors."""

    values: np.ndarray
    vector_size: int = VECTOR_SIZE

    def vectors(self) -> Iterator[np.ndarray]:
        for start in range(0, self.values.size, self.vector_size):
            yield self.values[start : start + self.vector_size]

    def partition(self, parts: int) -> list["UncompressedSource"]:
        return [
            UncompressedSource(chunk, self.vector_size)
            for chunk in _split_array(self.values, parts, self.vector_size)
        ]

    @property
    def value_count(self) -> int:
        return int(self.values.size)

    @property
    def compressed_bits(self) -> int:
        return 0


@dataclass
class AlpSource:
    """Vector-at-a-time decode out of a compressed ALP column."""

    column: CompressedRowGroups

    def vectors(self) -> Iterator[np.ndarray]:
        for rowgroup in self.column.rowgroups:
            for v in range(rowgroup.vector_count):
                yield decode_rowgroup_vector(rowgroup, v)

    def encoded_batches(
        self, value_range: tuple[float, float] | None = None
    ) -> Iterator[EncodedBatch]:
        """Yield batches without decoding the ALP payloads.

        ``value_range`` is a push-down hint this source cannot exploit
        (in-memory columns carry no zone maps); per-vector FFOR-header
        rejection inside the encoded queries covers the skipping.
        """
        del value_range
        return _batches(
            (rowgroup, range(rowgroup.vector_count))
            for rowgroup in self.column.rowgroups
        )

    def partition(self, parts: int) -> list["AlpSource"]:
        groups = _split_list(list(self.column.rowgroups), parts)
        return [
            AlpSource(
                CompressedRowGroups(
                    rowgroups=tuple(group),
                    count=sum(rg.count for rg in group),
                    vector_size=self.column.vector_size,
                    stats=self.column.stats,
                )
            )
            for group in groups
        ]

    @property
    def value_count(self) -> int:
        return self.column.count

    @property
    def compressed_bits(self) -> int:
        return self.column.size_bits()


@dataclass
class PerVectorCodecSource:
    """One compressed blob per vector (the XOR-family integration)."""

    blobs: list[Any]
    decode: Callable[[Any], np.ndarray]
    _count: int
    _bits: int

    @classmethod
    def build(
        cls, codec_name: str, values: np.ndarray, vector_size: int = VECTOR_SIZE
    ) -> "PerVectorCodecSource":
        codec = get_codec(codec_name)
        blobs = [
            codec.compress(values[start : start + vector_size])
            for start in range(0, values.size, vector_size)
        ]
        bits = sum(blob.size_bits() for blob in blobs)
        return cls(
            blobs=blobs,
            decode=codec.decompress,
            _count=int(values.size),
            _bits=bits,
        )

    def vectors(self) -> Iterator[np.ndarray]:
        for blob in self.blobs:
            yield self.decode(blob)

    def partition(self, parts: int) -> list["PerVectorCodecSource"]:
        out = []
        for group in _split_list(self.blobs, parts):
            count = sum(blob.count for blob in group)
            bits = sum(blob.size_bits() for blob in group)
            out.append(
                PerVectorCodecSource(
                    blobs=group, decode=self.decode, _count=count, _bits=bits
                )
            )
        return out

    @property
    def value_count(self) -> int:
        return self._count

    @property
    def compressed_bits(self) -> int:
        return self._bits


@dataclass
class BlockCodecSource:
    """Row-group-sized general-purpose blocks with a one-block cache.

    Reading any vector decompresses its whole block; consecutive vectors
    of the same block reuse the cache.  A scan therefore pays the block
    decompression once per row-group — but a *selective* read pays it for
    a single vector, which is the skipping disadvantage the paper
    describes.
    """

    blobs: list[Any]
    decode: Callable[[Any], np.ndarray]
    vector_size: int
    _count: int
    _bits: int

    @classmethod
    def build(
        cls,
        codec_name: str,
        values: np.ndarray,
        vector_size: int = VECTOR_SIZE,
        block_vectors: int = 100,
    ) -> "BlockCodecSource":
        codec = get_codec(codec_name)
        block = vector_size * block_vectors
        blobs = [
            codec.compress(values[start : start + block])
            for start in range(0, values.size, block)
        ]
        return cls(
            blobs=blobs,
            decode=codec.decompress,
            vector_size=vector_size,
            _count=int(values.size),
            _bits=sum(blob.size_bits() for blob in blobs),
        )

    def vectors(self) -> Iterator[np.ndarray]:
        for blob in self.blobs:
            block = self.decode(blob)  # whole-block decompression
            for start in range(0, block.size, self.vector_size):
                yield block[start : start + self.vector_size]

    def partition(self, parts: int) -> list["BlockCodecSource"]:
        out = []
        for group in _split_list(self.blobs, parts):
            count = sum(blob.count for blob in group)
            bits = sum(blob.size_bits() for blob in group)
            out.append(
                BlockCodecSource(
                    blobs=group,
                    decode=self.decode,
                    vector_size=self.vector_size,
                    _count=count,
                    _bits=bits,
                )
            )
        return out

    @property
    def value_count(self) -> int:
        return self._count

    @property
    def compressed_bits(self) -> int:
        return self._bits


def _split_list(items: list, parts: int) -> list[list]:
    """Split a list into ``parts`` contiguous, non-empty-ish chunks."""
    parts = max(1, min(parts, max(len(items), 1)))
    bounds = np.linspace(0, len(items), parts + 1, dtype=int)
    return [
        items[bounds[i] : bounds[i + 1]]
        for i in range(parts)
        if bounds[i] < bounds[i + 1]
    ] or [items]


def _split_array(
    values: np.ndarray, parts: int, vector_size: int
) -> list[np.ndarray]:
    """Split an array into vector-aligned contiguous chunks."""
    n_vectors = (values.size + vector_size - 1) // vector_size
    groups = _split_list(list(range(n_vectors)), parts)
    return [
        values[g[0] * vector_size : (g[-1] + 1) * vector_size]
        for g in groups
        if g
    ]


@dataclass
class FileColumnSource:
    """Scan source over one float64 column of an on-disk ALPC file.

    Decodes vector-at-a-time directly from the file's row-groups; with
    ``value_range`` set, the reader's zone-map pruning walk drops
    non-qualifying row-groups and vectors before any decoding happens
    (push-down into storage).
    """

    reader: TableColumnReader
    value_range: tuple[float, float] | None = None
    #: Optional decoded-row-group cache (the serving layer's
    #: ``DecodedVectorCache``); full scans reuse decoded values across
    #: sources/requests keyed by (file, rowgroup).
    cache: object | None = None
    #: Optional half-open ``(start, stop)`` row-group restriction: the
    #: source covers only those row-groups.  The sharded serving tier
    #: scopes each backend's scan/sum to its partition through this.
    rowgroups: tuple[int, int] | None = None

    @classmethod
    def open(
        cls,
        path,
        value_range: tuple[float, float] | None = None,
        degraded: bool = False,
        cache=None,
    ) -> "FileColumnSource":
        """Open a file source; ``degraded`` quarantines corrupt row-groups.

        A degraded scan yields every vector of the intact row-groups and
        skips quarantined ones — the reader's ``scan_report()`` carries
        the structured account of what was dropped.
        """
        return cls(
            reader=TableColumnReader.open(path, degraded=degraded),
            value_range=value_range,
            cache=cache,
        )

    def _rg_bounds(self) -> tuple[int, int]:
        """The half-open row-group range this source covers."""
        if self.rowgroups is None:
            return 0, self.reader.rowgroup_count
        return self.rowgroups

    def vectors(self) -> Iterator[np.ndarray]:
        rg_start, rg_stop = self._rg_bounds()
        if self.value_range is not None:
            for _, survivors, compressed in self.reader.iter_rowgroups_compressed(
                self.value_range, rg_start, rg_stop
            ):
                for v in survivors:
                    yield decode_rowgroup_vector(compressed, v)
            return
        size = self.reader.vector_size
        for _, rowgroup in self.reader.iter_rowgroups(
            self.cache, None, rg_start, rg_stop
        ):
            for start in range(0, rowgroup.size, size):
                yield rowgroup[start : start + size]

    def encoded_batches(
        self, value_range: tuple[float, float] | None = None
    ) -> Iterator[EncodedBatch]:
        """Yield still-compressed batches straight off the file bytes.

        Covers the same values as :meth:`vectors`: the source's own
        ``value_range`` and a caller-supplied hint (from a filtered op)
        are intersected and handed to the pruning walk — withheld
        vectors cannot contain qualifying values, so filtered results
        are unchanged.  Degraded readers quarantine corrupt row-groups
        on both paths.
        """
        ranges = [r for r in (self.value_range, value_range) if r is not None]
        bounds = (
            (max(low for low, _ in ranges), min(high for _, high in ranges))
            if ranges
            else None
        )
        yield from _batches(
            (rowgroup, survivors)
            for _, survivors, rowgroup in self.reader.iter_rowgroups_compressed(
                bounds, *self._rg_bounds()
            )
        )

    def partition(self, parts: int) -> list["FileColumnSource"]:
        # Partitioning a file source would need per-partition row-group
        # ranges; single-partition is sufficient for the engine tests.
        return [self]

    @property
    def value_count(self) -> int:
        start, stop = self._rg_bounds()
        return sum(self.reader.rowgroup_rows(i) for i in range(start, stop))

    @property
    def compressed_bits(self) -> int:
        start, stop = self._rg_bounds()
        return sum(
            meta.length * 8 for meta in self.reader.metadata[start:stop]
        )


def _batches(
    rowgroups: Iterable[tuple[CompressedRowGroup, Sequence[int]]],
) -> Iterator[EncodedBatch]:
    """One encoded batch per row-group with its listed vectors.

    ALP row-groups stay compressed; ALP_rd ones have no integer domain
    to execute on, so the listed vectors decode in one
    :func:`~repro.core.alprd.alprd_decode` call (only those vectors:
    the listed ones are full vectors and at most the tail, so they form
    a row-group of their own) and travel as values.
    """
    for rowgroup, survivors in rowgroups:
        if not survivors:
            continue
        if rowgroup.alp is not None:
            yield EncodedBatch(vectors=survivors, alp=rowgroup.alp)
            continue
        obs.counter_add("query.batches_fallback")
        rd = rowgroup.rd
        if rd is None:
            raise ValueError("row-group has neither ALP nor ALP_rd payload")
        if len(survivors) < len(rd.vectors):
            listed = tuple(rd.vectors[v] for v in survivors)
            rd = AlpRdRowGroup(
                parameters=rd.parameters,
                vectors=listed,
                count=sum(vector.count for vector in listed),
            )
        decoded = alprd_decode(rd)
        ends = np.cumsum([vector.count for vector in rd.vectors]).tolist()
        yield EncodedBatch(
            vectors=survivors,
            values=[
                decoded[end - vector.count : end]
                for vector, end in zip(rd.vectors, ends, strict=True)
            ],
        )


def make_source(
    codec_name: str, values: np.ndarray, vector_size: int = VECTOR_SIZE
) -> ColumnSource:
    """Compress ``values`` under ``codec_name`` and wrap a scan source.

    ``"uncompressed"`` returns the raw-array source; ``"alp"`` uses the
    adaptive row-group compressor; XOR/PDE codecs get per-vector blobs;
    general-purpose codecs get row-group blocks.
    """
    values = np.ascontiguousarray(values, dtype=np.float64)
    if codec_name == "uncompressed":
        return UncompressedSource(values, vector_size)
    if codec_name in ("alp", "lwc+alp"):
        return AlpSource(compress(values, vector_size=vector_size))
    if codec_name.endswith("(gp)"):
        return BlockCodecSource.build(codec_name, values, vector_size)
    return PerVectorCodecSource.build(codec_name, values, vector_size)
