"""The served-dataset registry: names -> open, cache-aware column readers.

A server serves what is *registered*: ``.alpc`` files of any format
version (one served column per non-nullable float64 schema column; a
v2/v3 file is one column named after the file stem), or
``alpc-dataset`` directories (one column per manifest entry).
Registration opens readers eagerly —
header/footer verification happens at startup, not on the first request
— in *degraded* mode by default, so a column with corrupt row-groups
serves its intact remainder (PR 4 quarantine semantics) instead of
failing every request that touches it.

Every :class:`ServedColumn` routes decoded row-groups through the shared
:class:`~repro.server.cache.DecodedVectorCache`, keyed by
``(file path, rowgroup index)`` — the same keying the local query engine
uses, so a server and an in-process scan can share one cache.

The registry also owns the serving tier's zero-copy knobs: ``mmap=True``
memory-maps every registered column file (payloads decode straight out
of the page cache), and a shared :class:`~repro.server.bufferpool
.BufferPool` feeds scan targets and cache fills so steady-state traffic
recycles buffers instead of allocating (see docs/PERFORMANCE.md).
"""

from __future__ import annotations

import os
from pathlib import Path

import numpy as np

from repro.server import protocol
from repro.server.bufferpool import BufferPool
from repro.server.cache import DecodedVectorCache
from repro.storage.dataset_dir import MANIFEST_NAME, DatasetReader
from repro.storage.schema import FLOAT64, Column, Schema
from repro.storage.tablefile import (
    ScanReport,
    TableColumnReader,
    TableFileReader,
)


class ServedColumn:
    """One column under service: a degraded reader plus the shared cache.

    ``pool``, when given, feeds full-column scan buffers: each scan
    decodes into a recycled target, serializes the response while the
    buffer is held, and releases it — zero large allocations on the
    steady-state path (see :meth:`scan_payload`).
    """

    def __init__(
        self,
        dataset: str,
        column: str,
        path: str,
        reader: TableColumnReader,
        cache: DecodedVectorCache | None,
        pool: BufferPool | None = None,
    ) -> None:
        self.dataset = dataset
        self.column = column
        self.path = path
        self.reader = reader
        self.cache = cache
        self.pool = pool

    @property
    def value_count(self) -> int:
        """Total values per the file footer (quarantine not subtracted)."""
        return self.reader.value_count

    @property
    def compressed_bits(self) -> int:
        """Compressed payload footprint in bits."""
        return sum(meta.length * 8 for meta in self.reader.metadata)

    @property
    def bits_per_value(self) -> float:
        """Compressed bits per value of the served column."""
        return self.compressed_bits / max(self.value_count, 1)

    def all_values(self) -> np.ndarray:
        """Every decodable value, in order (degraded readers skip bad
        row-groups; see :meth:`scan_report`)."""
        return self.reader.read_all(cache=self.cache)

    def scan_payload(
        self,
        bounds: "tuple[float, float] | None" = None,
        rowgroups: "tuple[int, int] | None" = None,
    ) -> tuple[bytes, int]:
        """One scan response, serialized: ``(payload bytes, count)``.

        The full-column shape is the allocation-managed hot path.  With
        a single cached row-group the resident cache array serializes
        directly (zero copies, zero allocations); otherwise, with a
        pool, row-groups decode into a recycled full-column buffer that
        is released once the response bytes exist.  The serialized copy
        ``values_to_bytes`` makes is the one allocation that remains —
        the response frame must outlive the buffer's next reuse.

        Every bounded or partition-scoped scan takes one path: the
        zone-map walk over row-groups ``[start, stop)`` (``rowgroups``,
        the shard router's partition-sized requests), each survivor
        decoded through the shared cache and filtered to ``bounds``.
        Cache keys stay per-(file, row-group), so a partition warms
        exactly its own row-groups, and degraded readers quarantine
        corrupt ones, so a scoped scan serves exactly the values a full
        scan would serve for those row-groups.
        """
        if bounds is not None or rowgroups is not None:
            chunks = []
            for _, values in self.reader.iter_rowgroups(
                self.cache, bounds, *(rowgroups or (0, None))
            ):
                if bounds is not None:
                    low, high = bounds
                    values = values[(values >= low) & (values <= high)]
                chunks.append(values)
            if not chunks:
                return b"", 0
            values = np.concatenate(chunks) if len(chunks) > 1 else chunks[0]
            return protocol.values_to_bytes(values), int(values.size)
        single_cached = (
            self.cache is not None and self.reader.rowgroup_count == 1
        )
        if self.pool is None or single_cached:
            values = self.all_values()
            return protocol.values_to_bytes(values), int(values.size)
        buffer = self.pool.acquire(self.value_count)
        try:
            values = self.reader.read_all(cache=self.cache, out=buffer)
            return protocol.values_to_bytes(values), int(values.size)
        finally:
            self.pool.release(buffer)

    def query_source(self, rowgroups: "tuple[int, int] | None" = None):
        """The engine-facing scan source for aggregate ops.

        Deliberately *not* wired to the decoded-vector cache: aggregates
        run the encoded-domain path, and a served sum must not change by
        a ulp depending on whether some row-group happened to be warm.
        Scan ops, whose decoded values are bit-identical either way, keep
        using the cache through :meth:`scan_payload`.  ``rowgroups``
        restricts the source to the half-open row-group range
        (partition-scoped aggregates).
        """
        from repro.query.sources import FileColumnSource

        return FileColumnSource(reader=self.reader, rowgroups=rowgroups)

    def scan_report(self) -> ScanReport:
        """Cumulative quarantine account of this column's reader."""
        return self.reader.scan_report()

    def describe(self) -> dict[str, object]:
        """Metadata for the ``datasets`` op / the CLI listing.

        ``rowgroup_rows`` (per-row-group value counts, footer order) is
        what the shard router partitions on: it derives partition row
        counts — and the degraded-row accounting for missing shards —
        without opening the file itself.
        """
        return {
            "values": self.value_count,
            "rowgroups": self.reader.rowgroup_count,
            "vector_size": self.reader.vector_size,
            "bits_per_value": self.bits_per_value,
            "format_version": self.reader.format_version,
            "rowgroup_rows": [
                self.reader.rowgroup_rows(i)
                for i in range(self.reader.rowgroup_count)
            ],
        }


class DatasetRegistry:
    """Maps served dataset/column names to :class:`ServedColumn` readers."""

    def __init__(
        self,
        cache: DecodedVectorCache | None = None,
        degraded: bool = True,
        *,
        mmap: bool = False,
        pool: BufferPool | None = None,
    ) -> None:
        self.cache = cache
        self.degraded = degraded
        self.mmap = mmap
        self.pool = pool
        #: dataset name -> column name -> ServedColumn
        self._datasets: dict[str, dict[str, ServedColumn]] = {}
        #: dataset name -> schema (synthesized for dataset directories)
        self._schemas: dict[str, Schema] = {}

    def register_file(
        self, path: str | os.PathLike, name: str | None = None
    ) -> str:
        """Serve one ``.alpc`` file (any format version) as a dataset.

        Every *non-nullable float64* schema column is served (the float
        query pipeline's domain — nullable, integer and string columns
        are visible in the dataset's schema but not servable); a v2/v3
        file is one such column, named after the file stem.
        """
        file_path = Path(path)
        dataset = name or file_path.stem
        if dataset in self._datasets:
            raise ValueError(f"dataset {dataset!r} is already registered")
        table = TableFileReader(file_path, degraded=self.degraded, mmap=self.mmap)
        served = {
            col.name: ServedColumn(
                dataset=dataset,
                column=col.name,
                path=str(file_path),
                reader=table.column_reader(col.name),
                cache=self.cache,
                pool=self.pool,
            )
            for col in table.schema
            if col.type == FLOAT64 and not col.nullable
        }
        if not served:
            table.close()
            raise ValueError(
                f"{file_path}: no servable (non-nullable float64) "
                f"columns in schema {list(table.schema.names)}"
            )
        self._datasets[dataset] = served
        self._schemas[dataset] = table.schema
        return dataset

    def register_dataset(
        self, directory: str | os.PathLike, name: str | None = None
    ) -> str:
        """Serve every column of an ``alpc-dataset`` directory."""
        dir_path = Path(directory)
        dataset = name or dir_path.name
        if dataset in self._datasets:
            raise ValueError(f"dataset {dataset!r} is already registered")
        manifest = DatasetReader(dir_path, degraded=self.degraded)
        columns: dict[str, ServedColumn] = {}
        for column in manifest.column_names:
            file_path = dir_path / manifest.column_file(column)
            columns[column] = ServedColumn(
                dataset=dataset,
                column=column,
                path=str(file_path),
                reader=TableColumnReader.open(
                    file_path, degraded=self.degraded, mmap=self.mmap
                ),
                cache=self.cache,
                pool=self.pool,
            )
        self._datasets[dataset] = columns
        self._schemas[dataset] = Schema(
            tuple(Column(name) for name in manifest.column_names)
        )
        return dataset

    def register_path(
        self, path: str | os.PathLike, name: str | None = None
    ) -> str:
        """Register a path, auto-detecting file vs dataset directory."""
        p = Path(path)
        if p.is_dir():
            if not (p / MANIFEST_NAME).exists():
                raise ValueError(
                    f"{p} is a directory without a {MANIFEST_NAME}"
                )
            return self.register_dataset(p, name)
        if not p.is_file():
            raise ValueError(f"{p} is neither a file nor a directory")
        return self.register_file(p, name)

    @property
    def dataset_names(self) -> tuple[str, ...]:
        """Registered dataset names, registration order."""
        return tuple(self._datasets)

    def schema(self, dataset: str) -> Schema:
        """The schema of a registered dataset.

        Files report their stored schema (including columns that are
        not servable through the float pipeline); dataset directories
        report a synthesized all-float64 schema.
        """
        schema = self._schemas.get(dataset)
        if schema is None:
            raise KeyError(
                f"unknown dataset {dataset!r}; "
                f"registered: {sorted(self._datasets)}"
            )
        return schema

    def column(
        self, dataset: str, column: str | None = None
    ) -> ServedColumn:
        """Resolve a served column; ``column=None`` works for one-column
        datasets.  Raises ``KeyError`` with a message fit for an error
        frame when the name does not resolve."""
        columns = self._datasets.get(dataset)
        if columns is None:
            raise KeyError(
                f"unknown dataset {dataset!r}; "
                f"registered: {sorted(self._datasets)}"
            )
        if column is None:
            if len(columns) == 1:
                return next(iter(columns.values()))
            raise KeyError(
                f"dataset {dataset!r} has {len(columns)} columns; "
                f"specify one of {sorted(columns)}"
            )
        served = columns.get(column)
        if served is None:
            raise KeyError(
                f"unknown column {column!r} of dataset {dataset!r}; "
                f"have {sorted(columns)}"
            )
        return served

    def describe(self) -> dict[str, object]:
        """The ``datasets`` op body: everything served, with metadata."""
        return {
            dataset: {
                column: served.describe()
                for column, served in columns.items()
            }
            for dataset, columns in self._datasets.items()
        }
