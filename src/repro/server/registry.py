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

The registry also owns the serving tier's zero-copy knob: ``mmap=True``
memory-maps every registered column file (payloads decode straight out
of the page cache).  A scan response is the decoded row-group arrays
themselves, never a copy of them (see docs/PERFORMANCE.md).
"""

from __future__ import annotations

import os
from pathlib import Path

import numpy as np

from repro.server.cache import DecodedVectorCache
from repro.storage.dataset_dir import MANIFEST_NAME, DatasetReader
from repro.storage.schema import FLOAT64, Column, Schema
from repro.storage.tablefile import (
    ScanReport,
    TableColumnReader,
    TableFileReader,
)


class ServedColumn:
    """One column under service: a degraded reader plus the shared cache."""

    def __init__(
        self,
        dataset: str,
        column: str,
        path: str,
        reader: TableColumnReader,
        cache: DecodedVectorCache | None,
    ) -> None:
        self.dataset = dataset
        self.column = column
        self.path = path
        self.reader = reader
        self.cache = cache

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
    ) -> tuple[list[np.ndarray], int]:
        """One scan response: ``(payload parts, value count)``.

        Every scan shape — full, ranged, partition-scoped (``rowgroups``,
        the shard router's ``[start, stop)`` requests) and each column
        of a projection — takes one path: the zone-map walk over the
        row-groups, each survivor decoded through the shared cache and,
        when ``bounds`` is given, filtered to it.  The parts are those
        row-group arrays themselves, in order, so a scan copies nothing
        into a response buffer: the service writes each part to the
        socket as it is.

        A part is either a read-only cache resident or an array that
        only this response owns (an uncached decode, a filtered
        selection), so nothing mutates it while it is on the wire;
        eviction only drops the cache's reference.  Degraded readers
        quarantine corrupt row-groups, so a scoped scan serves exactly
        the values a full scan would serve for those row-groups.
        """
        parts: list[np.ndarray] = []
        count = 0
        for _, values in self.reader.iter_rowgroups(
            self.cache, bounds, *(rowgroups or (0, None))
        ):
            if bounds is not None:
                low, high = bounds
                values = values[(values >= low) & (values <= high)]
            if values.size:
                # The wire is little-endian float64: a no-op view on
                # little-endian hosts, a converted copy elsewhere.
                parts.append(np.asarray(values, dtype="<f8"))
                count += int(values.size)
        return parts, count

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
    ) -> None:
        self.cache = cache
        self.degraded = degraded
        self.mmap = mmap
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
