"""The unified public facade of the reproduction.

One import gives the whole pipeline — compression, on-disk storage,
tables, datasets, and integrity tooling — behind a single options
object.  Since format v4 the primary objects are *tables*: a
:class:`Schema` of named, typed, optionally-nullable columns, stored as
one multi-column ALPC file with per-column chunks and zone maps::

    import numpy as np
    from repro import api

    rng = np.random.default_rng(0)
    table = api.Table.from_arrays(
        {
            "ts": np.cumsum(rng.random(100_000)),
            "value": np.round(rng.normal(20, 5, 100_000), 2),
            "count": rng.integers(0, 50, 100_000),
            "city": np.array(["BER", "AMS"] * 50_000, dtype=object),
        }
    )
    api.write_table("table.alpc", table)

    t = api.read_table("table.alpc", columns=["ts", "value"])
    handle = api.open_table(
        "table.alpc",
        columns=["value"],
        predicate=api.FilterPredicate("ts", low=100.0, high=200.0),
    )
    matching = handle.read()                       # zone-map pruned scan

The original single-column functions remain, unchanged, as the
one-column special case (see docs/TABLES.md for the migration guide)::

    values = np.round(rng.normal(20, 5, 100_000), 2)

    column = api.compress(values)                  # in-memory
    restored = api.decompress(column)

    api.write("col.alpc", values)                  # one-column v4 file
    reader = api.open("col.alpc")                  # lazy, verifying reader
    restored = api.read("col.alpc")

    report = api.verify("col.alpc")                # integrity walk (v2-v4)
    api.repair("col.alpc", "col.fixed.alpc")       # drop corrupt sections

``write`` is the single-column wrapper over the table path: it persists
one non-nullable float64 column, named after the file stem, as a v4
table.  ``open``/``read`` accept *any* generation — a read-only v2/v3
column file or a one-float-column v4 table — through the same verified
reader.

Every knob the layers used to take as drifting per-function keyword
lists is collected in :class:`CompressionOptions`, accepted uniformly
by :func:`compress`, :func:`write`, :func:`write_table`,
:func:`write_dataset` and the underlying writers.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import Mapping

import numpy as np

from repro.core.compressor import (
    CompressedRowGroups,
    compress as _compress,
    compress_parallel as _compress_parallel,
    decompress as _decompress,
    decompress_parallel as _decompress_parallel,
)
from repro.core.constants import ROWGROUP_VECTORS, VECTOR_SIZE
from repro.query.table import FilterPredicate
from repro.storage.dataset_dir import DatasetReader
from repro.storage.errors import (
    CorruptFileError,
    CorruptRowGroupError,
    IntegrityError,
)
from repro.storage.schema import (
    CODECS_BY_TYPE,
    FLOAT64,
    INT64,
    STRING,
    Column,
    Schema,
)
from repro.storage.tablefile import (
    TableColumnReader,
    TableFileReader,
    TableFileWriter,
    default_column_name,
)
from repro.storage.verify import (
    DatasetVerifyReport,
    FileVerifyReport,
    RepairReport,
    repair_column_file,
    verify_path,
)

__all__ = [
    "Column",
    "CompressedRowGroups",
    "CompressionOptions",
    "CorruptFileError",
    "CorruptRowGroupError",
    "FilterPredicate",
    "IntegrityError",
    "Schema",
    "Table",
    "TableHandle",
    "compress",
    "decompress",
    "open",
    "open_dataset",
    "open_table",
    "read",
    "read_table",
    "repair",
    "verify",
    "write",
    "write_dataset",
    "write_table",
]

#: Schemes :attr:`CompressionOptions.force_scheme` accepts (None = adaptive).
_SCHEMES = (None, "alp", "alprd")

#: Every per-column codec override :attr:`CompressionOptions.column_codecs`
#: accepts (validity against the column's logical type happens at write
#: time, when the schema is known).
_COLUMN_CODECS = tuple(
    codec for codecs in CODECS_BY_TYPE.values() for codec in codecs
)


@dataclass(frozen=True)
class CompressionOptions:
    """Every tuning knob of the pipeline, in one place.

    Attributes:
        vector_size: values per ALP vector (the paper's ``v``).
        rowgroup_vectors: vectors per row-group (the paper's ``w``).
        threads: worker threads for :func:`compress`; ``1`` is serial,
            more dispatches row-groups to a thread pool (bit-identical
            output either way).
        force_scheme: ``"alp"`` or ``"alprd"`` bypasses the adaptive
            ALP-vs-ALP_rd cutoff decision; ``None`` keeps it adaptive.
            Applies to float64 columns table-wide.
        column_codecs: per-column codec overrides for
            :func:`write_table` — a mapping (or tuple of pairs) from
            column name to ``"alp"``/``"alprd"`` (float64),
            ``"ffor"``/``"delta"`` (int64) or ``"dict"`` (string).
            Columns not named keep the adaptive choice.  Normalized to
            a sorted tuple of pairs so the options object stays
            hashable.
    """

    vector_size: int = VECTOR_SIZE
    rowgroup_vectors: int = ROWGROUP_VECTORS
    threads: int = 1
    force_scheme: str | None = None
    column_codecs: tuple[tuple[str, str], ...] = ()

    def __post_init__(self) -> None:
        if self.force_scheme not in _SCHEMES:
            raise ValueError(
                f"force_scheme must be one of {_SCHEMES}, "
                f"got {self.force_scheme!r}"
            )
        if self.threads < 1:
            raise ValueError(f"threads must be >= 1, got {self.threads}")
        if self.rowgroup_vectors < 1:
            raise ValueError(
                f"rowgroup_vectors must be >= 1, got {self.rowgroup_vectors}"
            )
        codecs = self.column_codecs
        items = codecs.items() if isinstance(codecs, Mapping) else codecs
        normalized = tuple(sorted((str(k), str(v)) for k, v in items))
        for name, codec in normalized:
            if codec not in _COLUMN_CODECS:
                raise ValueError(
                    f"column_codecs[{name!r}] must be one of "
                    f"{_COLUMN_CODECS}, got {codec!r}"
                )
        object.__setattr__(self, "column_codecs", normalized)


#: The default option set (adaptive scheme).
DEFAULT_OPTIONS = CompressionOptions()


def _infer_column(name: str, values: np.ndarray, nullable: bool) -> Column:
    arr = np.asarray(values)
    if arr.dtype.kind == "f":
        return Column(name, FLOAT64, nullable=nullable)
    if arr.dtype.kind in ("i", "u"):
        return Column(name, INT64, nullable=nullable)
    if arr.dtype.kind in ("O", "U"):
        return Column(name, STRING, nullable=nullable)
    raise ValueError(
        f"column {name!r}: cannot infer a logical type from "
        f"dtype {arr.dtype}; supported kinds are float, int, and str"
    )


def _coerce_values(column: Column, values: np.ndarray) -> np.ndarray:
    if column.type == FLOAT64:
        return np.ascontiguousarray(values, dtype=np.float64)
    if column.type == INT64:
        return np.ascontiguousarray(values, dtype=np.int64)
    arr = np.asarray(values)
    if arr.dtype.kind == "U":
        arr = arr.astype(object)
    return np.asarray(arr, dtype=object)


@dataclass(frozen=True)
class Table:
    """An in-memory table: schema plus per-column value/validity arrays.

    ``columns`` maps every schema column to its values (float64, int64,
    or object-of-str, matching the logical type); ``validity`` maps
    *nullable* columns to boolean masks (True = valid).  Null slots in
    the value arrays hold codec fill values (0.0 / 0 / "") — mask them
    with :meth:`column_validity` before interpreting.
    """

    schema: Schema
    columns: dict[str, np.ndarray]
    validity: dict[str, np.ndarray] = field(default_factory=dict)

    def __post_init__(self) -> None:
        coerced: dict[str, np.ndarray] = {}
        n_rows: int | None = None
        for col in self.schema:
            if col.name not in self.columns:
                raise ValueError(f"missing values for column {col.name!r}")
            arr = _coerce_values(col, self.columns[col.name])
            if n_rows is None:
                n_rows = len(arr)
            elif len(arr) != n_rows:
                raise ValueError(
                    f"column {col.name!r} has {len(arr)} values, "
                    f"expected {n_rows}"
                )
            coerced[col.name] = arr
        extra = set(self.columns) - set(self.schema.names)
        if extra:
            raise ValueError(f"values for unknown columns {sorted(extra)}")
        masks: dict[str, np.ndarray] = {}
        for name, mask in self.validity.items():
            col = self.schema.column(name)
            if not col.nullable:
                raise ValueError(
                    f"column {name!r} is not nullable; validity mask rejected"
                )
            arr = np.ascontiguousarray(mask, dtype=bool)
            if arr.shape != (n_rows or 0,):
                raise ValueError(
                    f"validity mask for {name!r} must have {n_rows} entries"
                )
            masks[name] = arr
        object.__setattr__(self, "columns", coerced)
        object.__setattr__(self, "validity", masks)

    @classmethod
    def from_arrays(
        cls,
        columns: Mapping[str, np.ndarray],
        validity: Mapping[str, np.ndarray] | None = None,
        schema: Schema | None = None,
    ) -> "Table":
        """Build a table, inferring the schema from array dtypes.

        Float dtypes map to ``float64``, integer dtypes to ``int64``,
        object/str arrays to ``string``.  A column is marked nullable
        exactly when ``validity`` provides a mask for it; pass an
        explicit ``schema`` to override any of this.
        """
        validity = dict(validity or {})
        if schema is None:
            schema = Schema(
                tuple(
                    _infer_column(name, np.asarray(values), name in validity)
                    for name, values in columns.items()
                )
            )
        return cls(
            schema=schema, columns=dict(columns), validity=validity
        )

    def __len__(self) -> int:
        if not self.schema.columns:
            return 0
        return len(self.columns[self.schema.columns[0].name])

    @property
    def column_names(self) -> tuple[str, ...]:
        return self.schema.names

    def column(self, name: str) -> np.ndarray:
        """The value array of one column (fill values at null slots)."""
        self.schema.column(name)
        return self.columns[name]

    def column_validity(self, name: str) -> np.ndarray:
        """The validity mask of one column (all-True when non-nullable)."""
        col = self.schema.column(name)
        if not col.nullable or name not in self.validity:
            return np.ones(len(self), dtype=bool)
        return self.validity[name]


class TableHandle:
    """An open table file with an optional pinned projection/predicate.

    Thin convenience over :class:`TableFileReader`: ``columns`` and
    ``predicate`` given to :func:`open_table` become the defaults for
    :meth:`read` and :meth:`scan`, so a handle *is* a parameterized
    query over the file.  The underlying reader (and its full surface —
    zone maps, quarantine reports, per-column readers) stays reachable
    via :attr:`reader`.
    """

    def __init__(
        self,
        reader: TableFileReader,
        columns: list[str] | None = None,
        predicate: FilterPredicate | None = None,
    ) -> None:
        self._reader = reader
        if columns is not None:
            for name in columns:
                reader.schema.column(name)
        self._columns = list(columns) if columns is not None else None
        if predicate is not None:
            reader.schema.column(predicate.column)
        self._predicate = predicate

    @property
    def reader(self) -> TableFileReader:
        return self._reader

    @property
    def schema(self) -> Schema:
        """The projected schema (full schema without a projection)."""
        if self._columns is None:
            return self._reader.schema
        return self._reader.schema.select(self._columns)

    @property
    def row_count(self) -> int:
        return self._reader.row_count

    @property
    def format_version(self) -> int:
        return int(self._reader.format_version)

    def read(self) -> Table:
        """Materialize the pinned projection (+ predicate) as a Table."""
        return self.scan()

    def scan(
        self,
        columns: list[str] | None = None,
        predicate: FilterPredicate | None = None,
    ) -> Table:
        """Zone-map-pruned filtered read; arguments override the pinned ones."""
        names = columns if columns is not None else self._columns
        pred = predicate if predicate is not None else self._predicate
        values, validity = self._reader.scan(names, pred)
        schema = (
            self._reader.schema
            if names is None
            else self._reader.schema.select(names)
        )
        return Table(schema=schema, columns=values, validity=validity)

    def column_reader(self, name: str) -> TableColumnReader:
        """A single-column reader view (non-nullable float64 columns)."""
        return self._reader.column_reader(name)

    def scan_report(self) -> object:
        """The reader's structured quarantine account."""
        return self._reader.scan_report()

    def close(self) -> None:
        self._reader.close()

    def __enter__(self) -> "TableHandle":
        return self

    def __exit__(self, exc_type: object, *exc_info: object) -> None:
        self.close()


def compress(
    values: np.ndarray, options: CompressionOptions | None = None
) -> CompressedRowGroups:
    """Compress a float64 column under one options object.

    ``options.threads > 1`` routes through the thread-pooled
    compressor; the result is bit-identical to the serial path.
    """
    opts = options or DEFAULT_OPTIONS
    if opts.threads > 1:
        return _compress_parallel(
            values,
            threads=opts.threads,
            vector_size=opts.vector_size,
            rowgroup_vectors=opts.rowgroup_vectors,
            force_scheme=opts.force_scheme,
        )
    return _compress(
        values,
        vector_size=opts.vector_size,
        rowgroup_vectors=opts.rowgroup_vectors,
        force_scheme=opts.force_scheme,
    )


def decompress(
    column: CompressedRowGroups,
    options: CompressionOptions | None = None,
    *,
    out: np.ndarray | None = None,
) -> np.ndarray:
    """Decompress a column back to float64, bit-exactly.

    Like :func:`compress`, ``options.threads > 1`` routes through the
    thread-pooled decoder (row-groups decode into disjoint slices of one
    output array); the result is bit-identical to the serial path.
    ``out``, when given, must be a writable C-contiguous float64 array
    of exactly ``column.count`` values; the decode writes in place and
    allocates no output array.
    """
    opts = options or DEFAULT_OPTIONS
    if opts.threads > 1:
        return _decompress_parallel(column, threads=opts.threads, out=out)
    return _decompress(column, out=out)


# -- tables (format v4) -----------------------------------------------


def write_table(
    path: str | os.PathLike,
    table: Table | Mapping[str, np.ndarray],
    options: CompressionOptions | None = None,
    *,
    validity: Mapping[str, np.ndarray] | None = None,
    schema: Schema | None = None,
) -> None:
    """Compress a table into one v4 ALPC file (atomic, checksummed).

    ``table`` is a :class:`Table`, or a plain mapping of column name to
    array (schema inferred; pass ``validity``/``schema`` to refine).
    Per-column codecs come from the schema's ``Column.codec`` pins or
    ``options.column_codecs``, adaptive otherwise.
    """
    if not isinstance(table, Table):
        table = Table.from_arrays(table, validity=validity, schema=schema)
    elif validity is not None or schema is not None:
        raise ValueError(
            "validity/schema arguments only apply to plain mappings; "
            "a Table already carries both"
        )
    opts = options or DEFAULT_OPTIONS
    with TableFileWriter(path, table.schema, options=opts) as writer:
        writer.write_rows(dict(table.columns), validity=dict(table.validity))


def open_table(
    path: str | os.PathLike,
    *,
    columns: list[str] | None = None,
    predicate: FilterPredicate | None = None,
    degraded: bool = False,
    mmap: bool = False,
) -> TableHandle:
    """Open any ALPC file (v2-v4) as a table.

    v2/v3 single-column files appear as a one-float64-column table
    named after the file stem.  ``columns`` pins a projection and
    ``predicate`` a zone-map-pruned range filter; both become the
    defaults for :meth:`TableHandle.read` / :meth:`TableHandle.scan`.
    ``degraded`` and ``mmap`` behave exactly as in :func:`open`.
    """
    reader = TableFileReader(path, degraded=degraded, mmap=mmap)
    try:
        return TableHandle(reader, columns=columns, predicate=predicate)
    except BaseException:
        reader.close()
        raise


def read_table(
    path: str | os.PathLike,
    *,
    columns: list[str] | None = None,
    predicate: FilterPredicate | None = None,
    degraded: bool = False,
) -> Table:
    """Materialize an ALPC file (v2-v4) as an in-memory :class:`Table`."""
    handle = open_table(
        path, columns=columns, predicate=predicate, degraded=degraded
    )
    return handle.read()


# -- single-column wrappers -------------------------------------------


def write(
    path: str | os.PathLike,
    values: np.ndarray,
    options: CompressionOptions | None = None,
) -> None:
    """Compress ``values`` into a column file (atomic, checksummed).

    The one-column special case of :func:`write_table`: a v4 file with
    one non-nullable float64 column named after the file stem.
    """
    schema = Schema((Column(default_column_name(path)),))
    with TableFileWriter(path, schema, options=options or DEFAULT_OPTIONS) as writer:
        writer.write_rows({schema.names[0]: values})


def open(
    path: str | os.PathLike, *, degraded: bool = False, mmap: bool = False
) -> TableColumnReader:
    """Open a column file for verified random access and scans.

    The one-column wrapper over :func:`open_table`: any file whose
    schema is a single non-nullable float64 column — every v2/v3 file
    and everything :func:`write` produces — opens as a
    :class:`TableColumnReader`.

    With ``degraded=True`` bulk reads and range scans *quarantine*
    corrupt row-groups (skip + report via ``scan_report()``) instead of
    raising.

    With ``mmap=True`` the file is memory-mapped and payloads decode
    straight out of the page cache with zero copies (small files
    silently fall back to the buffered path).  Mapped readers must be
    closed, and close refuses — with a typed ``BufferLifetimeError`` —
    while payload views are still alive; see ``docs/PERFORMANCE.md``,
    "zero-copy read path".
    """
    return TableColumnReader.open(path, degraded=degraded, mmap=mmap)


def read(path: str | os.PathLike, *, degraded: bool = False) -> np.ndarray:
    """Decompress an entire column file to float64 (v2-v4)."""
    return open(path, degraded=degraded).read_all()


def write_dataset(
    directory: str | os.PathLike,
    columns: dict[str, np.ndarray],
    options: CompressionOptions | None = None,
) -> None:
    """Compress a dict of equally-long columns into a dataset directory."""
    from repro.storage.dataset_dir import write_dataset as _write_dataset

    _write_dataset(directory, columns, options=options or DEFAULT_OPTIONS)


def open_dataset(
    directory: str | os.PathLike,
    *,
    degraded: bool = False,
    mmap: bool = False,
) -> DatasetReader:
    """Open a dataset directory for lazy per-column reads and queries.

    ``mmap=True`` applies :func:`open`'s zero-copy mapping to every
    column file the reader touches (with the same buffered fallback).
    """
    return DatasetReader(directory, degraded=degraded, mmap=mmap)


def verify(
    path: str | os.PathLike,
) -> FileVerifyReport | DatasetVerifyReport:
    """Walk an ALPC file (v2-v4) or dataset directory, reporting bad sections."""
    return verify_path(path)


def repair(
    source: str | os.PathLike, destination: str | os.PathLike
) -> RepairReport:
    """Rewrite a damaged file, keeping intact row-groups (v4: chunks)."""
    return repair_column_file(source, destination)
