"""A multi-column dataset on disk: one ALPC file per column + manifest.

One-column ALPC files compose into tables the way columnar stores do
it: a directory with one compressed file per column and a JSON manifest
recording names, row counts and file layout.  The reader opens
columns lazily and can assemble a :class:`~repro.query.table.CompressedTable`
backed directly by the files, so filtered queries push down into storage
via the vector zone maps.

Layout::

    dataset_dir/
      manifest.json     {"format": "alpc-dataset", "version": 1,
                         "rows": N, "columns": {"name": "name.alpc", ...}}
      <column>.alpc     one per column: a v4 file whose one float64
                        column carries the manifest's column name
                        (older datasets hold read-only v2/v3 files)
"""

from __future__ import annotations

import json
import os
import re
from pathlib import Path

import numpy as np

from typing import TYPE_CHECKING

from repro.core.constants import ROWGROUP_VECTORS, VECTOR_SIZE
from repro.storage.schema import Column, Schema
from repro.storage.tablefile import TableColumnReader, TableFileWriter

if TYPE_CHECKING:
    from repro.api import CompressionOptions
    from repro.query.table import CompressedTable

MANIFEST_NAME = "manifest.json"
FORMAT_NAME = "alpc-dataset"
FORMAT_VERSION = 1


def _safe_filename(column: str) -> str:
    """Map a column name to a filesystem-safe, unique-enough file name."""
    cleaned = re.sub(r"[^A-Za-z0-9_.-]", "_", column)
    return f"{cleaned}.alpc"


def write_dataset(
    directory: str | os.PathLike,
    columns: dict[str, np.ndarray],
    vector_size: int = VECTOR_SIZE,
    rowgroup_vectors: int = ROWGROUP_VECTORS,
    *,
    options: "CompressionOptions | None" = None,
) -> None:
    """Compress a dict of equally-long float64 arrays into a directory.

    Column files are written atomically (temp + rename) as one-column
    v4 files; the manifest is written last, also atomically, so a
    crashed write never leaves a directory that parses but points at
    half-written columns.
    """
    if not columns:
        raise ValueError("a dataset needs at least one column")
    lengths = {name: np.asarray(a).size for name, a in columns.items()}
    if len(set(lengths.values())) != 1:
        raise ValueError(f"column lengths differ: {lengths}")

    path = Path(directory)
    path.mkdir(parents=True, exist_ok=True)
    manifest_columns: dict[str, str] = {}
    used_names: set[str] = set()
    for name, values in columns.items():
        filename = _safe_filename(name)
        if filename in used_names:  # collision after sanitizing
            filename = f"{len(used_names)}_{filename}"
        used_names.add(filename)
        with TableFileWriter(
            path / filename,
            Schema((Column(name),)),
            vector_size=vector_size,
            rowgroup_vectors=rowgroup_vectors,
            options=options,
        ) as writer:
            writer.write_rows({name: values})
        manifest_columns[name] = filename
    manifest = {
        "format": FORMAT_NAME,
        "version": FORMAT_VERSION,
        "rows": int(next(iter(lengths.values()))),
        "columns": manifest_columns,
    }
    manifest_tmp = path / f"{MANIFEST_NAME}.tmp-{os.getpid()}"
    manifest_tmp.write_text(json.dumps(manifest, indent=2))
    os.replace(manifest_tmp, path / MANIFEST_NAME)


class DatasetReader:
    """Lazy reader over an alpc-dataset directory.

    With ``degraded=True``, every column reader it opens quarantines
    corrupt row-groups instead of raising (see
    :meth:`TableColumnReader.scan_report` per column).  With
    ``mmap=True``, every column reader memory-maps its file for
    zero-copy payload access (small files fall back to buffered).
    """

    def __init__(
        self,
        directory: str | os.PathLike,
        *,
        degraded: bool = False,
        mmap: bool = False,
    ) -> None:
        self._degraded = degraded
        self._mmap = mmap
        self._path = Path(directory)
        manifest_path = self._path / MANIFEST_NAME
        if not manifest_path.exists():
            raise ValueError(f"{self._path} has no {MANIFEST_NAME}")
        manifest = json.loads(manifest_path.read_text())
        if manifest.get("format") != FORMAT_NAME:
            raise ValueError(f"{self._path} is not an {FORMAT_NAME} directory")
        if manifest.get("version") != FORMAT_VERSION:
            raise ValueError(
                f"unsupported dataset version {manifest.get('version')}"
            )
        self._rows = int(manifest["rows"])
        self._files: dict[str, str] = dict(manifest["columns"])
        self._readers: dict[str, TableColumnReader] = {}

    @property
    def column_names(self) -> tuple[str, ...]:
        """Column names, manifest order."""
        return tuple(self._files)

    @property
    def row_count(self) -> int:
        """Number of rows in every column."""
        return self._rows

    def column_file(self, column: str) -> str:
        """The file name (relative to the dataset directory) of a column."""
        if column not in self._files:
            raise KeyError(
                f"unknown column {column!r}; have {sorted(self._files)}"
            )
        return self._files[column]

    def _reader(self, column: str) -> TableColumnReader:
        if column not in self._files:
            raise KeyError(
                f"unknown column {column!r}; have {sorted(self._files)}"
            )
        if column not in self._readers:
            self._readers[column] = TableColumnReader.open(
                self._path / self._files[column],
                degraded=self._degraded,
                mmap=self._mmap,
            )
        return self._readers[column]

    def read_column(self, column: str) -> np.ndarray:
        """Decompress one column fully."""
        return self._reader(column).read_all()

    def table(self, columns: list[str] | None = None) -> "CompressedTable":
        """A :class:`CompressedTable` over file-backed sources."""
        from repro.query.sources import FileColumnSource
        from repro.query.table import CompressedTable

        names = list(columns) if columns else list(self._files)
        return CompressedTable(
            {
                name: FileColumnSource(reader=self._reader(name))
                for name in names
            }
        )

    def compressed_bytes(self) -> int:
        """Total on-disk size of all column files."""
        return sum(
            (self._path / filename).stat().st_size
            for filename in self._files.values()
        )
