"""Columnar storage: serialization and a skippable table-file format.

The paper's central systems argument for lightweight encodings is that —
unlike block-based general-purpose compression — one can *skip through*
compressed data at vector granularity, enabling predicate push-down in
scans.  This subpackage makes that concrete:

- :mod:`repro.storage.serializer` — byte-level (de)serialization of
  compressed row-groups (every dataclass in :mod:`repro.core` has an
  exact binary layout here),
- :mod:`repro.storage.schema` / :mod:`repro.storage.tablefile` —
  format v4, the one written format: schema-described tables (null
  bitmaps, int64 and string columns, per-column chunk offsets inside
  each row-group) with typed per-chunk and per-vector zone maps that
  let scans skip row-groups/vectors without touching their bytes; the
  one reader also opens the read-only v2/v3 single-column files,
- :mod:`repro.storage.integrity` / :mod:`repro.storage.errors` —
  CRC32C checksums and the typed corruption errors the verifying read
  path raises,
- :mod:`repro.storage.verify` — section-by-section integrity walks and
  copy-intact-chunks repair (``alp-repro verify`` / ``repair``).

See ``docs/FORMAT.md`` for the byte layouts and ``docs/STORAGE.md`` for
the quarantine semantics of degraded reads.
"""

from repro.storage.dataset_dir import DatasetReader, write_dataset
from repro.storage.schema import Column, Schema
from repro.storage.tablefile import (
    ChunkMeta,
    ChunkZone,
    QuarantinedChunk,
    ScanReport,
    TableColumnReader,
    TableFileReader,
    TableFileWriter,
    file_format_version,
)
from repro.storage.errors import (
    CorruptFileError,
    CorruptRowGroupError,
    IntegrityError,
)
from repro.storage.integrity import crc32c
from repro.storage.verify import (
    DatasetVerifyReport,
    FileVerifyReport,
    RepairReport,
    repair_column_file,
    verify_column_file,
    verify_dataset,
    verify_path,
)
from repro.storage.serializer import (
    deserialize_rowgroup,
    serialize_rowgroup,
)

__all__ = [
    "ChunkMeta",
    "ChunkZone",
    "Column",
    "CorruptFileError",
    "CorruptRowGroupError",
    "DatasetReader",
    "DatasetVerifyReport",
    "FileVerifyReport",
    "IntegrityError",
    "QuarantinedChunk",
    "RepairReport",
    "ScanReport",
    "Schema",
    "TableColumnReader",
    "TableFileReader",
    "TableFileWriter",
    "crc32c",
    "deserialize_rowgroup",
    "file_format_version",
    "repair_column_file",
    "serialize_rowgroup",
    "verify_column_file",
    "verify_dataset",
    "verify_path",
    "write_dataset",
]
