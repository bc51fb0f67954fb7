"""Integrity walking and repair for ALPC files and dataset directories.

:func:`verify_column_file` checks every section of one file — magic,
header, footer, and each (row-group, column) chunk — and returns a
structured :class:`FileVerifyReport` (JSON-able via ``as_dict``) naming
each bad section with its offset and reason.  :func:`verify_dataset`
walks an ``alpc-dataset`` directory, manifest included.
:func:`verify_path` dispatches on what the path is; the ``alp-repro
verify`` CLI is a thin wrapper over it.

:func:`repair_column_file` rewrites a damaged file keeping every intact
row-group: chunk bytes are copied verbatim (no recompression), zone
maps are carried over, and checksums are recomputed, so the output is
always a clean v4 file (a v2/v3 source's row-group payloads are copied
into float chunk frames).
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from pathlib import Path

from repro import obs
from repro.storage.errors import CorruptFileError, IntegrityError
from repro.storage.tablefile import (
    CODEC_FLOAT_ROWGROUP,
    FORMAT_VERSION_V4,
    TableFileReader,
    TableFileWriter,
    chunk_frame,
)


@dataclass(frozen=True)
class SectionReport:
    """Verification result of one file section.

    ``column`` is set for v4 ``chunk`` sections (one chunk per
    row-group × column); single-column sections leave it ``None``.
    """

    section: str  # "file", "header", "footer", "rowgroup", "chunk"
    index: int | None
    offset: int
    length: int
    ok: bool
    error: str | None = None
    column: str | None = None

    def as_dict(self) -> dict[str, object]:
        return {
            "section": self.section,
            "index": self.index,
            "offset": self.offset,
            "length": self.length,
            "ok": self.ok,
            "error": self.error,
            "column": self.column,
        }


@dataclass(frozen=True)
class FileVerifyReport:
    """Every section of one file, verified."""

    path: str
    format_version: int | None
    checksummed: bool
    ok: bool
    sections: tuple[SectionReport, ...]

    @property
    def bad_sections(self) -> tuple[SectionReport, ...]:
        return tuple(s for s in self.sections if not s.ok)

    def as_dict(self) -> dict[str, object]:
        return {
            "path": self.path,
            "format_version": self.format_version,
            "checksummed": self.checksummed,
            "ok": self.ok,
            "sections": [s.as_dict() for s in self.sections],
        }


@dataclass(frozen=True)
class DatasetVerifyReport:
    """Per-column verification of an alpc-dataset directory."""

    path: str
    ok: bool
    manifest_error: str | None
    files: tuple[FileVerifyReport, ...]

    def as_dict(self) -> dict[str, object]:
        return {
            "path": self.path,
            "ok": self.ok,
            "manifest_error": self.manifest_error,
            "files": [f.as_dict() for f in self.files],
        }


@dataclass(frozen=True)
class RepairReport:
    """Outcome of rewriting a file around its corrupt sections."""

    source: str
    destination: str
    rowgroups_kept: int
    rowgroups_dropped: int
    values_kept: int
    values_dropped: int
    dropped: tuple[dict[str, object], ...]

    def as_dict(self) -> dict[str, object]:
        return {
            "source": self.source,
            "destination": self.destination,
            "rowgroups_kept": self.rowgroups_kept,
            "rowgroups_dropped": self.rowgroups_dropped,
            "values_kept": self.values_kept,
            "values_dropped": self.values_dropped,
            "dropped": list(self.dropped),
        }


def verify_column_file(path: str | os.PathLike) -> FileVerifyReport:
    """Walk every section of one ALPC file (v2-v4) and report its integrity.

    Never raises on corruption — damage is *reported*.  (Missing files
    still raise ``OSError``: that is an environment problem, not a
    corrupt input.)
    """
    path_str = os.fspath(path)
    with obs.span("tablefile.verify"):
        try:
            reader = TableFileReader(path_str, degraded=True)
        except CorruptFileError as exc:
            section = SectionReport(
                section="file",
                index=None,
                offset=0,
                length=os.path.getsize(path_str),
                ok=False,
                error=exc.reason,
            )
            return FileVerifyReport(
                path=path_str,
                format_version=None,
                checksummed=False,
                ok=False,
                sections=(section,),
            )
        with reader:
            sections = [
                SectionReport(
                    section="header",
                    index=None,
                    offset=0,
                    length=reader.header_length,
                    ok=True,
                ),
                SectionReport(
                    section="footer",
                    index=None,
                    offset=reader.footer_offset,
                    length=reader.footer_length,
                    ok=True,
                ),
            ]
            for index in range(reader.rowgroup_count):
                for column in reader.column_names:
                    meta = reader.chunk_meta(index, column)
                    err = _chunk_damage(reader, index, column)
                    sections.append(
                        SectionReport(
                            section="chunk",
                            index=index,
                            offset=meta.offset,
                            length=meta.length,
                            ok=err is None,
                            error=getattr(err, "reason", None),
                            column=column,
                        )
                    )
            return FileVerifyReport(
                path=path_str,
                format_version=reader.format_version,
                checksummed=reader.checksummed,
                ok=all(s.ok for s in sections),
                sections=tuple(sections),
            )


def _chunk_damage(
    reader: TableFileReader, index: int, column: str
) -> IntegrityError | None:
    """The damage of one chunk, or ``None`` when it checks and decodes.

    Checksums catch bit-flips; the decode pass additionally catches
    framing damage (and is the only check v2 files have).
    """
    err: IntegrityError | None = reader.check_chunk(index, column)
    if err is None:
        try:
            reader.read_chunk(index, column)
        except IntegrityError as exc:
            err = exc
    return err


def verify_dataset(directory: str | os.PathLike) -> DatasetVerifyReport:
    """Verify every column file of an alpc-dataset directory."""
    import json

    path = Path(directory)
    manifest_path = path / "manifest.json"
    try:
        manifest = json.loads(manifest_path.read_text())
        files = dict(manifest["columns"])
    except (OSError, ValueError, KeyError, TypeError) as exc:
        return DatasetVerifyReport(
            path=str(path),
            ok=False,
            manifest_error=f"manifest unreadable: {exc}",
            files=(),
        )
    reports = []
    for filename in files.values():
        column_path = path / filename
        if not column_path.exists():
            reports.append(
                FileVerifyReport(
                    path=str(column_path),
                    format_version=None,
                    checksummed=False,
                    ok=False,
                    sections=(
                        SectionReport(
                            section="file",
                            index=None,
                            offset=0,
                            length=0,
                            ok=False,
                            error="column file listed in manifest is missing",
                        ),
                    ),
                )
            )
            continue
        reports.append(verify_column_file(column_path))
    return DatasetVerifyReport(
        path=str(path),
        ok=all(r.ok for r in reports),
        manifest_error=None,
        files=tuple(reports),
    )


def verify_path(
    path: str | os.PathLike,
) -> FileVerifyReport | DatasetVerifyReport:
    """Verify a single ALPC file or a dataset directory, whichever it is."""
    if os.path.isdir(path):
        return verify_dataset(path)
    return verify_column_file(path)


def repair_column_file(
    source: str | os.PathLike, destination: str | os.PathLike
) -> RepairReport:
    """Rewrite ``source`` into ``destination`` keeping intact row-groups.

    A row-group is all-or-nothing: dropping one column's chunk while
    keeping its siblings would misalign rows across columns, so a
    single corrupt chunk drops the whole row-group (itemized with the
    offending column).  Intact chunk bytes are copied verbatim; zone
    maps are carried over and checksums recomputed.  The output is a
    clean v4 file — repairing a v2/v3 file upgrades it, each row-group
    payload copied into a float chunk frame.  Raises
    :class:`CorruptFileError` when the source's header or footer is
    damaged: without the footer there is nothing to salvage from.
    """
    src = os.fspath(source)
    dst = os.fspath(destination)
    if os.path.abspath(src) == os.path.abspath(dst):
        raise ValueError("repair cannot rewrite a file onto itself")
    dropped: list[dict[str, object]] = []
    kept = values_kept = values_dropped = 0
    with TableFileReader(src, degraded=True) as reader, TableFileWriter(
        dst, reader.schema, vector_size=reader.vector_size
    ) as writer:
        for index in range(reader.rowgroup_count):
            n_rows = reader.rowgroup_rows(index)
            damage = [
                (column, err)
                for column in reader.column_names
                if (err := _chunk_damage(reader, index, column)) is not None
            ]
            if damage:
                column, err = damage[0]
                meta = reader.chunk_meta(index, column)
                dropped.append(
                    {
                        "index": index,
                        "column": column,
                        "offset": meta.offset,
                        "length": meta.length,
                        "count": n_rows,
                        "reason": getattr(err, "reason", str(err)),
                    }
                )
                values_dropped += n_rows
                continue
            chunks = []
            for column in reader.column_names:
                raw = reader.chunk_payload(index, column)
                if reader.format_version < FORMAT_VERSION_V4:
                    raw = chunk_frame(CODEC_FLOAT_ROWGROUP, raw)
                chunks.append((raw, reader.chunk_meta(index, column)))
            writer.append_chunks(n_rows, chunks)
            kept += 1
            values_kept += n_rows
    return RepairReport(
        source=src,
        destination=dst,
        rowgroups_kept=kept,
        rowgroups_dropped=len(dropped),
        values_kept=values_kept,
        values_dropped=values_dropped,
        dropped=tuple(dropped),
    )
