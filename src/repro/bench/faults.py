"""Storage fault-injection sweep: prove corruption is never silent.

``python -m repro.bench.faults`` writes a small multi-row-group v4
table (float, nullable int and string columns) and damages **every
section** of it — header, each (row-group, column) chunk, footer,
trailer — with single-bit flips at several positions plus truncations
at every section boundary.  ``python -m repro.bench.faults FILE...``
sweeps a temporary copy of each given ALPC file instead (any format
version), with the file's pristine read as the reference.  Each fault
is classified by what :class:`~repro.storage.tablefile.TableFileReader`
sees:

- ``detected`` — a typed :class:`~repro.storage.errors.IntegrityError`
  in strict mode, *and* (for chunk damage) the degraded reader
  quarantining exactly the damaged row-group while returning every
  other row bit-exactly;
- ``correct`` — the read still returns bit-identical values (possible
  only when the flip lands in dead bytes; checksums cover every
  section of v3/v4 files, so this does not happen there);
- ``silent-garbage`` — wrong values with no error and no quarantine
  report.  Any occurrence fails the sweep (exit code 1): it would mean
  the checksums have a hole.

The sweep is the machine-checkable form of the format's integrity
claim, and CI runs it on every push (the ``storage-fuzz`` job).
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
import tempfile
from dataclasses import dataclass

import numpy as np

from repro.storage.errors import IntegrityError
from repro.storage.schema import FLOAT64, INT64, STRING, Column, Schema
from repro.storage.tablefile import TableFileReader, TableFileWriter

#: Geometry small enough that the sweep runs in seconds but still has
#: several row-groups (so per-group quarantine is actually exercised).
FAULT_VECTOR_SIZE = 128
FAULT_ROWGROUP_VECTORS = 4
FAULT_VALUE_COUNT = 4 * FAULT_ROWGROUP_VECTORS * FAULT_VECTOR_SIZE

#: Relative positions probed inside each section by the bit-flip sweep.
FLIP_POSITIONS = (0.0, 0.25, 0.5, 0.75, 0.999)

#: A table read: ``(values, validity)`` as :meth:`TableFileReader.read_columns`
#: returns it.
TableRead = tuple[dict[str, np.ndarray], dict[str, np.ndarray]]


@dataclass(frozen=True)
class Section:
    """One contiguous byte range of the file with a format meaning."""

    name: str  # "header", "chunk[rg,column]", "footer", "trailer"
    offset: int
    length: int


@dataclass(frozen=True)
class FaultOutcome:
    """What one injected fault did to the read path."""

    section: str
    kind: str  # "bitflip" | "truncate"
    position: int
    outcome: str  # "detected" | "correct" | "silent-garbage"
    detail: str

    def as_dict(self) -> dict[str, object]:
        return {
            "section": self.section,
            "kind": self.kind,
            "position": self.position,
            "outcome": self.outcome,
            "detail": self.detail,
        }


def _make_table() -> TableRead:
    """The default sweep's table: float, nullable int, and string columns."""
    rng = np.random.default_rng(17)
    n = FAULT_VALUE_COUNT
    columns = {
        "f": np.round(np.cumsum(rng.normal(0, 0.2, n)) + 30.0, 2),
        "i": rng.integers(-50, 5000, n),
        "s": np.array(
            [f"tag-{int(v) % 7}" for v in rng.integers(0, 7, n)],
            dtype=object,
        ),
    }
    validity = {"i": rng.random(n) > 0.1}
    # Null slots decode to the codec fill value; pre-fill them so the
    # written table equals the expected read back, slot for slot.
    columns["i"][~validity["i"]] = 0
    return columns, validity


def write_fault_table(
    path: str,
    columns: dict[str, np.ndarray],
    validity: dict[str, np.ndarray],
) -> None:
    """Write the sweep's small multi-row-group v4 table file."""
    schema = Schema(
        (
            Column("f", FLOAT64),
            Column("i", INT64, nullable=True),
            Column("s", STRING),
        )
    )
    with TableFileWriter(
        path,
        schema,
        vector_size=FAULT_VECTOR_SIZE,
        rowgroup_vectors=FAULT_ROWGROUP_VECTORS,
    ) as writer:
        writer.write_rows(columns, validity=validity)


def enumerate_sections(path: str) -> list[Section]:
    """Name every byte range of an ALPC file, in file order."""
    file_size = os.path.getsize(path)
    with TableFileReader(path) as reader:
        sections = [Section("header", 0, reader.header_length)]
        for rg in range(reader.rowgroup_count):
            for name in reader.schema.names:
                meta = reader.chunk_meta(rg, name)
                sections.append(
                    Section(f"chunk[{rg},{name}]", meta.offset, meta.length)
                )
        sections.append(
            Section("footer", reader.footer_offset, reader.footer_length)
        )
        trailer_start = reader.footer_offset + reader.footer_length
        sections.append(
            Section("trailer", trailer_start, file_size - trailer_start)
        )
    return sections


def _column_equal(a: np.ndarray, b: np.ndarray) -> bool:
    if len(a) != len(b):
        return False
    if getattr(a, "dtype", None) is not None and a.dtype.kind == "f":
        return bool(
            np.array_equal(a.view(np.uint64), b.view(np.uint64))
        )
    if getattr(a, "dtype", None) is not None and a.dtype.kind == "O":
        return all(x == y for x, y in zip(a, b, strict=True))
    return bool(np.array_equal(a, b))


def _table_equal(got: TableRead, want: TableRead) -> bool:
    got_vals, got_valid = got
    want_vals, want_valid = want
    if set(got_vals) != set(want_vals) or set(got_valid) != set(want_valid):
        return False
    return all(
        _column_equal(got_vals[k], want_vals[k]) for k in want_vals
    ) and all(
        np.array_equal(got_valid[k], want_valid[k]) for k in want_valid
    )


def _minus_rowgroups(
    reference: TableRead, rows: list[int], dropped: set[int]
) -> TableRead:
    """The table minus whole row-groups (the quarantine unit: a corrupt
    chunk removes its row-group's *rows* from every column)."""
    bounds = np.cumsum([0, *rows])
    keep = [
        slice(int(bounds[rg]), int(bounds[rg + 1]))
        for rg in range(len(rows))
        if rg not in dropped
    ]

    def cut(arr: np.ndarray) -> np.ndarray:
        if not keep:
            return arr[:0]
        return np.concatenate([arr[s] for s in keep])

    values, validity = reference
    return (
        {k: cut(v) for k, v in values.items()},
        {k: cut(v) for k, v in validity.items()},
    )


def _classify_read(
    path: str, reference: TableRead, rows: list[int], section: Section
) -> tuple[str, str]:
    """Read a damaged file strictly and degraded; classify the outcome."""
    # Strict read: the only acceptable results are a typed integrity
    # error or bit-identical values.
    try:
        with TableFileReader(path) as reader:
            restored = reader.read_columns()
    except IntegrityError as exc:
        strict = ("detected", f"strict: {type(exc).__name__}")
    else:
        if not _table_equal(restored, reference):
            return (
                "silent-garbage",
                "strict read returned wrong values without raising",
            )
        strict = ("correct", "strict: bit-identical")

    # Degraded read over chunk damage must additionally keep every
    # *other* row and report the quarantine; header/footer/trailer
    # damage has no payload to salvage, so a typed error is the answer.
    if not section.name.startswith("chunk"):
        return strict
    try:
        with TableFileReader(path, degraded=True) as reader:
            restored = reader.read_columns()
            report = reader.scan_report()
    except IntegrityError as exc:
        return ("detected", f"degraded: {type(exc).__name__}")
    if strict[0] == "correct":
        return strict
    if report.chunks_quarantined == 0:
        return (
            "silent-garbage",
            "degraded read reported nothing for a damaged chunk",
        )
    dropped = {q.rowgroup for q in report.quarantined}
    if not _table_equal(restored, _minus_rowgroups(reference, rows, dropped)):
        return (
            "silent-garbage",
            "degraded read damaged values outside the quarantined row-group",
        )
    return (
        "detected",
        f"degraded: quarantined {report.chunks_quarantined} chunk(s) "
        f"({len(dropped)} row-group(s) of rows), rest bit-identical",
    )


def _strict_truncated_read(
    path: str, reference: TableRead
) -> tuple[str, str]:
    try:
        with TableFileReader(path) as reader:
            restored = reader.read_columns()
    except IntegrityError as exc:
        return "detected", f"strict: {type(exc).__name__}"
    if _table_equal(restored, reference):
        return "correct", "strict: bit-identical"
    return "silent-garbage", "truncated file read back wrong values"


def sweep_file(path: str, reference: TableRead) -> list[FaultOutcome]:
    """Bit-flip every section of ``path``, then truncate it at every
    section boundary; the file is restored afterwards."""
    sections = enumerate_sections(path)
    with TableFileReader(path) as reader:
        rows = [reader.rowgroup_rows(rg) for rg in range(reader.rowgroup_count)]
    with open(path, "rb") as handle:
        pristine = handle.read()
    outcomes = []
    try:
        for section in sections:
            if section.length == 0:
                continue
            for rel in FLIP_POSITIONS:
                pos = section.offset + min(
                    int(section.length * rel), section.length - 1
                )
                damaged = bytearray(pristine)
                damaged[pos] ^= 0x10
                with open(path, "wb") as handle:
                    handle.write(damaged)
                outcome, detail = _classify_read(path, reference, rows, section)
                outcomes.append(
                    FaultOutcome(section.name, "bitflip", pos, outcome, detail)
                )
        cut_points = sorted(
            {s.offset for s in sections}
            | {s.offset + s.length for s in sections}
            | {len(pristine) - 1}
        )
        for cut in cut_points:
            if cut >= len(pristine):
                continue
            with open(path, "wb") as handle:
                handle.write(pristine[:cut])
            outcome, detail = _strict_truncated_read(path, reference)
            outcomes.append(FaultOutcome("file", "truncate", cut, outcome, detail))
    finally:
        with open(path, "wb") as handle:
            handle.write(pristine)
    return outcomes


def run_fault_sweep(
    directory: str | None = None, paths: "list[str] | tuple[str, ...]" = ()
) -> list[FaultOutcome]:
    """Sweep the default v4 table, or a temp copy of each of ``paths``;
    returns every outcome (callers check for garbage)."""
    outcomes: list[FaultOutcome] = []
    with tempfile.TemporaryDirectory(dir=directory) as tmp:
        if not paths:
            reference = _make_table()
            path = os.path.join(tmp, "faults.alpc")
            write_fault_table(path, *reference)
            return sweep_file(path, reference)
        for i, source in enumerate(paths):
            # One directory per copy keeps the file name, and with it
            # the column name of a v2/v3 file.
            os.mkdir(os.path.join(tmp, str(i)))
            path = os.path.join(tmp, str(i), os.path.basename(source))
            shutil.copyfile(source, path)
            with TableFileReader(path) as reader:
                reference = reader.read_columns()
            outcomes += sweep_file(path, reference)
    return outcomes


def main(argv: list[str] | None = None) -> int:
    """Run the sweep; exit 1 on any silent-garbage outcome."""
    parser = argparse.ArgumentParser(
        prog="python -m repro.bench.faults",
        description="storage fault-injection sweep over every file section",
    )
    parser.add_argument(
        "paths",
        nargs="*",
        help="ALPC files to sweep (a temp copy each); default: a fresh "
        "multi-column v4 table",
    )
    parser.add_argument(
        "--json", action="store_true", help="emit outcomes as JSON"
    )
    args = parser.parse_args(argv)
    outcomes = run_fault_sweep(paths=args.paths)
    garbage = [o for o in outcomes if o.outcome == "silent-garbage"]
    if args.json:
        print(
            json.dumps(
                {
                    "total": len(outcomes),
                    "silent_garbage": len(garbage),
                    "outcomes": [o.as_dict() for o in outcomes],
                },
                indent=2,
            )
        )
    else:
        detected = sum(1 for o in outcomes if o.outcome == "detected")
        correct = sum(1 for o in outcomes if o.outcome == "correct")
        print(
            f"fault sweep: {len(outcomes)} faults injected — "
            f"{detected} detected, {correct} still-correct, "
            f"{len(garbage)} silent-garbage"
        )
        for item in garbage:
            print(
                f"  SILENT GARBAGE: {item.section} {item.kind} "
                f"@{item.position}: {item.detail}"
            )
    return 1 if garbage else 0


if __name__ == "__main__":
    sys.exit(main())
