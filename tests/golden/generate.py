"""Deterministically (re)generate the checked-in golden ALPC files.

The golden files pin the on-disk byte layout of every format
generation the reader must keep accepting:

- ``golden_v2.alpc`` — the pre-checksum single-column layout
- ``golden_v3.alpc`` — single column with CRC32C integrity
- ``golden_v4.alpc`` — schema-described multi-column table (nullable
  int, string dictionary, float) at a small row-group geometry

v2 and v3 are read-only formats: nothing writes them any more, so their
goldens are frozen fixtures (written at ``VECTOR_SIZE`` values per
vector, ``ROWGROUP_VECTORS`` vectors per row-group).  Only the v4 golden
is regenerated here.

The *expected values* are not stored next to the files: they are
re-derived here from fixed PCG64 seeds using only stream-stable
generator methods (``random``/``integers``), so the compat test in
``tests/test_golden_compat.py`` imports this module and compares the
checked-in bytes against freshly computed arrays.

Regenerate (only when deliberately re-pinning a generation) with::

    PYTHONPATH=src python -m tests.golden.generate
"""

from __future__ import annotations

import pathlib

import numpy as np

GOLDEN_DIR = pathlib.Path(__file__).resolve().parent

N_ROWS = 4_096
VECTOR_SIZE = 256
ROWGROUP_VECTORS = 2


def single_column_values() -> np.ndarray:
    """The float column stored in the (frozen) v2 and v3 goldens."""
    rng = np.random.default_rng(0xA1B2)
    # Two decimal places keeps the ALP path exercised.
    return np.round(rng.random(N_ROWS) * 200.0 - 100.0, 2)


def table_arrays() -> tuple[dict[str, np.ndarray], dict[str, np.ndarray]]:
    """Columns and validity stored in the v4 golden."""
    rng = np.random.default_rng(0xC3D4)
    f = np.round(np.cumsum(rng.random(N_ROWS) + 0.5), 2)
    i = rng.integers(-1_000_000, 1_000_000, N_ROWS)
    s = np.array(
        [f"city-{int(k) % 17:02d}" for k in rng.integers(0, 17, N_ROWS)],
        dtype=object,
    )
    validity = {"i": rng.random(N_ROWS) > 0.15}
    # Null slots decode to the codec fill value; store that fill so
    # the expected arrays match the round-trip exactly.
    i[~validity["i"]] = 0
    return {"f": f, "i": i, "s": s}, validity


def main() -> None:
    from repro.storage.schema import INT64, STRING, Column, Schema
    from repro.storage.tablefile import TableFileWriter

    columns, validity = table_arrays()
    schema = Schema(
        (
            Column("f"),
            Column("i", INT64, nullable=True),
            Column("s", STRING),
        )
    )
    path = GOLDEN_DIR / "golden_v4.alpc"
    with TableFileWriter(
        path,
        schema,
        vector_size=VECTOR_SIZE,
        rowgroup_vectors=ROWGROUP_VECTORS,
    ) as writer:
        writer.write_rows(columns, validity=validity)
    print(f"wrote {path} ({path.stat().st_size} bytes)")


if __name__ == "__main__":
    main()
