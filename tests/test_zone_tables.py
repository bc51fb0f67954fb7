"""Footer zone tables: array pruning parity and mmap lifetime.

The reader keeps each chunk's vector zone maps as one record array
copied off the footer, and ``TableFileReader.prune`` masks it in one
expression.  Its survivors must equal the ``ChunkZone.may_contain_range``
walk, and the tables must not pin a mapped file.
"""

from __future__ import annotations

import math
import struct

import numpy as np
import pytest

from repro.storage.schema import INT64, STRING, Column, Schema
from repro.storage.tablefile import (
    MMAP_MIN_BYTES,
    TableFileReader,
    TableFileWriter,
    _pack_bound,
    _vector_zones_typed,
    _zone_flags,
    _zone_table,
)

VS = 256
ROWS = 16 * VS + 37
INT_MIN, INT_MAX = np.iinfo(np.int64).min, np.iinfo(np.int64).max


def _columns() -> tuple[dict[str, np.ndarray], dict[str, np.ndarray]]:
    rng = np.random.default_rng(17)
    floats = np.round(rng.normal(0, 100, ROWS), 2)
    floats[VS : 2 * VS] = np.nan  # a vector with no finite value
    floats[3 * VS + 5] = math.inf  # non-finite among finite
    floats[4 * VS : 5 * VS] = -0.0
    ints = rng.integers(-(2**62), 2**62, ROWS, dtype=np.int64)
    ints[2 * VS : 3 * VS] = INT_MAX - rng.integers(0, 1000, VS)
    ints[5 * VS : 6 * VS] = INT_MIN + rng.integers(0, 1000, VS)
    nullable = np.round(rng.normal(0, 10, ROWS), 1)
    validity = rng.random(ROWS) < 0.7
    validity[6 * VS : 7 * VS] = False  # an all-null vector
    strings = np.array([f"s{i % 5}" for i in range(ROWS)], dtype=object)
    values = {"f": floats, "i": ints, "n": nullable, "ni": ints, "s": strings}
    masks = {"n": validity, "ni": validity}
    return values, masks


SCHEMA = Schema(
    (
        Column("f"),
        Column("i", type=INT64),
        Column("n", nullable=True),
        Column("ni", type=INT64, nullable=True),
        Column("s", type=STRING),
    )
)


@pytest.fixture(scope="module")
def table(tmp_path_factory: pytest.TempPathFactory):
    values, masks = _columns()
    path = tmp_path_factory.mktemp("zones") / "zones.alpc"
    with TableFileWriter(
        path, SCHEMA, vector_size=VS, rowgroup_vectors=5
    ) as writer:
        writer.write_rows(values, validity=masks)
    return path, values, masks


def _walk(reader: TableFileReader, ci: int, low: float, high: float):
    """The ChunkZone oracle of ``prune``."""
    name = reader.schema.columns[ci].name
    out = []
    for rg in range(reader.rowgroup_count):
        meta = reader.chunk_meta(rg, name)
        if not meta.zone.may_contain_range(low, high):
            continue
        survivors = [
            v
            for v, zone in enumerate(meta.vector_zones)
            if zone.may_contain_range(low, high)
        ]
        if survivors:
            out.append((rg, survivors))
    return out


def _pruned(reader: TableFileReader, ci: int, low: float, high: float):
    return [(rg, list(s)) for rg, s in reader.prune(ci, (low, high))]


def _bounds(rng: np.random.Generator, column: str) -> list[tuple[float, ...]]:
    special = [
        (-math.inf, math.inf),
        (math.inf, math.inf),
        (-math.inf, -math.inf),
        (math.nan, 1.0),
        (0.0, math.nan),
        (-0.0, 0.0),
        (1.0, -1.0),
    ]
    if column in ("i", "ni"):
        edge = float(INT_MAX)
        special += [
            (edge - 4096.0, edge),
            (edge, math.inf),
            (float(INT_MIN), float(INT_MIN) + 4096.0),
            (-1e30, float(INT_MIN)),
            (1e30, 2e30),
            (0.5, 0.75),
        ]
        scale = 2.0**62
    else:
        scale = 150.0
    drawn = rng.uniform(-scale, scale, (60, 2))
    drawn.sort(axis=1)
    return special + [(float(lo), float(hi)) for lo, hi in drawn]


@pytest.mark.parametrize("column", ["f", "i", "n", "ni", "s"])
def test_prune_matches_the_zone_walk(table, column):
    path, _, _ = table
    rng = np.random.default_rng(sum(map(ord, column)))
    with TableFileReader(path) as reader:
        ci = reader.schema.index(column)
        for low, high in _bounds(rng, column):
            assert _pruned(reader, ci, low, high) == _walk(
                reader, ci, low, high
            ), (column, low, high)
        assert [rg for rg, _ in reader.prune(ci, None)] == list(
            range(reader.rowgroup_count)
        )


def test_prune_prunes_something(table):
    path, _, _ = table
    with TableFileReader(path) as reader:
        survivors = _pruned(reader, reader.schema.index("f"), 90.0, 95.0)
        kept = sum(len(s) for _, s in survivors)
        assert 0 < kept < reader.vector_count("f")


def _packed(column, zones):
    entry = struct.Struct("<B8s8sI")
    return b"".join(
        entry.pack(
            _zone_flags(zone),
            _pack_bound(column, zone.min_value),
            _pack_bound(column, zone.max_value),
            zone.null_count,
        )
        for zone in zones
    )


@pytest.mark.parametrize("column", ["f", "i", "n", "ni", "s"])
def test_vector_zones_match_the_writer(table, column):
    path, values, masks = table
    col = SCHEMA.column(column)
    rows = VS * 5
    with TableFileReader(path) as reader:
        for rg in range(reader.rowgroup_count):
            span = slice(rg * rows, (rg + 1) * rows)
            mask = masks.get(column)
            mask = None if mask is None else mask[span]
            expected = _vector_zones_typed(col, values[column][span], mask, VS)
            read = reader.chunk_meta(rg, column).vector_zones
            # Packed bytes, so a flipped zero sign would show.
            assert _packed(col, read) == _packed(col, expected)
            assert read == expected
            table = _zone_table(col, expected)
            assert table.tobytes() == _packed(col, expected)


def test_mmap_reader_closes_after_prune(table):
    path, _, _ = table
    assert path.stat().st_size >= MMAP_MIN_BYTES
    reader = TableFileReader(path, mmap=True)
    assert reader.mapped
    for ci in range(len(reader.schema)):
        list(reader.prune(ci, (0.0, 10.0)))
    zones = reader.chunk_meta(0, "f").zone_table
    reader.close()  # the footer tables hold no view of the map
    assert reader.closed
    assert zones.size == 5 and zones.flags.owndata
