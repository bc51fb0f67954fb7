"""Tests for vector-level zone maps and vector-granular scans."""

import math
import struct

import numpy as np
import pytest

from repro.core.compressor import decode_rowgroup_vector
from repro.data import get_dataset
from repro import api
from repro.storage.schema import INT64, STRING, Column, Schema
from repro.storage.tablefile import (
    ChunkZone,
    TableFileReader,
    TableFileWriter,
    _chunk_zone,
    _pack_bound,
    _vector_zones_typed,
    _zone_flags,
)


def _scan_vectors(reader, low, high):
    """``(row-group, vector, values)`` for every vector the zone maps
    keep for ``[low, high]``."""
    for rg, survivors, rowgroup in reader.iter_rowgroups_compressed((low, high)):
        for v in survivors:
            yield rg, v, decode_rowgroup_vector(rowgroup, v)


def _skippable_vectors(path, low, high):
    """Vectors the two zone-map levels eliminate together."""
    with TableFileReader(path) as reader:
        kept = sum(len(v) for _, v in reader.prune(0, (low, high)))
        return reader.vector_count(reader.column_names[0]) - kept


@pytest.fixture
def sorted_file(tmp_path):
    # Monotonically increasing data: every vector covers a disjoint range,
    # so range predicates isolate exactly the right vectors.
    values = np.round(np.linspace(0.0, 1000.0, 300_000), 2)
    path = tmp_path / "sorted.alpc"
    api.write(path, values)
    return path, values


class TestVectorZone:
    def test_range_test(self):
        zone = ChunkZone(
            min_value=10.0, max_value=20.0, has_non_finite=False, null_count=0
        )
        assert zone.may_contain_range(15.0, 16.0)
        assert zone.may_contain_range(0.0, 10.0)
        assert not zone.may_contain_range(20.1, 30.0)

    def test_non_finite_is_inconclusive(self):
        zone = ChunkZone(
            min_value=0.0, max_value=1.0, has_non_finite=True, null_count=0
        )
        assert zone.may_contain_range(1e9, 2e9)


class TestVectorGranularScan:
    def test_zone_maps_present(self, sorted_file):
        path, values = sorted_file
        reader = api.open(path)
        assert reader.vector_count == (values.size + 1023) // 1024
        for index, meta in enumerate(reader.metadata):
            rows = reader.rowgroup_rows(index)
            assert len(meta.vector_zones) == (rows + 1023) // 1024

    def test_narrow_range_touches_few_vectors(self, sorted_file):
        path, values = sorted_file
        reader = api.open(path)
        hits = list(_scan_vectors(reader, 500.0, 500.5))
        # ~0.05% selectivity on sorted data -> at most a couple of vectors.
        assert 1 <= len(hits) <= 3
        total_vectors = reader.vector_count
        skippable = _skippable_vectors(path, 500.0, 500.5)
        assert skippable == total_vectors - len(hits)

    def test_scan_finds_all_matches(self, sorted_file):
        path, values = sorted_file
        reader = api.open(path)
        low, high = 123.0, 456.0
        found = sum(
            int(((chunk >= low) & (chunk <= high)).sum())
            for _, _, chunk in _scan_vectors(reader, low, high)
        )
        expected = int(((values >= low) & (values <= high)).sum())
        assert found == expected

    def test_vector_decode_is_bit_exact(self, sorted_file):
        path, values = sorted_file
        reader = api.open(path)
        for rg_index, v_index, chunk in _scan_vectors(reader, 0.0, 5.0):
            start = rg_index * 102_400 + v_index * 1024
            expected = values[start : start + chunk.size]
            assert np.array_equal(
                chunk.view(np.uint64), expected.view(np.uint64)
            )

    def test_rd_rowgroups_scannable_per_vector(self, tmp_path):
        values = np.sort(get_dataset("POI-lat", n=120_000))
        path = tmp_path / "poi.alpc"
        api.write(path, values)
        reader = api.open(path)
        low = float(values[60_000])
        high = float(values[61_000])
        found = sum(
            int(((chunk >= low) & (chunk <= high)).sum())
            for _, _, chunk in _scan_vectors(reader, low, high)
        )
        expected = int(((values >= low) & (values <= high)).sum())
        assert found == expected
        assert _skippable_vectors(path, low, high) > 0

    def test_empty_range_skips_everything(self, sorted_file):
        path, _ = sorted_file
        reader = api.open(path)
        assert list(_scan_vectors(reader, 2000.0, 3000.0)) == []
        assert (
            _skippable_vectors(path, 2000.0, 3000.0)
            == reader.vector_count
        )

    def test_nan_vectors_never_skipped(self, tmp_path):
        values = np.round(np.linspace(0, 10, 4096), 2)
        values[2048] = math.nan
        path = tmp_path / "nan.alpc"
        api.write(path, values)
        reader = api.open(path)
        hits = [v for _, v, _ in _scan_vectors(reader, 1e8, 1e9)]
        assert hits == [2]  # only the NaN vector is inconclusive


def _per_vector_zones(column, values, validity, vector_size):
    """The unbatched oracle: one ``_chunk_zone`` call per vector."""
    zones = []
    for start in range(0, len(values), vector_size):
        stop = start + vector_size
        mask = None if validity is None else validity[start:stop]
        zones.append(_chunk_zone(column, values[start:stop], mask))
    return zones


#: The footer's per-vector zone entry: flags, raw min, raw max, nulls.
_VZONE_ENTRY = struct.Struct("<B8s8sI")


def _packed(column, zones):
    # Packed footer bytes, not ChunkZone ==: -0.0 == 0.0 would hide a
    # flipped sign on a zero bound.
    return [
        _VZONE_ENTRY.pack(
            _zone_flags(zone),
            _pack_bound(column, zone.min_value),
            _pack_bound(column, zone.max_value),
            zone.null_count,
        )
        for zone in zones
    ]


VS = 64


def _special_floats(n, seed):
    rng = np.random.default_rng(seed)
    pool = np.array(
        [math.nan, math.inf, -math.inf, -0.0, 0.0, 1.5, -2.25, 1e-310]
    )
    values = np.round(rng.normal(0, 10, n), 2)
    picks = rng.random(n) < 0.3
    values[picks] = rng.choice(pool, int(picks.sum()))
    return values


class TestBatchedZones:
    """Batched footer zones equal the per-vector ``_chunk_zone`` bytes."""

    def check(self, column, values, validity=None):
        batched = _vector_zones_typed(column, values, validity, VS)
        oracle = _per_vector_zones(column, values, validity, VS)
        assert _packed(column, batched) == _packed(column, oracle)
        return batched

    @pytest.mark.parametrize("n", [VS, 7 * VS, 7 * VS + 5, 3])
    def test_special_float_mix(self, n):
        self.check(Column("x"), _special_floats(n, n))

    def test_signed_zero_bounds(self):
        rows = [
            [-0.0, 0.0, 1.0],
            [0.0, -0.0, 1.0],
            [-1.0, 0.0, -0.0],
            [-1.0, -0.0, 0.0],
            [0.0, 0.0, 0.0],
            [-0.0, -0.0, -0.0],
            [-0.0, math.nan, 0.0],
        ]
        values = np.array(
            [row[i % len(row)] for row in rows for i in range(VS)]
        )
        zones = self.check(Column("x"), values)
        assert math.copysign(1.0, zones[5].min_value) == -1.0
        assert math.copysign(1.0, zones[4].max_value) == 1.0

    @pytest.mark.parametrize("seed", range(4))
    def test_signed_zero_min_among_non_finite(self, seed):
        # Zero minimums next to NaN/Inf: a matrix reduction over
        # Inf-filled rows can pick the other zero than the per-vector
        # reduction over the finite values does.
        pool = np.array([-0.0, 0.0, 0.0, 1.0, math.nan, math.inf])
        values = np.random.default_rng(seed).choice(pool, 16 * VS)
        self.check(Column("x"), values)

    def test_all_non_finite_vectors(self):
        values = np.concatenate(
            [
                np.full(VS, math.nan),
                np.full(VS, math.inf),
                np.tile([-math.inf, math.nan], VS // 2),
                np.arange(VS, dtype=np.float64),
            ]
        )
        zones = self.check(Column("x"), values)
        assert [z.min_value for z in zones[:3]] == [None, None, None]
        assert all(z.has_non_finite for z in zones[:3])

    def test_nullable_float(self):
        n = 5 * VS + 9
        values = _special_floats(n, 11)
        validity = np.random.default_rng(11).random(n) < 0.6
        validity[VS : 2 * VS] = False  # an all-null vector
        validity[2 * VS : 3 * VS] = True
        zones = self.check(Column("x", nullable=True), values, validity)
        assert zones[1] == ChunkZone(None, None, False, VS)

    def test_nullable_float_valid_values_all_non_finite(self):
        values = np.tile([math.nan, 1.0], VS // 2)
        validity = np.tile([True, False], VS // 2)
        (zone,) = self.check(Column("x", nullable=True), values, validity)
        assert zone == ChunkZone(None, None, True, VS // 2)

    def test_int64(self):
        rng = np.random.default_rng(5)
        values = rng.integers(-(2**62), 2**62, 4 * VS + 17, dtype=np.int64)
        values[3] = np.iinfo(np.int64).max
        values[VS + 1] = np.iinfo(np.int64).min
        self.check(Column("i", type=INT64), values)

    def test_nullable_int64(self):
        rng = np.random.default_rng(6)
        n = 4 * VS + 17
        values = rng.integers(-1000, 1000, n, dtype=np.int64)
        validity = rng.random(n) < 0.5
        validity[:VS] = False
        column = Column("i", type=INT64, nullable=True)
        zones = self.check(column, values, validity)
        assert zones[0] == ChunkZone(None, None, False, VS)

    def test_nullable_string(self):
        n = 3 * VS + 2
        values = np.array([f"s{i}" for i in range(n)], dtype=object)
        validity = np.arange(n) % 3 != 0
        self.check(Column("s", type=STRING, nullable=True), values, validity)

    def test_written_footer_matches_oracle(self, tmp_path):
        n = 3 * 1024 + 100
        values = _special_floats(n, 21)
        validity = np.random.default_rng(21).random(n) < 0.8
        schema = Schema((Column("x", nullable=True),))
        path = tmp_path / "zones.alpc"
        with TableFileWriter(path, schema) as writer:
            writer.write_rows({"x": values}, validity={"x": validity})
        with TableFileReader(path) as reader:
            written = reader.chunk_meta(0, "x").vector_zones
        oracle = _per_vector_zones(schema.columns[0], values, validity, 1024)
        column = schema.columns[0]
        assert _packed(column, written) == _packed(column, oracle)
