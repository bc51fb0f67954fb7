"""Tests for vector-level zone maps and vector-granular scans."""

import math

import numpy as np
import pytest

from repro.data import get_dataset
from repro import api
from repro.storage.tablefile import ChunkZone


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
        hits = list(reader.scan_range_vectors(500.0, 500.5))
        # ~0.05% selectivity on sorted data -> at most a couple of vectors.
        assert 1 <= len(hits) <= 3
        total_vectors = reader.vector_count
        skippable = reader.count_skippable_vectors(500.0, 500.5)
        assert skippable == total_vectors - len(hits)

    def test_scan_finds_all_matches(self, sorted_file):
        path, values = sorted_file
        reader = api.open(path)
        low, high = 123.0, 456.0
        found = sum(
            int(((chunk >= low) & (chunk <= high)).sum())
            for _, _, chunk in reader.scan_range_vectors(low, high)
        )
        expected = int(((values >= low) & (values <= high)).sum())
        assert found == expected

    def test_vector_decode_is_bit_exact(self, sorted_file):
        path, values = sorted_file
        reader = api.open(path)
        for rg_index, v_index, chunk in reader.scan_range_vectors(0.0, 5.0):
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
            for _, _, chunk in reader.scan_range_vectors(low, high)
        )
        expected = int(((values >= low) & (values <= high)).sum())
        assert found == expected
        assert reader.count_skippable_vectors(low, high) > 0

    def test_empty_range_skips_everything(self, sorted_file):
        path, _ = sorted_file
        reader = api.open(path)
        assert list(reader.scan_range_vectors(2000.0, 3000.0)) == []
        assert (
            reader.count_skippable_vectors(2000.0, 3000.0)
            == reader.vector_count
        )

    def test_nan_vectors_never_skipped(self, tmp_path):
        values = np.round(np.linspace(0, 10, 4096), 2)
        values[2048] = math.nan
        path = tmp_path / "nan.alpc"
        api.write(path, values)
        reader = api.open(path)
        hits = [v for _, v, _ in reader.scan_range_vectors(1e8, 1e9)]
        assert hits == [2]  # only the NaN vector is inconclusive
