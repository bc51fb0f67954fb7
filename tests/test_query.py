"""Tests for the vectorized query engine."""

import numpy as np
import pytest

from repro.data import get_dataset
from repro.query.engine import (
    aggregate,
    comp_query,
    range_count_query_decoded,
    range_sum_query,
    range_sum_query_decoded,
    run_partitioned,
    scan_query,
    sum_query,
)
from repro.query.sources import (
    BlockCodecSource,
    UncompressedSource,
    make_source,
)


@pytest.fixture(scope="module")
def city_temp():
    return get_dataset("City-Temp", n=50_000)


class TestSources:
    def test_uncompressed_vectors(self, city_temp):
        source = UncompressedSource(city_temp)
        vectors = list(source.vectors())
        assert sum(v.size for v in vectors) == city_temp.size
        assert all(v.size <= 1024 for v in vectors)
        assert np.array_equal(np.concatenate(vectors), city_temp)

    def test_alp_source_bit_exact(self, city_temp):
        source = make_source("alp", city_temp)
        rebuilt = np.concatenate(list(source.vectors()))
        assert np.array_equal(
            rebuilt.view(np.uint64), city_temp.view(np.uint64)
        )
        assert source.compressed_bits > 0

    @pytest.mark.parametrize("codec", ["gorilla", "patas", "pde"])
    def test_per_vector_sources(self, city_temp, codec):
        values = city_temp[:10_240]
        source = make_source(codec, values)
        rebuilt = np.concatenate(list(source.vectors()))
        assert np.array_equal(
            rebuilt.view(np.uint64), values.view(np.uint64)
        )

    def test_block_source_gp(self, city_temp):
        source = make_source("zlib(gp)", city_temp)
        assert isinstance(source, BlockCodecSource)
        rebuilt = np.concatenate(list(source.vectors()))
        assert np.array_equal(
            rebuilt.view(np.uint64), city_temp.view(np.uint64)
        )

    def test_partitions_cover_everything(self, city_temp):
        source = make_source("alp", city_temp)
        parts = source.partition(4)
        total = sum(p.value_count for p in parts)
        assert total == city_temp.size
        rebuilt = np.concatenate(
            [np.concatenate(list(p.vectors())) for p in parts]
        )
        assert np.array_equal(
            rebuilt.view(np.uint64), city_temp.view(np.uint64)
        )

    def test_partition_more_than_rowgroups(self, city_temp):
        source = make_source("alp", city_temp[:2048])
        parts = source.partition(8)
        assert 1 <= len(parts) <= 8


class TestOperators:
    def test_scan_counts(self, city_temp):
        scanned = scan_query(UncompressedSource(city_temp))
        assert scanned == city_temp.size

    def test_sum_matches_numpy(self, city_temp):
        total = sum_query(make_source("alp", city_temp))
        assert total == pytest.approx(float(city_temp.sum()), rel=1e-9)

    def test_sum_on_baseline_source(self, city_temp):
        values = city_temp[:8192]
        total = sum_query(make_source("chimp", values))
        assert total == pytest.approx(float(values.sum()), rel=1e-9)

    def test_filter_range(self, city_temp):
        source = UncompressedSource(city_temp)
        expected = city_temp[(city_temp >= 50.0) & (city_temp <= 60.0)]
        assert range_count_query_decoded(source, 50.0, 60.0) == expected.size
        total, count = range_sum_query_decoded(source, 50.0, 60.0)
        assert count == expected.size
        assert total == pytest.approx(float(expected.sum()), rel=1e-12)

    def test_filter_empty_result(self, city_temp):
        source = UncompressedSource(city_temp)
        assert range_count_query_decoded(source, 1e9, 2e9) == 0
        assert range_sum_query_decoded(source, 1e9, 2e9) == (0.0, 0)
        assert range_sum_query(make_source("alp", city_temp), 1e9, 2e9) == (
            0.0,
            0,
        )

    def test_aggregates(self, city_temp):
        for kind, expected in (
            ("count", city_temp.size),
            ("min", float(city_temp.min())),
            ("max", float(city_temp.max())),
        ):
            vectors = UncompressedSource(city_temp).vectors()
            assert aggregate(vectors, kind) == pytest.approx(expected)
        assert aggregate(iter(()), "min") == np.inf
        assert aggregate(iter(()), "max") == -np.inf

    def test_unknown_aggregate(self):
        with pytest.raises(ValueError):
            aggregate(UncompressedSource(np.zeros(4)).vectors(), "avg")

    def test_filter_then_sum_pipeline(self, city_temp):
        source = make_source("alp", city_temp)
        mask = (city_temp >= 0.0) & (city_temp <= 50.0)
        expected = float(city_temp[mask].sum())
        for total, count in (
            range_sum_query(source, 0.0, 50.0),
            range_sum_query_decoded(source, 0.0, 50.0),
        ):
            assert count == int(mask.sum())
            assert total == pytest.approx(expected, rel=1e-9)


class TestEngine:
    def test_comp_query_alp_serialized(self, city_temp):
        bits = comp_query("alp", city_temp)
        assert 0 < bits < city_temp.size * 64

    def test_comp_query_baseline(self, city_temp):
        bits = comp_query("patas", city_temp[:8192])
        assert bits > 0

    def test_partitioned_sum_matches_serial(self, city_temp):
        source = make_source("alp", city_temp)
        parts = run_partitioned(source, sum_query, threads=2)
        assert sum(parts) == pytest.approx(float(city_temp.sum()), rel=1e-9)

    def test_partitioned_scan_counts(self, city_temp):
        source = make_source("uncompressed", city_temp)
        parts = run_partitioned(source, scan_query, threads=4)
        assert sum(parts) == city_temp.size
