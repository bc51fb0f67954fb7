"""Tests for serialization and one-column ALPC files."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.compressor import compress_rowgroup, decompress
from repro.data import get_dataset
from repro import api
from repro.storage.schema import Column, Schema
from repro.storage.tablefile import TableFileReader, TableFileWriter
from repro.storage.serializer import deserialize_rowgroup, serialize_rowgroup


def _skippable_rowgroups(path, low, high):
    """Row-groups the zone-map walk eliminates for ``[low, high]``."""
    with TableFileReader(path) as reader:
        kept = sum(1 for _ in reader.prune(0, (low, high)))
        return reader.rowgroup_count - kept


def bitwise_equal(a, b):
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    return a.shape == b.shape and np.array_equal(
        a.view(np.uint64), b.view(np.uint64)
    )


def _roundtrip_rowgroup(values):
    rowgroup, _, _ = compress_rowgroup(np.asarray(values, dtype=np.float64))
    payload = serialize_rowgroup(rowgroup)
    restored, consumed = deserialize_rowgroup(payload)
    assert consumed == len(payload)
    return rowgroup, restored


class TestSerializer:
    def test_alp_rowgroup_roundtrip(self):
        rng = np.random.default_rng(0)
        values = np.round(rng.uniform(0, 100, 5000), 2)
        original, restored = _roundtrip_rowgroup(values)
        assert restored.scheme == "alp"
        from repro.core.compressor import CompressedRowGroups
        from repro.storage.serializer import empty_stats

        col = CompressedRowGroups(
            rowgroups=(restored,),
            count=restored.count,
            vector_size=1024,
            stats=empty_stats(),
        )
        assert bitwise_equal(decompress(col), values)

    def test_alprd_rowgroup_roundtrip(self):
        rng = np.random.default_rng(1)
        values = rng.uniform(0, 1, 4096) * math.pi
        original, restored = _roundtrip_rowgroup(values)
        assert restored.scheme == "alprd"
        from repro.core.compressor import CompressedRowGroups
        from repro.storage.serializer import empty_stats

        col = CompressedRowGroups(
            rowgroups=(restored,),
            count=restored.count,
            vector_size=1024,
            stats=empty_stats(),
        )
        assert bitwise_equal(decompress(col), values)

    def test_exceptions_survive(self):
        values = np.round(np.linspace(0, 10, 2048), 2)
        values[7] = math.nan
        values[1030] = math.inf
        _, restored = _roundtrip_rowgroup(values)
        assert restored.alp is not None
        total_exc = sum(v.exception_count for v in restored.alp.vectors)
        assert total_exc >= 2

    def test_candidates_survive(self):
        rng = np.random.default_rng(2)
        values = np.round(rng.uniform(0, 100, 3000), 2)
        original, restored = _roundtrip_rowgroup(values)
        assert restored.alp.candidates == original.alp.candidates

    def test_size_bits_consistent(self):
        rng = np.random.default_rng(3)
        values = np.round(rng.uniform(0, 100, 3000), 2)
        original, restored = _roundtrip_rowgroup(values)
        assert original.size_bits() == restored.size_bits()

    def test_garbage_scheme_rejected(self):
        with pytest.raises(ValueError):
            deserialize_rowgroup(b"\xff" + b"\x00" * 10)

    @given(
        st.lists(
            st.floats(allow_nan=True, allow_infinity=True, width=64),
            min_size=1,
            max_size=300,
        )
    )
    @settings(max_examples=25, deadline=None)
    def test_arbitrary_roundtrip(self, xs):
        values = np.array(xs, dtype=np.float64)
        _, restored = _roundtrip_rowgroup(values)
        from repro.core.compressor import CompressedRowGroups
        from repro.storage.serializer import empty_stats

        col = CompressedRowGroups(
            rowgroups=(restored,),
            count=restored.count,
            vector_size=1024,
            stats=empty_stats(),
        )
        assert bitwise_equal(decompress(col), values)


class TestColumnFile:
    def test_write_read_roundtrip(self, tmp_path):
        values = get_dataset("City-Temp", n=250_000)
        path = tmp_path / "city.alpc"
        api.write(path, values)
        assert bitwise_equal(api.read(path), values)

    def test_file_smaller_than_raw(self, tmp_path):
        values = get_dataset("City-Temp", n=250_000)
        path = tmp_path / "city.alpc"
        api.write(path, values)
        assert path.stat().st_size < values.nbytes / 3

    def test_rowgroup_random_access(self, tmp_path):
        values = get_dataset("Stocks-USA", n=300_000)
        path = tmp_path / "stocks.alpc"
        api.write(path, values)
        reader = api.open(path)
        assert reader.rowgroup_count == 3
        assert reader.value_count == 300_000
        middle = reader.read_rowgroup(1)
        assert bitwise_equal(middle, values[102_400:204_800])

    def test_zone_map_skipping(self, tmp_path):
        # Three row-groups with disjoint ranges -> a range predicate
        # touching one of them must skip the other two.
        parts = [
            np.round(np.random.default_rng(i).uniform(lo, lo + 10, 102_400), 1)
            for i, lo in enumerate((0.0, 100.0, 200.0))
        ]
        values = np.concatenate(parts)
        path = tmp_path / "ranges.alpc"
        api.write(path, values)
        reader = api.open(path)
        assert _skippable_rowgroups(path, 100.0, 110.0) == 2
        hits = list(reader.iter_rowgroups(bounds=(100.0, 110.0)))
        assert len(hits) == 1
        assert hits[0][0] == 1

    def test_non_finite_rowgroups_never_skipped(self, tmp_path):
        values = np.round(np.linspace(0, 10, 102_400), 2)
        values[5] = math.nan
        path = tmp_path / "nan.alpc"
        api.write(path, values)
        # An inconclusive zone map prunes nothing.
        assert _skippable_rowgroups(path, 1e9, 2e9) == 0

    def test_empty_column(self, tmp_path):
        path = tmp_path / "empty.alpc"
        api.write(path, np.empty(0))
        reader = api.open(path)
        assert reader.rowgroup_count == 0
        assert reader.read_all().size == 0

    def test_streamed_writes(self, tmp_path):
        rng = np.random.default_rng(4)
        chunk_a = np.round(rng.uniform(0, 10, 102_400), 1)
        chunk_b = np.round(rng.uniform(0, 10, 50_000), 1)
        path = tmp_path / "streamed.alpc"
        with TableFileWriter(path, Schema((Column("streamed"),))) as writer:
            writer.write_rows({"streamed": chunk_a})
            writer.write_rows({"streamed": chunk_b})
        combined = np.concatenate([chunk_a, chunk_b])
        assert bitwise_equal(api.read(path), combined)

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "bad.alpc"
        path.write_bytes(b"not a column file")
        with pytest.raises(ValueError):
            api.open(path)

    def test_rd_rowgroups_in_file(self, tmp_path):
        values = get_dataset("POI-lat", n=120_000)
        path = tmp_path / "poi.alpc"
        api.write(path, values)
        assert bitwise_equal(api.read(path), values)
