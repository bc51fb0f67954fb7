"""Served readers keep parsed row-groups: a chunk parses once per file.

The registry opens every mapped file with one shared
:class:`ParsedBudget` the size of its cache's byte budget, so repeated
scans and sums through one long-lived reader reuse the row-groups
``deserialize_rowgroup`` built.  These tests pin the store's contracts:
results do not change, the map still closes, corrupt chunks are never
kept, stored arrays are read-only, the budget holds across files,
buffered readers keep nothing, and the decoded cache's counters are
untouched.
"""

from __future__ import annotations

import dataclasses
import gc
import sys
import threading
import tracemalloc

import numpy as np
import pytest

from repro import api, obs
from repro.data import get_dataset
from repro.query.engine import sum_query
from repro.query.sources import FileColumnSource
from repro.server.cache import DecodedVectorCache
from repro.server.ops import build_ops
from repro.server.registry import DatasetRegistry
from repro.storage.errors import CorruptRowGroupError
from repro.storage.serializer import parsed_heap_bytes
from repro.storage.tablefile import ParsedBudget, TableFileReader

ROWGROUP_VALUES = 1024 * 16
OPTIONS = api.CompressionOptions(vector_size=1024, rowgroup_vectors=16)
N = ROWGROUP_VALUES * 3
#: NYC/29 takes the ALP path (half its vectors have exceptions),
#: POI-lat the ALP_rd fallback.
COLUMNS = {"nyc": "NYC/29", "lat": "POI-lat"}


@pytest.fixture(scope="module")
def table_path(tmp_path_factory):
    path = tmp_path_factory.mktemp("parsed") / "table.alpc"
    api.write_table(
        path,
        {name: get_dataset(ds, n=N) for name, ds in COLUMNS.items()},
        OPTIONS,
    )
    return path


@pytest.fixture(scope="module")
def default_path(tmp_path_factory):
    """Two row-groups of the default 100 vectors per column."""
    path = tmp_path_factory.mktemp("parsed") / "default.alpc"
    n = 2 * 1024 * 100
    api.write_table(
        path, {name: get_dataset(ds, n=n) for name, ds in COLUMNS.items()}
    )
    return path


def _registry(
    path, *, cache_budget=64 << 20, degraded=True, mmap=True, names="t"
):
    registry = DatasetRegistry(
        cache=DecodedVectorCache(byte_budget=cache_budget),
        degraded=degraded,
        mmap=mmap,
    )
    for name in names:
        registry.register_file(path, name=name)
    return registry


def _scan_bytes(ops, column, dataset="t"):
    result = ops["scan"]({"dataset": dataset, "column": column}, b"")
    return b"".join(np.asarray(part).tobytes() for part in result.payload)


def _sum_repr(ops, column, dataset="t"):
    result = ops["sum"]({"dataset": dataset, "column": column}, b"")
    return repr((result.fields["sum"], result.fields["count"]))


def _answers(registry, dataset="t"):
    ops = build_ops(registry)
    return {
        column: (
            _scan_bytes(ops, column, dataset),
            _sum_repr(ops, column, dataset),
        )
        for column in COLUMNS
    }


def _reader(registry):
    return registry.column("t", "nyc").reader


class TestLifetime:
    def test_served_scan_and_sum_then_close(self, table_path):
        registry = _registry(table_path)
        _answers(registry)
        _answers(registry)
        reader = _reader(registry)
        assert reader.mapped
        assert reader.parsed_stats()["entries"] > 0
        assert reader.parsed_stats()["hits"] > 0
        reader.close()
        assert reader.closed
        assert reader.parsed_stats()["entries"] == 0
        assert reader.parsed_stats()["bytes_used"] == 0

    def test_one_shot_sum_then_close(self, table_path):
        handle = api.open_table(table_path, mmap=True)
        for column in COLUMNS:
            sum_query(FileColumnSource(reader=handle.column_reader(column)))
        assert handle.reader.parsed_stats()["entries"] == 0
        handle.close()


class TestResults:
    def test_cold_and_warm_store_answer_identically(self, table_path):
        reference = _answers(_registry(table_path, cache_budget=0))
        registry = _registry(table_path)
        cold = _answers(registry)
        warm = _answers(registry)
        assert cold == reference
        assert warm == reference
        stats = registry.parsed_stats()
        assert stats["hits"] > 0 and stats["refused"] == 0

    def test_racing_first_parse(self, table_path):
        reference = _answers(_registry(table_path, cache_budget=0))
        registry = _registry(table_path)
        barrier = threading.Barrier(2)
        results = []

        def worker():
            barrier.wait()
            results.append(_answers(registry))

        threads = [threading.Thread(target=worker) for _ in range(2)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert results == [reference, reference]
        assert _answers(registry) == reference
        reader = _reader(registry)
        rg = reader.read_rowgroup_compressed(0)
        assert reader.read_rowgroup_compressed(0) is rg

    def test_sums_through_the_store_leave_cache_stats_alone(self, table_path):
        registry = _registry(table_path)
        ops = build_ops(registry)
        for column in COLUMNS:
            _sum_repr(ops, column)
        before = registry.cache.stats()
        hits = registry.parsed_stats()["hits"]
        for column in COLUMNS:
            _sum_repr(ops, column)
        assert registry.parsed_stats()["hits"] > hits
        assert registry.cache.stats() == before

    def test_stored_exception_arrays_are_read_only(self, table_path):
        registry = _registry(table_path)
        for column in COLUMNS:
            column_reader = registry.column("t", column).reader
            rg = column_reader.read_rowgroup_compressed(0)
            vectors = rg.alp.vectors if rg.alp is not None else rg.rd.vectors
            vector = next(v for v in vectors if v.exc_positions.size)
            assert column_reader.read_rowgroup_compressed(0) is rg
            with pytest.raises(ValueError):
                vector.exc_positions[0] = 0
            with pytest.raises(ValueError):
                vector.exc_values[0] = 0


class TestBudget:
    def test_small_budget_serves_every_chunk(self, table_path):
        reference = _answers(_registry(table_path, cache_budget=0))
        with TableFileReader(table_path, mmap=True) as probe:
            one_chunk = parsed_heap_bytes(
                probe.column_reader("nyc").read_rowgroup_compressed(0)
            )
        budget = 2 * one_chunk + one_chunk // 2
        registry = _registry(table_path, cache_budget=budget)
        for _ in range(3):
            assert _answers(registry) == reference
            stats = registry.parsed_stats()
            assert 0 < stats["bytes_used"] <= budget
        assert stats["refused"] > 0
        assert stats["entries"] < 2 * (N // ROWGROUP_VALUES)

    def test_files_share_one_budget(self, table_path):
        alone = _registry(table_path)
        _answers(alone)
        one_file = alone.parsed_stats()["bytes_used"]
        budget = one_file + one_file // 2
        registry = _registry(table_path, cache_budget=budget, names="tu")
        obs.enable()
        try:
            for dataset in "tu":
                _answers(registry, dataset)
            stats = registry.parsed_stats()
            assert stats["byte_budget"] == budget
            assert one_file < stats["bytes_used"] <= budget
            assert stats["refused"] > 0
            gauge = obs.snapshot()["gauges"]["tablefile.parsed_bytes"]
            assert gauge == stats["bytes_used"]
            # Closing one file gives its share back to the others.
            first = registry.column("t", "nyc").reader
            first_share = first.parsed_stats()["bytes_used"]
            first.close()
            assert registry.parsed_stats()["bytes_used"] == (
                stats["bytes_used"] - first_share
            )
            gauge = obs.snapshot()["gauges"]["tablefile.parsed_bytes"]
            assert gauge == stats["bytes_used"] - first_share
        finally:
            obs.disable()
            obs.reset()

    def test_buffered_readers_keep_nothing(self, table_path):
        reference = _answers(_registry(table_path, cache_budget=0))
        registry = _registry(table_path, mmap=False)
        assert not _reader(registry).mapped
        for _ in range(2):
            assert _answers(registry) == reference
        stats = registry.parsed_stats()
        assert stats["entries"] == stats["misses"] == stats["hits"] == 0


def _estimates(path, column):
    """``parsed_heap_bytes`` of row-group 0 of ``column``, of its first
    half of vectors, and with one vector's exceptions doubled and
    dropped, plus the doubled arrays' extra bytes."""
    with TableFileReader(path, mmap=True) as reader:
        rg = reader.column_reader(column).read_rowgroup_compressed(0)
        part = rg.alp if rg.alp is not None else rg.rd
        field = "alp" if rg.alp is not None else "rd"

        def with_vectors(vectors):
            return dataclasses.replace(
                rg, **{field: dataclasses.replace(part, vectors=vectors)}
            )

        vectors = list(part.vectors)
        i = next(i for i, v in enumerate(vectors) if v.exc_positions.size)
        vector, rest = vectors[i], vectors[i + 1 :]
        doubled = dataclasses.replace(
            vector,
            exc_positions=np.tile(vector.exc_positions, 2),
            exc_values=np.tile(vector.exc_values, 2),
        )
        dropped = dataclasses.replace(
            vector,
            exc_positions=vector.exc_positions[:0],
            exc_values=vector.exc_values[:0],
        )
        extra = vector.exc_positions.nbytes + vector.exc_values.nbytes
        result = (
            parsed_heap_bytes(rg),
            parsed_heap_bytes(with_vectors(vectors[: len(vectors) // 2])),
            parsed_heap_bytes(with_vectors(vectors[:i] + [doubled] + rest)),
            parsed_heap_bytes(with_vectors(vectors[:i] + [dropped] + rest)),
            extra,
        )
        del rg, part, vectors, vector, rest, doubled, dropped, with_vectors
    return result


class TestHeapEstimate:
    @pytest.mark.parametrize("column", sorted(COLUMNS))
    def test_tracks_vectors_and_exception_bytes(self, default_path, column):
        full, half, doubled, dropped, extra = _estimates(default_path, column)
        assert 0 < half < full
        assert doubled == full + extra
        assert dropped < full - extra

    @pytest.mark.parametrize("column", sorted(COLUMNS))
    def test_near_tracemalloc(self, default_path, column):
        # The constants were fitted on CPython 3.11; elsewhere object
        # sizes differ a little, so only the order of magnitude is held.
        tolerance = 0.25 if sys.version_info[:2] == (3, 11) else 0.5
        with TableFileReader(default_path, mmap=True) as reader:
            column_reader = reader.column_reader(column)
            # Verify the chunk first: only the parse is traced below.
            column_reader.read_rowgroup_compressed(1)
            gc.collect()
            tracemalloc.start()
            try:
                rg = column_reader.read_rowgroup_compressed(1)
                measured, _ = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert (rg.rd is not None) == (column == "lat")
            estimate = parsed_heap_bytes(rg)
            del rg
        assert (1 - tolerance) * measured <= estimate
        assert estimate <= (1 + tolerance) * measured


class TestCorruption:
    @pytest.fixture
    def damaged(self, table_path, tmp_path):
        data = bytearray(table_path.read_bytes())
        with TableFileReader(table_path) as reader:
            meta = reader.chunk_meta(1, "nyc")
        data[meta.offset + meta.length // 2] ^= 0x20
        path = tmp_path / "damaged.alpc"
        path.write_bytes(bytes(data))
        return path

    def test_degraded_reader_never_stores_a_corrupt_chunk(self, damaged):
        registry = _registry(damaged)
        ops = build_ops(registry)
        rowgroups = _reader(registry).rowgroup_count
        reports = []
        for _ in range(3):
            result = ops["sum"]({"dataset": "t", "column": "nyc"}, b"")
            reports.append(result.fields["rowgroups_quarantined"])
            _scan_bytes(ops, "nyc")
            # Only "nyc" was read: every chunk but the corrupt one.
            assert registry.parsed_stats()["entries"] == rowgroups - 1
            with pytest.raises(CorruptRowGroupError):
                _reader(registry).read_rowgroup_compressed(1)
        assert reports == [1, 1, 1]
        report = registry.column("t", "nyc").scan_report()
        assert [entry.rowgroup for entry in report.quarantined] == [1]
        assert registry.parsed_stats()["hits"] > 0

    def test_strict_reader_still_raises(self, damaged):
        registry = _registry(damaged, degraded=False)
        ops = build_ops(registry)
        for _ in range(2):
            with pytest.raises(CorruptRowGroupError):
                ops["sum"]({"dataset": "t", "column": "nyc"}, b"")
        with pytest.raises(CorruptRowGroupError):
            _reader(registry).read_rowgroup_compressed(1)
