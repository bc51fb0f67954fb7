"""Every read path returns the same bits for v2, v3 and v4 files.

The frozen ``golden_v2``/``golden_v3`` files and a v4 file written by
``api.write`` hold the same values at the same geometry.  Each is read
through the one reader stack (``TableColumnReader`` over
``TableFileReader``): bulk reads (buffered, mmap, ``out=``), cached
row-group iteration, zone-map-pruned scans, encoded-domain sums over
``FileColumnSource``, and a degraded read of a damaged copy.
"""

from __future__ import annotations

import shutil

import numpy as np
import pytest

from repro import api
from repro.core.compressor import decode_rowgroup_vector
from repro.query import engine
from repro.query.sources import FileColumnSource
from repro.server.cache import DecodedVectorCache
from tests.golden import generate as golden

VALUES = golden.single_column_values()
ROWGROUP_ROWS = golden.VECTOR_SIZE * golden.ROWGROUP_VECTORS
# Near the top of the [-100, 100) value domain, so some vector zones
# exclude the range and the pruning walk has work to do.
LOW, HIGH = 99.5, 100.0


def bits(values):
    return np.asarray(values, dtype=np.float64).view(np.uint64)


def same_bits(a, b):
    return np.array_equal(bits(a), bits(b))


@pytest.fixture(scope="module")
def v4_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("parity") / "written.alpc"
    api.write(
        path,
        VALUES,
        api.CompressionOptions(
            vector_size=golden.VECTOR_SIZE,
            rowgroup_vectors=golden.ROWGROUP_VECTORS,
        ),
    )
    return path


@pytest.fixture(params=["v2", "v3", "v4"])
def path(request, v4_file):
    if request.param == "v4":
        return v4_file
    return golden.GOLDEN_DIR / f"golden_{request.param}.alpc"


class TestBulkReads:
    def test_read_all_buffered(self, path):
        with api.open(path) as reader:
            assert not reader.mapped
            assert same_bits(reader.read_all(), VALUES)

    def test_read_all_mmap(self, path):
        with api.open(path, mmap=True) as reader:
            assert same_bits(reader.read_all(), VALUES)

    def test_read_all_into_out(self, path):
        with api.open(path) as reader:
            out = np.empty(reader.value_count, dtype=np.float64)
            assert reader.read_all(out=out) is out
            assert same_bits(out, VALUES)

    def test_iter_rowgroups_through_cache(self, path):
        cache = DecodedVectorCache(byte_budget=8 << 20)
        with api.open(path) as reader:
            for _ in range(2):  # cold, then every row-group from the cache
                parts = [values for _, values in reader.iter_rowgroups(cache)]
                assert same_bits(np.concatenate(parts), VALUES)
        assert cache.stats().entries == len(VALUES) // ROWGROUP_ROWS


class TestPrunedScans:
    def test_scan_range(self, path, v4_file):
        def scan(p):
            with api.open(p) as reader:
                return [
                    (index, values[(values >= LOW) & (values <= HIGH)])
                    for index, values in reader.iter_rowgroups(
                        bounds=(LOW, HIGH)
                    )
                ]

        got, want = scan(path), scan(v4_file)
        assert [i for i, _ in got] == [i for i, _ in want]
        selected = VALUES[(VALUES >= LOW) & (VALUES <= HIGH)]
        assert same_bits(np.concatenate([v for _, v in got]), selected)

    def test_scan_range_vectors(self, path, v4_file):
        def scan(p):
            with api.open(p) as reader:
                return [
                    (rg, v, decode_rowgroup_vector(rowgroup, v))
                    for rg, survivors, rowgroup in reader.iter_rowgroups_compressed(
                        (LOW, HIGH)
                    )
                    for v in survivors
                ]

        got, want = scan(path), scan(v4_file)
        assert [(rg, v) for rg, v, _ in got] == [(rg, v) for rg, v, _ in want]
        assert 0 < len(got) < len(VALUES) // golden.VECTOR_SIZE
        for rg, v, values in got:
            start = rg * ROWGROUP_ROWS + v * golden.VECTOR_SIZE
            assert same_bits(values, VALUES[start : start + values.size])


class TestEncodedSums:
    def test_sum_query(self, path, v4_file):
        with api.open(path) as reader, api.open(v4_file) as written:
            total = engine.sum_query(FileColumnSource(reader=reader))
            reference = engine.sum_query(FileColumnSource(reader=written))
        assert same_bits(total, reference)
        assert total == pytest.approx(float(np.sum(VALUES)), rel=1e-12)

    def test_range_sum_query(self, path, v4_file):
        with api.open(path) as reader, api.open(v4_file) as written:
            total, count = engine.range_sum_query(
                FileColumnSource(reader=reader), LOW, HIGH
            )
            reference = engine.range_sum_query(
                FileColumnSource(reader=written), LOW, HIGH
            )
        selected = VALUES[(VALUES >= LOW) & (VALUES <= HIGH)]
        assert count == reference[1] == selected.size
        assert same_bits(total, reference[0])
        assert total == pytest.approx(float(np.sum(selected)), rel=1e-12)


class TestDegradedRead:
    def test_flipped_payload_byte_is_quarantined(self, path, tmp_path):
        damaged = tmp_path / path.name
        shutil.copyfile(path, damaged)
        with api.open(damaged) as reader:
            meta = reader.metadata[1]
        data = bytearray(damaged.read_bytes())
        # Byte 1 of a row-group section: the chunk codec tag (v4) or the
        # low byte of the serialized row count (v2/v3) — detected by the
        # CRC where there is one, and by the decode checks in v2.
        data[meta.offset + 1] ^= 0x20
        damaged.write_bytes(bytes(data))

        with api.open(damaged, degraded=True) as reader:
            restored = reader.read_all()
            report = reader.scan_report().as_dict()
        expected = np.concatenate(
            [VALUES[:ROWGROUP_ROWS], VALUES[2 * ROWGROUP_ROWS :]]
        )
        assert same_bits(restored, expected)
        assert set(report) == {
            "path",
            "format_version",
            "rowgroups_total",
            "rowgroups_quarantined",
            "values_quarantined",
            "quarantined",
        }
        assert report["path"] == str(damaged)
        assert report["rowgroups_total"] == len(VALUES) // ROWGROUP_ROWS
        assert report["rowgroups_quarantined"] == 1
        assert report["values_quarantined"] == ROWGROUP_ROWS
        (entry,) = report["quarantined"]
        assert set(entry) == {
            "rowgroup",
            "column",
            "offset",
            "length",
            "count",
            "reason",
        }
        assert (entry["rowgroup"], entry["offset"], entry["count"]) == (
            1,
            meta.offset,
            ROWGROUP_ROWS,
        )
