"""Corruption tests for one-column files: checksums, quarantine, repair.

The contract under test: *no silent garbage*.  Any single-byte flip in
any section of a checksummed file, and any truncation, must either
raise a typed integrity error or (in degraded mode) quarantine exactly
the damaged row-group while every remaining value reads back
bit-exactly.  Read-only v2 files are covered through the frozen golden.
"""

import os

import numpy as np
import pytest

from repro import api, obs
from repro.bench.faults import (
    enumerate_sections,
    run_fault_sweep,
)
from repro.storage.errors import (
    CorruptFileError,
    CorruptRowGroupError,
    IntegrityError,
)
from repro.storage.schema import Column, Schema
from repro.storage.tablefile import (
    FORMAT_VERSION_V2,
    FORMAT_VERSION_V4,
    TableFileWriter,
)
from tests.golden import generate as golden

GOLDEN_V2 = golden.GOLDEN_DIR / "golden_v2.alpc"

VECTOR_SIZE = 128
ROWGROUP_VECTORS = 4
RG_VALUES = VECTOR_SIZE * ROWGROUP_VECTORS
N_ROWGROUPS = 4

OPTIONS = api.CompressionOptions(
    vector_size=VECTOR_SIZE, rowgroup_vectors=ROWGROUP_VECTORS
)


def _values():
    rng = np.random.default_rng(3)
    return np.round(
        np.cumsum(rng.normal(0, 0.2, N_ROWGROUPS * RG_VALUES)) + 40.0, 2
    )


def bitwise_equal(a, b):
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    return a.shape == b.shape and np.array_equal(
        a.view(np.uint64), b.view(np.uint64)
    )


@pytest.fixture
def column_file(tmp_path):
    values = _values()
    path = tmp_path / "col.alpc"
    api.write(path, values, OPTIONS)
    return path, values


def _flip(path, offset, mask=0x20):
    data = bytearray(path.read_bytes())
    data[offset] ^= mask
    path.write_bytes(bytes(data))


class TestBitFlipEverySection:
    """One flipped byte in any section must never read back silently."""

    @pytest.mark.parametrize("rel", [0.0, 0.33, 0.66, 0.999])
    @pytest.mark.parametrize(
        "section_name",
        [
            "header",
            pytest.param("chunk[0,col]", id="rowgroup[0]"),
            pytest.param("chunk[2,col]", id="rowgroup[2]"),
            "footer",
            "trailer",
        ],
    )
    def test_flip_detected_strict(self, column_file, section_name, rel):
        path, values = column_file
        sections = {
            s.name: s for s in enumerate_sections(str(path))
        }
        section = sections[section_name]
        offset = section.offset + min(
            int(section.length * rel), section.length - 1
        )
        _flip(path, offset)
        with pytest.raises(IntegrityError):
            api.open(path).read_all()

    def test_flipped_rowgroup_raises_typed_error(self, column_file):
        path, values = column_file
        section = enumerate_sections(str(path))[2]  # rowgroup[1]
        _flip(path, section.offset + section.length // 2)
        reader = api.open(path)
        with pytest.raises(CorruptRowGroupError) as excinfo:
            reader.read_rowgroup(1)
        assert excinfo.value.index == 1
        assert excinfo.value.offset == section.offset

    def test_flipped_header_raises_file_error(self, column_file):
        path, _ = column_file
        _flip(path, 5)  # inside the version/vector-size fields
        with pytest.raises(CorruptFileError):
            api.open(path)

    def test_whole_sweep_has_zero_silent_garbage(self, tmp_path):
        outcomes = run_fault_sweep(directory=str(tmp_path))
        garbage = [o for o in outcomes if o.outcome == "silent-garbage"]
        assert garbage == []
        assert len(outcomes) > 30  # the sweep actually swept


class TestTruncation:
    def test_truncation_at_every_section_boundary(self, column_file):
        path, values = column_file
        pristine = path.read_bytes()
        cuts = sorted(
            {s.offset for s in enumerate_sections(str(path))}
            | {len(pristine) - 1, len(pristine) - 5}
        )
        for cut in cuts:
            path.write_bytes(pristine[:cut])
            with pytest.raises(IntegrityError):
                api.open(path).read_all()
        path.write_bytes(pristine)
        assert bitwise_equal(api.read(path), values)

    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "empty.alpc"
        path.write_bytes(b"")
        with pytest.raises(CorruptFileError):
            api.open(path)


class TestDegradedScan:
    """The acceptance scenario: one corrupt row-group, rest survives."""

    def _corrupt_rowgroup(self, path, index):
        section = enumerate_sections(str(path))[1 + index]
        _flip(path, section.offset + section.length // 2)

    def test_degraded_read_keeps_rest_and_reports_one(self, column_file):
        path, values = column_file
        self._corrupt_rowgroup(path, 1)
        reader = api.open(path, degraded=True)
        restored = reader.read_all()
        expected = np.concatenate(
            [values[:RG_VALUES], values[2 * RG_VALUES :]]
        )
        assert bitwise_equal(restored, expected)
        report = reader.scan_report()
        assert report.rowgroups_quarantined == 1
        assert report.values_quarantined == RG_VALUES
        assert report.quarantined[0].rowgroup == 1
        assert not report.clean
        as_dict = report.as_dict()
        assert as_dict["rowgroups_quarantined"] == 1
        assert as_dict["quarantined"][0]["rowgroup"] == 1

    def test_obs_counters_count_exactly_one_quarantine(self, column_file):
        path, _ = column_file
        self._corrupt_rowgroup(path, 2)
        obs.enable()
        obs.reset()
        try:
            reader = api.open(path, degraded=True)
            reader.read_all()
            reader.read_all()  # second pass must not double-count
            counters = obs.snapshot()["counters"]
        finally:
            obs.disable()
            obs.reset()
        assert counters["tablefile.chunks_quarantined"] == 1
        assert counters["tablefile.values_quarantined"] == RG_VALUES
        assert counters["tablefile.checksum_failures"] >= 1

    def test_degraded_range_scan_skips_quarantined(self, column_file):
        path, values = column_file
        self._corrupt_rowgroup(path, 0)
        reader = api.open(path, degraded=True)
        lo, hi = float(values.min()), float(values.max())
        scanned = [index for index, _ in reader.iter_rowgroups(bounds=(lo, hi))]
        assert 0 not in scanned
        assert reader.scan_report().rowgroups_quarantined == 1

    def test_degraded_query_source_skips_quarantined(self, column_file):
        from repro.query.sources import FileColumnSource

        path, values = column_file
        self._corrupt_rowgroup(path, 1)
        source = FileColumnSource.open(path, degraded=True)
        total = sum(float(v.sum()) for v in source.vectors())
        expected = np.concatenate(
            [values[:RG_VALUES], values[2 * RG_VALUES :]]
        )
        assert total == pytest.approx(float(expected.sum()))

    def test_strict_mode_still_raises(self, column_file):
        path, _ = column_file
        self._corrupt_rowgroup(path, 1)
        with pytest.raises(CorruptRowGroupError):
            api.open(path).read_all()


class TestVerifyRepair:
    def test_verify_names_the_damaged_section(self, column_file):
        path, _ = column_file
        section = enumerate_sections(str(path))[2]  # rowgroup[1]
        _flip(path, section.offset + 3)
        report = api.verify(path)
        assert not report.ok
        bad = report.bad_sections
        assert len(bad) == 1
        assert bad[0].section == "chunk"
        assert bad[0].index == 1
        assert bad[0].offset == section.offset
        assert "checksum" in bad[0].error

    def test_verify_json_shape(self, column_file):
        path, _ = column_file
        _flip(path, enumerate_sections(str(path))[1].offset)
        as_dict = api.verify(path).as_dict()
        assert as_dict["ok"] is False
        assert any(
            not section["ok"] for section in as_dict["sections"]
        )

    def test_repair_drops_only_the_damaged_group(self, column_file, tmp_path):
        path, values = column_file
        section = enumerate_sections(str(path))[3]  # rowgroup[2]
        _flip(path, section.offset + 1)
        fixed = tmp_path / "fixed.alpc"
        report = api.repair(path, fixed)
        assert report.rowgroups_kept == N_ROWGROUPS - 1
        assert report.rowgroups_dropped == 1
        assert report.values_dropped == RG_VALUES
        assert report.dropped[0]["index"] == 2
        assert api.verify(fixed).ok
        expected = np.concatenate(
            [values[: 2 * RG_VALUES], values[3 * RG_VALUES :]]
        )
        assert bitwise_equal(api.read(fixed), expected)

    def test_repair_onto_itself_refused(self, column_file):
        path, _ = column_file
        with pytest.raises(ValueError):
            api.repair(path, path)


class TestV2BackCompat:
    def test_v2_roundtrip(self):
        reader = api.open(GOLDEN_V2)
        assert reader.format_version == FORMAT_VERSION_V2
        assert bitwise_equal(reader.read_all(), golden.single_column_values())

    def test_v2_verify_reports_unchecksummed(self):
        report = api.verify(GOLDEN_V2)
        assert report.ok
        assert not report.checksummed

    def test_repair_upgrades_v2_to_v4(self, tmp_path):
        dst = tmp_path / "upgraded.alpc"
        report = api.repair(GOLDEN_V2, dst)
        assert report.rowgroups_dropped == 0
        reader = api.open(dst)
        assert reader.format_version == FORMAT_VERSION_V4
        assert reader.column_name == "golden_v2"
        assert bitwise_equal(reader.read_all(), golden.single_column_values())
        assert api.verify(dst).ok


def _writer(path):
    return TableFileWriter(path, Schema((Column("col"),)))


class TestWriterSafety:
    def test_close_is_idempotent(self, tmp_path):
        path = tmp_path / "col.alpc"
        writer = _writer(path)
        writer.write_rows({"col": _values()})
        writer.close()
        writer.close()  # must be a no-op, not an error
        assert bitwise_equal(api.read(path), _values())

    def test_write_after_close_rejected(self, tmp_path):
        path = tmp_path / "col.alpc"
        writer = _writer(path)
        writer.close()
        with pytest.raises(ValueError):
            writer.write_rows({"col": _values()})

    def test_exception_leaves_no_file_at_target(self, tmp_path):
        path = tmp_path / "col.alpc"
        with pytest.raises(RuntimeError):
            with _writer(path) as writer:
                writer.write_rows({"col": _values()[:RG_VALUES]})
                raise RuntimeError("boom")
        assert not path.exists()
        assert os.listdir(tmp_path) == []  # temp file cleaned up too

    def test_abort_after_close_is_noop(self, tmp_path):
        path = tmp_path / "col.alpc"
        writer = _writer(path)
        writer.write_rows({"col": _values()})
        writer.close()
        writer.abort()
        assert path.exists()

    def test_no_partial_file_visible_before_close(self, tmp_path):
        path = tmp_path / "col.alpc"
        writer = _writer(path)
        writer.write_rows({"col": _values()})
        assert not path.exists()  # atomic publish happens at close
        writer.close()
        assert path.exists()
