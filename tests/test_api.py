"""Tests for the repro.api facade and CompressionOptions plumbing."""

import numpy as np
import pytest

from repro import api
from repro.storage.tablefile import FORMAT_VERSION_V4, file_format_version


def _column(n=30_000, seed=0):
    rng = np.random.default_rng(seed)
    return np.round(np.cumsum(rng.normal(0, 0.3, n)) + 20.0, 2)


def bitwise_equal(a, b):
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    return a.shape == b.shape and np.array_equal(
        a.view(np.uint64), b.view(np.uint64)
    )


class TestCompressionOptions:
    def test_defaults(self):
        opts = api.CompressionOptions()
        assert opts.vector_size == 1024
        assert opts.threads == 1
        assert opts.force_scheme is None

    def test_integrity_option_removed(self):
        # Every written file is checksummed v4; there is nothing to opt out of.
        with pytest.raises(TypeError):
            api.CompressionOptions(integrity=False)

    def test_bad_force_scheme_rejected(self):
        with pytest.raises(ValueError):
            api.CompressionOptions(force_scheme="gzip")

    def test_bad_threads_rejected(self):
        with pytest.raises(ValueError):
            api.CompressionOptions(threads=0)

    def test_bad_rowgroup_vectors_rejected(self):
        with pytest.raises(ValueError):
            api.CompressionOptions(rowgroup_vectors=0)

    def test_frozen(self):
        opts = api.CompressionOptions()
        with pytest.raises(Exception):
            opts.threads = 4


class TestCompress:
    def test_roundtrip(self):
        values = _column()
        column = api.compress(values)
        assert bitwise_equal(api.decompress(column), values)

    def test_threads_bit_identical(self):
        values = _column(60_000)
        serial = api.compress(values)
        parallel = api.compress(
            values, api.CompressionOptions(threads=2)
        )
        assert serial.size_bits() == parallel.size_bits()
        assert bitwise_equal(api.decompress(parallel), values)

    def test_decompress_honors_threads(self):
        # threads applies to decompression too: the threaded decoder
        # writes row-groups into disjoint slices of one output array and
        # must match the serial path bit for bit.
        values = _column(60_000)
        column = api.compress(values)
        serial = api.decompress(column)
        threaded = api.decompress(column, api.CompressionOptions(threads=4))
        assert bitwise_equal(serial, threaded)
        assert bitwise_equal(threaded, values)

    def test_decompress_threads_with_non_finite_and_rd(self):
        values = _column(20_000)
        values[::97] = np.nan
        values[5::101] = np.inf
        values[7::103] = -0.0
        opts = api.CompressionOptions(
            vector_size=256, rowgroup_vectors=4, threads=3
        )
        column = api.compress(values, opts)
        assert bitwise_equal(api.decompress(column, opts), values)
        rd = api.compress(
            values,
            api.CompressionOptions(
                vector_size=256, rowgroup_vectors=4, force_scheme="alprd"
            ),
        )
        assert rd.uses_rd
        assert bitwise_equal(
            api.decompress(rd, api.CompressionOptions(threads=2)), values
        )

    def test_force_scheme(self):
        values = _column()
        column = api.compress(
            values, api.CompressionOptions(force_scheme="alprd")
        )
        assert column.uses_rd
        assert bitwise_equal(api.decompress(column), values)

    def test_custom_geometry(self):
        values = _column(10_000)
        opts = api.CompressionOptions(vector_size=256, rowgroup_vectors=4)
        column = api.compress(values, opts)
        assert column.vector_size == 256
        assert len(column.rowgroups) == int(np.ceil(10_000 / (256 * 4)))
        assert bitwise_equal(api.decompress(column), values)


class TestFileRoundtrip:
    def test_write_read(self, tmp_path):
        values = _column()
        path = tmp_path / "col.alpc"
        api.write(path, values)
        assert bitwise_equal(api.read(path), values)

    def test_writes_v4_by_default(self, tmp_path):
        path = tmp_path / "col.alpc"
        api.write(path, _column())
        assert file_format_version(path) == FORMAT_VERSION_V4

    def test_open_reader(self, tmp_path):
        path = tmp_path / "col.alpc"
        values = _column()
        api.write(path, values)
        reader = api.open(path)
        assert reader.value_count == values.size
        assert bitwise_equal(reader.read_all(), values)

    def test_geometry_flows_to_file(self, tmp_path):
        path = tmp_path / "col.alpc"
        opts = api.CompressionOptions(vector_size=512, rowgroup_vectors=8)
        api.write(path, _column(20_000), opts)
        reader = api.open(path)
        assert reader.vector_size == 512
        assert reader.rowgroup_count == int(np.ceil(20_000 / (512 * 8)))


class TestDataset:
    def test_roundtrip(self, tmp_path):
        columns = {"a": _column(8_000, 1), "b": _column(8_000, 2)}
        directory = tmp_path / "ds"
        api.write_dataset(directory, columns)
        reader = api.open_dataset(directory)
        assert sorted(reader.column_names) == ["a", "b"]
        for name, values in columns.items():
            assert bitwise_equal(reader.read_column(name), values)

    def test_verify_clean_dataset(self, tmp_path):
        directory = tmp_path / "ds"
        api.write_dataset(directory, {"a": _column(8_000)})
        report = api.verify(directory)
        assert report.ok
        assert report.as_dict()["ok"] is True


class TestVerifyRepair:
    def test_verify_clean_file(self, tmp_path):
        path = tmp_path / "col.alpc"
        api.write(path, _column())
        report = api.verify(path)
        assert report.ok
        assert not report.bad_sections

    def test_repair_clean_file_keeps_everything(self, tmp_path):
        src = tmp_path / "col.alpc"
        dst = tmp_path / "fixed.alpc"
        values = _column()
        api.write(src, values)
        report = api.repair(src, dst)
        assert report.rowgroups_dropped == 0
        assert bitwise_equal(api.read(dst), values)


class TestShimsRemoved:
    def test_write_column_file_is_gone(self):
        # The deprecation shims were removed with format v4, and the
        # v2/v3 writer module with them; the replacements are
        # api.write/api.read (and write_table for multi-column data).
        import importlib

        with pytest.raises(ModuleNotFoundError):
            importlib.import_module("repro.storage.columnfile")
        assert not hasattr(api, "write_column_file")
        assert not hasattr(api, "read_column_file")
