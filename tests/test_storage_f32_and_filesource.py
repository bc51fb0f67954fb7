"""Tests for the file-backed scan source."""

import numpy as np
import pytest

from repro.query.engine import scan_query, sum_query
from repro.query.sources import FileColumnSource
from repro import api


class TestFileColumnSource:
    @pytest.fixture
    def column_file(self, tmp_path):
        values = np.round(np.linspace(0.0, 1000.0, 250_000), 2)
        path = tmp_path / "col.alpc"
        api.write(path, values)
        return path, values

    def test_full_scan(self, column_file):
        path, values = column_file
        source = FileColumnSource.open(path)
        assert source.value_count == values.size
        assert scan_query(source) == values.size
        assert sum_query(source) == pytest.approx(
            float(values.sum()), rel=1e-9
        )

    def test_compressed_bits_positive(self, column_file):
        path, values = column_file
        source = FileColumnSource.open(path)
        assert 0 < source.compressed_bits < values.size * 64

    def test_range_pushdown_scans_fewer_values(self, column_file):
        path, values = column_file
        full = FileColumnSource.open(path)
        narrow = FileColumnSource.open(path, value_range=(500.0, 501.0))
        scanned_full = scan_query(full)
        scanned_narrow = scan_query(narrow)
        assert scanned_narrow < scanned_full / 20

    def test_pushdown_preserves_matches(self, column_file):
        path, values = column_file
        low, high = 250.0, 300.0
        source = FileColumnSource.open(path, value_range=(low, high))
        found = 0
        for vector in source.vectors():
            found += int(((vector >= low) & (vector <= high)).sum())
        expected = int(((values >= low) & (values <= high)).sum())
        assert found == expected
