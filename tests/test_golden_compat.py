"""Checked-in v2/v3/v4 golden files must keep reading bit-identically.

The binaries under ``tests/golden/`` were written once per format
generation and are never regenerated casually — they are the contract
that today's reader accepts yesterday's bytes.  Expected values are
re-derived deterministically by ``tests.golden.generate`` (fixed PCG64
seeds, stream-stable methods only), so a mismatch here means the
*reader* changed behaviour, not the fixture.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import api
from repro.storage.tablefile import TableFileReader, file_format_version
from repro.storage.verify import verify_column_file
from tests.golden import generate as golden

V2 = golden.GOLDEN_DIR / "golden_v2.alpc"
V3 = golden.GOLDEN_DIR / "golden_v3.alpc"
V4 = golden.GOLDEN_DIR / "golden_v4.alpc"


def _bits_equal(a, b):
    return np.array_equal(
        np.asarray(a, dtype=np.float64).view(np.uint64),
        np.asarray(b, dtype=np.float64).view(np.uint64),
    )


class TestFormatVersions:
    def test_checked_in_versions(self):
        assert file_format_version(V2) == 2
        assert file_format_version(V3) == 3
        assert file_format_version(V4) == 4


class TestSingleColumnGoldens:
    @pytest.mark.parametrize("path", [V2, V3], ids=["v2", "v3"])
    def test_api_read_bit_identical(self, path):
        assert _bits_equal(api.read(path), golden.single_column_values())

    @pytest.mark.parametrize("path", [V2, V3], ids=["v2", "v3"])
    def test_table_reader_wraps_legacy(self, path):
        want = golden.single_column_values()
        with TableFileReader(path) as reader:
            assert reader.schema.names == (path.stem,)
            assert reader.row_count == len(want)
            values, masks = reader.read_columns()
            assert _bits_equal(values[path.stem], want)
            assert masks == {}

    def test_v3_verifies_clean(self):
        report = verify_column_file(V3)
        assert report.ok
        assert report.format_version == 3


class TestTableGolden:
    def test_schema(self):
        with TableFileReader(V4) as reader:
            assert reader.schema.names == ("f", "i", "s")
            types = {c.name: (c.type, c.nullable) for c in reader.schema}
            assert types == {
                "f": ("float64", False),
                "i": ("int64", True),
                "s": ("string", False),
            }

    def test_read_columns_bit_identical(self):
        columns, validity = golden.table_arrays()
        with TableFileReader(V4) as reader:
            values, masks = reader.read_columns()
            assert _bits_equal(values["f"], columns["f"])
            assert np.array_equal(values["i"], columns["i"])
            assert list(values["s"]) == list(columns["s"])
            assert np.array_equal(masks["i"], validity["i"])

    def test_api_read_table(self):
        columns, validity = golden.table_arrays()
        table = api.read_table(V4)
        assert _bits_equal(table.column("f"), columns["f"])
        assert np.array_equal(table.column_validity("i"), validity["i"])

    def test_predicate_scan_on_golden(self):
        columns, _ = golden.table_arrays()
        f = columns["f"]
        lo, hi = float(f[40]), float(f[80])
        table = api.read_table(
            V4,
            columns=["i"],
            predicate=api.FilterPredicate("f", low=lo, high=hi),
        )
        want = columns["i"][(f >= lo) & (f <= hi)]
        assert np.array_equal(table.column("i"), want)

    def test_verifies_clean(self):
        report = verify_column_file(V4)
        assert report.ok
        assert report.format_version == 4


class TestGeneratorIsDeterministic:
    def test_regeneration_is_byte_identical(self, tmp_path, monkeypatch):
        # Guards the fixture itself: if regeneration stopped being
        # reproducible, a future re-pin would silently rewrite history.
        # Only v4 is regenerated; the v2/v3 goldens are frozen fixtures.
        monkeypatch.setattr(golden, "GOLDEN_DIR", tmp_path)
        golden.main()
        for name in ("golden_v4",):
            fresh = (tmp_path / f"{name}.alpc").read_bytes()
            checked_in = (
                golden.__file__.replace("generate.py", f"{name}.alpc")
            )
            assert fresh == open(checked_in, "rb").read(), name
