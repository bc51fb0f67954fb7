"""The table-first repro.api surface: Table, write/read/open_table.

The api contract under test: ``write_table`` persists any
Table/mapping as a v4 file, ``open_table`` opens *any* generation
(v2-v4) as a table with an optional pinned projection/predicate, the
single-column functions stay the one-column special case (``open`` /
``read`` accept one-float-column v4 files transparently), and
``CompressionOptions.column_codecs`` pins per-column codecs.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import api
from repro.storage.tablefile import file_format_version
from tests.golden import generate as golden


def _arrays(n=20_000, seed=2):
    rng = np.random.default_rng(seed)
    return {
        "ts": np.cumsum(rng.random(n)),
        "value": np.round(rng.normal(20, 5, n), 2),
        "count": rng.integers(0, 50, n),
        "city": np.array(
            [["BER", "AMS", "PAR"][i % 3] for i in range(n)], dtype=object
        ),
    }


class TestTable:
    def test_from_arrays_infers_schema(self):
        table = api.Table.from_arrays(_arrays(100))
        types = {c.name: c.type for c in table.schema}
        assert types == {
            "ts": "float64",
            "value": "float64",
            "count": "int64",
            "city": "string",
        }
        assert len(table) == 100
        assert not any(c.nullable for c in table.schema)

    def test_validity_marks_nullable(self):
        arrays = _arrays(50)
        mask = np.zeros(50, dtype=bool)
        table = api.Table.from_arrays(arrays, validity={"count": mask})
        assert table.schema.column("count").nullable
        assert not table.schema.column("ts").nullable
        assert np.array_equal(table.column_validity("count"), mask)
        assert table.column_validity("ts").all()

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError, match="values"):
            api.Table.from_arrays(
                {"a": np.zeros(3), "b": np.zeros(4)}
            )

    def test_validity_on_non_nullable_rejected(self):
        schema = api.Schema((api.Column("a"),))
        with pytest.raises(ValueError, match="not nullable"):
            api.Table(
                schema=schema,
                columns={"a": np.zeros(3)},
                validity={"a": np.ones(3, dtype=bool)},
            )


class TestWriteReadTable:
    def test_roundtrip(self, tmp_path):
        arrays = _arrays()
        path = tmp_path / "t.alpc"
        api.write_table(path, arrays)
        assert file_format_version(path) == 4
        table = api.read_table(path)
        assert np.array_equal(table.column("ts"), arrays["ts"])
        assert np.array_equal(table.column("value"), arrays["value"])
        assert np.array_equal(table.column("count"), arrays["count"])
        assert list(table.column("city")) == list(arrays["city"])

    def test_roundtrip_with_validity(self, tmp_path):
        arrays = _arrays(5_000)
        ok = np.random.default_rng(0).random(5_000) > 0.2
        path = tmp_path / "t.alpc"
        api.write_table(path, arrays, validity={"count": ok})
        table = api.read_table(path)
        assert np.array_equal(table.column_validity("count"), ok)
        assert np.array_equal(
            table.column("count")[ok], arrays["count"][ok]
        )

    def test_projection(self, tmp_path):
        arrays = _arrays()
        path = tmp_path / "t.alpc"
        api.write_table(path, arrays)
        table = api.read_table(path, columns=["value", "city"])
        assert table.schema.names == ("value", "city")
        assert np.array_equal(table.column("value"), arrays["value"])

    def test_predicate_scan_matches_numpy(self, tmp_path):
        arrays = _arrays()
        path = tmp_path / "t.alpc"
        api.write_table(path, arrays)
        ts = arrays["ts"]
        lo, hi = float(ts[500]), float(ts[900])
        got = api.read_table(
            path,
            columns=["value"],
            predicate=api.FilterPredicate("ts", low=lo, high=hi),
        )
        want = arrays["value"][(ts >= lo) & (ts <= hi)]
        assert np.array_equal(got.column("value"), want)

    def test_open_table_pins_projection_and_predicate(self, tmp_path):
        arrays = _arrays()
        path = tmp_path / "t.alpc"
        api.write_table(path, arrays)
        ts = arrays["ts"]
        lo, hi = float(ts[100]), float(ts[300])
        with api.open_table(
            path,
            columns=["value"],
            predicate=api.FilterPredicate("ts", low=lo, high=hi),
        ) as handle:
            assert handle.schema.names == ("value",)
            assert handle.format_version == 4
            got = handle.read()
            want = arrays["value"][(ts >= lo) & (ts <= hi)]
            assert np.array_equal(got.column("value"), want)
            # scan() arguments override the pinned ones.
            full = handle.scan(columns=["ts", "value"])
            assert full.schema.names == ("ts", "value")

    def test_open_table_unknown_column_rejected(self, tmp_path):
        path = tmp_path / "t.alpc"
        api.write_table(path, _arrays(100))
        with pytest.raises(KeyError):
            api.open_table(path, columns=["nope"])

    def test_legacy_v3_as_table(self):
        path = golden.GOLDEN_DIR / "golden_v3.alpc"
        table = api.read_table(path)
        assert table.schema.names == ("golden_v3",)
        assert np.array_equal(
            table.column("golden_v3"), golden.single_column_values()
        )


class TestSingleColumnWrappers:
    def test_open_dispatches_one_float_column_v4(self, tmp_path):
        values = np.round(np.random.default_rng(5).normal(0, 1, 4000), 2)
        path = tmp_path / "v.alpc"
        api.write_table(path, {"v": values})
        reader = api.open(path)
        try:
            assert np.array_equal(reader.read_all(), values)
            assert reader.format_version == 4
        finally:
            reader.close()
        assert np.array_equal(api.read(path), values)

    def test_open_rejects_multi_column_v4(self, tmp_path):
        path = tmp_path / "t.alpc"
        api.write_table(path, _arrays(100))
        with pytest.raises(ValueError, match="open_table"):
            api.open(path)

    def test_write_is_v4(self, tmp_path):
        path = tmp_path / "c.alpc"
        api.write(path, np.zeros(100))
        assert file_format_version(path) == 4
        with api.open_table(path) as handle:
            assert handle.schema.names == ("c",)


class TestColumnCodecs:
    def test_codec_override_roundtrips(self, tmp_path):
        arrays = _arrays(5_000)
        path = tmp_path / "t.alpc"
        api.write_table(
            path,
            arrays,
            api.CompressionOptions(
                column_codecs={"count": "delta", "value": "alp"}
            ),
        )
        table = api.read_table(path)
        assert np.array_equal(table.column("count"), arrays["count"])
        assert np.array_equal(table.column("value"), arrays["value"])

    def test_unknown_codec_rejected(self):
        with pytest.raises(ValueError, match="column_codecs"):
            api.CompressionOptions(column_codecs={"x": "zstd"})

    def test_normalized_and_hashable(self):
        a = api.CompressionOptions(
            column_codecs={"b": "delta", "a": "alp"}
        )
        b = api.CompressionOptions(
            column_codecs=(("a", "alp"), ("b", "delta"))
        )
        assert a == b
        assert hash(a) == hash(b)

    def test_unknown_column_rejected_at_write(self, tmp_path):
        with pytest.raises(KeyError):
            api.write_table(
                tmp_path / "t.alpc",
                {"a": np.zeros(10)},
                api.CompressionOptions(column_codecs={"nope": "alp"}),
            )

    def test_type_mismatched_codec_rejected_at_write(self, tmp_path):
        with pytest.raises(ValueError):
            api.write_table(
                tmp_path / "t.alpc",
                {"a": np.zeros(10)},  # float column
                api.CompressionOptions(column_codecs={"a": "dict"}),
            )


class TestVerifyRepair:
    def test_verify_v4(self, tmp_path):
        path = tmp_path / "t.alpc"
        api.write_table(path, _arrays(2_000))
        report = api.verify(path)
        assert report.ok
        assert report.format_version == 4

    def test_repair_v4(self, tmp_path):
        path = tmp_path / "t.alpc"
        api.write_table(path, _arrays(2_000))
        fixed = tmp_path / "fixed.alpc"
        report = api.repair(path, fixed)
        assert report.rowgroups_dropped == 0
        assert api.verify(fixed).ok
