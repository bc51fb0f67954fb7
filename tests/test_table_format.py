"""Format v4 table files: round-trips, nulls, legacy wrap, integrity.

Covers the storage layer directly (:mod:`repro.storage.tablefile`):
hypothesis round-trips over nullable float/int/string columns
(including all-null and zero-row shapes), v2/v3 files opened through
the table reader, corruption quarantine with row alignment, verify /
repair dispatch, and the mmap read path.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.storage.errors import CorruptRowGroupError
from repro.storage.schema import FLOAT64, INT64, STRING, Column, Schema
from repro.storage.tablefile import (
    TableFileReader,
    TableFileWriter,
    file_format_version,
)
from repro.storage.verify import repair_column_file, verify_column_file
from tests.golden import generate as golden

GOLDEN_V2 = golden.GOLDEN_DIR / "golden_v2.alpc"
GOLDEN_V3 = golden.GOLDEN_DIR / "golden_v3.alpc"


def _write(path, columns, validity=None, schema=None, **kwargs):
    if schema is None:
        cols = []
        for name, arr in columns.items():
            arr = np.asarray(arr)
            if arr.dtype.kind == "f":
                ctype = FLOAT64
            elif arr.dtype.kind in ("i", "u"):
                ctype = INT64
            else:
                ctype = STRING
            nullable = validity is not None and name in validity
            cols.append(Column(name, ctype, nullable=nullable))
        schema = Schema(tuple(cols))
    with TableFileWriter(path, schema, **kwargs) as writer:
        writer.write_rows(dict(columns), validity=validity)
    return schema


def _fill(arr, ok):
    """The written column as the reader returns it: fill at null slots."""
    arr = np.asarray(arr).copy()
    if arr.dtype.kind == "f":
        arr[~ok] = 0.0
    elif arr.dtype.kind in ("i", "u"):
        arr[~ok] = 0
    else:
        arr[~ok] = ""
    return arr


def _column_equal(a, b):
    a, b = np.asarray(a), np.asarray(b)
    if len(a) != len(b):
        return False
    if a.dtype.kind == "f":
        return np.array_equal(
            a.astype(np.float64).view(np.uint64),
            np.asarray(b, dtype=np.float64).view(np.uint64),
        )
    if a.dtype.kind == "O":
        return all(x == y for x, y in zip(a, b, strict=True))
    return np.array_equal(a, b)


# -- hypothesis round-trips -------------------------------------------

_floats = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False, width=64),
    st.decimals(
        allow_nan=False,
        allow_infinity=False,
        min_value=-(10**9),
        max_value=10**9,
        places=3,
    ).map(float),
)
_ints = st.integers(min_value=-(2**53), max_value=2**53)
_strings = st.text(max_size=12)


@st.composite
def _nullable_table(draw):
    n = draw(st.integers(min_value=0, max_value=300))
    f = np.array(
        draw(st.lists(_floats, min_size=n, max_size=n)), dtype=np.float64
    )
    i = np.array(
        draw(st.lists(_ints, min_size=n, max_size=n)), dtype=np.int64
    )
    s = np.array(
        draw(st.lists(_strings, min_size=n, max_size=n)), dtype=object
    )
    masks = {
        name: np.array(
            draw(st.lists(st.booleans(), min_size=n, max_size=n)),
            dtype=bool,
        )
        for name in ("f", "i", "s")
    }
    return {"f": f, "i": i, "s": s}, masks


class TestHypothesisRoundTrip:
    @settings(max_examples=30, deadline=None)
    @given(_nullable_table())
    def test_nullable_columns_roundtrip(self, tmp_path_factory, table):
        columns, validity = table
        path = tmp_path_factory.mktemp("t") / "t.alpc"
        _write(
            path,
            columns,
            validity=validity,
            vector_size=64,
            rowgroup_vectors=2,
        )
        with TableFileReader(path) as reader:
            values, masks = reader.read_columns()
            assert reader.row_count == len(columns["f"])
            for name in columns:
                assert _column_equal(
                    values[name], _fill(columns[name], validity[name])
                )
                assert np.array_equal(masks[name], validity[name])

    @settings(max_examples=20, deadline=None)
    @given(st.lists(_ints, min_size=1, max_size=400))
    def test_int_column_roundtrip(self, tmp_path_factory, ints):
        path = tmp_path_factory.mktemp("t") / "i.alpc"
        arr = np.array(ints, dtype=np.int64)
        _write(path, {"i": arr}, vector_size=64, rowgroup_vectors=2)
        with TableFileReader(path) as reader:
            values, _ = reader.read_columns()
            assert np.array_equal(values["i"], arr)

    @settings(max_examples=20, deadline=None)
    @given(st.lists(_strings, min_size=1, max_size=400))
    def test_string_column_roundtrip(self, tmp_path_factory, strings):
        path = tmp_path_factory.mktemp("t") / "s.alpc"
        arr = np.array(strings, dtype=object)
        _write(path, {"s": arr}, vector_size=64, rowgroup_vectors=2)
        with TableFileReader(path) as reader:
            values, _ = reader.read_columns()
            assert list(values["s"]) == strings


class TestEdgeShapes:
    def test_zero_rows(self, tmp_path):
        path = tmp_path / "z.alpc"
        _write(
            path,
            {
                "f": np.empty(0, dtype=np.float64),
                "i": np.empty(0, dtype=np.int64),
                "s": np.empty(0, dtype=object),
            },
        )
        with TableFileReader(path) as reader:
            assert reader.row_count == 0
            assert reader.rowgroup_count == 0
            values, _ = reader.read_columns()
            assert all(len(v) == 0 for v in values.values())

    def test_all_null_columns(self, tmp_path):
        path = tmp_path / "n.alpc"
        n = 200
        columns = {
            "f": np.zeros(n),
            "i": np.zeros(n, dtype=np.int64),
            "s": np.array([""] * n, dtype=object),
        }
        validity = {k: np.zeros(n, dtype=bool) for k in columns}
        _write(path, columns, validity=validity, vector_size=64)
        with TableFileReader(path) as reader:
            values, masks = reader.read_columns()
            for name in columns:
                assert not masks[name].any()
                assert len(values[name]) == n
            # All-null zones carry no bounds: any range predicate on
            # the int column prunes everything.
            zone = reader.chunk_meta(0, "i").zone
            assert zone.min_value is None and zone.max_value is None
            assert not zone.may_contain_range(-1e18, 1e18)

    def test_single_value(self, tmp_path):
        path = tmp_path / "one.alpc"
        _write(path, {"v": np.array([42.5])})
        with TableFileReader(path) as reader:
            values, _ = reader.read_columns()
            assert values["v"].tolist() == [42.5]

    def test_empty_schema_rejected(self):
        with pytest.raises(ValueError, match="at least one column"):
            Schema(())


class TestLegacyWrap:
    def test_v3_reads_as_one_column_table(self):
        values = golden.single_column_values()
        assert file_format_version(GOLDEN_V3) == 3
        with TableFileReader(GOLDEN_V3) as reader:
            assert reader.schema.names == ("golden_v3",)
            assert reader.schema.columns[0].type == FLOAT64
            assert not reader.schema.columns[0].nullable
            got, masks = reader.read_columns()
            assert _column_equal(got["golden_v3"], values)
            assert masks == {}

    def test_v2_reads_as_one_column_table(self):
        values = golden.single_column_values()
        assert file_format_version(GOLDEN_V2) == 2
        with TableFileReader(GOLDEN_V2) as reader:
            assert reader.format_version == 2
            got, _ = reader.read_columns()
            assert _column_equal(got["golden_v2"], values)


def _damage_chunk(path, rowgroup, column):
    with TableFileReader(path) as reader:
        meta = reader.chunk_meta(rowgroup, column)
    data = bytearray(open(path, "rb").read())
    data[meta.offset + meta.length // 2] ^= 0xFF
    open(path, "wb").write(bytes(data))


class TestIntegrity:
    def _table(self, tmp_path, n=2048):
        rng = np.random.default_rng(9)
        columns = {
            "a": np.round(rng.normal(0, 5, n), 2),
            "b": rng.integers(0, 100, n),
        }
        path = tmp_path / "t.alpc"
        _write(path, columns, vector_size=128, rowgroup_vectors=2)
        return path, columns

    def test_strict_read_raises_on_chunk_damage(self, tmp_path):
        path, _ = self._table(tmp_path)
        _damage_chunk(path, 1, "b")
        with TableFileReader(path) as reader:
            with pytest.raises(CorruptRowGroupError, match="'b'"):
                reader.read_columns()

    def test_degraded_quarantine_is_row_aligned(self, tmp_path):
        path, columns = self._table(tmp_path)
        _damage_chunk(path, 1, "b")
        with TableFileReader(path, degraded=True) as reader:
            values, _ = reader.read_columns()
            report = reader.scan_report()
            assert report.chunks_quarantined == 1
            assert {q.rowgroup for q in report.quarantined} == {1}
            # The damaged chunk removes its row-group's rows from BOTH
            # columns — projections stay row-aligned.
            rows = reader.rowgroup_rows(0)
            keep = np.ones(len(columns["a"]), dtype=bool)
            keep[rows : 2 * rows] = False
            assert _column_equal(values["a"], columns["a"][keep])
            assert _column_equal(values["b"], columns["b"][keep])

    def test_verify_attributes_damage_to_column(self, tmp_path):
        path, _ = self._table(tmp_path)
        report = verify_column_file(path)
        assert report.ok
        assert report.format_version == 4
        _damage_chunk(path, 1, "b")
        report = verify_column_file(path)
        assert not report.ok
        bad = report.bad_sections
        assert all(s.section == "chunk" for s in bad)
        assert {s.column for s in bad} == {"b"}

    def test_repair_drops_damaged_rowgroup(self, tmp_path):
        path, columns = self._table(tmp_path)
        _damage_chunk(path, 0, "a")
        fixed = tmp_path / "fixed.alpc"
        report = repair_column_file(path, fixed)
        assert report.rowgroups_dropped == 1
        assert verify_column_file(fixed).ok
        with TableFileReader(fixed) as reader:
            values, _ = reader.read_columns()
            rows = reader.rowgroup_rows(0)
            # Row-group 0 was dropped; everything after it survives.
            assert _column_equal(values["a"], columns["a"][rows:])
            assert _column_equal(values["b"], columns["b"][rows:])


class TestMmap:
    def test_mmap_roundtrip(self, tmp_path):
        rng = np.random.default_rng(4)
        n = 200_000  # large enough to clear the mmap threshold
        columns = {"a": np.round(rng.normal(0, 5, n), 2)}
        path = tmp_path / "m.alpc"
        _write(path, columns)
        with TableFileReader(path, mmap=True) as reader:
            assert reader.mapped
            values, _ = reader.read_columns()
            assert _column_equal(values["a"], columns["a"])
