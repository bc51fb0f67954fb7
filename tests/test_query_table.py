"""Tests for multi-column compressed tables and late materialization."""

import numpy as np
import pytest

from repro.query.table import CompressedTable, FilterPredicate


@pytest.fixture(scope="module")
def trades():
    rng = np.random.default_rng(0)
    n = 60_000
    price = np.round(np.cumsum(rng.normal(0, 0.05, n)) + 100.0, 2)
    volume = rng.integers(1, 1000, n).astype(np.float64)
    fee = np.round(price * 0.001, 4)
    return {"price": price, "volume": volume, "fee": fee}


@pytest.fixture(scope="module")
def table(trades):
    return CompressedTable.from_arrays(trades)


class TestConstruction:
    def test_columns_and_rows(self, table, trades):
        assert set(table.column_names) == {"price", "volume", "fee"}
        assert table.row_count == trades["price"].size

    def test_mismatched_lengths_rejected(self):
        with pytest.raises(ValueError):
            CompressedTable.from_arrays(
                {"a": np.zeros(10), "b": np.zeros(11)}
            )

    def test_empty_table_rejected(self):
        with pytest.raises(ValueError):
            CompressedTable({})

    def test_unknown_column(self, table):
        with pytest.raises(KeyError):
            table.column("nope")

    def test_compressed_smaller_than_raw(self, table, trades):
        raw_bits = sum(a.nbytes * 8 for a in trades.values())
        assert table.compressed_bits() < raw_bits / 2


class TestScan:
    def test_unfiltered_scan_reconstructs(self, table, trades):
        parts = {name: [] for name in trades}
        for batch in table.scan(list(trades)):
            for name, vector in batch.items():
                parts[name].append(vector)
        for name, expected in trades.items():
            rebuilt = np.concatenate(parts[name])
            assert np.array_equal(
                rebuilt.view(np.uint64), expected.view(np.uint64)
            ), name

    def test_filtered_scan_matches_numpy(self, table, trades):
        predicate = FilterPredicate("price", 100.0, 101.0)
        mask = (trades["price"] >= 100.0) & (trades["price"] <= 101.0)
        got_volume = []
        for batch in table.scan(["price", "volume"], predicate=predicate):
            assert (batch["price"] >= 100.0).all()
            assert (batch["price"] <= 101.0).all()
            got_volume.append(batch["volume"])
        rebuilt = (
            np.concatenate(got_volume) if got_volume else np.empty(0)
        )
        assert np.array_equal(rebuilt, trades["volume"][mask])

    def test_filter_column_not_projected(self, table, trades):
        predicate = FilterPredicate("price", 100.0, 100.5)
        mask = (trades["price"] >= 100.0) & (trades["price"] <= 100.5)
        total = 0
        for batch in table.scan(["fee"], predicate=predicate):
            assert "price" not in batch
            total += batch["fee"].size
        assert total == int(mask.sum())

    def test_empty_selection(self, table):
        predicate = FilterPredicate("price", 1e8, 2e8)
        assert list(table.scan(["volume"], predicate=predicate)) == []

    def test_unknown_projection_rejected_early(self, table):
        with pytest.raises(KeyError):
            next(iter(table.scan(["nope"])))


class TestAggregate:
    def test_unfiltered_sum(self, table, trades):
        assert table.aggregate("volume", "sum") == pytest.approx(
            float(trades["volume"].sum()), rel=1e-9
        )

    def test_filtered_sum(self, table, trades):
        predicate = FilterPredicate("price", 99.0, 101.0)
        mask = (trades["price"] >= 99.0) & (trades["price"] <= 101.0)
        expected = float(trades["volume"][mask].sum())
        got = table.aggregate("volume", "sum", predicate=predicate)
        assert got == pytest.approx(expected, rel=1e-9)

    def test_count_min_max(self, table, trades):
        predicate = FilterPredicate("volume", 500.0, 1000.0)
        mask = (trades["volume"] >= 500.0) & (trades["volume"] <= 1000.0)
        assert table.aggregate(
            "price", "count", predicate=predicate
        ) == int(mask.sum())
        assert table.aggregate(
            "price", "min", predicate=predicate
        ) == pytest.approx(float(trades["price"][mask].min()))
        assert table.aggregate(
            "price", "max", predicate=predicate
        ) == pytest.approx(float(trades["price"][mask].max()))

    def test_unknown_aggregate(self, table):
        with pytest.raises(ValueError):
            table.aggregate("price", "median")

    def test_self_filtered_aggregate(self, table, trades):
        # Filter and aggregate the same column.
        predicate = FilterPredicate("price", 100.0, 102.0)
        mask = (trades["price"] >= 100.0) & (trades["price"] <= 102.0)
        got = table.aggregate("price", "sum", predicate=predicate)
        assert got == pytest.approx(float(trades["price"][mask].sum()), rel=1e-9)


class TestNanMinMax:
    """MIN / MAX equal np.min / np.max over the whole column: a NaN in
    any vector makes the result NaN, whatever the vector boundaries."""

    def _column(self, nan_at=None):
        values = np.full(4 * 1024, 5.0)
        values[1024:2048] = 7.0
        values[3072:] = -2.0
        if nan_at is not None:
            values[nan_at] = np.nan
        return values

    @pytest.mark.parametrize("codec", ["uncompressed", "alp"])
    @pytest.mark.parametrize("kind", ["min", "max"])
    @pytest.mark.parametrize("nan_at", [0, 1500, 2047, 3000, 4095])
    def test_nan_in_any_vector(self, nan_at, kind, codec):
        values = self._column(nan_at)
        assert np.isnan(getattr(np, kind)(values))
        table = CompressedTable.from_arrays({"x": values}, codec)
        assert np.isnan(table.aggregate("x", kind))

    def test_nan_in_first_of_two_vectors(self):
        values = np.concatenate([np.full(1024, 5.0), np.full(1024, 7.0)])
        values[10] = np.nan
        table = CompressedTable.from_arrays({"x": values})
        assert np.isnan(table.aggregate("x", "min"))
        assert np.isnan(table.aggregate("x", "max"))

    @pytest.mark.parametrize("kind", ["min", "max"])
    def test_infinities(self, kind):
        values = self._column()
        values[2500] = np.inf
        values[100] = -np.inf
        expected = float(getattr(np, kind)(values))
        table = CompressedTable.from_arrays({"x": values})
        assert table.aggregate("x", kind) == expected == (
            -np.inf if kind == "min" else np.inf
        )

    def test_filter_drops_nan(self):
        values = self._column(1500)
        table = CompressedTable.from_arrays({"x": values})
        predicate = FilterPredicate("x", -10.0, 10.0)
        assert table.aggregate("x", "min", predicate) == -2.0
        assert table.aggregate("x", "max", predicate) == 7.0


class TestMixedCodecs:
    def test_columns_can_use_different_codecs(self, trades):
        from repro.query.sources import make_source

        table = CompressedTable(
            {
                "price": make_source("alp", trades["price"]),
                "volume": make_source("pde", trades["volume"]),
            }
        )
        assert table.aggregate("volume", "sum") == pytest.approx(
            float(trades["volume"].sum()), rel=1e-9
        )
