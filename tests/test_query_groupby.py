"""Tests for vectorized GROUP BY over compressed columns."""

import math

import numpy as np
import pytest

from repro.query.groupby import GroupedAggregate, group_by
from repro.query.sources import make_source


@pytest.fixture(scope="module")
def sales():
    rng = np.random.default_rng(0)
    n = 50_000
    region = rng.integers(0, 12, n).astype(np.float64)
    amount = np.round(rng.lognormal(3.0, 1.0, n), 2)
    return region, amount


def reference_groupby(keys, values, kind):
    out = {}
    for k in np.unique(keys):
        selected = values[keys == k]
        out[float(k)] = {
            "sum": float(selected.sum()),
            "count": float(selected.size),
            "min": float(selected.min()),
            "max": float(selected.max()),
        }[kind]
    return out


class TestGroupedAggregate:
    def test_single_batch(self):
        acc = GroupedAggregate()
        acc.update(np.array([1.0, 2.0, 1.0]), np.array([10.0, 20.0, 30.0]))
        assert acc.result("sum") == {1.0: 40.0, 2.0: 20.0}
        assert acc.result("count") == {1.0: 2.0, 2.0: 1.0}
        assert acc.result("min") == {1.0: 10.0, 2.0: 20.0}
        assert acc.result("max") == {1.0: 30.0, 2.0: 20.0}

    def test_accumulates_across_batches(self):
        acc = GroupedAggregate()
        acc.update(np.array([5.0]), np.array([1.0]))
        acc.update(np.array([5.0]), np.array([2.0]))
        assert acc.result("sum") == {5.0: 3.0}
        assert acc.group_count == 1

    def test_misaligned_rejected(self):
        with pytest.raises(ValueError):
            GroupedAggregate().update(np.zeros(3), np.zeros(4))

    def test_empty_update_is_noop(self):
        acc = GroupedAggregate()
        acc.update(np.empty(0), np.empty(0))
        assert acc.group_count == 0

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            GroupedAggregate().result("median")

    def test_nan_keys_group_together(self):
        acc = GroupedAggregate()
        acc.update(np.array([math.nan, math.nan]), np.array([1.0, 2.0]))
        assert acc.group_count == 1
        (total,) = acc.result("sum").values()
        assert total == 3.0

    def test_signed_zero_keys_distinct(self):
        acc = GroupedAggregate()
        acc.update(np.array([0.0, -0.0]), np.array([1.0, 2.0]))
        assert acc.group_count == 2


class TestNanPerGroup:
    """Per group, MIN / MAX follow np.min / np.max: NaN if any of the
    group's values is NaN, in any batch, with no RuntimeWarning."""

    @pytest.mark.parametrize("batch", [0, 1, 2])
    def test_nan_in_one_batch(self, batch):
        agg = GroupedAggregate()
        for b in range(3):
            values = np.array([5.0 + b, 1.0 + b, -np.inf if b == 1 else 3.0])
            if b == batch:
                values[0] = np.nan
            agg.update(np.array([1.0, 2.0, 2.0]), values)
        assert math.isnan(agg.result("min")[1.0])
        assert math.isnan(agg.result("max")[1.0])
        assert agg.result("min")[2.0] == -np.inf
        assert agg.result("max")[2.0] == 3.0

    def test_group_by_over_vectors(self):
        keys = np.tile([0.0, 1.0], 1024)
        values = np.arange(2048, dtype=np.float64)
        values[1500] = np.nan  # key 0.0, second vector
        result = {
            kind: group_by(
                make_source("alp", keys), make_source("alp", values), kind
            )
            for kind in ("min", "max", "sum")
        }
        for kind in ("min", "max", "sum"):
            assert math.isnan(result[kind][0.0])
        assert result["min"][1.0] == 1.0
        assert result["max"][1.0] == 2047.0


class TestGroupByOverCompressed:
    @pytest.mark.parametrize("kind", ["sum", "count", "min", "max"])
    def test_matches_reference(self, sales, kind):
        region, amount = sales
        got = group_by(
            make_source("alp", region), make_source("alp", amount), kind
        )
        expected = reference_groupby(region, amount, kind)
        assert set(got) == set(expected)
        for key, value in expected.items():
            assert got[key] == pytest.approx(value, rel=1e-9), key

    def test_mixed_codecs(self, sales):
        region, amount = sales
        got = group_by(
            make_source("pde", region), make_source("alp", amount), "count"
        )
        assert sum(got.values()) == region.size

    def test_length_mismatch_rejected(self, sales):
        region, amount = sales
        with pytest.raises(ValueError):
            group_by(
                make_source("alp", region[:100]),
                make_source("alp", amount),
            )
