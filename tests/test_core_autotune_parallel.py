"""Tests for automatic codec selection and per-row-group scheme choice."""

import math

import numpy as np

from repro.core.autotune import choose_codec
from repro.core.compressor import compress, decompress
from repro.data import get_dataset


def bitwise_equal(a, b):
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    return a.shape == b.shape and np.array_equal(
        a.view(np.uint64), b.view(np.uint64)
    )


class TestCompressParallel:
    """Row-groups are encoded independently, each picking its own scheme."""

    def test_mixed_schemes_parallel(self):
        decimal = np.round(
            np.random.default_rng(1).uniform(0, 100, 102_400), 1
        )
        real = np.random.default_rng(2).uniform(0, 1, 102_400) * math.pi
        values = np.concatenate([decimal, real])
        column = compress(values)
        assert {rg.scheme for rg in column.rowgroups} == {"alp", "alprd"}
        assert bitwise_equal(decompress(column), values)


class TestChooseCodec:
    def test_decimal_data_picks_alp_family(self):
        values = get_dataset("Dew-Temp", n=30_000)
        choice = choose_codec(values)
        assert choice.name in ("alp", "lwc+alp")
        assert choice.projected_bits_per_value < 30

    def test_duplicate_heavy_picks_cascade(self):
        values = get_dataset("Gov/26", n=120_000)
        choice = choose_codec(values)
        assert choice.name == "lwc+alp"

    def test_gps_radians_pick_pi(self):
        values = get_dataset("POI-lat-gps", n=30_000)
        choice = choose_codec(values)
        assert choice.name == "alp-pi"

    def test_full_precision_radians_do_not_pick_pi(self):
        values = get_dataset("POI-lat", n=30_000)
        choice = choose_codec(values)
        assert choice.name != "alp-pi"
        assert choice.trials["alp-pi"] == float("inf")

    def test_trials_reported_for_all_candidates(self):
        values = get_dataset("City-Temp", n=20_000)
        choice = choose_codec(values)
        assert set(choice.trials) == {"alp", "lwc+alp", "alp-pi"}
