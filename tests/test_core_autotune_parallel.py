"""Tests for parallel compression and automatic codec selection."""

import math

import numpy as np

from repro.core.autotune import choose_codec
from repro.core.compressor import compress, compress_parallel, decompress
from repro.data import get_dataset


def bitwise_equal(a, b):
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    return a.shape == b.shape and np.array_equal(
        a.view(np.uint64), b.view(np.uint64)
    )


class TestCompressParallel:
    def test_bit_identical_to_serial(self):
        values = get_dataset("Stocks-USA", n=320_000)
        serial = compress(values)
        parallel = compress_parallel(values, threads=2)
        assert parallel.size_bits() == serial.size_bits()
        assert len(parallel.rowgroups) == len(serial.rowgroups)
        assert bitwise_equal(decompress(parallel), values)

    def test_single_rowgroup_falls_back(self):
        values = np.round(np.random.default_rng(0).uniform(0, 9, 5000), 1)
        column = compress_parallel(values, threads=4)
        assert bitwise_equal(decompress(column), values)

    def test_stats_preserved(self):
        values = get_dataset("City-Temp", n=250_000)
        parallel = compress_parallel(values, threads=2)
        stats = parallel.stats
        assert stats.vectors_encoded == sum(
            len(rg.alp.vectors) if rg.alp else len(rg.rd.vectors)
            for rg in parallel.rowgroups
        )

    def test_mixed_schemes_parallel(self):
        decimal = np.round(
            np.random.default_rng(1).uniform(0, 100, 102_400), 1
        )
        real = np.random.default_rng(2).uniform(0, 1, 102_400) * math.pi
        values = np.concatenate([decimal, real])
        column = compress_parallel(values, threads=2)
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
