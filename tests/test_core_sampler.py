"""Tests for the two-level adaptive sampling (Section 3.2)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.constants import MAX_EXPONENT, RD_SIZE_THRESHOLD_BITS
from repro.core.sampler import (
    SEARCH_SPACE_SIZE,
    ExponentFactor,
    equidistant_indices,
    estimate_sizes_all_combinations,
    find_best_combination,
    first_level_sample,
    sample_vector,
    second_level_sample,
)


class TestExponentFactor:
    def test_valid(self):
        ef = ExponentFactor(14, 10)
        assert ef.exponent == 14 and ef.factor == 10

    def test_factor_above_exponent_rejected(self):
        with pytest.raises(ValueError):
            ExponentFactor(3, 4)

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            ExponentFactor(3, -1)

    def test_exponent_above_max_rejected(self):
        with pytest.raises(ValueError):
            ExponentFactor(MAX_EXPONENT + 1, 0)


class TestSearchSpace:
    def test_paper_search_space_size(self):
        # f <= e, 0 <= e <= 21 -> sum(e + 1) = 253 combinations (§2.6).
        assert SEARCH_SPACE_SIZE == 253

    def test_all_sizes_shape(self):
        sizes = estimate_sizes_all_combinations(np.array([1.5, 2.5]))
        assert sizes.shape == (253,)

    def test_empty_sample(self):
        sizes = estimate_sizes_all_combinations(np.empty(0))
        assert (sizes == 0).all()


class TestFindBestCombination:
    def test_two_decimals_prefers_factor_matching_precision(self):
        values = np.round(np.random.default_rng(0).uniform(1, 100, 256), 2)
        combo, _ = find_best_combination(values)
        # d should be value * 100 -> e - f == 2.
        assert combo.exponent - combo.factor == 2

    def test_integers_prefer_equal_e_f(self):
        values = np.arange(1000, 1256, dtype=np.float64)
        combo, _ = find_best_combination(values)
        assert combo.exponent == combo.factor  # no decimal shift at all

    def test_ties_prefer_high_exponent(self):
        # All-zero sample: every combination encodes perfectly with width 0,
        # so the tie-break must pick the highest exponent and factor.
        combo, size = find_best_combination(np.zeros(32))
        assert combo.exponent == MAX_EXPONENT
        assert combo.factor == MAX_EXPONENT
        assert size == 0

    def test_incompressible_sample_yields_exceptions(self):
        rng = np.random.default_rng(1)
        values = rng.uniform(0, 1, 64) * np.pi
        _, size = find_best_combination(values)
        assert size / values.size >= RD_SIZE_THRESHOLD_BITS

    def test_best_combination_actually_minimal(self):
        values = np.round(np.random.default_rng(2).uniform(0, 10, 64), 3)
        sizes = estimate_sizes_all_combinations(values)
        _, best_size = find_best_combination(values)
        assert best_size == int(sizes.min())


class TestEquidistantSampling:
    def test_fewer_elements_than_wanted(self):
        assert equidistant_indices(3, 8).tolist() == [0, 1, 2]

    def test_exact(self):
        assert equidistant_indices(8, 8).tolist() == list(range(8))

    def test_spread(self):
        idx = equidistant_indices(1024, 32)
        assert idx[0] == 0 and idx[-1] == 1023 and len(idx) == 32
        assert (np.diff(idx) > 0).all()

    def test_empty(self):
        assert equidistant_indices(0, 5).size == 0

    def test_cached_indices_are_read_only(self):
        idx = equidistant_indices(1024, 32)
        assert equidistant_indices(1024, 32) is idx
        with pytest.raises(ValueError, match="read-only"):
            idx[0] = 5
        assert equidistant_indices(1024, 32)[0] == 0

    def test_sample_vector(self):
        values = np.arange(100, dtype=np.float64)
        sample = sample_vector(values, 10)
        assert sample.size == 10
        assert sample[0] == 0.0 and sample[-1] == 99.0


class TestFirstLevel:
    def test_uniform_dataset_single_candidate(self):
        # One decimal everywhere -> a single dominant combination.
        rng = np.random.default_rng(3)
        rowgroup = np.round(rng.uniform(0, 100, 8 * 1024), 1)
        result = first_level_sample(rowgroup)
        assert result.k_prime == 1
        assert not result.use_rd

    def test_mixed_precision_multiple_candidates(self):
        rng = np.random.default_rng(4)
        parts = [
            np.round(rng.uniform(0, 100, 1024), p) for p in (1, 3, 5, 7)
        ] * 2
        rowgroup = np.concatenate(parts)
        result = first_level_sample(rowgroup)
        assert 1 <= result.k_prime <= 5

    def test_real_doubles_trigger_rd(self):
        rng = np.random.default_rng(5)
        rowgroup = rng.uniform(0, 1, 8 * 1024) * np.pi
        result = first_level_sample(rowgroup)
        assert result.use_rd

    def test_candidate_count_capped_at_k(self):
        rng = np.random.default_rng(6)
        parts = [
            np.round(rng.uniform(0, 10**p, 1024), p) for p in range(8)
        ]
        result = first_level_sample(np.concatenate(parts))
        assert result.k_prime <= 5

    def test_empty_rowgroup(self):
        result = first_level_sample(np.empty(0))
        assert result.k_prime >= 1

    def test_small_rowgroup(self):
        result = first_level_sample(np.array([1.5, 2.5, 3.5]))
        assert not result.use_rd


class TestSecondLevel:
    def test_single_candidate_skips(self):
        result = second_level_sample(
            np.arange(10.0), (ExponentFactor(14, 13),)
        )
        assert result.skipped
        assert result.combinations_tried == 0

    def test_picks_better_candidate(self):
        values = np.round(np.random.default_rng(7).uniform(0, 100, 1024), 2)
        good = ExponentFactor(14, 12)
        bad = ExponentFactor(14, 0)
        result = second_level_sample(values, (bad, good))
        assert result.combination == good

    def test_early_exit_after_two_worse(self):
        values = np.round(np.random.default_rng(8).uniform(0, 100, 1024), 2)
        good = ExponentFactor(14, 12)
        worse = (ExponentFactor(14, 0), ExponentFactor(13, 0),
                 ExponentFactor(12, 0), ExponentFactor(11, 0))
        result = second_level_sample(values, (good,) + worse)
        # good, then two worse candidates -> stop at 3 tried.
        assert result.combinations_tried == 3
        assert result.combination == good

    def test_no_candidates_rejected(self):
        with pytest.raises(ValueError):
            second_level_sample(np.arange(4.0), ())

    @given(st.integers(min_value=1, max_value=5))
    @settings(max_examples=10, deadline=None)
    def test_tried_never_exceeds_candidates(self, k):
        values = np.round(np.random.default_rng(9).uniform(0, 10, 128), 1)
        candidates = tuple(ExponentFactor(14, 14 - i) for i in range(k))
        result = second_level_sample(values, candidates)
        assert result.combinations_tried <= k


class TestBatchedSamplerEquivalence:
    """The batched samplers must be decision-identical to the loop refs."""

    DATASETS = ("City-Temp", "Stocks-DE", "Gov/10", "POI-lat")

    def _rowgroup(self, name, n=16 * 1024):
        from repro.data import get_dataset

        return get_dataset(name, n=n)

    @pytest.mark.parametrize("name", DATASETS)
    def test_first_level_matches_loop(self, name):
        from repro.core.sampler import first_level_sample_loop

        rowgroup = self._rowgroup(name)
        batched = first_level_sample(rowgroup)
        loop = first_level_sample_loop(rowgroup)
        assert batched.candidates == loop.candidates
        assert batched.use_rd == loop.use_rd
        assert (
            batched.best_estimated_bits_per_value
            == loop.best_estimated_bits_per_value
        )

    def test_first_level_matches_loop_ragged_tail(self):
        # A tail chunk shorter than the sample size forces the
        # per-length batching; estimates must not change.
        from repro.core.sampler import first_level_sample_loop

        rng = np.random.default_rng(10)
        rowgroup = np.round(rng.uniform(0, 100, 4 * 1024 + 7), 2)
        batched = first_level_sample(rowgroup, vector_size=1024)
        loop = first_level_sample_loop(rowgroup, vector_size=1024)
        assert batched.candidates == loop.candidates
        assert batched.use_rd == loop.use_rd

    @pytest.mark.parametrize("name", DATASETS)
    def test_second_level_matches_loop(self, name):
        from repro.core.sampler import second_level_sample_loop

        rowgroup = self._rowgroup(name)
        candidates = first_level_sample(rowgroup).candidates
        if len(candidates) == 1:
            # Force a multi-candidate walk so the comparison is not
            # trivially the skip path.
            base = candidates[0]
            candidates = (
                base,
                ExponentFactor(base.exponent, max(base.factor - 1, 0)),
                ExponentFactor(max(base.exponent - 1, 0), 0),
            )
        for start in range(0, rowgroup.size, 1024):
            chunk = rowgroup[start : start + 1024]
            batched = second_level_sample(chunk, candidates)
            loop = second_level_sample_loop(chunk, candidates)
            assert batched.combination == loop.combination
            assert batched.combinations_tried == loop.combinations_tried
            assert batched.skipped == loop.skipped

    @pytest.mark.parametrize("name", DATASETS)
    def test_second_level_rowgroup_matches_per_vector(self, name):
        from repro.core.sampler import second_level_sample_rowgroup

        rowgroup = self._rowgroup(name)
        candidates = first_level_sample(rowgroup).candidates
        per_rowgroup = second_level_sample_rowgroup(
            rowgroup, candidates, vector_size=1024
        )
        per_vector = [
            second_level_sample(rowgroup[start : start + 1024], candidates)
            for start in range(0, rowgroup.size, 1024)
        ]
        assert per_rowgroup == per_vector

    def test_second_level_rowgroup_ragged_tail(self):
        from repro.core.sampler import second_level_sample_rowgroup

        rng = np.random.default_rng(11)
        rowgroup = np.concatenate(
            [
                np.round(rng.uniform(0, 100, 2 * 1024), 1),
                np.round(rng.uniform(0, 100, 7), 5),
            ]
        )
        candidates = (ExponentFactor(14, 13), ExponentFactor(10, 5))
        per_rowgroup = second_level_sample_rowgroup(
            rowgroup, candidates, vector_size=1024
        )
        per_vector = [
            second_level_sample(rowgroup[start : start + 1024], candidates)
            for start in range(0, rowgroup.size, 1024)
        ]
        assert per_rowgroup == per_vector

    def test_second_level_rowgroup_single_candidate_skips(self):
        from repro.core.sampler import second_level_sample_rowgroup

        results = second_level_sample_rowgroup(
            np.arange(3000.0), (ExponentFactor(14, 13),), vector_size=1024
        )
        assert len(results) == 3
        assert all(r.skipped and r.combinations_tried == 0 for r in results)
