"""Tests for the two-level adaptive sampling (Section 3.2)."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.alp import estimate_size_bits
from repro.core.constants import (
    EXCEPTION_SIZE_BITS,
    MAX_EXPONENT,
    RD_SIZE_THRESHOLD_BITS,
)
from repro.core.sampler import (
    _E_ALL,
    _F_ALL,
    SEARCH_SPACE_SIZE,
    ExponentFactor,
    equidistant_indices,
    estimate_sizes_all_combinations,
    estimate_sizes_matrix,
    find_best_combination,
    first_level_sample,
    first_level_sample_loop,
    sample_vector,
    second_level_sample,
    second_level_sample_loop,
    second_level_sample_rowgroup,
)
from repro.data import DATASET_ORDER


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
        sizes = [
            estimate_size_bits(values, int(e), int(f))
            for e, f in zip(_E_ALL, _F_ALL)
        ]
        combo, best_size = find_best_combination(values)
        assert best_size == min(sizes)
        # The first minimum in search-space order wins.
        first = sizes.index(min(sizes))
        assert (combo.exponent, combo.factor) == (_E_ALL[first], _F_ALL[first])


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


def _nan(bits: int) -> float:
    return float(np.array([bits], dtype=np.uint64).view(np.float64)[0])


#: NaN payloads (quiet, signalling, negative) — a float-domain kernel
#: carries them through its multiplies unchanged.
NAN_PAYLOADS = tuple(
    _nan(bits)
    for bits in (
        0x7FF8000000000000,
        0x7FF0000000000001,
        0xFFF8000000000123,
        0x7FFFFFFFFFFFFFFF,
    )
)
#: Values every combination turns into an exception.
ALWAYS_EXCEPTIONS = NAN_PAYLOADS + (-0.0, math.inf, -math.inf)
SPECIALS = ALWAYS_EXCEPTIONS + (
    0.0,
    5e-324,
    -5e-324,
    2.2250738585072014e-308,
    -1.5e-310,
    1e300,
    -1e300,
    2.0**62,
    -(2.0**62) - 2048.0,
)

_sample_value = st.one_of(
    # Decimals, the values ALP targets; large ones put |x * 10**(e - f)|
    # past 2**51 for the higher combinations.
    st.builds(
        lambda digits, places: digits / 10.0**places,
        st.integers(-(10**17), 10**17),
        st.integers(0, 10),
    ),
    # Half-integers around -2**51 .. -2**52 (and their mirror): the
    # sweet-spot sum keeps the .5, which the int64 cast truncates.
    st.builds(
        lambda k, sign: sign * (2.0**51 + k + 0.5),
        st.integers(0, 2**51 - 1),
        st.sampled_from((-1.0, 1.0)),
    ),
    st.sampled_from(SPECIALS),
    st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True),
)


@st.composite
def sample_matrices(draw):
    """An (8 vectors x 32 samples) level-one sample, some vectors all
    exceptions."""
    values = draw(st.lists(_sample_value, min_size=8 * 32, max_size=8 * 32))
    samples = np.array(values, dtype=np.float64).reshape(8, 32)
    for row in draw(st.sets(st.integers(0, 7), max_size=3)):
        samples[row] = draw(
            st.lists(
                st.sampled_from(ALWAYS_EXCEPTIONS), min_size=32, max_size=32
            )
        )
    return samples


class TestKernelMatchesEncoderEstimate:
    """``estimate_sizes_matrix`` against :func:`estimate_size_bits`, the
    encoder's own ``alp_analyze`` run one combination at a time."""

    @staticmethod
    def _assert_matches(samples: np.ndarray) -> None:
        # The kernel takes one sampled vector per column.
        sizes = estimate_sizes_matrix(samples.T, _E_ALL, _F_ALL)
        assert sizes.shape == (samples.shape[0], SEARCH_SPACE_SIZE)
        for v, row in enumerate(samples):
            expected = [
                estimate_size_bits(row, int(e), int(f))
                for e, f in zip(_E_ALL, _F_ALL)
            ]
            assert sizes[v].tolist() == expected, f"vector {v}"

    @given(sample_matrices())
    @settings(max_examples=30, deadline=None)
    def test_property_every_combination_and_vector(self, samples):
        self._assert_matches(samples)

    def test_half_integer_past_two_pow_51_is_an_exception(self):
        # x + sweet - sweet keeps the .5 here; the encoder's int64 cast
        # truncates it, so the value cannot round-trip at (0, 0).
        x = -(2.0**51) - 0.5
        samples = np.array([[x, x + 1.0, 3.0, -7.0]])
        self._assert_matches(samples)
        sizes = estimate_sizes_matrix(samples.T, _E_ALL, _F_ALL)
        assert sizes[0, SEARCH_SPACE_SIZE - 1] >= 2 * EXCEPTION_SIZE_BITS

    def test_nan_payloads_are_exceptions(self):
        samples = np.array([list(NAN_PAYLOADS) + [1.5, 2.5]])
        self._assert_matches(samples)
        sizes = estimate_sizes_matrix(samples.T, _E_ALL, _F_ALL)
        assert (sizes >= len(NAN_PAYLOADS) * EXCEPTION_SIZE_BITS).all()

    def test_all_exception_vector(self):
        samples = np.array([list(ALWAYS_EXCEPTIONS) * 4])
        self._assert_matches(samples)
        sizes = estimate_sizes_matrix(samples.T, _E_ALL, _F_ALL)
        assert (sizes == samples.size * EXCEPTION_SIZE_BITS).all()


class TestBatchedSamplerEquivalence:
    """The batched samplers must be decision-identical to the loop
    references, which estimate sizes one combination at a time through
    :func:`repro.core.alp.estimate_size_bits`."""

    DATASETS = DATASET_ORDER

    def _rowgroup(self, name, n=16 * 1024):
        from repro.data import get_dataset

        return get_dataset(name, n=n)

    @pytest.mark.parametrize("name", DATASETS)
    def test_first_level_matches_loop(self, name):
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
        rng = np.random.default_rng(10)
        rowgroup = np.round(rng.uniform(0, 100, 4 * 1024 + 7), 2)
        batched = first_level_sample(rowgroup, vector_size=1024)
        loop = first_level_sample_loop(rowgroup, vector_size=1024)
        assert batched.candidates == loop.candidates
        assert batched.use_rd == loop.use_rd
        assert (
            batched.best_estimated_bits_per_value
            == loop.best_estimated_bits_per_value
        )

    def _multi_candidates(self, rowgroup):
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
        return candidates

    @pytest.mark.parametrize("name", DATASETS)
    def test_second_level_matches_loop(self, name):
        rowgroup = self._rowgroup(name)
        candidates = self._multi_candidates(rowgroup)
        for start in range(0, rowgroup.size, 1024):
            chunk = rowgroup[start : start + 1024]
            batched = second_level_sample(chunk, candidates)
            loop = second_level_sample_loop(chunk, candidates)
            assert batched.combination == loop.combination
            assert batched.combinations_tried == loop.combinations_tried
            assert batched.skipped == loop.skipped

    @staticmethod
    def _assert_rowgroup_matches_loop(rowgroup, candidates, vector_size):
        choices = second_level_sample_rowgroup(
            rowgroup, candidates, vector_size=vector_size
        )
        loop = [
            second_level_sample_loop(
                rowgroup[start : start + vector_size], candidates
            )
            for start in range(0, rowgroup.size, vector_size)
        ]
        assert choices.exponents.tolist() == [
            r.combination.exponent for r in loop
        ]
        assert choices.factors.tolist() == [r.combination.factor for r in loop]
        assert choices.tried.tolist() == [r.combinations_tried for r in loop]

    @pytest.mark.parametrize("name", DATASETS)
    def test_second_level_rowgroup_matches_per_vector(self, name):
        rowgroup = self._rowgroup(name)
        self._assert_rowgroup_matches_loop(
            rowgroup, self._multi_candidates(rowgroup), 1024
        )

    def test_second_level_rowgroup_ragged_tail(self):
        rng = np.random.default_rng(11)
        rowgroup = np.concatenate(
            [
                np.round(rng.uniform(0, 100, 2 * 1024), 1),
                np.round(rng.uniform(0, 100, 7), 5),
            ]
        )
        candidates = (ExponentFactor(14, 13), ExponentFactor(10, 5))
        self._assert_rowgroup_matches_loop(rowgroup, candidates, 1024)

    def test_second_level_rowgroup_walks_every_length(self):
        # Five candidates in an order that makes vectors exit early at
        # different steps, win late, or walk to the end.
        rng = np.random.default_rng(12)
        rowgroup = np.concatenate(
            [
                np.round(rng.uniform(0, 100, 1000), p)
                for p in (0, 1, 2, 3, 4, 6)
            ]
            + [rng.uniform(0, 1, 500)]
        )
        candidates = tuple(
            ExponentFactor(14, f) for f in (14, 13, 12, 11, 10)
        )
        self._assert_rowgroup_matches_loop(rowgroup, candidates, 500)

    def test_second_level_rowgroup_single_candidate_skips(self):
        choices = second_level_sample_rowgroup(
            np.arange(3000.0), (ExponentFactor(14, 13),), vector_size=1024
        )
        assert choices.exponents.tolist() == [14, 14, 14]
        assert choices.factors.tolist() == [13, 13, 13]
        assert choices.tried.tolist() == [0, 0, 0]
