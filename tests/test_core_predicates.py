"""Tests for encoded-space predicate evaluation."""

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.alp import alp_encode_vector
from repro.core.predicates import filter_vector_encoded
from repro.core.sampler import find_best_combination


class TestEncodedBounds:
    def test_bounds_are_conservative(self):
        rng = np.random.default_rng(0)
        values = np.round(rng.uniform(0, 100, 1024), 2)
        combo, _ = find_best_combination(values)
        vector = alp_encode_vector(values, combo.exponent, combo.factor)
        low, high = 25.0, 75.0
        positions = filter_vector_encoded(vector, low, high)
        expected = np.flatnonzero((values >= low) & (values <= high))
        assert np.array_equal(positions, expected)


class TestFilterVector:
    def _vector(self, values):
        combo, _ = find_best_combination(values)
        return alp_encode_vector(values, combo.exponent, combo.factor)

    def test_exact_boundaries_included(self):
        values = np.array([1.00, 1.01, 1.02, 1.03])
        vector = self._vector(values)
        positions = filter_vector_encoded(vector, 1.01, 1.02)
        assert positions.tolist() == [1, 2]

    def test_empty_result(self):
        values = np.round(np.linspace(0, 1, 512), 3)
        vector = self._vector(values)
        assert filter_vector_encoded(vector, 5.0, 6.0).size == 0

    def test_exceptions_checked_exactly(self):
        values = np.round(np.linspace(0, 10, 512), 2)
        values[100] = math.pi  # exception, inside [3, 4]
        values[200] = 100.0 * math.pi  # exception, outside
        vector = self._vector(values)
        positions = filter_vector_encoded(vector, 3.0, 4.0)
        expected = np.flatnonzero((values >= 3.0) & (values <= 4.0))
        assert np.array_equal(positions, expected)
        assert 100 in positions.tolist()
        assert 200 not in positions.tolist()

    def test_nan_never_matches(self):
        values = np.round(np.linspace(0, 10, 128), 1)
        values[5] = math.nan
        vector = self._vector(values)
        positions = filter_vector_encoded(vector, -1e9, 1e9)
        assert 5 not in positions.tolist()
        assert positions.size == 127

    @given(
        st.floats(min_value=-50, max_value=50, allow_nan=False),
        st.floats(min_value=0, max_value=80, allow_nan=False),
    )
    @settings(max_examples=40, deadline=None)
    def test_matches_reference_on_random_ranges(self, low, width):
        rng = np.random.default_rng(7)
        values = np.round(rng.uniform(-60, 60, 1024), 2)
        vector = self._vector(values)
        high = low + width
        positions = filter_vector_encoded(vector, low, high)
        expected = np.flatnonzero((values >= low) & (values <= high))
        assert np.array_equal(positions, expected)
