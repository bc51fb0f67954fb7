"""Unit tests for FOR, FFOR, Delta, RLE and Dictionary encodings."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.encodings.delta import (
    delta_decode,
    delta_encode,
    zigzag_decode,
    zigzag_encode,
)
from repro.encodings.dictionary import (
    SkewedDictionary,
    dictionary_decode,
    dictionary_encode,
)
from repro.encodings.ffor import (
    ffor_decode,
    ffor_decode_unfused,
    ffor_encode,
)
from repro.encodings.for_ import for_decode, for_encode
from repro.encodings.rle import run_boundaries

int64s = st.integers(min_value=-(2**62), max_value=2**62 - 1)


class TestFor:
    def test_roundtrip_basic(self):
        values = np.array([100, 101, 105, 100], dtype=np.int64)
        assert np.array_equal(for_decode(for_encode(values)), values)

    def test_constant_vector_needs_zero_bits(self):
        encoded = for_encode(np.full(1024, 42, dtype=np.int64))
        assert encoded.bit_width == 0
        assert encoded.payload == b""

    def test_negative_reference(self):
        values = np.array([-50, -49, -10], dtype=np.int64)
        encoded = for_encode(values)
        assert encoded.reference == -50
        assert np.array_equal(for_decode(encoded), values)

    def test_empty(self):
        encoded = for_encode(np.empty(0, dtype=np.int64))
        assert for_decode(encoded).size == 0

    def test_tight_range_gives_narrow_width(self):
        values = np.arange(1000, 1008, dtype=np.int64)
        assert for_encode(values).bit_width == 3

    @given(st.lists(int64s, max_size=200))
    def test_roundtrip_random(self, xs):
        values = np.array(xs, dtype=np.int64)
        assert np.array_equal(for_decode(for_encode(values)), values)


class TestFfor:
    def test_fused_and_unfused_agree(self):
        rng = np.random.default_rng(0)
        values = rng.integers(-(10**9), 10**9, size=1024).astype(np.int64)
        encoded = ffor_encode(values)
        assert np.array_equal(ffor_decode(encoded), values)
        assert np.array_equal(ffor_decode_unfused(encoded), values)

    def test_constant(self):
        values = np.full(10, -7, dtype=np.int64)
        encoded = ffor_encode(values)
        assert encoded.bit_width == 0
        assert np.array_equal(ffor_decode(encoded), values)
        assert np.array_equal(ffor_decode_unfused(encoded), values)

    def test_size_bits_counts_header(self):
        encoded = ffor_encode(np.array([0, 1], dtype=np.int64))
        assert encoded.size_bits() == 8 + 64 + 8  # 2 bits padded to a byte

    @given(st.lists(int64s, max_size=300))
    @settings(max_examples=50)
    def test_roundtrip_random(self, xs):
        values = np.array(xs, dtype=np.int64)
        encoded = ffor_encode(values)
        assert np.array_equal(ffor_decode(encoded), values)
        assert np.array_equal(ffor_decode_unfused(encoded), values)


class TestZigzag:
    def test_small_values(self):
        values = np.array([0, -1, 1, -2, 2], dtype=np.int64)
        assert zigzag_encode(values).tolist() == [0, 1, 2, 3, 4]

    @given(st.lists(int64s, max_size=100))
    def test_roundtrip(self, xs):
        values = np.array(xs, dtype=np.int64)
        assert np.array_equal(zigzag_decode(zigzag_encode(values)), values)


class TestDelta:
    def test_roundtrip_monotonic(self):
        values = np.arange(0, 5000, 3, dtype=np.int64)
        assert np.array_equal(delta_decode(delta_encode(values)), values)

    def test_sorted_data_compresses_well(self):
        values = np.arange(10**6, 10**6 + 1024, dtype=np.int64)
        encoded = delta_encode(values)
        assert encoded.bit_width <= 2

    def test_single_value(self):
        values = np.array([99], dtype=np.int64)
        assert np.array_equal(delta_decode(delta_encode(values)), values)

    def test_empty(self):
        assert delta_decode(delta_encode(np.empty(0, dtype=np.int64))).size == 0

    @given(st.lists(st.integers(-(2**40), 2**40), max_size=200))
    def test_roundtrip_random(self, xs):
        values = np.array(xs, dtype=np.int64)
        assert np.array_equal(delta_decode(delta_encode(values)), values)


class TestRle:
    def test_run_boundaries(self):
        values = np.array([5, 5, 5, 7, 7, 5], dtype=np.int64)
        assert run_boundaries(values).tolist() == [0, 3, 5]


class TestDictionary:
    def test_roundtrip(self):
        values = np.array([9, 3, 9, 9, 3, 1], dtype=np.int64)
        encoded = dictionary_encode(values)
        assert encoded.cardinality == 3
        assert np.array_equal(dictionary_decode(encoded), values)

    def test_low_cardinality_small_codes(self):
        values = np.tile(np.array([10, 20], dtype=np.int64), 512)
        encoded = dictionary_encode(values)
        assert encoded.codes.bit_width == 1

    @given(st.lists(st.integers(-100, 100), min_size=1, max_size=300))
    def test_roundtrip_random(self, xs):
        values = np.array(xs, dtype=np.int64)
        assert np.array_equal(
            dictionary_decode(dictionary_encode(values)), values
        )


class TestSkewedDictionary:
    def test_fit_single_value(self):
        sample = np.full(100, 7, dtype=np.uint64)
        d = SkewedDictionary.fit(sample)
        assert d.entries.tolist() == [7]
        assert d.code_width == 0

    def test_fit_respects_tolerance(self):
        # 95% of the sample is value 1 -> size-1 dictionary suffices (10% rule).
        sample = np.array([1] * 95 + [2, 3, 4, 5, 6], dtype=np.uint64)
        d = SkewedDictionary.fit(sample)
        assert d.entries.size == 1

    def test_fit_grows_to_eight(self):
        # Uniform over 16 values: even 8 entries leave 50% exceptions -> b = 3.
        sample = np.tile(np.arange(16, dtype=np.uint64), 10)
        d = SkewedDictionary.fit(sample)
        assert d.entries.size == 8
        assert d.code_width == 3

    def test_encode_decode_with_exceptions(self):
        d = SkewedDictionary.fit(np.array([1, 1, 2, 2], dtype=np.uint64))
        left = np.array([1, 2, 99, 1, 500], dtype=np.uint64)
        codes, exc_pos, exc_val = d.encode(left)
        assert exc_pos.tolist() == [2, 4]
        assert exc_val.tolist() == [99, 500]
        assert np.array_equal(d.decode(codes, exc_pos, exc_val), left)

    def test_empty_sample(self):
        d = SkewedDictionary.fit(np.empty(0, dtype=np.uint64))
        assert d.code_width == 0

    @given(
        st.lists(st.integers(0, 2**16 - 1), min_size=1, max_size=200),
        st.lists(st.integers(0, 2**16 - 1), min_size=1, max_size=200),
    )
    def test_roundtrip_random(self, sample, data):
        d = SkewedDictionary.fit(np.array(sample, dtype=np.uint64))
        left = np.array(data, dtype=np.uint64)
        codes, exc_pos, exc_val = d.encode(left)
        assert np.array_equal(d.decode(codes, exc_pos, exc_val), left)
