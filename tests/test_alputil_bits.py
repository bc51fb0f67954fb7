"""Unit tests for repro.alputil.bits."""

import math

import numpy as np
from hypothesis import given
from hypothesis import strategies as st

from repro.alputil.bits import (
    bit_length64,
    bits_to_double,
    bits_to_float32,
    double_to_bits,
    float32_to_bits,
    ieee754_exponent,
    ieee754_mantissa,
    ieee754_sign,
    leading_zeros64,
    trailing_zeros64,
    xor_with_previous,
)


class TestBitViews:
    def test_double_roundtrip(self):
        values = np.array([0.0, -0.0, 1.0, -1.5, math.pi, 1e300, -1e-300])
        assert np.array_equal(
            bits_to_double(double_to_bits(values)).view(np.uint64),
            values.view(np.uint64),
        )

    def test_one_is_known_pattern(self):
        assert double_to_bits(np.array([1.0]))[0] == 0x3FF0000000000000

    def test_negative_zero_differs_from_zero(self):
        bits = double_to_bits(np.array([0.0, -0.0]))
        assert bits[0] == 0
        assert bits[1] == 1 << 63

    def test_nan_payload_preserved(self):
        payload = np.uint64(0x7FF8DEADBEEF0001)
        value = bits_to_double(np.array([payload], dtype=np.uint64))
        assert math.isnan(value[0])
        assert double_to_bits(value)[0] == payload

    def test_float32_roundtrip(self):
        values = np.array([0.0, -2.5, 3.14], dtype=np.float32)
        assert np.array_equal(
            float32_to_bits(bits_to_float32(float32_to_bits(values))),
            float32_to_bits(values),
        )

    def test_float32_one_pattern(self):
        assert float32_to_bits(np.array([1.0], dtype=np.float32))[0] == 0x3F800000


class TestFieldExtraction:
    def test_sign(self):
        signs = ieee754_sign(np.array([1.0, -1.0, 0.0, -0.0]))
        assert signs.tolist() == [0, 1, 0, 1]

    def test_exponent_of_one_is_bias(self):
        assert ieee754_exponent(np.array([1.0]))[0] == 1023

    def test_exponent_of_two(self):
        assert ieee754_exponent(np.array([2.0]))[0] == 1024

    def test_exponent_of_half(self):
        assert ieee754_exponent(np.array([0.5]))[0] == 1022

    def test_exponent_of_zero(self):
        assert ieee754_exponent(np.array([0.0]))[0] == 0

    def test_mantissa_of_power_of_two_is_zero(self):
        assert ieee754_mantissa(np.array([8.0]))[0] == 0

    def test_mantissa_of_1_5(self):
        # 1.5 = 1 + 0.5 -> top mantissa bit set.
        assert ieee754_mantissa(np.array([1.5]))[0] == 1 << 51


class TestZeroCounts:
    def test_leading_zeros_zero(self):
        assert leading_zeros64(np.array([0], dtype=np.uint64))[0] == 64

    def test_leading_zeros_one(self):
        assert leading_zeros64(np.array([1], dtype=np.uint64))[0] == 63

    def test_leading_zeros_msb(self):
        assert leading_zeros64(np.array([1 << 63], dtype=np.uint64))[0] == 0

    def test_trailing_zeros_zero(self):
        assert trailing_zeros64(np.array([0], dtype=np.uint64))[0] == 64

    def test_trailing_zeros_even(self):
        assert trailing_zeros64(np.array([8], dtype=np.uint64))[0] == 3

    def test_trailing_zeros_odd(self):
        assert trailing_zeros64(np.array([7], dtype=np.uint64))[0] == 0

    def test_bit_length_exact_at_every_power_of_two(self):
        # 2**k - 1, 2**k and 2**k + 1 straddle each boundary; above 2**53
        # a plain float64 conversion would round them together.
        xs = [0, 2**64 - 1] + [
            x
            for k in range(64)
            for x in (2**k - 1, 2**k, 2**k + 1)
            if x < 2**64
        ]
        arr = np.array(xs, dtype=np.uint64)
        assert bit_length64(arr).tolist() == [x.bit_length() for x in xs]
        assert leading_zeros64(arr).tolist() == [64 - x.bit_length() for x in xs]
        assert trailing_zeros64(arr).tolist() == [
            64 if x == 0 else (x & -x).bit_length() - 1 for x in xs
        ]

    def test_bit_length_keeps_shape(self):
        arr = np.array([[0, 1], [2**40, 2**64 - 1]], dtype=np.uint64)
        assert bit_length64(arr).tolist() == [[0, 1], [41, 64]]
        assert bit_length64(arr).dtype == np.int64

    @given(st.integers(min_value=0, max_value=2**64 - 1))
    def test_matches_python_bit_tricks(self, x):
        arr = np.array([x], dtype=np.uint64)
        expected_lz = 64 - x.bit_length()
        assert leading_zeros64(arr)[0] == expected_lz
        expected_tz = 64 if x == 0 else (x & -x).bit_length() - 1
        assert trailing_zeros64(arr)[0] == expected_tz

    @given(
        st.lists(
            st.integers(min_value=0, max_value=2**64 - 1), min_size=1, max_size=50
        )
    )
    def test_vectorized_agrees_with_scalar(self, xs):
        arr = np.array(xs, dtype=np.uint64)
        lz = leading_zeros64(arr)
        tz = trailing_zeros64(arr)
        for i, x in enumerate(xs):
            assert lz[i] == 64 - x.bit_length()
            assert tz[i] == (64 if x == 0 else (x & -x).bit_length() - 1)


class TestXorWithPrevious:
    def test_first_element_passes_through(self):
        values = np.array([1.5, 1.5, 2.0])
        xored = xor_with_previous(values)
        assert xored[0] == double_to_bits(values[:1])[0]

    def test_equal_neighbours_xor_to_zero(self):
        values = np.array([3.25, 3.25])
        assert xor_with_previous(values)[1] == 0

    def test_roundtrip_by_rescan(self):
        rng = np.random.default_rng(7)
        values = rng.normal(size=100)
        xored = xor_with_previous(values)
        rebuilt = np.empty_like(xored)
        prev = np.uint64(0)
        for i, x in enumerate(xored):
            prev = prev ^ x
            rebuilt[i] = prev
        assert np.array_equal(rebuilt, double_to_bits(values))
