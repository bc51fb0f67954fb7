"""IEEE 754 bit-level helpers.

Both the ALP family and every XOR baseline manipulate doubles through their
raw 64-bit representation.  This module provides zero-copy views between
float arrays and unsigned integer arrays, field extraction for the three
IEEE 754 segments (sign / exponent / mantissa), and vectorized
leading/trailing-zero counts used throughout the dataset analysis
(Table 2 of the paper) and the XOR baselines.
"""

from __future__ import annotations

import numpy as np

#: Number of mantissa bits in an IEEE 754 double.
DOUBLE_MANTISSA_BITS = 52
#: Number of exponent bits in an IEEE 754 double.
DOUBLE_EXPONENT_BITS = 11
#: Exponent bias of an IEEE 754 double.
DOUBLE_EXPONENT_BIAS = 1023

#: Number of mantissa bits in an IEEE 754 single-precision float.
FLOAT_MANTISSA_BITS = 23
#: Number of exponent bits in an IEEE 754 single-precision float.
FLOAT_EXPONENT_BITS = 8
#: Exponent bias of an IEEE 754 single-precision float.
FLOAT_EXPONENT_BIAS = 127


def double_to_bits(values: np.ndarray) -> np.ndarray:
    """Reinterpret a float64 array as uint64 without copying.

    >>> double_to_bits(np.array([1.0]))
    array([4607182418800017408], dtype=uint64)
    """
    values = np.ascontiguousarray(values, dtype=np.float64)
    return values.view(np.uint64)


def bits_to_double(bits: np.ndarray) -> np.ndarray:
    """Reinterpret a uint64 array as float64 without copying."""
    bits = np.ascontiguousarray(bits, dtype=np.uint64)
    return bits.view(np.float64)


def float32_to_bits(values: np.ndarray) -> np.ndarray:
    """Reinterpret a float32 array as uint32 without copying."""
    values = np.ascontiguousarray(values, dtype=np.float32)
    return values.view(np.uint32)


def bits_to_float32(bits: np.ndarray) -> np.ndarray:
    """Reinterpret a uint32 array as float32 without copying."""
    bits = np.ascontiguousarray(bits, dtype=np.uint32)
    return bits.view(np.float32)


def ieee754_sign(values: np.ndarray) -> np.ndarray:
    """Return the sign bit (0 or 1) of each double."""
    # fits: the shift leaves a single bit, so the value is 0 or 1
    return (double_to_bits(values) >> np.uint64(63)).astype(np.uint8)


def ieee754_exponent(values: np.ndarray) -> np.ndarray:
    """Return the raw (biased) 11-bit exponent of each double.

    The biased exponent is what the paper's Table 2 columns C9/C10 report
    (e.g. values near 1.0 have a biased exponent around 1023).
    """
    bits = double_to_bits(values)
    # The masked value fits 11 bits, so the uint64 -> int64 bit
    # reinterpretation is exact and avoids the astype copy.
    return ((bits >> np.uint64(DOUBLE_MANTISSA_BITS)) & np.uint64(0x7FF)).view(
        np.int64
    )


def ieee754_mantissa(values: np.ndarray) -> np.ndarray:
    """Return the raw 52-bit mantissa (fraction field) of each double."""
    bits = double_to_bits(values)
    return bits & np.uint64((1 << DOUBLE_MANTISSA_BITS) - 1)


def bit_length64(bits: np.ndarray) -> np.ndarray:
    """Vectorized ``int.bit_length`` of each uint64 (0 for 0), as int64.

    Exact and loop-free: each value's nonzero 32-bit half converts to
    float64 without rounding, and ``frexp`` returns its bit length as
    the binary exponent.  (Converting the whole 64-bit value would round
    near powers of two above 2**53.)
    """
    bits = np.asarray(bits, dtype=np.uint64)
    high = bits >> np.uint64(32)
    has_high = high != 0
    half = np.where(has_high, high, bits & np.uint64(0xFFFFFFFF))
    exponent = np.frexp(half.astype(np.float64))[1]
    return np.where(has_high, 32, 0) + exponent.astype(np.int64)


def leading_zeros64(bits: np.ndarray) -> np.ndarray:
    """Vectorized count of leading zero bits of each uint64.

    ``leading_zeros64(0) == 64`` by convention, matching the behaviour the
    XOR schemes rely on (an all-zero XOR result means "identical value").
    """
    return 64 - bit_length64(bits)


def trailing_zeros64(bits: np.ndarray) -> np.ndarray:
    """Vectorized count of trailing zero bits of each uint64.

    ``trailing_zeros64(0) == 64`` by convention.
    """
    bits = np.asarray(bits, dtype=np.uint64)
    # Isolate the lowest set bit (0 stays 0); its bit length is one more
    # than the trailing-zero count.
    lowest = bits & (np.uint64(0) - bits)
    return np.where(bits == 0, 64, bit_length64(lowest) - 1)


def xor_with_previous(values: np.ndarray) -> np.ndarray:
    """XOR each double's bits with the previous value's bits.

    The first element is XORed with 0 (i.e. passed through unchanged),
    mirroring how the stream-based XOR schemes bootstrap.  This is the
    primitive behind Table 2 columns C14/C15 ("Previous Value XOR 0's
    Bits").
    """
    bits = double_to_bits(values)
    prev = np.empty_like(bits)
    prev[0] = 0
    prev[1:] = bits[:-1]
    return bits ^ prev
