"""Low-level utilities shared by every compression scheme in the library.

The subpackage is intentionally dependency-free (numpy only) and contains:

- :mod:`repro.alputil.bits` — IEEE 754 bit-level views and XOR statistics,
- :mod:`repro.alputil.bitstream` — an MSB-first bit stream used by the
  XOR-based baselines (Gorilla, Chimp, Chimp128, Elf),
- :mod:`repro.alputil.decimals` — shortest-decimal-representation helpers
  (decimal precision of a double, magnitude in base 10).
"""

from repro.alputil.bits import (
    bit_length64,
    double_to_bits,
    bits_to_double,
    float32_to_bits,
    bits_to_float32,
    ieee754_exponent,
    ieee754_mantissa,
    ieee754_sign,
    leading_zeros64,
    trailing_zeros64,
    xor_with_previous,
)
from repro.alputil.bitstream import BitReader, BitWriter
from repro.alputil.decimals import decimal_places, decimal_places_array, magnitude10

__all__ = [
    "BitReader",
    "BitWriter",
    "bit_length64",
    "bits_to_double",
    "bits_to_float32",
    "decimal_places",
    "decimal_places_array",
    "double_to_bits",
    "float32_to_bits",
    "ieee754_exponent",
    "ieee754_mantissa",
    "ieee754_sign",
    "leading_zeros64",
    "magnitude10",
    "trailing_zeros64",
    "xor_with_previous",
]
