"""32-bit ports of ALP and ALP_rd (Section 4.4).

The float port mirrors the double pipeline with narrower tables:

- decimal exponents only reach ``e <= 10`` (10**11 is no longer exact in
  float32),
- the fast-rounding sweet spot becomes ``2**22 + 2**23``,
- encoded integers are verified against the original *32-bit* patterns.

ALP_rd-32 (used for ML weights in Table 7) cuts the 32 bits at
``p >= 16`` so the left part still fits the 16-bit skewed dictionary.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.alputil.bits import bits_to_float32, float32_to_bits
from repro.core.alprd import (
    AlpRdParameters,
    AlpRdVector,
    decode_vector_bits,
    encode_rowgroup_bits,
    find_best_cut,
)
from repro.core.constants import VECTOR_SIZE
from repro.core.sampler import equidistant_indices
from repro.encodings.ffor import FforEncoded, ffor_decode, ffor_encode

#: Largest decimal exponent searched for float32 (10**10 is exact).
MAX_EXPONENT_F32 = 10

#: Multiplier tables in float32 precision.
F10_F32 = np.array([10.0**i for i in range(MAX_EXPONENT_F32 + 1)], dtype=np.float32)
IF10_F32 = np.array(
    [10.0**-i for i in range(MAX_EXPONENT_F32 + 1)], dtype=np.float32
)

#: Sweet spot of fast rounding for floats: 2**22 + 2**23.
SWEET_SPOT_F32 = np.float32((1 << 22) + (1 << 23))

#: Exception cost: 32-bit raw value + 16-bit position.
EXCEPTION_SIZE_BITS_F32 = 32 + 16


def fast_round_f32(values: np.ndarray) -> np.ndarray:
    """Float32 sweet-spot rounding; returns int32."""
    values = np.asarray(values, dtype=np.float32)
    shifted = (values + SWEET_SPOT_F32) - SWEET_SPOT_F32
    safe = np.where(np.isfinite(shifted), shifted, np.float32(0.0))
    safe = np.clip(safe, np.float32(-(2.0**30)), np.float32(2.0**30))
    return safe.astype(np.int32)


@dataclass(frozen=True)
class AlpFloatVector:
    """One ALP-encoded float32 vector."""

    ffor: FforEncoded
    exponent: int
    factor: int
    exc_values: np.ndarray  # float32
    exc_positions: np.ndarray  # uint16
    count: int

    @property
    def exception_count(self) -> int:
        """Number of exceptions in this vector."""
        return int(self.exc_positions.size)

    def size_bits(self) -> int:
        """FFOR payload + exceptions + header (e, f, count)."""
        return (
            self.ffor.size_bits()
            + self.exception_count * EXCEPTION_SIZE_BITS_F32
            + 32
        )


def alp32_analyze(
    values: np.ndarray, exponent: int, factor: int
) -> tuple[np.ndarray, np.ndarray]:
    """Float32 ALP_enc/ALP_dec with bitwise exception detection."""
    values = np.ascontiguousarray(values, dtype=np.float32)
    with np.errstate(over="ignore", invalid="ignore"):
        encoded = fast_round_f32(
            values * F10_F32[exponent] * IF10_F32[factor]
        )
        decoded = (
            encoded.astype(np.float32) * F10_F32[factor] * IF10_F32[exponent]
        )
    exceptions = decoded.view(np.uint32) != values.view(np.uint32)
    return encoded, exceptions


def estimate_size_bits_f32(
    values: np.ndarray, exponent: int, factor: int
) -> int:
    """Sampler objective for the float port."""
    encoded, exceptions = alp32_analyze(values, exponent, factor)
    n_exc = int(exceptions.sum())
    valid = encoded[~exceptions]
    width = (
        (int(valid.max()) - int(valid.min())).bit_length() if valid.size else 32
    )
    return (values.size - n_exc) * width + n_exc * EXCEPTION_SIZE_BITS_F32


def find_best_combination_f32(sample: np.ndarray) -> tuple[int, int, int]:
    """Full search of (e, f) for floats; returns (e, f, est. bits)."""
    best = (0, 0, 1 << 62)
    for e in range(MAX_EXPONENT_F32, -1, -1):
        for f in range(e, -1, -1):
            size = estimate_size_bits_f32(sample, e, f)
            if size < best[2]:
                best = (e, f, size)
    return best


def alp32_encode_vector(
    values: np.ndarray, exponent: int, factor: int
) -> AlpFloatVector:
    """Encode one float32 vector under a fixed (e, f)."""
    values = np.ascontiguousarray(values, dtype=np.float32)
    encoded, exceptions = alp32_analyze(values, exponent, factor)
    exc_positions = np.flatnonzero(exceptions)
    if exc_positions.size:
        non_exc = np.flatnonzero(~exceptions)
        first_encoded = int(encoded[non_exc[0]]) if non_exc.size else 0
        encoded = encoded.copy()
        encoded[exc_positions] = first_encoded
        exc_values = values[exc_positions].copy()
    else:
        exc_values = np.empty(0, dtype=np.float32)
    return AlpFloatVector(
        ffor=ffor_encode(encoded.astype(np.int64)),
        exponent=exponent,
        factor=factor,
        exc_values=exc_values,
        # fits: positions < vector size <= 65535 (checked at compress time)
        exc_positions=exc_positions.astype(np.uint16),
        count=values.size,
    )


def alp32_decode_vector(vector: AlpFloatVector) -> np.ndarray:
    """Decode one float32 vector (UNFFOR, ALP_dec, patch)."""
    # fits: encoder verified every encoded value fits int32 before packing
    encoded = ffor_decode(vector.ffor).astype(np.int32)
    decoded = (
        encoded.astype(np.float32)
        * F10_F32[vector.factor]
        * IF10_F32[vector.exponent]
    )
    if vector.exc_positions.size:
        decoded[vector.exc_positions.astype(np.int64)] = vector.exc_values
    return decoded


@dataclass(frozen=True)
class CompressedFloatColumn:
    """A compressed float32 column: either ALP-32 vectors or ALP_rd-32."""

    scheme: str  # "alp" or "alprd"
    vectors: tuple[AlpFloatVector, ...] | tuple[AlpRdVector, ...]
    rd_parameters: AlpRdParameters | None
    count: int

    def size_bits(self) -> int:
        """Total compressed footprint."""
        if self.scheme == "alp":
            return sum(v.size_bits() for v in self.vectors) + 8
        if self.rd_parameters is None:
            raise ValueError("ALP_rd float32 column is missing its parameters")
        return (
            sum(v.size_bits(self.rd_parameters) for v in self.vectors)
            + self.rd_parameters.size_bits()
            + 8
        )

    def bits_per_value(self) -> float:
        """Compressed bits per value (uncompressed is 32)."""
        return self.size_bits() / self.count if self.count else 0.0


#: Above this estimated bits/value the float port falls back to ALP_rd-32
#: (the 32-bit analogue of the 48-bit threshold: 48/64 * 32).
RD_THRESHOLD_BITS_F32 = 24.0


def compress_f32(
    values: np.ndarray,
    vector_size: int = VECTOR_SIZE,
    force_scheme: str | None = None,
) -> CompressedFloatColumn:
    """Compress a float32 column with adaptive ALP-32 / ALP_rd-32."""
    values = np.ascontiguousarray(values, dtype=np.float32)
    sample = values[equidistant_indices(values.size, 256)]
    e, f, est = find_best_combination_f32(sample)
    est_bpv = est / max(sample.size, 1)

    use_rd = (
        force_scheme == "alprd"
        if force_scheme is not None
        else est_bpv >= RD_THRESHOLD_BITS_F32
    )
    if use_rd:
        bits = float32_to_bits(values).astype(np.uint64)
        params = find_best_cut(
            bits[equidistant_indices(bits.size, 256)], total_bits=32
        )
        return CompressedFloatColumn(
            scheme="alprd",
            vectors=encode_rowgroup_bits(bits, params, vector_size),
            rd_parameters=params,
            count=values.size,
        )

    vectors = tuple(
        alp32_encode_vector(values[s : s + vector_size], e, f)
        for s in range(0, values.size, vector_size)
    )
    return CompressedFloatColumn(
        scheme="alp", vectors=vectors, rd_parameters=None, count=values.size
    )


def decompress_f32(column: CompressedFloatColumn) -> np.ndarray:
    """Decompress a float32 column back to float32, bit-exactly."""
    if column.count == 0:
        return np.empty(0, dtype=np.float32)
    if column.scheme == "alp":
        return np.concatenate(
            [alp32_decode_vector(v) for v in column.vectors]
        )
    if column.rd_parameters is None:
        raise ValueError("ALP_rd float32 column is missing its parameters")
    bits = np.concatenate(
        [decode_vector_bits(v, column.rd_parameters) for v in column.vectors]
    )
    # fits: each element is a 32-bit float pattern glued from right | left
    return bits_to_float32(bits.astype(np.uint32))
