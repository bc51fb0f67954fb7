"""ALP per-vector encoding and decoding (Algorithms 1 and 2).

A vector of up to 1024 doubles is encoded with one shared exponent ``e``
and factor ``f``:

    d = fast_round(n * 10**e * 10**-f)          (ALP_enc, Formula 1)
    n = d * 10**f * 10**-e                      (ALP_dec, Formula 2)

Values whose decode does not reproduce the original *bit pattern* become
exceptions: their slot in the encoded vector is filled with the first
successfully encoded integer (so the FFOR bit width is unaffected) and
the raw double plus its 16-bit position are stored aside.  The encoded
integers are then compressed with FFOR.

Two decode paths are provided: the numpy-vectorized one (the analogue of
the paper's auto-vectorized/SIMD kernels) and a pure-scalar Python one
(the analogue of their ``-fno-vectorize`` build), which the Figure 4
implementation-sweep benchmark compares.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro import obs
from repro.core.constants import (
    EXCEPTION_SIZE_BITS,
    F10,
    IF10,
    VECTOR_HEADER_BITS,
)
from repro.core.fastround import fast_round
from repro.encodings.ffor import (
    FforEncoded,
    ffor_decode,
    ffor_decode_unfused,
    ffor_encode,
    ffor_sum,
    ffor_sum_reference,
)


@dataclass(frozen=True)
class AlpVector:
    """One ALP-encoded vector.

    Attributes:
        ffor: the FFOR-compressed int64 payload.
        exponent: shared decimal exponent ``e`` of the vector.
        factor: shared trailing-zero factor ``f`` of the vector.
        exc_values: raw doubles that failed the round-trip (bit patterns).
        exc_positions: their positions inside the vector (uint16).
        count: number of values in the vector.
    """

    ffor: FforEncoded
    exponent: int
    factor: int
    exc_values: np.ndarray  # float64
    exc_positions: np.ndarray  # uint16
    count: int

    @property
    def exception_count(self) -> int:
        """Number of exception values in this vector."""
        return int(self.exc_positions.size)

    def size_bits(self) -> int:
        """Storage footprint: FFOR payload + exceptions + vector header."""
        return (
            self.ffor.size_bits()
            + self.exception_count * EXCEPTION_SIZE_BITS
            + VECTOR_HEADER_BITS
        )

    def bits_per_value(self) -> float:
        """Compressed bits per value, the paper's Table 4 metric."""
        if self.count == 0:
            return 0.0
        return self.size_bits() / self.count


def alp_analyze(
    values: np.ndarray, exponent: int, factor: int
) -> tuple[np.ndarray, np.ndarray]:
    """Run ALP_enc + ALP_dec and report (encoded ints, exception mask).

    This is the shared primitive of encoding and of the sampler's size
    estimation.  The exception test is *bitwise* so that -0.0, NaN payloads
    and every other IEEE 754 corner survive compression exactly.
    """
    values = np.ascontiguousarray(values, dtype=np.float64)
    # Overflow to inf on huge inputs is expected: such values simply fail
    # the bitwise round-trip below and become exceptions.
    with np.errstate(over="ignore", invalid="ignore"):
        encoded = fast_round(values * F10[exponent] * IF10[factor])
        decoded = encoded * F10[factor] * IF10[exponent]
    exceptions = decoded.view(np.uint64) != values.view(np.uint64)
    return encoded, exceptions


def _finish_vector(
    values: np.ndarray,
    encoded: np.ndarray,
    exceptions: np.ndarray,
    exponent: int,
    factor: int,
) -> AlpVector:
    """Exception patching + FFOR for one analyzed vector.

    Shared tail of :func:`alp_encode_vector` and the batched
    :func:`alp_encode_rowgroup`; both paths therefore produce identical
    payload bytes for identical inputs.
    """
    exc_positions = np.flatnonzero(exceptions)
    if exc_positions.size:
        non_exc = np.flatnonzero(~exceptions)
        # FIND_FIRST_ENCODED: a placeholder that cannot widen the FFOR
        # bit width.  If the whole vector is exceptional, use 0.
        first_encoded = int(encoded[non_exc[0]]) if non_exc.size else 0
        encoded = encoded.copy()
        encoded[exc_positions] = first_encoded
        exc_values = values[exc_positions].copy()
    else:
        exc_values = np.empty(0, dtype=np.float64)

    if obs.ENABLED:
        obs.metrics.counter_add("alp.vectors_encoded", 1)
        obs.metrics.counter_add("alp.exceptions", int(exc_positions.size))
    return AlpVector(
        ffor=ffor_encode(encoded),
        exponent=exponent,
        factor=factor,
        exc_values=exc_values,
        # fits: positions < vector size <= 65535 (checked at compress time)
        exc_positions=exc_positions.astype(np.uint16),
        count=values.size,
    )


def alp_encode_vector(
    values: np.ndarray, exponent: int, factor: int
) -> AlpVector:
    """Encode one vector with a given (e, f) combination (Algorithm 1).

    The caller is expected to have chosen (e, f) via the sampler; this
    function performs the encode, verification, exception patching and
    FFOR steps.
    """
    with obs.span("alp.encode_vector"):
        values = np.ascontiguousarray(values, dtype=np.float64)
        encoded, exceptions = alp_analyze(values, exponent, factor)
        return _finish_vector(values, encoded, exceptions, exponent, factor)


def alp_encode_rowgroup(
    values: np.ndarray, exponent: int, factor: int, vector_size: int
) -> list[AlpVector]:
    """Encode a whole row-group under one (e, f) as a list of vectors.

    This is the batched common case (a single surviving candidate, so
    level-two sampling is skipped): ALP_enc + ALP_dec + the exception
    test run *once* over the full row-group instead of once per vector,
    and only the per-vector tail (exception patching + FFOR) loops.
    Output is vector-for-vector identical to calling
    :func:`alp_encode_vector` on each chunk.
    """
    with obs.span("alp.encode_rowgroup"):
        values = np.ascontiguousarray(values, dtype=np.float64)
        encoded, exceptions = alp_analyze(values, exponent, factor)
        return [
            _finish_vector(
                values[start : start + vector_size],
                encoded[start : start + vector_size],
                exceptions[start : start + vector_size],
                exponent,
                factor,
            )
            for start in range(0, values.size, vector_size)
        ]


def alp_decode_vector(
    vector: AlpVector, fused: bool = True, out: np.ndarray | None = None
) -> np.ndarray:
    """Decode one vector (Algorithm 2): UNFFOR, ALP_dec, then patch.

    ``fused=False`` switches to the unfused FFOR decode for the Figure 5
    fusion ablation; output is bit-identical either way.  ``out``, when
    given, receives the decoded values in place (a ``vector.count``-sized
    float64 slice) so batch callers can decode straight into one
    preallocated column instead of concatenating per-vector arrays.
    """
    with obs.span("alp.decode_vector"):
        unffor = ffor_decode if fused else ffor_decode_unfused
        encoded = unffor(vector.ffor)
        # Two separate multiplies (Formula 2), preserved exactly: folding
        # the constants would change rounding and break bit-exactness.
        scaled = encoded * F10[vector.factor]
        if out is None:
            decoded = scaled * IF10[vector.exponent]
        else:
            decoded = np.multiply(scaled, IF10[vector.exponent], out=out)
        if vector.exc_positions.size:
            decoded[vector.exc_positions.astype(np.int64)] = vector.exc_values
        obs.counter_add("alp.vectors_decoded")
        return decoded


def alp_decode_vector_scalar(vector: AlpVector) -> np.ndarray:
    """Pure-Python scalar decode of one vector.

    Every step — bit-unpacking, the FOR add, ALP_dec, exception patching
    — runs value-at-a-time with no array operations, mirroring the
    paper's ``-fno-vectorize`` build for the Figure 4 implementation
    sweep.
    """
    ffor = vector.ffor
    width = ffor.bit_width
    payload = ffor.payload
    reference = ffor.reference
    mul = float(F10[vector.factor])
    inv = float(IF10[vector.exponent])
    mask = (1 << width) - 1
    stream = int.from_bytes(payload, "big") if payload else 0
    total_bits = len(payload) * 8

    out = [0.0] * vector.count
    for i in range(vector.count):
        if width:
            shift = total_bits - (i + 1) * width
            d = ((stream >> shift) & mask) + reference
        else:
            d = reference
        out[i] = d * mul * inv
    for pos, value in zip(
        vector.exc_positions.tolist(), vector.exc_values.tolist(), strict=True
    ):
        out[pos] = value
    return np.asarray(out, dtype=np.float64)


def _exception_sum(values: np.ndarray) -> float:
    """Pairwise ``np.sum`` of exception doubles.

    ``inf + -inf`` is NaN and ``max + max`` is inf by IEEE rules — the
    same results the decoded path produces — not errors, so numpy's
    "invalid value" and "overflow" warnings are silenced here, on the
    exception branch only.
    """
    with np.errstate(invalid="ignore", over="ignore"):
        return float(np.sum(values))


def alp_sum_vector(vector: AlpVector) -> float:
    """SUM of one vector in the encoded domain (late materialization).

    For the non-exception slots ``sum(n_i) = (sum(d_i)) * 10^f * 10^-e``:
    the integer sum runs fused on the packed FFOR payload
    (:func:`~repro.encodings.ffor.ffor_sum`, exact in Python ints) and
    the two Formula-2 multiplies are applied *once per vector* instead of
    once per value.  Exception slots hold placeholders in the payload, so
    they are excluded from the integer sum (the sparse correction) and
    their raw doubles are added with the same pairwise ``np.sum`` the
    decode-then-aggregate path uses — NaN/Inf/±0.0 exception payloads
    therefore propagate exactly as they do after full decoding, and an
    all-exception vector is summed bit-identically to the decoded path.

    The exception-free result differs from summing the individually
    rounded decoded doubles only in final-ulp rounding: the encoded-
    domain sum rounds once (after an exact integer sum) where the
    decoded sum rounds per value, making the fused result at least as
    accurate.  ``docs/PERFORMANCE.md`` states the exact guarantees.
    """
    if vector.count == 0:
        return 0.0
    n_exceptions = vector.exception_count
    exc_sum = _exception_sum(vector.exc_values) if n_exceptions else 0.0
    if obs.ENABLED:
        obs.metrics.counter_add("alp.vectors_summed_encoded", 1)
    if n_exceptions == vector.count:
        # Pure-exception vector: the decoded column would be exactly
        # ``exc_values`` — return its sum untouched (adding a 0.0 main
        # term would flip a -0.0 total to +0.0).
        return exc_sum
    exclude = vector.exc_positions if n_exceptions else None
    d_sum = ffor_sum(vector.ffor, exclude=exclude)
    # Two separate multiplies (Formula 2), matching alp_decode_vector's
    # operation order on the summed integer.
    main = float(d_sum) * float(F10[vector.factor]) * float(
        IF10[vector.exponent]
    )
    if n_exceptions:
        return main + exc_sum
    return main


def alp_sum_vector_reference(vector: AlpVector) -> float:
    """Scalar oracle for :func:`alp_sum_vector`: same math, unfused.

    Decodes the integers through the unfused FFOR path, accumulates the
    exact integer sum per value, and applies the identical scaling and
    exception correction — bit-identical to the fused kernel by
    construction, at per-value Python speed.
    """
    if vector.count == 0:
        return 0.0
    n_exceptions = vector.exception_count
    exc_sum = _exception_sum(vector.exc_values) if n_exceptions else 0.0
    if n_exceptions == vector.count:
        return exc_sum
    exclude = (
        vector.exc_positions.astype(np.int64) if n_exceptions else None
    )
    d_sum = ffor_sum_reference(vector.ffor, exclude=exclude)
    main = float(d_sum) * float(F10[vector.factor]) * float(
        IF10[vector.exponent]
    )
    if n_exceptions:
        return main + exc_sum
    return main


def estimate_size_bits(
    values: np.ndarray, exponent: int, factor: int
) -> int:
    """Estimated compressed size of ``values`` under (e, f) in bits.

    This is the sampler's objective function: FFOR width of the
    non-exception integers times the count, plus 80 bits per exception
    (§3.2: "minimizes the sum of the exception size and the size of the
    bit-packed integers").
    """
    encoded, exceptions = alp_analyze(values, exponent, factor)
    n_exceptions = int(exceptions.sum())
    valid = encoded[~exceptions]
    if valid.size:
        spread = int(valid.max()) - int(valid.min())
        width = spread.bit_length()
    else:
        width = 64
    n_valid = values.size - n_exceptions
    return n_valid * width + n_exceptions * EXCEPTION_SIZE_BITS
