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

from collections.abc import Sequence
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
    ffor_encode_rowgroup,
    ffor_sum,
    ffor_sum_reference,
    ffor_sum_rows,
)


@dataclass(slots=True)
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

    The per-vector path of :func:`alp_encode_vector`; the batched
    :func:`alp_encode_rowgroup` produces identical vectors.
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
    FFOR steps.  It is the per-vector reference of
    :func:`alp_encode_rowgroup`.
    """
    with obs.span("alp.encode_vector"):
        values = np.ascontiguousarray(values, dtype=np.float64)
        encoded, exceptions = alp_analyze(values, exponent, factor)
        return _finish_vector(values, encoded, exceptions, exponent, factor)


def alp_encode_rowgroup(
    values: np.ndarray,
    exponents: int | Sequence[int],
    factors: int | Sequence[int],
    vector_size: int,
) -> list[AlpVector]:
    """Encode a whole row-group as a list of vectors, one pass per step.

    ``exponents`` / ``factors`` are one ``(e, f)`` for every vector (a
    single surviving level-one candidate) or one per vector (level two's
    winners).  ALP_enc, ALP_dec, the bitwise exception test and the
    FIND_FIRST_ENCODED patch each run once over the ``(vectors, vector
    size)`` grid, each vector's ``(e, f)`` broadcast along its row, and
    the FFOR frames come from
    :func:`~repro.encodings.ffor.ffor_encode_rowgroup`.  A short tail
    vector takes the per-vector path.  Output is vector-for-vector
    identical to :func:`alp_encode_vector` on each chunk.
    """
    with obs.span("alp.encode_rowgroup"):
        values = np.ascontiguousarray(values, dtype=np.float64)
        n_full = values.size // vector_size
        n_vectors = -(-values.size // vector_size)
        exps = np.broadcast_to(
            np.asarray(exponents, dtype=np.int64), n_vectors
        )
        facts = np.broadcast_to(np.asarray(factors, dtype=np.int64), n_vectors)
        vectors = _encode_grid(
            values[: n_full * vector_size].reshape(n_full, vector_size),
            exps[:n_full],
            facts[:n_full],
        )
        if n_full < n_vectors:
            tail = values[n_full * vector_size :]
            e, f = int(exps[-1]), int(facts[-1])
            encoded, exceptions = alp_analyze(tail, e, f)
            vectors.append(_finish_vector(tail, encoded, exceptions, e, f))
        return vectors


def _encode_grid(
    grid: np.ndarray, exponents: np.ndarray, factors: np.ndarray
) -> list[AlpVector]:
    """ALP-encode the rows of a float64 ``(vectors, count)`` grid."""
    n_rows, count = grid.shape
    if n_rows == 0:
        return []
    # The same two multiplies per element as alp_analyze, each row with
    # its own (e, f), so rounding is unchanged.  One (e, f) for every
    # row stays a scalar: numpy's broadcast-column loops are ~3x slower.
    uniform = bool(
        (exponents == exponents[0]).all() and (factors == factors[0]).all()
    )

    def scale(table: np.ndarray, index: np.ndarray) -> np.ndarray:
        return table[index[0]] if uniform else table[index][:, None]

    with np.errstate(over="ignore", invalid="ignore"):
        scaled = grid * scale(F10, exponents)
        scaled *= scale(IF10, factors)
        encoded = fast_round(scaled)
        decoded = np.multiply(encoded, scale(F10, factors), out=scaled)
        decoded *= scale(IF10, exponents)
    exceptions = decoded.view(np.uint64) != grid.view(np.uint64)
    del scaled, decoded
    rows, positions = np.divmod(np.flatnonzero(exceptions), count)
    exc_values = grid[rows, positions]
    if rows.size:
        # FIND_FIRST_ENCODED per row: the first non-exception's integer,
        # or 0 for an all-exception row.
        valid = ~exceptions
        first = np.argmax(valid, axis=1)
        row_ids = np.arange(n_rows)
        fill = np.where(valid[row_ids, first], encoded[row_ids, first], 0)
        encoded[rows, positions] = fill[rows]
    frames = ffor_encode_rowgroup(encoded.reshape(-1), count)
    # fits: positions < vector size <= 65535 (checked at compress time)
    positions = positions.astype(np.uint16)
    ends = np.cumsum(np.bincount(rows, minlength=n_rows)).tolist()
    if obs.ENABLED:
        obs.metrics.counter_add("alp.vectors_encoded", n_rows)
        obs.metrics.counter_add("alp.exceptions", int(rows.size))
    vectors = []
    start = 0
    # Iterates vectors (grid rows), not values.  # reprolint: ignore[RL2]
    for frame, e, f, end in zip(
        frames, exponents.tolist(), factors.tolist(), ends, strict=True
    ):
        vectors.append(
            AlpVector(
                ffor=frame,
                exponent=e,
                factor=f,
                exc_values=exc_values[start:end],
                exc_positions=positions[start:end],
                count=count,
            )
        )
        start = end
    return vectors


def alp_decode_vector(
    vector: AlpVector,
    fused: bool = True,
    out: np.ndarray | None = None,
    encoded: np.ndarray | None = None,
) -> np.ndarray:
    """Decode one vector (Algorithm 2): UNFFOR, ALP_dec, then patch.

    ``fused=False`` switches to the unfused FFOR decode for the Figure 5
    fusion ablation; output is bit-identical either way.  ``out``, when
    given, receives the decoded values in place (a ``vector.count``-sized
    float64 slice) so batch callers can decode straight into one
    preallocated column instead of concatenating per-vector arrays.
    ``encoded``, when given, holds the vector's integers already
    FFOR-decoded (the row-group decoder unpacks all vectors at once)
    and UNFFOR is skipped; it may alias ``out``.
    """
    with obs.span("alp.decode_vector"):
        if encoded is None:
            unffor = ffor_decode if fused else ffor_decode_unfused
            encoded = unffor(vector.ffor)
        # Two separate multiplies (Formula 2), preserved exactly: folding
        # the constants would change rounding and break bit-exactness.
        decoded = np.multiply(encoded, F10[vector.factor], out=out)
        decoded *= IF10[vector.exponent]
        if vector.exc_positions.size:
            decoded[vector.exc_positions] = vector.exc_values
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
    """Pairwise sum of exception doubles: ``np.sum``'s own reduction.

    ``inf + -inf`` is NaN and ``max + max`` is inf by IEEE rules — the
    same results the decoded path produces — not errors, so callers
    hold ``np.errstate(invalid="ignore", over="ignore")`` around it.
    """
    return float(np.add.reduce(values))


def alp_sum_vector(vector: AlpVector, d_sum: int | None = None) -> float:
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

    ``d_sum``, when given, is that exact integer sum, already reduced:
    the row-group loop computes every vector's at once
    (:func:`alp_exact_sums`) and holds ``np.errstate(invalid="ignore",
    over="ignore")`` for the whole row-group.  Without it the vector
    reduces its own integers and guards its own exception sum.

    The exception-free result differs from summing the individually
    rounded decoded doubles only in final-ulp rounding: the encoded-
    domain sum rounds once (after an exact integer sum) where the
    decoded sum rounds per value, making the fused result at least as
    accurate.  ``docs/PERFORMANCE.md`` states the exact guarantees.
    """
    if vector.count == 0:
        return 0.0
    if obs.ENABLED:
        obs.metrics.counter_add("alp.vectors_summed_encoded", 1)
    if d_sum is not None:
        return _sum_term(vector, d_sum)
    if vector.exception_count:
        with np.errstate(invalid="ignore", over="ignore"):
            return _sum_term(vector, _exact_sum(vector))
    return _sum_term(vector, ffor_sum(vector.ffor))


def _exact_sum(vector: AlpVector) -> int:
    """Exact integer sum of one vector's non-exception values (0 when
    every slot is an exception)."""
    n_exceptions = vector.exception_count
    if n_exceptions == vector.count:
        return 0
    exclude = vector.exc_positions if n_exceptions else None
    return ffor_sum(vector.ffor, exclude=exclude)


def _sum_term(vector: AlpVector, d_sum: int) -> float:
    """The SUM term of a vector whose integer sum is ``d_sum``."""
    n_exceptions = vector.exception_count
    if n_exceptions == vector.count:
        # Pure-exception vector: the decoded column would be exactly
        # ``exc_values`` — return its sum untouched (adding a 0.0 main
        # term would flip a -0.0 total to +0.0).
        return _exception_sum(vector.exc_values)
    # Two separate multiplies (Formula 2), matching alp_decode_vector's
    # operation order on the summed integer.
    main = float(d_sum) * float(F10[vector.factor]) * float(
        IF10[vector.exponent]
    )
    if n_exceptions:
        return main + _exception_sum(vector.exc_values)
    return main


def alp_exact_sums(
    vectors: Sequence[AlpVector], survivors: Sequence[int]
) -> list[int]:
    """The ``d_sum`` of :func:`alp_sum_vector` for each survivor, at once.

    ``vectors`` are a row-group's vectors and ``survivors`` the indexes
    to sum.  The full vectors with a nonzero width and at least one
    non-exception value reduce together in one
    :func:`~repro.encodings.ffor.ffor_sum_rows` grid: one unpack per
    distinct width, one exception scatter, exact row sums.  That
    includes the narrow widths the per-vector modular fold serves: a
    row-group's worth of them sums faster in the grid.  Width 0,
    all-exception vectors and a short tail vector keep
    :func:`~repro.encodings.ffor.ffor_sum`.  Each result equals the
    vector's own exact integer sum.
    """
    sums: list[int] = []
    size = vectors[0].ffor.count if vectors else 0
    grid_at: list[int] = []
    for at, v in enumerate(survivors):
        vector = vectors[v]
        ffor = vector.ffor
        if (
            ffor.count == size
            and ffor.bit_width
            and vector.exception_count < vector.count
        ):
            grid_at.append(at)
            sums.append(0)
        else:
            sums.append(_exact_sum(vector))
    if grid_at:
        members = [vectors[survivors[at]] for at in grid_at]
        grid_sums, _ = ffor_sum_rows(
            [vector.ffor for vector in members],
            [vector.exc_positions for vector in members],
        )
        for at, d_sum in zip(grid_at, grid_sums, strict=True):
            sums[at] = d_sum
    return sums


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
    with np.errstate(invalid="ignore", over="ignore"):
        exc_sum = float(np.sum(vector.exc_values)) if n_exceptions else 0.0
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
