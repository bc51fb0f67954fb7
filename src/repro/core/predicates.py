"""Predicate evaluation directly on ALP-encoded integers.

Because ALP's decode ``n = d * 10^f * 10^-e`` (two IEEE 754 multiplies
by positive constants, evaluated in :func:`repro.core.alp.alp_decode_vector`
order) is monotone non-decreasing in the integer ``d``, a range predicate
on the doubles translates into an *exact* range predicate on the encoded
integers: the smallest ``d`` whose decode reaches ``low`` and the largest
``d`` whose decode stays within ``high`` are found by binary search over
the int64 domain (:func:`exact_encoded_bounds`).  Values that survived
encoding then satisfy ``low <= n <= high`` **iff** ``d_low <= d <=
d_high`` — no post-filter decode, no float confirmation pass.  Only
exception slots (whose payload holds a placeholder integer) are compared
as raw doubles.

The bulk comparison itself runs fused inside the unpack loop
(:func:`repro.encodings.ffor.ffor_filter_range`), and vectors whose FFOR
header (reference + bit width) already decides the predicate are skipped
without touching the payload — the deepest form of the paper's
predicate-push-down story.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from functools import lru_cache

import numpy as np

from repro import obs
from repro.core.alp import AlpVector, _exception_sum
from repro.core.constants import F10, IF10
from repro.encodings.ffor import (
    ffor_filter_range,
    ffor_range_state,
    ffor_sum_range,
    ffor_sum_rows,
)

INT64_MIN = -(1 << 63)
INT64_MAX = (1 << 63) - 1

# (d_low, d_high) with d_low > d_high: matches nothing, by convention.
EMPTY_BOUNDS = (1, 0)


def decode_scalar(d: int, exponent: int, factor: int) -> float:
    """ALP_dec of a single integer, bit-identical to the vectorized path.

    Mirrors :func:`repro.core.alp.alp_decode_vector` exactly: int64 →
    float64 cast (round-to-nearest, as numpy's promotion does), then two
    *separate* multiplies.  This is the comparison oracle the bound
    search below inverts.
    """
    return float(d) * float(F10[factor]) * float(IF10[exponent])


@lru_cache(maxsize=4096)
def exact_encoded_bounds(
    low: float, high: float, exponent: int, factor: int
) -> tuple[int, int]:
    """Exact integer bounds: ``low <= dec(d) <= high  iff  d_low <= d <= d_high``.

    ``dec`` is monotone non-decreasing over int64 (each of its three
    rounding steps — the cast and the two positive-constant multiplies —
    preserves order), so the boundary integers are found by binary
    search: ``d_low`` is the smallest ``d`` with ``dec(d) >= low`` and
    ``d_high`` the largest with ``dec(d) <= high``.  Roughly 2 x 64
    scalar decodes per distinct (low, high, e, f), cached thereafter.

    NaN bounds, inverted ranges and ranges beyond the decodable domain
    all collapse to :data:`EMPTY_BOUNDS` (``d_low > d_high``).
    """
    if math.isnan(low) or math.isnan(high) or low > high:
        return EMPTY_BOUNDS
    # Smallest d with dec(d) >= low.
    if decode_scalar(INT64_MAX, exponent, factor) < low:
        return EMPTY_BOUNDS
    if decode_scalar(INT64_MIN, exponent, factor) >= low:
        d_low = INT64_MIN
    else:
        lo, hi = INT64_MIN, INT64_MAX  # dec(lo) < low <= dec(hi)
        while hi - lo > 1:
            mid = (lo + hi) // 2
            if decode_scalar(mid, exponent, factor) >= low:
                hi = mid
            else:
                lo = mid
        d_low = hi
    # Largest d with dec(d) <= high.
    if decode_scalar(INT64_MIN, exponent, factor) > high:
        return EMPTY_BOUNDS
    if decode_scalar(INT64_MAX, exponent, factor) <= high:
        d_high = INT64_MAX
    else:
        lo, hi = INT64_MIN, INT64_MAX  # dec(lo) <= high < dec(hi)
        while hi - lo > 1:
            mid = (lo + hi) // 2
            if decode_scalar(mid, exponent, factor) <= high:
                lo = mid
            else:
                hi = mid
        d_high = lo
    if d_low > d_high:
        return EMPTY_BOUNDS
    return d_low, d_high


def _exception_mask(
    vector: AlpVector, low: float, high: float
) -> np.ndarray:
    """Float-domain range test of the raw exception doubles.

    NaN payloads compare False on both sides, so they never match — the
    same behaviour the decode-then-filter path exhibits.
    """
    exc = vector.exc_values
    result: np.ndarray = (exc >= low) & (exc <= high)
    return result


def filter_vector_encoded(
    vector: AlpVector, low: float, high: float
) -> np.ndarray:
    """Positions in a vector whose value lies in ``[low, high]``.

    The bulk test is pure integer comparison on the packed payload
    (fused unpack-compare); only exception slots touch floating point.
    Selections are bit-identical to filtering the decoded column.
    """
    mask = filter_mask_encoded(vector, low, high)
    return np.flatnonzero(mask).astype(np.int64)


def filter_mask_encoded(
    vector: AlpVector, low: float, high: float
) -> np.ndarray:
    """Boolean mask form of :func:`filter_vector_encoded`."""
    d_low, d_high = exact_encoded_bounds(
        low, high, vector.exponent, vector.factor
    )
    mask = ffor_filter_range(vector.ffor, d_low, d_high)
    if vector.exc_positions.size:
        # Exception slots hold placeholder integers: overwrite whatever
        # the integer test said with the raw-double comparison.
        mask[vector.exc_positions.astype(np.int64)] = _exception_mask(
            vector, low, high
        )
    return mask


def count_vector_encoded(
    vector: AlpVector,
    low: float,
    high: float,
    kept: int | None = None,
) -> int:
    """Count of in-range values in one vector, encoded-domain only.

    Exception-free vectors decided by the FFOR header (full accept or
    reject) are counted without unpacking a single bit.  ``kept``, when
    given, is the count of in-range non-exception values already taken
    (the row-group loop takes every vector's at once, see
    :func:`range_selections`); only the exception slots are then
    compared here.
    """
    if kept is not None:
        if not vector.exception_count:
            return kept
        return kept + int(_exception_mask(vector, low, high).sum())
    d_low, d_high = exact_encoded_bounds(
        low, high, vector.exponent, vector.factor
    )
    if not vector.exception_count:
        state = ffor_range_state(vector.ffor, d_low, d_high)
        if state == "reject":
            obs.counter_add("predicates.vectors_skipped")
            return 0
        if state == "accept":
            obs.counter_add("predicates.vectors_accepted")
            return vector.count
        return int(ffor_filter_range(vector.ffor, d_low, d_high).sum())
    mask = ffor_filter_range(vector.ffor, d_low, d_high)
    mask[vector.exc_positions.astype(np.int64)] = _exception_mask(
        vector, low, high
    )
    return int(mask.sum())


def sum_range_vector(
    vector: AlpVector,
    low: float,
    high: float,
    selected: tuple[int, int] | None = None,
) -> tuple[float, int]:
    """Filtered SUM of one vector in the encoded domain: ``(sum, count)``.

    Selected non-exception integers are summed exactly by the fused
    :func:`~repro.encodings.ffor.ffor_sum_range` kernel and scaled once
    per vector; in-range exception doubles are added afterwards.  When
    nothing but exceptions matches, the result is exactly the float sum
    of those raw doubles (no spurious ``+0.0`` main term).  ``selected``,
    when given, is that kernel's ``(sum, count)`` already taken (the
    row-group loop takes every vector's at once, see
    :func:`range_selections`).
    """
    if selected is None:
        d_low, d_high = exact_encoded_bounds(
            low, high, vector.exponent, vector.factor
        )
        exclude = vector.exc_positions if vector.exception_count else None
        selected = ffor_sum_range(vector.ffor, d_low, d_high, exclude)
    d_sum, kept = selected
    n_exc = 0
    exc_sum = 0.0
    if vector.exception_count:
        exc_match = _exception_mask(vector, low, high)
        n_exc = int(exc_match.sum())
        if n_exc:
            # +inf and -inf exceptions sum to NaN, as after decoding.
            with np.errstate(invalid="ignore", over="ignore"):
                exc_sum = _exception_sum(vector.exc_values[exc_match])
    if kept == 0:
        # Empty integer selection: return the exception sum untouched so
        # an all-exception selection stays bit-identical to the decode
        # path (including a -0.0 total).
        return (exc_sum if n_exc else 0.0), n_exc
    main = float(d_sum) * float(F10[vector.factor]) * float(
        IF10[vector.exponent]
    )
    if n_exc:
        return main + exc_sum, kept + n_exc
    return main, kept


def range_selections(
    vectors: Sequence[AlpVector],
    survivors: Sequence[int],
    low: float,
    high: float,
    totals: bool = True,
) -> tuple[list[int], list[int], list[int]]:
    """Integer selections of a row-group's survivors: ``(members, sums,
    kept)``.

    The row-group step of range SUM (``totals``) and range COUNT (not
    ``totals``): every full survivor with a nonzero width, at least one
    non-exception value and a payload to inspect — the FFOR header
    leaves it ``"partial"``, or (for SUM) decides ``"accept"`` — is a
    member, compared against its own residual bounds in one
    :func:`~repro.encodings.ffor.ffor_sum_rows` grid.  ``sums[i]`` and
    ``kept[i]`` are member ``i``'s in-range integer sum and count of
    non-exception values: the ``selected=`` of :func:`sum_range_vector`
    and the ``kept=`` of :func:`count_vector_encoded`.  ``sums`` is
    empty without ``totals``.  The other survivors keep their
    per-vector kernels.
    """
    size = vectors[0].ffor.count if vectors else 0
    members: list[int] = []
    bounds: list[tuple[int, int]] = []
    for v in survivors:
        vector = vectors[v]
        ffor = vector.ffor
        if (
            ffor.count != size
            or not ffor.bit_width
            or vector.exception_count == vector.count
        ):
            continue
        d_bounds = exact_encoded_bounds(
            low, high, vector.exponent, vector.factor
        )
        state = ffor_range_state(ffor, *d_bounds)
        if state == "partial" or (state == "accept" and totals):
            members.append(v)
            bounds.append(d_bounds)
    if not members:
        return [], [], []
    sums, kept = ffor_sum_rows(
        [vectors[v].ffor for v in members],
        [vectors[v].exc_positions for v in members],
        bounds,
        totals,
    )
    return members, sums, kept
