"""Fused Frame-Of-Reference (FFOR), the kernel under ALP.

FastLanes' FFOR fuses the FOR subtraction/addition with bit-[un]packing
into a single kernel, saving a SIMD store and load between the two loops.
The paper's Figure 5 measures a median ~40% decompression speedup from
this fusion.

In this numpy port the *fused* decoder folds the reference add into the
horizontal reduction of the unpack (one pass, no intermediate residual
array), while the *unfused* path (:func:`ffor_decode_unfused`) first
materializes the residual vector and then runs a second add pass —
the same distinction, one allocation apart.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from repro import obs
from repro.core.constants import U64_MASK
from repro.encodings.bitpack import (
    UFUNC_BUFFER_ITEMS,
    UNPACK_PASS_ROWS,
    Buffer,
    pack_bits,
    pack_rows,
    scratch,
    uint64_sum_bounded,
    unpack_bits,
    unpack_sum,
    unpack_sum_excluding,
    vector_grid,
)


@dataclass(slots=True)
class FforEncoded:
    """An FFOR-encoded integer vector (same storage layout as FOR).

    ``payload`` is any buffer-protocol object — ``bytes`` from the
    in-memory encoder, or a ``memoryview`` slice of an mmap when the
    vector was deserialized from a mapped column file (see
    ``docs/PERFORMANCE.md``, "zero-copy read path").
    """

    payload: Buffer
    reference: int
    bit_width: int
    count: int

    def size_bits(self) -> int:
        """Packed payload + 64-bit reference + 8-bit width, per vector."""
        return len(self.payload) * 8 + 64 + 8


def ffor_encode(values: np.ndarray) -> FforEncoded:
    """Encode int64 values: subtract min and bit-pack, in one fused pass."""
    values = np.ascontiguousarray(values, dtype=np.int64)
    if values.size == 0:
        return FforEncoded(payload=b"", reference=0, bit_width=0, count=0)
    reference = int(values.min())
    ref64 = np.uint64(reference & U64_MASK)
    residuals = values.view(np.uint64) - ref64
    # One reduction serves width computation *and* pack validation; the
    # residual minimum is 0 by construction, so no sign check is needed.
    residual_max = int(residuals.max())
    width = residual_max.bit_length()
    payload = pack_bits(residuals, width, max_value=residual_max)
    if obs.ENABLED:
        obs.metrics.counter_add("ffor.vectors_encoded", 1)
        obs.metrics.counter_add("ffor.packed_bytes", len(payload))
        obs.metrics.counter_add("ffor.bit_width_sum", width)
    return FforEncoded(
        payload=payload, reference=reference, bit_width=width, count=values.size
    )


def ffor_encode_rowgroup(
    values: np.ndarray, vector_size: int
) -> list[FforEncoded]:
    """FFOR-encode consecutive vectors of ``vector_size`` values at once.

    The mirror of :func:`ffor_decode_rowgroup`: the per-vector minima,
    residuals, maxima and bit widths come from whole-grid reductions
    over the ``(vectors, vector size)`` grid, and the vectors of each
    distinct width pack in one :func:`~repro.encodings.bitpack.pack_rows`
    pass.  A short tail vector encodes as a grid of one row.  Output is
    identical to :func:`ffor_encode` on each ``vector_size`` chunk.
    """
    values = np.ascontiguousarray(values, dtype=np.int64)
    n_full = values.size // vector_size
    frames = _ffor_encode_grid(
        values[: n_full * vector_size].reshape(n_full, vector_size)
    )
    if values.size > n_full * vector_size:
        frames += _ffor_encode_grid(values[n_full * vector_size :][None, :])
    return frames


def _ffor_encode_grid(grid: np.ndarray) -> list[FforEncoded]:
    """FFOR frames of the rows of an int64 ``(vectors, count)`` grid."""
    n_rows, count = grid.shape
    if n_rows == 0:
        return []
    references = grid.min(axis=1)
    residuals = grid.view(np.uint64) - references.view(np.uint64)[:, None]
    widths, payloads = pack_rows(residuals, residuals.max(axis=1))
    if obs.ENABLED:
        obs.metrics.counter_add("ffor.vectors_encoded", n_rows)
        obs.metrics.counter_add(
            "ffor.packed_bytes", sum(len(p) for p in payloads)
        )
        obs.metrics.counter_add("ffor.bit_width_sum", sum(widths))
    return [
        FforEncoded(
            payload=payload, reference=reference, bit_width=width, count=count
        )
        for payload, reference, width in zip(
            payloads, references.tolist(), widths, strict=True
        )
    ]


def ffor_decode(
    encoded: FforEncoded, out: np.ndarray | None = None
) -> np.ndarray:
    """Fused decode: unpack and add the reference in a single kernel.

    The reference addition is folded into the same expression that
    reconstitutes values from their bit rows, so no intermediate residual
    array is written back to memory before the add.  ``out``, when given,
    must be a writable C-contiguous int64 (or uint64) array of exactly
    ``encoded.count`` values; the decode then allocates nothing.
    """
    obs.counter_add("ffor.vectors_decoded")
    width, count = encoded.bit_width, encoded.count
    ref64 = np.uint64(encoded.reference & U64_MASK)
    if out is None:
        target = None
    else:
        target = out if out.dtype == np.uint64 else out.view(np.uint64)
        if target.ndim != 1 or target.size != count:
            raise ValueError(
                f"out must be a 1-D array of exactly {count} values, "
                f"got shape {out.shape}"
            )
    if width == 0:
        if target is not None:
            target[...] = ref64
            return target.view(np.int64)
        return np.full(count, ref64, dtype=np.uint64).view(np.int64)
    # The reference is added *in place* on the unpacker's fresh output —
    # no intermediate residual array is materialized and re-read, which
    # is the numpy rendering of FastLanes' fused subtract+unpack kernel.
    target = unpack_bits(encoded.payload, width, count, out=target)
    target += ref64
    return target.view(np.int64)


def ffor_decode_rowgroup(
    frames: Sequence[FforEncoded], out: np.ndarray
) -> np.ndarray:
    """Fused decode of a row-group's FFOR vectors into one buffer.

    ``frames`` are consecutive vectors laid out as
    :func:`~repro.encodings.bitpack.vector_grid` requires; ``out`` is a
    writable C-contiguous uint64 (or int64) array of their total count,
    and vector ``i`` lands right after vector ``i - 1``.  The full
    vectors of each distinct bit width unpack in one
    :func:`~repro.encodings.bitpack.unpack_bits` call — a handful
    per row-group instead of one per vector — and the references are
    added in one broadcast pass over the ``(vectors, vector size)``
    grid, at :data:`~repro.encodings.bitpack.UFUNC_BUFFER_ITEMS`.
    Output is identical to :func:`ffor_decode` per vector.
    """
    target = out if out.dtype == np.uint64 else out.view(np.uint64)
    size, n_full = vector_grid([f.count for f in frames])
    total = sum(f.count for f in frames)
    if target.ndim != 1 or target.size != total:
        raise ValueError(
            f"out must be a 1-D array of exactly {total} values, "
            f"got shape {out.shape}"
        )
    if not target.flags.c_contiguous or not target.flags.writeable:
        raise ValueError("out must be C-contiguous and writable")
    obs.counter_add("ffor.vectors_decoded", len(frames))
    refs = np.array(
        [f.reference & U64_MASK for f in frames], dtype=np.uint64
    )
    widths = [f.bit_width for f in frames[:n_full]]
    width_of = np.array(widths, dtype=np.int64)
    grid = target[: n_full * size].reshape(n_full, size)
    for width in sorted(set(widths)):
        rows = np.flatnonzero(width_of == width)
        payloads = [frames[r].payload for r in rows.tolist()]
        first, last = int(rows[0]), int(rows[-1])
        if last - first + 1 == rows.size:
            # Adjacent vectors: unpack straight into their grid rows.
            unpack_bits(
                payloads, width, size, out=grid[first : last + 1].reshape(-1)
            )
        else:
            # Scattered vectors: unpack a pass at a time into a bounded
            # temporary, then copy each pass to its grid rows.
            for at in range(0, rows.size, UNPACK_PASS_ROWS):
                part = rows[at : at + UNPACK_PASS_ROWS]
                block = unpack_bits(
                    payloads[at : at + UNPACK_PASS_ROWS], width, size
                )
                grid[part] = block.reshape(part.size, size)
    with np.errstate():
        np.setbufsize(UFUNC_BUFFER_ITEMS)  # restored as errstate exits
        grid += refs[:n_full, None]
    if n_full < len(frames):
        tail = frames[-1]
        tail_out = target[n_full * size :]
        unpack_bits([tail.payload], tail.bit_width, tail.count, out=tail_out)
        tail_out += refs[-1]
    return target.view(np.int64)


def ffor_sum_rows(
    frames: Sequence[FforEncoded],
    exclude: Sequence[np.ndarray],
    bounds: Sequence[tuple[int, int]] | None = None,
    totals: bool = True,
) -> tuple[list[int], list[int]]:
    """Exact ``(sums, kept)`` of equal-count frames, unpacked as one grid.

    The row-group form of :func:`ffor_sum` and :func:`ffor_sum_range`.
    The frames (vectors of one count, any widths) unpack into one
    ``(frames, count)`` uint64 residual grid, with one
    :func:`~repro.encodings.bitpack.unpack_bits` call per distinct
    width, and the ``exclude[i]`` positions of every frame drop out.
    ``bounds[i]``, one ``(d_low, d_high)`` per frame in the decoded
    integer domain, becomes that row's residual bounds, and the whole
    grid is compared against them at once.  Row sums are exact:
    one uint64 reduction where ``width + count.bit_length() <= 64``,
    otherwise the wrapped sum and the sum of the high 32-bit halves.

    ``sums[i]`` equals ``ffor_sum(frames[i], exclude[i])`` without
    bounds and ``ffor_sum_range(frames[i], *bounds[i], exclude[i])[0]``
    with them; ``kept[i]`` counts the values that sum covers.
    ``totals=False`` skips the sums (a COUNT needs only ``kept``) and
    returns an empty ``sums``.
    """
    n_rows = len(frames)
    if n_rows == 0:
        return [], []
    size = frames[0].count
    widths = np.array([f.bit_width for f in frames], dtype=np.int64)
    # Grid rows sorted by width: each width's frames unpack straight
    # into one block of adjacent rows, and the rows whose sums need the
    # split reduction form the last block.
    order = np.argsort(widths, kind="stable")
    row_of = np.empty(n_rows, dtype=np.int64)
    row_of[order] = np.arange(n_rows)
    sorted_widths = widths[order]
    order_list = order.tolist()
    # Every grid-sized array is a scratch buffer, and a small ufunc
    # buffer keeps numpy's broadcasts from allocating 64 KiB iteration
    # buffers, so a steady-state SUM allocates nothing of the grid's size.
    grid = scratch("ffor.sum_rows", n_rows * size, np.uint64).reshape(
        n_rows, size
    )
    edges = [0, *(np.flatnonzero(np.diff(sorted_widths)) + 1).tolist(), n_rows]
    for first, last in zip(edges[:-1], edges[1:]):
        unpack_bits(
            [frames[i].payload for i in order_list[first:last]],
            int(sorted_widths[first]),
            size,
            out=grid[first:last].reshape(-1),
        )
    # One small scatter per row with exclusions: a row-group's worth of
    # positions in one index array can itself be grid-sized.
    excluded = [
        (row, positions)
        for row, positions in zip(row_of.tolist(), exclude, strict=True)
        if positions.size
    ]
    with np.errstate():
        np.setbufsize(UFUNC_BUFFER_ITEMS)  # restored as errstate exits
        if bounds is None:
            for row, positions in excluded:
                grid[row, positions] = 0
            kept = [size - int(e.size) for e in exclude]
        else:
            r_low, r_high = [], []
            for frame, (d_low, d_high) in zip(frames, bounds, strict=True):
                top = (1 << frame.bit_width) - 1
                low = max(d_low - frame.reference, 0)
                high = min(d_high - frame.reference, top)
                r_low.append(low if low <= high else 1)
                r_high.append(high if low <= high else 0)
            # Per-row residual bounds, as (rows, 1) columns in grid order.
            low_col = np.array(r_low, dtype=np.uint64)[order, None]
            high_col = np.array(r_high, dtype=np.uint64)[order, None]
            outside = scratch("ffor.sum_rows.outside", grid.size, np.bool_)
            outside = outside.reshape(grid.shape)
            above = scratch("ffor.sum_rows.above", grid.size, np.bool_)
            above = above.reshape(grid.shape)
            np.less(grid, low_col, out=outside)
            np.greater(grid, high_col, out=above)
            outside |= above
            for row, positions in excluded:
                outside[row, positions] = True
            kept_rows = size - np.count_nonzero(outside, axis=1)
            kept = kept_rows[row_of].tolist()
            if totals:
                np.copyto(grid, 0, where=outside)
        if not totals:
            return [], kept
        split = int(
            np.searchsorted(sorted_widths, 64 - size.bit_length(), "right")
        )
        residuals = grid[:split].sum(axis=1, dtype=np.uint64).tolist()
        if split < n_rows:
            # Exact sums of wide rows from two reductions: the sum modulo
            # 2**64 and the sum of the high 32 bits (which cannot wrap);
            # the low halves' sum, below 2**64, is their difference.
            wide = grid[split:]
            wrapped = wide.sum(axis=1, dtype=np.uint64).tolist()
            wide >>= np.uint64(32)
            high_sums = wide.sum(axis=1, dtype=np.uint64).tolist()
            residuals += [
                (high << 32) + ((total - (high << 32)) & U64_MASK)
                for total, high in zip(wrapped, high_sums, strict=True)
            ]
    sums = [
        frame.reference * count + residuals[row]
        for frame, count, row in zip(frames, kept, row_of.tolist())
    ]
    return sums, kept


def ffor_sum(
    encoded: FforEncoded, exclude: np.ndarray | None = None
) -> int:
    """Exact integer sum of the decoded values, without decoding them.

    ``sum(v_i) = reference * count + sum(residual_i)`` — the reference
    contribution is one multiplication and the residual sum is the fused
    :func:`~repro.encodings.bitpack.unpack_sum` reduction, so no int64
    column (let alone a float64 one) is materialized for the caller.

    ``exclude``, when given, is a sorted array of positions whose values
    are omitted from the sum — the sparse correction encoded-domain SUM
    applies for ALP exception slots, whose packed payload holds a
    placeholder rather than a real value.  The result is an exact Python
    int in every case.
    """
    if obs.ENABLED:
        obs.metrics.counter_add("ffor.sum_fused", 1)
    count = encoded.count
    if exclude is None or exclude.size == 0:
        if encoded.bit_width == 0:
            return encoded.reference * count
        residual_total = unpack_sum(
            encoded.payload, encoded.bit_width, count
        )
        return encoded.reference * count + residual_total
    kept = count - int(exclude.size)
    if encoded.bit_width == 0:
        return encoded.reference * kept
    residual_total = unpack_sum_excluding(
        encoded.payload, encoded.bit_width, count, exclude
    )
    return encoded.reference * kept + residual_total


def ffor_sum_reference(
    encoded: FforEncoded, exclude: np.ndarray | None = None
) -> int:
    """Scalar oracle for :func:`ffor_sum`: decode, then sum per value."""
    values = ffor_decode_unfused(encoded)
    skip = (
        set(exclude.astype(np.int64).tolist())
        if exclude is not None
        else set()
    )
    total = 0
    for position, value in enumerate(values.tolist()):
        if position not in skip:
            total += value
    return total


def ffor_range_state(
    encoded: FforEncoded, d_low: int, d_high: int
) -> str:
    """Classify a vector against integer bounds from its header alone.

    The decoded values all lie in ``[reference, reference + 2^width)``,
    so (reference, bit width) decide many vectors without touching the
    packed payload:

    - ``"reject"`` — no decoded value can fall inside ``[d_low, d_high]``;
    - ``"accept"`` — every decoded value falls inside the bounds;
    - ``"partial"`` — the payload must be inspected.
    """
    if d_low > d_high or encoded.count == 0:
        return "reject"
    vec_min = encoded.reference
    vec_max = encoded.reference + (
        (1 << encoded.bit_width) - 1 if encoded.bit_width else 0
    )
    if vec_max < d_low or vec_min > d_high:
        return "reject"
    if d_low <= vec_min and vec_max <= d_high:
        return "accept"
    return "partial"


def ffor_filter_range(
    encoded: FforEncoded, d_low: int, d_high: int
) -> np.ndarray:
    """Fused unpack-compare: bool mask of values in ``[d_low, d_high]``.

    The comparison runs on the *packed residuals*: the constant bounds
    are translated by the frame of reference once (two Python-int
    subtractions), then clamped into the residual domain, so the kernel
    never performs the FOR add, never converts to float64 and never
    materializes the decoded integers for the caller.  Vectors decided
    by :func:`ffor_range_state` short-circuit without unpacking at all.
    """
    obs.counter_add("ffor.filter_fused")
    count = encoded.count
    state = ffor_range_state(encoded, d_low, d_high)
    if state == "reject":
        return np.zeros(count, dtype=bool)
    if state == "accept":
        return np.ones(count, dtype=bool)
    # Translate the bounds into residual space and clamp; the clamped
    # bounds stay within [0, 2^width), so the uint64 compares are exact.
    r_low = max(d_low - encoded.reference, 0)
    r_high = min(
        d_high - encoded.reference, (1 << encoded.bit_width) - 1
    )
    residuals = unpack_bits(encoded.payload, encoded.bit_width, count)
    mask: np.ndarray = (residuals >= np.uint64(r_low)) & (
        residuals <= np.uint64(r_high)
    )
    return mask


def ffor_sum_range(
    encoded: FforEncoded,
    d_low: int,
    d_high: int,
    exclude: np.ndarray | None = None,
) -> tuple[int, int]:
    """Fused filtered sum: ``(sum, count)`` of values in ``[d_low, d_high]``.

    One unpack feeds both the range mask and the reduction — the
    filter+aggregate pipeline collapses into a single kernel with no
    decoded column in between.  ``exclude`` positions are dropped from
    the selection before summing (ALP exception slots carry placeholder
    payloads; the caller re-checks their raw doubles separately).  Both
    outputs are exact Python ints.
    """
    obs.counter_add("ffor.sum_range_fused")
    count = encoded.count
    state = ffor_range_state(encoded, d_low, d_high)
    if state == "reject":
        return 0, 0
    has_exclude = exclude is not None and exclude.size > 0
    if encoded.bit_width == 0:
        # Every value equals the reference; non-reject means it's in range.
        kept = count - (int(exclude.size) if has_exclude else 0)
        return encoded.reference * kept, kept
    if state == "accept":
        # Header-decided: every value qualifies, so the filtered sum IS
        # the plain fused sum — the payload is folded, never unpacked.
        kept = count - (int(exclude.size) if has_exclude else 0)
        return ffor_sum(encoded, exclude=exclude), kept
    residuals = unpack_bits(encoded.payload, encoded.bit_width, count)
    r_low = max(d_low - encoded.reference, 0)
    r_high = min(
        d_high - encoded.reference, (1 << encoded.bit_width) - 1
    )
    mask = (residuals >= np.uint64(r_low)) & (
        residuals <= np.uint64(r_high)
    )
    if exclude is not None and exclude.size:
        mask[exclude.astype(np.int64)] = False
    kept = int(np.count_nonzero(mask))
    if kept == 0:
        return 0, 0
    if encoded.bit_width + count.bit_length() <= 64:
        # Bool-multiply zeroes the dropped lanes in place of a gather —
        # one fused pass, exact while the total cannot wrap uint64.
        residual_sum = int((residuals * mask).sum(dtype=np.uint64))
    else:
        residual_sum = uint64_sum_bounded(
            residuals[mask], encoded.bit_width
        )
    return encoded.reference * kept + residual_sum, kept


def ffor_sum_range_reference(
    encoded: FforEncoded,
    d_low: int,
    d_high: int,
    exclude: np.ndarray | None = None,
) -> tuple[int, int]:
    """Scalar oracle for :func:`ffor_sum_range` (decode, test, sum)."""
    values = ffor_decode_unfused(encoded)
    skip = (
        set(exclude.astype(np.int64).tolist())
        if exclude is not None
        else set()
    )
    total = 0
    kept = 0
    for position, value in enumerate(values.tolist()):
        if position not in skip and d_low <= value <= d_high:
            total += value
            kept += 1
    return total, kept


def ffor_filter_range_reference(
    encoded: FforEncoded, d_low: int, d_high: int
) -> np.ndarray:
    """Scalar oracle for :func:`ffor_filter_range` (decode, then test)."""
    values = ffor_decode_unfused(encoded)
    mask = np.zeros(encoded.count, dtype=bool)
    for position, value in enumerate(values.tolist()):
        mask[position] = d_low <= value <= d_high
    return mask


def ffor_decode_unfused(encoded: FforEncoded) -> np.ndarray:
    """Unfused decode: unpack to a residual array, then a second add pass.

    Reference implementation for the Figure 5 fusion ablation.  Produces
    bit-identical output to :func:`ffor_decode`.
    """
    residuals = unpack_bits(encoded.payload, encoded.bit_width, encoded.count)
    residuals = np.ascontiguousarray(residuals)  # materialized store
    out = residuals + np.uint64(encoded.reference & U64_MASK)
    return out.view(np.int64)
