"""Delta encoding for integers (FastLanes building block).

Stores the first value and the differences between consecutive values,
bit-packed with a zig-zag transform so that negative deltas stay small.
The cascade layer uses Delta for (somewhat) ordered dictionaries and RLE
run values, as suggested in the paper's Section 3.1.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.encodings.bitpack import (
    bit_width_required,
    pack_bits,
    pack_rows,
    unpack_bits,
)


def zigzag_encode(values: np.ndarray) -> np.ndarray:
    """Map signed integers to unsigned: 0,-1,1,-2,... -> 0,1,2,3,..."""
    values = np.asarray(values, dtype=np.int64)
    zigzag = values.view(np.uint64) << np.uint64(1)
    zigzag ^= (values >> np.int64(63)).view(np.uint64)
    return zigzag


def zigzag_decode(values: np.ndarray) -> np.ndarray:
    """Inverse of :func:`zigzag_encode`."""
    values = np.asarray(values, dtype=np.uint64)
    return (
        (values >> np.uint64(1)) ^ (np.uint64(0) - (values & np.uint64(1)))
    ).view(np.int64)


@dataclass(frozen=True)
class DeltaEncoded:
    """A Delta-encoded integer vector."""

    payload: bytes
    first_value: int
    bit_width: int
    count: int

    def size_bits(self) -> int:
        """Packed deltas + 64-bit first value + 8-bit width."""
        return len(self.payload) * 8 + 64 + 8


def delta_encode(values: np.ndarray) -> DeltaEncoded:
    """Encode int64 values as zig-zagged, bit-packed deltas."""
    values = np.ascontiguousarray(values, dtype=np.int64)
    if values.size == 0:
        return DeltaEncoded(payload=b"", first_value=0, bit_width=0, count=0)
    deltas = np.diff(values)
    zz = zigzag_encode(deltas)
    width = bit_width_required(zz)
    return DeltaEncoded(
        payload=pack_bits(zz, width),
        first_value=int(values[0]),
        bit_width=width,
        count=values.size,
    )


def delta_encode_rowgroup(
    values: np.ndarray, vector_size: int
) -> list[DeltaEncoded]:
    """Delta-encode consecutive vectors of ``vector_size`` values at once.

    One ``np.diff`` along the rows of the ``(vectors, vector size)``
    grid, one zig-zag pass, one width reduction and one
    :func:`~repro.encodings.bitpack.pack_rows` pass replace the
    per-vector calls; a short tail vector encodes as a grid of one row.
    Output is identical to :func:`delta_encode` on each chunk (int64
    deltas wrap the same way in both).
    """
    values = np.ascontiguousarray(values, dtype=np.int64)
    n_full = values.size // vector_size
    frames = _delta_encode_grid(
        values[: n_full * vector_size].reshape(n_full, vector_size)
    )
    if values.size > n_full * vector_size:
        frames += _delta_encode_grid(values[n_full * vector_size :][None, :])
    return frames


def _delta_encode_grid(grid: np.ndarray) -> list[DeltaEncoded]:
    """Delta frames of the rows of an int64 ``(vectors, count)`` grid."""
    n_rows, count = grid.shape
    if n_rows == 0:
        return []
    deltas = np.diff(grid, axis=1)
    # zigzag_encode, in place on the temporary deltas.
    sign = (deltas >> np.int64(63)).view(np.uint64)
    zz = deltas.view(np.uint64)
    zz <<= np.uint64(1)
    zz ^= sign
    del sign
    widths, payloads = pack_rows(zz, zz.max(axis=1, initial=0))
    return [
        DeltaEncoded(
            payload=payload, first_value=first, bit_width=width, count=count
        )
        for payload, first, width in zip(
            payloads, grid[:, 0].tolist(), widths, strict=True
        )
    ]


def delta_decode(encoded: DeltaEncoded) -> np.ndarray:
    """Decode a :class:`DeltaEncoded` vector back to int64."""
    if encoded.count == 0:
        return np.empty(0, dtype=np.int64)
    zz = unpack_bits(encoded.payload, encoded.bit_width, encoded.count - 1)
    deltas = zigzag_decode(zz)
    out = np.empty(encoded.count, dtype=np.int64)
    out[0] = encoded.first_value
    if encoded.count > 1:
        np.cumsum(deltas, out=out[1:])
        out[1:] += encoded.first_value
    return out
