"""ALP_rd: compression for "real" doubles (Section 3.4, Algorithm 3).

When a row-group's values cannot be represented as decimals (e.g. the
POI-lat/POI-lon coordinate datasets), ALP cuts every double's 64 bits at
a position ``p >= 48`` chosen once per row-group:

- the *right* part (low ``p`` bits) is stored with plain bit-packing —
  high-precision mantissa tails are close to incompressible anyway;
- the *left* part (high ``64 - p <= 16`` bits: sign, exponent and top
  mantissa bits) has low variance and is compressed with a skewed
  dictionary of at most 8 16-bit entries plus 16-bit exceptions.

Decoding bit-unpacks both parts, patches left-part exceptions, and
*glues* them back with a shift-or.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from repro import obs
from repro.alputil.bits import bits_to_double, double_to_bits
from repro.core.constants import (
    MAX_RD_LEFT_BITS,
    RD_EXCEPTION_SIZE_BITS,
    VECTOR_SIZE,
)
from repro.core.sampler import equidistant_indices
from repro.encodings.bitpack import (
    UNPACK_PASS_ROWS,
    pack_bits,
    packed_size_bytes,
    unpack_bits,
    vector_grid,
)
from repro.encodings.dictionary import SkewedDictionary

#: How many values per row-group the cut-position search looks at.
RD_SAMPLE_SIZE = 256


@dataclass(frozen=True)
class AlpRdParameters:
    """Row-group-level parameters of ALP_rd: cut position + dictionary."""

    right_bit_width: int  # the paper's p, >= 48 for doubles
    dictionary: SkewedDictionary
    total_bits: int = 64  # 64 for doubles, 32 for the float port

    @property
    def left_bit_width(self) -> int:
        """Width of the front-bit part (``total_bits - p``)."""
        return self.total_bits - self.right_bit_width

    def size_bits(self) -> int:
        """Row-group header: 8-bit cut position + the dictionary entries."""
        return 8 + self.dictionary.size_bits()


@dataclass(slots=True)
class AlpRdVector:
    """One ALP_rd-encoded vector (parameters live on the row-group)."""

    left_payload: bytes  # bit-packed dictionary codes
    right_payload: bytes  # bit-packed right parts
    exc_positions: np.ndarray  # uint16
    exc_values: np.ndarray  # uint16 left parts that missed the dictionary
    count: int

    def size_bits(
        self, parameters: AlpRdParameters
    ) -> int:
        """Vector footprint: both payloads + 32 bits per exception + count."""
        return (
            len(self.left_payload) * 8
            + len(self.right_payload) * 8
            + self.exc_positions.size * RD_EXCEPTION_SIZE_BITS
            + 16  # exception count
        )


@dataclass(frozen=True)
class AlpRdRowGroup:
    """An ALP_rd-encoded row-group: shared parameters + vectors."""

    parameters: AlpRdParameters
    vectors: tuple[AlpRdVector, ...]
    count: int

    def size_bits(self) -> int:
        """Header + every vector's footprint."""
        return self.parameters.size_bits() + sum(
            v.size_bits(self.parameters) for v in self.vectors
        )

    def bits_per_value(self) -> float:
        """Compressed bits per value."""
        if self.count == 0:
            return 0.0
        return self.size_bits() / self.count


def find_best_cut(
    sample_bits: np.ndarray, total_bits: int = 64
) -> AlpRdParameters:
    """Search the cut position minimizing estimated bits per value.

    Tries every left width in ``1..16`` (i.e. ``p`` from ``total_bits - 1``
    down to ``total_bits - 16``), fitting a skewed dictionary on the
    sampled left parts each time, and keeps the cheapest estimate:
    ``right_width + code_width + exception_rate * 32`` bits per value.
    """
    sample_bits = np.asarray(sample_bits, dtype=np.uint64)
    best: AlpRdParameters | None = None
    best_cost = float("inf")
    for left_width in range(1, MAX_RD_LEFT_BITS + 1):
        right_width = total_bits - left_width
        left = sample_bits >> np.uint64(right_width)
        dictionary = SkewedDictionary.fit(left)
        _, exc_positions, _ = dictionary.encode(left)
        exc_rate = exc_positions.size / max(sample_bits.size, 1)
        cost = right_width + dictionary.code_width + exc_rate * 32
        if cost < best_cost:
            best_cost = cost
            best = AlpRdParameters(
                right_bit_width=right_width,
                dictionary=dictionary,
                total_bits=total_bits,
            )
    if best is None:
        raise RuntimeError("ALP_rd cut search produced no candidate")
    return best


def fit_parameters(
    rowgroup: np.ndarray,
    total_bits: int = 64,
    sample_size: int = RD_SAMPLE_SIZE,
) -> AlpRdParameters:
    """Sample a row-group and fit (cut position, dictionary) once."""
    if total_bits == 64:
        bits = double_to_bits(np.ascontiguousarray(rowgroup, dtype=np.float64))
    else:
        from repro.alputil.bits import float32_to_bits

        bits = float32_to_bits(
            np.ascontiguousarray(rowgroup, dtype=np.float32)
        ).astype(np.uint64)
    sample = bits[equidistant_indices(bits.size, sample_size)]
    return find_best_cut(sample, total_bits=total_bits)


def encode_vector_bits(
    bits: np.ndarray, parameters: AlpRdParameters
) -> AlpRdVector:
    """Encode one vector of raw bit patterns under fixed parameters."""
    bits = np.asarray(bits, dtype=np.uint64)
    right_width = parameters.right_bit_width
    right = bits & np.uint64((1 << right_width) - 1)
    left = bits >> np.uint64(right_width)
    codes, exc_positions, exc_values = parameters.dictionary.encode(left)
    return AlpRdVector(
        left_payload=pack_bits(codes, parameters.dictionary.code_width),
        right_payload=pack_bits(right, right_width),
        exc_positions=exc_positions,
        exc_values=exc_values,
        count=bits.size,
    )


def decode_vector_bits(
    vector: AlpRdVector, parameters: AlpRdParameters
) -> np.ndarray:
    """Decode one vector back to raw bit patterns (BITUNPACK + GLUE)."""
    right = unpack_bits(
        vector.right_payload, parameters.right_bit_width, vector.count
    )
    codes = unpack_bits(
        vector.left_payload, parameters.dictionary.code_width, vector.count
    )
    left = parameters.dictionary.decode(
        codes, vector.exc_positions, vector.exc_values
    )
    return (left << np.uint64(parameters.right_bit_width)) | right


def encode_rowgroup_bits(
    bits: np.ndarray, parameters: AlpRdParameters, vector_size: int
) -> tuple[AlpRdVector, ...]:
    """Encode raw bit patterns as ``vector_size`` vectors, batched.

    Every vector shares the cut and the dictionary, so the split into
    left and right parts and the dictionary lookup run once over the
    ``(vectors, vector size)`` grid, the right parts pack in one 2-D
    :func:`~repro.encodings.bitpack.pack_bits` call and the codes in
    another, and the left-part exceptions are split per vector from one
    ``np.flatnonzero``.  A short tail vector takes
    :func:`encode_vector_bits`.  Output is identical to
    :func:`encode_vector_bits` on each chunk; both the float64 and the
    float32 ALP_rd encoders come here.
    """
    bits = np.ascontiguousarray(bits, dtype=np.uint64)
    n_full = bits.size // vector_size
    vectors: list[AlpRdVector] = []
    if n_full:
        grid = bits[: n_full * vector_size].reshape(n_full, vector_size)
        right_width = parameters.right_bit_width
        code_width = parameters.dictionary.code_width
        # fits: left parts are at most MAX_RD_LEFT_BITS = 16 bits wide
        left = (grid >> np.uint64(right_width)).astype(np.uint16)
        codes, found = parameters.dictionary.lookup(left)
        rows, positions = np.divmod(np.flatnonzero(~found), vector_size)
        # fits: positions < vector size <= 65535
        positions = positions.astype(np.uint16)
        exc_values = left[rows, positions]
        ends = np.cumsum(np.bincount(rows, minlength=n_full)).tolist()
        del left, found
        left_packed = pack_bits(codes, code_width)
        del codes
        right_packed = pack_bits(
            grid & np.uint64((1 << right_width) - 1), right_width
        )
        left_bytes = packed_size_bytes(vector_size, code_width)
        right_bytes = packed_size_bytes(vector_size, right_width)
        start = 0
        for row, end in enumerate(ends):
            vectors.append(
                AlpRdVector(
                    left_payload=left_packed[
                        row * left_bytes : (row + 1) * left_bytes
                    ],
                    right_payload=right_packed[
                        row * right_bytes : (row + 1) * right_bytes
                    ],
                    exc_positions=positions[start:end],
                    exc_values=exc_values[start:end],
                    count=vector_size,
                )
            )
            start = end
    if bits.size > n_full * vector_size:
        vectors.append(
            encode_vector_bits(bits[n_full * vector_size :], parameters)
        )
    return tuple(vectors)


def alprd_encode(
    rowgroup: np.ndarray,
    vector_size: int = VECTOR_SIZE,
    parameters: AlpRdParameters | None = None,
) -> AlpRdRowGroup:
    """Encode a float64 row-group with ALP_rd (see
    :func:`encode_rowgroup_bits`)."""
    with obs.span("alprd.encode"):
        rowgroup = np.ascontiguousarray(rowgroup, dtype=np.float64)
        if parameters is None:
            with obs.span("alprd.fit_parameters"):
                parameters = fit_parameters(rowgroup, total_bits=64)
        vectors = encode_rowgroup_bits(
            double_to_bits(rowgroup), parameters, vector_size
        )
        if obs.ENABLED:
            obs.metrics.counter_add("alprd.vectors_encoded", len(vectors))
            obs.metrics.counter_add(
                "alprd.exceptions",
                sum(int(v.exc_positions.size) for v in vectors),
            )
        return AlpRdRowGroup(
            parameters=parameters, vectors=vectors, count=rowgroup.size
        )


def _patch_left_exceptions(
    bits: np.ndarray,
    vectors: Sequence[AlpRdVector],
    size: int,
    right_width: int,
) -> None:
    """Glue every vector's left-part exceptions into ``bits`` at once.

    Vector ``i`` starts at ``i * size``; an exception keeps its slot's
    right part and replaces the dictionary's left part.  A position
    outside its own vector raises ``IndexError`` before anything is
    written, so a damaged vector can never patch a neighbour.
    """
    n_exc = np.array([v.exc_positions.size for v in vectors], dtype=np.int64)
    if not n_exc.any():
        return
    positions = np.concatenate([v.exc_positions for v in vectors]).astype(
        np.int64
    )
    counts = np.array([v.count for v in vectors], dtype=np.int64)
    bad = np.flatnonzero(positions >= np.repeat(counts, n_exc))
    if bad.size:
        raise IndexError(
            f"exception position {positions[bad[0]]} outside its vector"
        )
    positions += np.repeat(np.arange(len(vectors)) * size, n_exc)
    left = np.concatenate([v.exc_values for v in vectors]).astype(np.uint64)
    right_mask = np.uint64((1 << right_width) - 1)
    bits[positions] = (left << np.uint64(right_width)) | (
        bits[positions] & right_mask
    )


def alprd_decode(
    rowgroup: AlpRdRowGroup, out: np.ndarray | None = None
) -> np.ndarray:
    """Decode an ALP_rd row-group back to float64, bit-exactly.

    ``out``, when given, receives the decoded doubles in place (a
    ``rowgroup.count``-sized float64 slice), letting :func:`decompress`
    fill one preallocated column instead of concatenating per-row-group
    arrays.

    Every vector of a row-group shares the cut and the dictionary, so
    up to :data:`~repro.encodings.bitpack.UNPACK_PASS_ROWS` vectors
    unpack their right parts in one call straight into ``out`` and
    their left codes in a second; the dictionary lookup and the glue
    run on the same pass, and the left-part exceptions of the whole
    row-group are glued in last.  Only a short tail vector unpacks on
    its own.  Output is identical to :func:`decode_vector_bits` per
    vector.
    """
    vectors = rowgroup.vectors
    if not vectors:
        return np.empty(0, dtype=np.float64) if out is None else out
    with obs.span("alprd.decode"):
        target = np.empty(rowgroup.count, dtype=np.float64) if out is None else out
        bits = target.view(np.uint64)
        size, n_full = vector_grid([v.count for v in vectors])
        total = sum(v.count for v in vectors)
        if bits.size != total or not bits.flags.c_contiguous:
            raise ValueError(
                f"out must be a C-contiguous float64 array of {total} values"
            )
        parameters = rowgroup.parameters
        right_width = parameters.right_bit_width
        code_width = parameters.dictionary.code_width
        entries = parameters.dictionary.entries.astype(np.uint64)
        shift = np.uint64(right_width)
        # Passes of (first vector, vectors, values each): the full
        # vectors, then the short tail vector, if any.
        passes = [
            (first, min(UNPACK_PASS_ROWS, n_full - first), size)
            for first in range(0, n_full, UNPACK_PASS_ROWS)
        ]
        if n_full < len(vectors):
            passes.append((n_full, 1, vectors[-1].count))
        for first, n_vectors, count in passes:
            group = vectors[first : first + n_vectors]
            span = bits[first * size : first * size + n_vectors * count]
            unpack_bits(
                [v.right_payload for v in group], right_width, count, out=span
            )
            codes = unpack_bits(
                [v.left_payload for v in group], code_width, count
            )
            left = entries[codes.view(np.int64)]
            left <<= shift
            span |= left
        _patch_left_exceptions(bits, vectors, size, right_width)
        obs.counter_add("alprd.vectors_decoded", len(vectors))
        return target
