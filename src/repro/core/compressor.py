"""Row-group orchestration: the public compress/decompress entry points.

``compress`` splits a column into row-groups of 100 vectors x 1024
values, runs the first sampling level once per row-group, decides between
ALP and ALP_rd, then encodes every vector (running the second sampling
level only when more than one candidate survived level one).

The returned objects carry enough introspection (scheme used, k' per
row-group, combinations tried per vector) to reproduce the paper's
sampling-overhead analysis (§4.2) without re-instrumenting the code.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro import obs
from repro.alputil.bits import bits_to_double, double_to_bits
from repro.core.alp import (
    AlpVector,
    alp_decode_vector,
    alp_encode_rowgroup,
    alp_encode_vector,
)
from repro.core.alprd import (
    AlpRdRowGroup,
    alprd_decode,
    alprd_encode,
    decode_vector_bits,
    encode_vector_bits,
    fit_parameters,
)
from repro.core.constants import (
    ROWGROUP_VECTORS,
    VECTOR_SIZE,
)
from repro.core.sampler import (
    ExponentFactor,
    FirstLevelResult,
    first_level_sample,
    second_level_sample_rowgroup,
)
from repro.encodings.ffor import ffor_decode_rowgroup


@dataclass(frozen=True)
class AlpRowGroup:
    """A decimal-encoded (main ALP) row-group."""

    vectors: tuple[AlpVector, ...]
    candidates: tuple[ExponentFactor, ...]
    count: int

    def size_bits(self) -> int:
        """Sum of per-vector footprints plus the candidate-list header."""
        return sum(v.size_bits() for v in self.vectors) + 8

    def exception_count(self) -> int:
        """Total exceptions across the row-group."""
        return sum(v.exception_count for v in self.vectors)


@dataclass(frozen=True)
class CompressedRowGroup:
    """One compressed row-group: exactly one of ``alp`` / ``rd`` is set."""

    alp: AlpRowGroup | None
    rd: AlpRdRowGroup | None
    first_level: FirstLevelResult
    count: int

    @property
    def scheme(self) -> str:
        """'alp' or 'alprd'."""
        return "alp" if self.alp is not None else "alprd"

    @property
    def vector_count(self) -> int:
        """Number of vectors in this row-group."""
        return len(self._payload().vectors)

    def size_bits(self) -> int:
        """Compressed footprint of this row-group."""
        return self._payload().size_bits() + 8  # scheme tag

    def _payload(self) -> AlpRowGroup | AlpRdRowGroup:
        payload = self.alp if self.alp is not None else self.rd
        if payload is None:
            raise ValueError("row-group has neither ALP nor ALP_rd payload")
        return payload


@dataclass(frozen=True)
class CompressionStats:
    """Aggregate sampling statistics for the §4.2 overhead analysis."""

    vectors_encoded: int = 0
    second_level_skipped: int = 0
    combinations_tried: tuple[int, ...] = field(default_factory=tuple)
    rd_rowgroups: int = 0
    alp_rowgroups: int = 0

    def tried_histogram(self) -> dict[int, int]:
        """Histogram of combinations tried per (non-skipped) vector."""
        hist: dict[int, int] = {}
        for tried in self.combinations_tried:
            hist[tried] = hist.get(tried, 0) + 1
        return hist


@dataclass(frozen=True)
class CompressedRowGroups:
    """A fully compressed column (ordered row-groups)."""

    rowgroups: tuple[CompressedRowGroup, ...]
    count: int
    vector_size: int
    stats: CompressionStats

    def size_bits(self) -> int:
        """Total compressed footprint."""
        return sum(rg.size_bits() for rg in self.rowgroups)

    def bits_per_value(self) -> float:
        """Compressed bits per value — the paper's Table 4 metric."""
        if self.count == 0:
            return 0.0
        return self.size_bits() / self.count

    def compression_ratio(self) -> float:
        """Uncompressed (64-bit) over compressed size."""
        bpv = self.bits_per_value()
        return 64.0 / bpv if bpv else float("inf")

    @property
    def uses_rd(self) -> bool:
        """True if any row-group fell back to ALP_rd."""
        return any(rg.scheme == "alprd" for rg in self.rowgroups)


def check_geometry(vector_size: int, rowgroup_vectors: int = 1) -> None:
    """Reject a vector or row-group size no column can be cut into."""
    if not 1 <= vector_size <= 65_535:
        # Exception positions and serialized vector counts are 16-bit.
        raise ValueError(
            f"vector_size must be in [1, 65535], got {vector_size}"
        )
    if rowgroup_vectors < 1:
        raise ValueError(
            f"rowgroup_vectors must be >= 1, got {rowgroup_vectors}"
        )


def compress_rowgroup(
    rowgroup: np.ndarray,
    vector_size: int = VECTOR_SIZE,
    force_scheme: str | None = None,
) -> tuple[CompressedRowGroup, list[int], int]:
    """Compress one row-group; returns (result, tried-counts, skipped).

    ``force_scheme`` ("alp" or "alprd") bypasses the adaptive decision,
    which the ablation benchmarks use to measure the fallback's cost.
    """
    check_geometry(vector_size)
    with obs.span("compressor.rowgroup"):
        return _compress_rowgroup(rowgroup, vector_size, force_scheme)


def _compress_rowgroup(
    rowgroup: np.ndarray,
    vector_size: int,
    force_scheme: str | None,
) -> tuple[CompressedRowGroup, list[int], int]:
    rowgroup = np.ascontiguousarray(rowgroup, dtype=np.float64)
    first = first_level_sample(rowgroup, vector_size=vector_size)

    use_rd = first.use_rd if force_scheme is None else force_scheme == "alprd"
    if obs.ENABLED:
        obs.metrics.counter_add("compressor.rowgroups", 1)
        obs.metrics.counter_add(
            "compressor.scheme.alprd" if use_rd else "compressor.scheme.alp", 1
        )
    if use_rd:
        rd = alprd_encode(rowgroup, vector_size=vector_size)
        return (
            CompressedRowGroup(
                alp=None, rd=rd, first_level=first, count=rowgroup.size
            ),
            [],
            0,
        )

    tried_counts: list[int] = []
    exponents: int | np.ndarray
    factors: int | np.ndarray
    if len(first.candidates) == 1:
        # The common case: one surviving candidate means every vector
        # skips level two and encodes under the same (e, f).
        combo = first.candidates[0]
        exponents, factors = combo.exponent, combo.factor
        skipped = -(-rowgroup.size // vector_size)
        obs.counter_add("sampler.second_level_skipped", skipped)
    else:
        # Multiple candidates: level-two sampling for every vector runs
        # as one batched (s x vectors x k') evaluation, then each vector
        # encodes under its own winner.
        choices = second_level_sample_rowgroup(
            rowgroup, first.candidates, vector_size=vector_size
        )
        exponents, factors = choices.exponents, choices.factors
        skipped = 0
        tried_counts = choices.tried.tolist()
    # One batched ALP_enc/ALP_dec/FFOR pass over the whole row-group.
    vectors = alp_encode_rowgroup(rowgroup, exponents, factors, vector_size)

    if obs.ENABLED:
        obs.metrics.counter_add(
            "compressor.exceptions_patched",
            sum(v.exception_count for v in vectors),
        )
    alp = AlpRowGroup(
        vectors=tuple(vectors),
        candidates=first.candidates,
        count=rowgroup.size,
    )
    return (
        CompressedRowGroup(
            alp=alp, rd=None, first_level=first, count=rowgroup.size
        ),
        tried_counts,
        skipped,
    )


def compress_rowgroup_reference(
    rowgroup: np.ndarray,
    vector_size: int = VECTOR_SIZE,
    force_scheme: str | None = None,
) -> CompressedRowGroup:
    """Per-vector-loop reference of :func:`compress_rowgroup`.

    The same sampling, then one :func:`~repro.core.alp.alp_encode_vector`
    or :func:`~repro.core.alprd.encode_vector_bits` call per vector, as
    the encoder ran before row-group batching.  Kept as the ground truth
    for the row-group encode equivalence tests and the
    ``kernels/rowgroup-encode`` record; serialized output is identical.
    """
    rowgroup = np.ascontiguousarray(rowgroup, dtype=np.float64)
    first = first_level_sample(rowgroup, vector_size=vector_size)
    use_rd = first.use_rd if force_scheme is None else force_scheme == "alprd"
    chunks = [
        rowgroup[start : start + vector_size]
        for start in range(0, rowgroup.size, vector_size)
    ]
    if use_rd:
        parameters = fit_parameters(rowgroup, total_bits=64)
        rd = AlpRdRowGroup(
            parameters=parameters,
            vectors=tuple(
                encode_vector_bits(double_to_bits(chunk), parameters)
                for chunk in chunks
            ),
            count=rowgroup.size,
        )
        return CompressedRowGroup(
            alp=None, rd=rd, first_level=first, count=rowgroup.size
        )
    if len(first.candidates) == 1:
        combo = first.candidates[0]
        exponents = [combo.exponent] * len(chunks)
        factors = [combo.factor] * len(chunks)
    else:
        choices = second_level_sample_rowgroup(
            rowgroup, first.candidates, vector_size=vector_size
        )
        exponents = choices.exponents.tolist()
        factors = choices.factors.tolist()
    alp = AlpRowGroup(
        vectors=tuple(
            alp_encode_vector(chunk, e, f)
            for chunk, e, f in zip(chunks, exponents, factors, strict=True)
        ),
        candidates=first.candidates,
        count=rowgroup.size,
    )
    return CompressedRowGroup(
        alp=alp, rd=None, first_level=first, count=rowgroup.size
    )


def compress(
    values: np.ndarray,
    vector_size: int = VECTOR_SIZE,
    rowgroup_vectors: int = ROWGROUP_VECTORS,
    force_scheme: str | None = None,
) -> CompressedRowGroups:
    """Compress a float64 column with adaptive ALP / ALP_rd.

    This is the library's primary entry point.  The input round-trips
    bit-exactly through :func:`decompress`, including NaN payloads,
    infinities and signed zeros.
    """
    check_geometry(vector_size, rowgroup_vectors)
    with obs.span("compressor.compress"):
        values = np.ascontiguousarray(values, dtype=np.float64)
        rowgroup_size = vector_size * rowgroup_vectors
        rowgroups: list[CompressedRowGroup] = []
        all_tried: list[int] = []
        skipped_total = 0
        for start in range(0, values.size, rowgroup_size):
            chunk = values[start : start + rowgroup_size]
            rg, tried, skipped = compress_rowgroup(
                chunk, vector_size=vector_size, force_scheme=force_scheme
            )
            rowgroups.append(rg)
            all_tried.extend(tried)
            skipped_total += skipped

        stats = CompressionStats(
            vectors_encoded=sum(rg.vector_count for rg in rowgroups),
            second_level_skipped=skipped_total,
            combinations_tried=tuple(all_tried),
            rd_rowgroups=sum(1 for rg in rowgroups if rg.scheme == "alprd"),
            alp_rowgroups=sum(1 for rg in rowgroups if rg.scheme == "alp"),
        )
        column = CompressedRowGroups(
            rowgroups=tuple(rowgroups),
            count=values.size,
            vector_size=vector_size,
            stats=stats,
        )
        _record_column_metrics(column)
        return column


def _record_column_metrics(column: CompressedRowGroups) -> None:
    """Counter/gauge summary of one finished compression (if enabled)."""
    if not obs.ENABLED:
        return
    stats = column.stats
    obs.metrics.counter_add("compressor.vectors_encoded", stats.vectors_encoded)
    obs.metrics.counter_add(
        "compressor.second_level_skipped", stats.second_level_skipped
    )
    obs.metrics.counter_add(
        "compressor.combinations_tried", sum(stats.combinations_tried)
    )
    obs.metrics.counter_add("compressor.values", column.count)
    obs.metrics.counter_add("compressor.compressed_bits", column.size_bits())
    obs.metrics.gauge_set(
        "compressor.bits_per_value", column.bits_per_value()
    )


def decode_rowgroup_into(rg: CompressedRowGroup, out: np.ndarray) -> None:
    """Decode one row-group into a preallocated float64 slice.

    The canonical decode path: :func:`decompress` and the storage
    readers' ``read_rowgroup``/``read_all`` ``out=`` variants all funnel
    through here.  ``out`` must be a writable C-contiguous float64 array
    (or slice) of exactly ``rg.count`` values.

    ALP row-groups decode per row-group, not per vector, where the work
    allows it: every vector's FFOR integers unpack into ``out`` itself
    (one unpack per distinct bit width, see
    :func:`~repro.encodings.ffor.ffor_decode_rowgroup`), then one
    :func:`alp_decode_vector` call per vector applies its own ``(e, f)``
    and exception patch in place.  The per-vector step stays because
    each vector has its own exponent pair and its patch must stay
    inside the vector's slice.  ALP_rd row-groups go to
    :func:`alprd_decode`.
    """
    if out.dtype != np.float64 or out.ndim != 1 or out.size != rg.count:
        raise ValueError(
            f"out must be a 1-D float64 array of {rg.count} values, "
            f"got {out.dtype} with shape {out.shape}"
        )
    if rg.alp is not None:
        vectors = rg.alp.vectors
        if any(v.count != v.ffor.count for v in vectors):
            raise ValueError("vector count disagrees with its FFOR count")
        ints = ffor_decode_rowgroup([v.ffor for v in vectors], out)
        pos = 0
        for vector in vectors:
            end = pos + vector.count
            alp_decode_vector(vector, out=out[pos:end], encoded=ints[pos:end])
            pos = end
    else:
        if rg.rd is None:
            raise ValueError("row-group has neither ALP nor ALP_rd payload")
        alprd_decode(rg.rd, out=out)


def decode_rowgroup_vector(rg: CompressedRowGroup, v: int) -> np.ndarray:
    """Decode vector ``v`` of a row-group alone (ALP or ALP_rd) — what
    a zone-map-pruned scan pays for each surviving vector."""
    if rg.alp is not None:
        return alp_decode_vector(rg.alp.vectors[v])
    if rg.rd is None:
        raise ValueError("row-group has neither ALP nor ALP_rd payload")
    return bits_to_double(decode_vector_bits(rg.rd.vectors[v], rg.rd.parameters))


def coerce_decode_out(count: int, out: np.ndarray | None) -> np.ndarray:
    """Validate (or allocate) a float64 decode buffer of ``count`` values."""
    if out is None:
        return np.empty(count, dtype=np.float64)
    if not isinstance(out, np.ndarray):
        raise TypeError(f"out must be a numpy ndarray, got {type(out)!r}")
    if out.dtype != np.float64 or out.ndim != 1 or out.size != count:
        raise ValueError(
            f"out must be a 1-D float64 array of {count} values, "
            f"got {out.dtype} with shape {out.shape}"
        )
    if not out.flags.c_contiguous or not out.flags.writeable:
        raise ValueError("out must be C-contiguous and writable")
    return out


def decompress(
    column: CompressedRowGroups, out: np.ndarray | None = None
) -> np.ndarray:
    """Decompress a column back to float64, bit-exactly.

    Every vector decodes directly into its offset of one preallocated
    output array — no per-vector arrays are built and concatenated.
    ``out``, when given, must be a writable C-contiguous float64 array
    of exactly ``column.count`` values; the decoded column is written
    in place and ``out`` itself is returned, so steady-state callers
    (the serving buffer pool) allocate nothing per decode.
    """
    out = coerce_decode_out(column.count, out)
    if column.count == 0:
        return out
    with obs.span("compressor.decompress"):
        pos = 0
        for rg in column.rowgroups:
            decode_rowgroup_into(rg, out[pos : pos + rg.count])
            pos += rg.count
        if obs.ENABLED:
            obs.metrics.counter_add("compressor.values_decoded", column.count)
        return out
