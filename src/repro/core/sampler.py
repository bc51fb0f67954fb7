"""The two-level adaptive sampling of ALP (Section 3.2).

Level one runs once per row-group: ``m = 8`` equidistant vectors are
sampled, ``n = 32`` equidistant values from each, and for every sampled
vector the *entire* (e, f) search space (253 combinations) is scanned.
The up-to-``k = 5`` combinations that win most often become the
row-group's candidate set; ties prefer higher exponents and factors.

Level two runs once per vector: ``s = 32`` equidistant values are
sampled and the candidates from level one are tried *in order of
frequency*, with a greedy early exit — if two consecutive candidates do
no better than the best seen, the search stops.  When level one produced
a single candidate, level two is skipped entirely.

The level-one scan also powers the ALP vs ALP_rd decision: a best
estimate above ``RD_SIZE_THRESHOLD_BITS`` bits/value marks the row-group
as "real doubles".
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from repro import obs
from repro.alputil.bits import leading_zeros64
from repro.core.constants import (
    EXCEPTION_SIZE_BITS,
    F10,
    IF10,
    MAX_COMBINATIONS,
    MAX_EXPONENT,
    SAMPLES_PER_ROWGROUP,
    SAMPLES_PER_VECTOR_FIRST_LEVEL,
    SAMPLES_PER_VECTOR_SECOND_LEVEL,
    VECTOR_SIZE,
)
from repro.core.fastround import fast_round


@dataclass(frozen=True, order=True)
class ExponentFactor:
    """One (exponent e, factor f) combination, ``f <= e``."""

    exponent: int
    factor: int

    def __post_init__(self) -> None:
        if not 0 <= self.factor <= self.exponent <= MAX_EXPONENT:
            raise ValueError(
                f"invalid combination e={self.exponent}, f={self.factor}"
            )


def _build_search_space() -> tuple[np.ndarray, np.ndarray]:
    """All (e, f) combinations, highest exponent/factor first.

    Ordering matters: the full search takes the *first* minimum, so
    enumerating high-e/high-f first implements the paper's tie-break
    ("prioritize combinations with higher exponents and higher factors").
    """
    exponents, factors = [], []
    for e in range(MAX_EXPONENT, -1, -1):
        for f in range(e, -1, -1):
            exponents.append(e)
            factors.append(f)
    return (
        np.asarray(exponents, dtype=np.int64),
        np.asarray(factors, dtype=np.int64),
    )


_E_ALL, _F_ALL = _build_search_space()

#: Number of combinations in the full search space (253 in the paper).
SEARCH_SPACE_SIZE = _E_ALL.size


def estimate_sizes_matrix(
    samples: np.ndarray, exponents: np.ndarray, factors: np.ndarray
) -> np.ndarray:
    """Estimated bits per (combination, sampled vector), fully batched.

    ``samples`` is a (vectors x samples-per-vector) float64 matrix;
    ``exponents`` / ``factors`` are parallel int arrays of combinations.
    Returns an int64 matrix of shape (combinations, vectors).  This one
    kernel powers both sampling levels: the first level evaluates the
    full 253-combination search space over all m sampled vectors at
    once, the second level evaluates the k' surviving candidates over a
    single vector's sample.
    """
    samples = np.ascontiguousarray(samples, dtype=np.float64)
    n_samples = samples.shape[1]
    # The multiplication structure must match alp_analyze exactly (two
    # separate multiplies, not a precomputed product): a different rounding
    # path would make the sampler mispredict the encoder's exceptions.
    e_mul = F10[exponents][:, None, None]
    f_inv = IF10[factors][:, None, None]
    f_mul = F10[factors][:, None, None]
    e_inv = IF10[exponents][:, None, None]
    with np.errstate(over="ignore", invalid="ignore"):
        encoded = fast_round(samples[None, :, :] * e_mul * f_inv)
        decoded = encoded * f_mul * e_inv
    exceptions = decoded.view(np.uint64) != samples.view(np.uint64)

    int_min = np.iinfo(np.int64).min
    int_max = np.iinfo(np.int64).max
    masked_max = np.where(exceptions, int_min, encoded).max(axis=2)
    masked_min = np.where(exceptions, int_max, encoded).min(axis=2)
    n_exc = exceptions.sum(axis=2)
    n_valid = n_samples - n_exc

    spread = np.where(
        n_valid > 0, masked_max - masked_min, 0
    ).astype(np.uint64)
    width = 64 - leading_zeros64(spread)
    return (n_valid * width + n_exc * EXCEPTION_SIZE_BITS).astype(np.int64)


def estimate_sizes_all_combinations(sample: np.ndarray) -> np.ndarray:
    """Estimated bits for ``sample`` under *every* (e, f) combination.

    Returns an array aligned with the module's search-space ordering.
    """
    sample = np.ascontiguousarray(sample, dtype=np.float64)
    if sample.size == 0:
        return np.zeros(SEARCH_SPACE_SIZE, dtype=np.int64)
    return estimate_sizes_matrix(sample[None, :], _E_ALL, _F_ALL)[:, 0]


def find_best_combination(sample: np.ndarray) -> tuple[ExponentFactor, int]:
    """Full-search the best (e, f) for a sample; returns (combo, est. bits)."""
    sizes = estimate_sizes_all_combinations(sample)
    best = int(np.argmin(sizes))
    combo = ExponentFactor(int(_E_ALL[best]), int(_F_ALL[best]))
    return combo, int(sizes[best])


@lru_cache(maxsize=256)
def equidistant_indices(total: int, wanted: int) -> np.ndarray:
    """``wanted`` equidistant indices into a range of ``total`` elements.

    Cached per ``(total, wanted)``: every full vector of a row-group
    asks for the same level-two sample.  The array is read-only, since
    callers share it.
    """
    if total <= 0:
        indices = np.empty(0, dtype=np.int64)
    else:
        wanted = min(wanted, total)
        indices = np.linspace(0, total - 1, num=wanted, dtype=np.int64)
    indices.flags.writeable = False
    return indices


def sample_vector(values: np.ndarray, wanted: int) -> np.ndarray:
    """Sample ``wanted`` equidistant values from a vector."""
    return values[equidistant_indices(values.size, wanted)]


@dataclass(frozen=True)
class FirstLevelResult:
    """Outcome of the row-group (first) sampling level.

    Attributes:
        candidates: up to ``k`` combinations, most frequent first.
        use_rd: True when the row-group should fall back to ALP_rd.
        best_estimated_bits_per_value: size estimate of the winning combo.
    """

    candidates: tuple[ExponentFactor, ...]
    use_rd: bool
    best_estimated_bits_per_value: float

    @property
    def k_prime(self) -> int:
        """Number of surviving candidates (the paper's k')."""
        return len(self.candidates)


def first_level_sample(
    rowgroup: np.ndarray,
    vector_size: int = VECTOR_SIZE,
    vectors_sampled: int = SAMPLES_PER_ROWGROUP,
    values_per_vector: int = SAMPLES_PER_VECTOR_FIRST_LEVEL,
    max_candidates: int = MAX_COMBINATIONS,
    rd_threshold_bits: float | None = None,
) -> FirstLevelResult:
    """Row-group sampling: full search on m x n sampled values (§3.2).

    The full searches of all m sampled vectors run as *one* batched
    (253 x m*n) evaluation (vectors whose tail chunk yields a shorter
    sample are batched separately per sample length, so estimates stay
    identical to the per-vector loop in
    :func:`first_level_sample_loop`).
    """
    from repro.core.constants import RD_SIZE_THRESHOLD_BITS

    if rd_threshold_bits is None:
        rd_threshold_bits = float(RD_SIZE_THRESHOLD_BITS)

    with obs.span("sampler.first_level"):
        rowgroup = np.ascontiguousarray(rowgroup, dtype=np.float64)
        n_vectors = max(1, (rowgroup.size + vector_size - 1) // vector_size)
        vector_indices = equidistant_indices(n_vectors, vectors_sampled)

        by_length: dict[int, list[np.ndarray]] = {}
        # Iterates the m = 8 sampled vector indices, not per-value data;
        # the per-value work is vectorized.  # reprolint: ignore[RL2]
        for vi in vector_indices.tolist():
            chunk = rowgroup[vi * vector_size : (vi + 1) * vector_size]
            if chunk.size == 0:
                continue
            sample = sample_vector(chunk, values_per_vector)
            by_length.setdefault(sample.size, []).append(sample)

        votes: Counter[ExponentFactor] = Counter()
        best_ratio = float("inf")
        sampled = 0
        for length, sample_list in by_length.items():
            sizes = estimate_sizes_matrix(
                np.stack(sample_list), _E_ALL, _F_ALL
            )
            # np.argmin takes the first minimum, preserving the search
            # space's high-e/high-f-first tie-break per vector.
            best = np.argmin(sizes, axis=0)
            # One vote per sampled vector (m = 8 per row-group), not a
            # per-value loop.  # reprolint: ignore[RL2]
            for column, ci in enumerate(best.tolist()):
                votes[ExponentFactor(int(_E_ALL[ci]), int(_F_ALL[ci]))] += 1
                best_ratio = min(best_ratio, int(sizes[ci, column]) / length)
            sampled += len(sample_list)

    if obs.ENABLED:
        obs.metrics.counter_add("sampler.first_level_runs", 1)
        obs.metrics.counter_add("sampler.first_level_vectors", sampled)
    return _rank_first_level(votes, best_ratio, max_candidates, rd_threshold_bits)


def _rank_first_level(
    votes: Counter[ExponentFactor],
    best_ratio: float,
    max_candidates: int,
    rd_threshold_bits: float,
) -> FirstLevelResult:
    """Turn per-vector winner votes into the ranked candidate set."""
    if not votes:
        return FirstLevelResult(
            candidates=(ExponentFactor(0, 0),),
            use_rd=False,
            best_estimated_bits_per_value=0.0,
        )

    # Most frequent first; ties prefer higher exponent, then higher factor.
    ranked = sorted(
        votes.items(),
        key=lambda item: (-item[1], -item[0].exponent, -item[0].factor),
    )
    candidates = tuple(combo for combo, _ in ranked[:max_candidates])
    if obs.ENABLED:
        obs.metrics.counter_add("sampler.candidates_kept", len(candidates))
    return FirstLevelResult(
        candidates=candidates,
        use_rd=best_ratio >= rd_threshold_bits,
        best_estimated_bits_per_value=best_ratio,
    )


def first_level_sample_loop(
    rowgroup: np.ndarray,
    vector_size: int = VECTOR_SIZE,
    vectors_sampled: int = SAMPLES_PER_ROWGROUP,
    values_per_vector: int = SAMPLES_PER_VECTOR_FIRST_LEVEL,
    max_candidates: int = MAX_COMBINATIONS,
    rd_threshold_bits: float | None = None,
) -> FirstLevelResult:
    """Per-vector-loop reference of :func:`first_level_sample`.

    One full search per sampled vector, exactly as the batched version
    but dispatched m times.  Kept (un-instrumented) as the ground truth
    for the sampler-equivalence tests; results are identical.
    """
    from repro.core.constants import RD_SIZE_THRESHOLD_BITS

    if rd_threshold_bits is None:
        rd_threshold_bits = float(RD_SIZE_THRESHOLD_BITS)

    rowgroup = np.ascontiguousarray(rowgroup, dtype=np.float64)
    n_vectors = max(1, (rowgroup.size + vector_size - 1) // vector_size)
    vector_indices = equidistant_indices(n_vectors, vectors_sampled)

    votes: Counter[ExponentFactor] = Counter()
    best_ratio = float("inf")
    for vi in vector_indices.tolist():
        chunk = rowgroup[vi * vector_size : (vi + 1) * vector_size]
        if chunk.size == 0:
            continue
        sample = sample_vector(chunk, values_per_vector)
        combo, est_bits = find_best_combination(sample)
        votes[combo] += 1
        best_ratio = min(best_ratio, est_bits / sample.size)
    return _rank_first_level(votes, best_ratio, max_candidates, rd_threshold_bits)


@dataclass(frozen=True)
class SecondLevelResult:
    """Outcome of the per-vector (second) sampling level."""

    combination: ExponentFactor
    combinations_tried: int
    skipped: bool  # True when k' == 1 and no sampling happened


def _estimate_for_candidates(
    sample: np.ndarray, candidate: ExponentFactor
) -> int:
    """Size estimate of one candidate on the per-vector sample."""
    from repro.core.alp import estimate_size_bits

    return estimate_size_bits(sample, candidate.exponent, candidate.factor)


def second_level_sample(
    vector: np.ndarray,
    candidates: tuple[ExponentFactor, ...],
    samples: int = SAMPLES_PER_VECTOR_SECOND_LEVEL,
) -> SecondLevelResult:
    """Per-vector sampling with greedy early exit (§3.2).

    Candidates are evaluated in the order level one ranked them.  If two
    consecutive candidates perform no better than the best so far, the
    search stops and the best so far wins.  With a single candidate the
    whole step is skipped.
    """
    if not candidates:
        raise ValueError("second_level_sample needs at least one candidate")
    if len(candidates) == 1:
        obs.counter_add("sampler.second_level_skipped")
        return SecondLevelResult(
            combination=candidates[0], combinations_tried=0, skipped=True
        )

    with obs.span("sampler.second_level"):
        sample = sample_vector(
            np.ascontiguousarray(vector, dtype=np.float64), samples
        )
        # All k' candidates in one (k' x s) evaluation; the paper's greedy
        # early-exit walk is then replayed over the size array, so the
        # winner and ``combinations_tried`` match the lazy loop exactly.
        exponents = np.asarray([c.exponent for c in candidates], dtype=np.int64)
        factors = np.asarray([c.factor for c in candidates], dtype=np.int64)
        sizes = estimate_sizes_matrix(sample[None, :], exponents, factors)[:, 0]
        best_combo, tried, early_exit = _greedy_walk(candidates, sizes.tolist())
    if obs.ENABLED:
        obs.metrics.counter_add("sampler.second_level_runs", 1)
        obs.metrics.counter_add("sampler.combinations_tried", tried)
        if early_exit:
            obs.metrics.counter_add("sampler.early_exits", 1)
    return SecondLevelResult(
        combination=best_combo, combinations_tried=tried, skipped=False
    )


def _greedy_walk(
    candidates: tuple[ExponentFactor, ...], sizes: list[int]
) -> tuple[ExponentFactor, int, bool]:
    """The §3.2 greedy early-exit walk over per-candidate size estimates.

    Returns ``(winner, combinations_tried, early_exit)``.  Stops after
    two consecutive candidates that do no better than the best so far —
    identical control flow whether the sizes were computed lazily (loop
    reference) or upfront (batched path).
    """
    best_combo = candidates[0]
    best_size = sizes[0]
    worse_streak = 0
    tried = 1
    for candidate, size in zip(candidates[1:], sizes[1:], strict=True):
        tried += 1
        if size < best_size:
            best_size = size
            best_combo = candidate
            worse_streak = 0
        else:
            worse_streak += 1
            if worse_streak >= 2:
                return best_combo, tried, True
    return best_combo, tried, False


def second_level_sample_rowgroup(
    rowgroup: np.ndarray,
    candidates: tuple[ExponentFactor, ...],
    vector_size: int = VECTOR_SIZE,
    samples: int = SAMPLES_PER_VECTOR_SECOND_LEVEL,
) -> list[SecondLevelResult]:
    """Level-two sampling for every vector of a row-group, batched.

    One (k' x vectors x s) evaluation replaces the per-vector calls to
    :func:`second_level_sample`; the greedy early-exit walk then replays
    per vector over its own size column.  Winners, try counts and early
    exits are identical to calling :func:`second_level_sample` on each
    chunk (vectors with a shorter tail sample are batched separately per
    sample length so their estimates do not change).
    """
    if not candidates:
        raise ValueError("second_level_sample needs at least one candidate")
    rowgroup = np.ascontiguousarray(rowgroup, dtype=np.float64)
    n_vectors = (rowgroup.size + vector_size - 1) // vector_size
    if len(candidates) == 1:
        obs.counter_add("sampler.second_level_skipped", n_vectors)
        return [
            SecondLevelResult(
                combination=candidates[0], combinations_tried=0, skipped=True
            )
        ] * n_vectors

    with obs.span("sampler.second_level"):
        by_length: dict[int, list[int]] = {}
        sample_rows: list[np.ndarray] = []
        for vi in range(n_vectors):
            chunk = rowgroup[vi * vector_size : (vi + 1) * vector_size]
            sample_rows.append(sample_vector(chunk, samples))
            by_length.setdefault(sample_rows[-1].size, []).append(vi)

        exponents = np.asarray([c.exponent for c in candidates], dtype=np.int64)
        factors = np.asarray([c.factor for c in candidates], dtype=np.int64)
        results: list[SecondLevelResult | None] = [None] * n_vectors
        early_exits = 0
        tried_total = 0
        for vector_ids in by_length.values():
            sizes = estimate_sizes_matrix(
                np.stack([sample_rows[vi] for vi in vector_ids]),
                exponents,
                factors,
            )
            for column, vi in enumerate(vector_ids):
                best_combo, tried, early_exit = _greedy_walk(
                    candidates, sizes[:, column].tolist()
                )
                results[vi] = SecondLevelResult(
                    combination=best_combo,
                    combinations_tried=tried,
                    skipped=False,
                )
                tried_total += tried
                early_exits += early_exit
    if obs.ENABLED:
        obs.metrics.counter_add("sampler.second_level_runs", n_vectors)
        obs.metrics.counter_add("sampler.combinations_tried", tried_total)
        if early_exits:
            obs.metrics.counter_add("sampler.early_exits", early_exits)
    return results  # type: ignore[return-value]


def second_level_sample_loop(
    vector: np.ndarray,
    candidates: tuple[ExponentFactor, ...],
    samples: int = SAMPLES_PER_VECTOR_SECOND_LEVEL,
) -> SecondLevelResult:
    """Lazy per-candidate-loop reference of :func:`second_level_sample`.

    Evaluates one candidate at a time and stops at the early exit, as
    the pre-batching implementation did.  Kept (un-instrumented) as the
    ground truth for the sampler-equivalence tests; results are
    identical to the batched version.
    """
    if not candidates:
        raise ValueError("second_level_sample needs at least one candidate")
    if len(candidates) == 1:
        return SecondLevelResult(
            combination=candidates[0], combinations_tried=0, skipped=True
        )
    sample = sample_vector(
        np.ascontiguousarray(vector, dtype=np.float64), samples
    )
    best_combo = candidates[0]
    best_size = _estimate_for_candidates(sample, best_combo)
    worse_streak = 0
    tried = 1
    for candidate in candidates[1:]:
        size = _estimate_for_candidates(sample, candidate)
        tried += 1
        if size < best_size:
            best_size = size
            best_combo = candidate
            worse_streak = 0
        else:
            worse_streak += 1
            if worse_streak >= 2:
                break
    return SecondLevelResult(
        combination=best_combo, combinations_tried=tried, skipped=False
    )
