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
from typing import NamedTuple

import numpy as np

from repro import obs
from repro.alputil.bits import bit_length64
from repro.core.constants import (
    EXCEPTION_SIZE_BITS,
    F10,
    IF10,
    MAX_COMBINATIONS,
    MAX_EXPONENT,
    SAMPLES_PER_ROWGROUP,
    SAMPLES_PER_VECTOR_FIRST_LEVEL,
    SAMPLES_PER_VECTOR_SECOND_LEVEL,
    SWEET_SPOT,
    VECTOR_SIZE,
)


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


#: The search space as ExponentFactor objects, index-aligned with
#: ``_E_ALL`` / ``_F_ALL``.
_COMBOS = tuple(
    ExponentFactor(int(e), int(f)) for e, f in zip(_E_ALL, _F_ALL, strict=True)
)


def estimate_sizes_matrix(
    samples: np.ndarray, exponents: np.ndarray, factors: np.ndarray
) -> np.ndarray:
    """Estimated bits per (sampled vector, combination), fully batched.

    ``samples`` is a (samples-per-vector x vectors) float64 matrix, one
    sampled vector per column; ``exponents`` / ``factors`` are parallel
    int arrays of combinations.  Returns an int64 matrix of shape
    (vectors, combinations), equal entry for entry to
    :func:`repro.core.alp.estimate_size_bits` of that column under that
    combination.  This one kernel powers both sampling levels: level one
    evaluates the full 253-combination search space over the m sampled
    vectors, level two the k' surviving candidates over every vector of
    a row-group.

    The work is a (samples, vectors, combinations) cube, combinations
    innermost, reduced over its leading axis (a leading-axis reduction
    is one elementwise pass per sample row, several times cheaper than
    reducing a short innermost axis).  It stays in the float domain:
    ``trunc`` of the clipped sweet-spot result is exactly the int64 cast
    :func:`~repro.core.fastround.fast_round` makes, and a NaN sample,
    which ``fast_round`` maps to 0, is forced to be an exception here.
    """
    samples = np.asarray(samples, dtype=np.float64)
    n_samples, n_vectors = samples.shape
    if n_samples == 0:
        return np.zeros((n_vectors, len(exponents)), dtype=np.int64)
    column = samples[:, :, None]
    # The multiplication structure must match alp_analyze exactly (two
    # separate multiplies, not a precomputed product): a different rounding
    # path would make the sampler mispredict the encoder's exceptions.
    with np.errstate(over="ignore", invalid="ignore"):
        encoded = column * F10[exponents]
        encoded *= IF10[factors]
        encoded += SWEET_SPOT
        encoded -= SWEET_SPOT
        np.clip(encoded, -(2.0**62), 2.0**62, out=encoded)
        np.trunc(encoded, out=encoded)
        decoded = encoded * F10[factors]
        decoded *= IF10[exponents]
    valid = decoded.view(np.uint64) == column.view(np.uint64)
    nan = np.isnan(samples)
    if nan.any():
        valid &= ~nan[:, :, None]
    # Counts fit the narrow accumulator; summing uint8 is ~6x faster.
    count_type = np.uint8 if n_samples <= 0xFF else np.int64
    n_valid = np.add.reduce(
        valid.view(np.uint8), axis=0, dtype=count_type
    ).astype(np.int64)
    np.copyto(encoded, np.nan, where=~valid)
    high = np.fmax.reduce(encoded, axis=0)
    low = np.fmin.reduce(encoded, axis=0)
    all_exceptions = n_valid == 0
    high[all_exceptions] = 0.0
    low[all_exceptions] = 0.0
    # Both bounds are integers within +-2**62, so the casts are exact;
    # the int64 difference wraps into the exact uint64 spread.
    spread = (high.astype(np.int64) - low.astype(np.int64)).view(np.uint64)
    return n_valid * bit_length64(spread) + (
        n_samples - n_valid
    ) * EXCEPTION_SIZE_BITS


def estimate_sizes_all_combinations(sample: np.ndarray) -> np.ndarray:
    """Estimated bits for ``sample`` under *every* (e, f) combination.

    Returns an array aligned with the module's search-space ordering.
    """
    sample = np.asarray(sample, dtype=np.float64).ravel()
    return estimate_sizes_matrix(sample[:, None], _E_ALL, _F_ALL)[0]


def find_best_combination(sample: np.ndarray) -> tuple[ExponentFactor, int]:
    """Full-search the best (e, f) for a sample; returns (combo, est. bits)."""
    sizes = estimate_sizes_all_combinations(sample)
    best = int(np.argmin(sizes))
    return _COMBOS[best], int(sizes[best])


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


def _sample_positions(
    size: int, vector_size: int, vector_ids: list[int], wanted: int
) -> tuple[tuple[np.ndarray, np.ndarray], ...]:
    """Sample positions of some vectors of a ``size``-value row-group.

    Each vector contributes :func:`sample_vector`'s positions, offset to
    its start; vectors without values contribute nothing.  Vectors are
    grouped by sample length (only a short tail vector differs), one
    ``(vector ids, positions)`` pair per group, ``positions`` a
    (length x vectors) matrix with one column per vector, so that
    ``rowgroup[positions]`` is the group's sample matrix in one gather.
    """
    groups: dict[int, tuple[list[int], list[np.ndarray]]] = {}
    for vi in vector_ids:
        start = vi * vector_size
        count = min(vector_size, size - start)
        if count <= 0:
            continue
        positions = start + equidistant_indices(count, wanted)
        ids, columns = groups.setdefault(positions.size, ([], []))
        ids.append(vi)
        columns.append(positions)
    result = []
    for ids, columns in groups.values():
        id_array = np.asarray(ids, dtype=np.int64)
        matrix = np.stack(columns, axis=1)
        id_array.flags.writeable = False
        matrix.flags.writeable = False
        result.append((id_array, matrix))
    return tuple(result)


@lru_cache(maxsize=64)
def _first_level_positions(
    size: int, vector_size: int, vectors_sampled: int, wanted: int
) -> tuple[tuple[np.ndarray, np.ndarray], ...]:
    """Level one's sample positions: ``wanted`` values from each of
    ``vectors_sampled`` equidistant vectors (cached, read-only)."""
    n_vectors = max(1, -(-size // vector_size))
    vector_ids = equidistant_indices(n_vectors, vectors_sampled).tolist()
    return _sample_positions(size, vector_size, vector_ids, wanted)


@lru_cache(maxsize=64)
def _second_level_positions(
    size: int, vector_size: int, wanted: int
) -> tuple[tuple[np.ndarray, np.ndarray], ...]:
    """Level two's sample positions: ``wanted`` values from every vector
    (cached, read-only)."""
    n_vectors = -(-size // vector_size)
    return _sample_positions(size, vector_size, list(range(n_vectors)), wanted)


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


#: Level one's outcome when no vector had a value to sample.
_NOTHING_SAMPLED = FirstLevelResult(
    candidates=(ExponentFactor(0, 0),),
    use_rd=False,
    best_estimated_bits_per_value=0.0,
)


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
    (n samples x m vectors x 253 combinations) evaluation.  A tail
    vector whose sample is shorter is evaluated on its own, so estimates
    stay identical to the per-vector loop in
    :func:`first_level_sample_loop`.
    """
    from repro.core.constants import RD_SIZE_THRESHOLD_BITS

    if rd_threshold_bits is None:
        rd_threshold_bits = float(RD_SIZE_THRESHOLD_BITS)

    with obs.span("sampler.first_level"):
        rowgroup = np.ascontiguousarray(rowgroup, dtype=np.float64)
        votes = np.zeros(SEARCH_SPACE_SIZE, dtype=np.int64)
        best_ratio = float("inf")
        sampled = 0
        for _, positions in _first_level_positions(
            rowgroup.size, vector_size, vectors_sampled, values_per_vector
        ):
            sizes = estimate_sizes_matrix(rowgroup[positions], _E_ALL, _F_ALL)
            # np.argmin takes the first minimum, preserving the search
            # space's high-e/high-f-first tie-break per vector.
            votes += np.bincount(
                np.argmin(sizes, axis=1), minlength=SEARCH_SPACE_SIZE
            )
            best_ratio = min(best_ratio, int(sizes.min()) / positions.shape[0])
            sampled += positions.shape[1]
        if not sampled:
            result = _NOTHING_SAMPLED
        else:
            # Most frequent first; the stable sort keeps search-space
            # order among ties: higher exponent, then higher factor.
            ranked = np.argsort(-votes, kind="stable")
            kept = min(max_candidates, int(np.count_nonzero(votes)))
            result = FirstLevelResult(
                candidates=tuple(_COMBOS[i] for i in ranked[:kept].tolist()),
                use_rd=best_ratio >= rd_threshold_bits,
                best_estimated_bits_per_value=best_ratio,
            )

    if obs.ENABLED:
        obs.metrics.counter_add("sampler.first_level_runs", 1)
        obs.metrics.counter_add("sampler.first_level_vectors", sampled)
        if sampled:
            obs.metrics.counter_add(
                "sampler.candidates_kept", len(result.candidates)
            )
    return result


def _best_combination_reference(
    sample: np.ndarray,
) -> tuple[ExponentFactor, int]:
    """Full search through the encoder's own size estimate, one
    combination at a time; the first minimum in search-space order wins."""
    from repro.core.alp import estimate_size_bits

    best_combo = _COMBOS[0]
    best_size = estimate_size_bits(
        sample, best_combo.exponent, best_combo.factor
    )
    for combo in _COMBOS[1:]:
        size = estimate_size_bits(sample, combo.exponent, combo.factor)
        if size < best_size:
            best_combo, best_size = combo, size
    return best_combo, best_size


def first_level_sample_loop(
    rowgroup: np.ndarray,
    vector_size: int = VECTOR_SIZE,
    vectors_sampled: int = SAMPLES_PER_ROWGROUP,
    values_per_vector: int = SAMPLES_PER_VECTOR_FIRST_LEVEL,
    max_candidates: int = MAX_COMBINATIONS,
    rd_threshold_bits: float | None = None,
) -> FirstLevelResult:
    """Per-vector, per-combination loop reference of
    :func:`first_level_sample`.

    Each sampled vector is searched one combination at a time with
    :func:`repro.core.alp.estimate_size_bits` (the encoder's own
    ``alp_analyze``), and the votes are ranked by an explicit
    (count, exponent, factor) sort, so it shares no code with the
    batched kernel.  Kept (un-instrumented) as the ground truth for the
    sampler-equivalence tests; results are identical.
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
        combo, est_bits = _best_combination_reference(sample)
        votes[combo] += 1
        best_ratio = min(best_ratio, est_bits / sample.size)
    if not votes:
        return _NOTHING_SAMPLED
    # Most frequent first; ties prefer higher exponent, then higher factor.
    ranked = sorted(
        votes.items(),
        key=lambda item: (-item[1], -item[0].exponent, -item[0].factor),
    )
    return FirstLevelResult(
        candidates=tuple(combo for combo, _ in ranked[:max_candidates]),
        use_rd=best_ratio >= rd_threshold_bits,
        best_estimated_bits_per_value=best_ratio,
    )


@dataclass(frozen=True)
class SecondLevelResult:
    """Outcome of the per-vector (second) sampling level."""

    combination: ExponentFactor
    combinations_tried: int
    skipped: bool  # True when k' == 1 and no sampling happened


class VectorChoices(NamedTuple):
    """Level two's outcome for every vector of a row-group.

    Three int64 arrays with one entry per vector: the winning exponent
    and factor, and how many candidates the greedy walk tried (0 when
    k' == 1 and level two was skipped).
    """

    exponents: np.ndarray
    factors: np.ndarray
    tried: np.ndarray


def _candidate_arrays(
    candidates: tuple[ExponentFactor, ...],
) -> tuple[np.ndarray, np.ndarray]:
    """Candidates' exponents and factors as parallel int64 arrays."""
    if not candidates:
        raise ValueError("second_level_sample needs at least one candidate")
    return (
        np.array([c.exponent for c in candidates], dtype=np.int64),
        np.array([c.factor for c in candidates], dtype=np.int64),
    )


def _greedy_walk(sizes: np.ndarray) -> tuple[np.ndarray, np.ndarray, int]:
    """The §3.2 greedy early-exit walk, for every vector at once.

    ``sizes`` is a (vectors x k') matrix of size estimates, candidates
    in rank order.  Each vector walks its row and stops after two
    consecutive candidates that do no better than its best so far; the
    k' - 1 steps run as whole-column numpy operations.  Returns
    ``(winner index, combinations tried, early exits)`` — per vector the
    same as walking its row lazily, one candidate at a time.
    """
    n_vectors, k = sizes.shape
    best = sizes[:, 0]
    winner = np.zeros(n_vectors, dtype=np.int64)
    tried = np.ones(n_vectors, dtype=np.int64)
    streak = np.zeros(n_vectors, dtype=np.int64)
    walking = np.ones(n_vectors, dtype=bool)
    for j in range(1, k):
        tried += walking
        better = walking & (sizes[:, j] < best)
        best = np.where(better, sizes[:, j], best)
        winner[better] = j
        streak = np.where(better, 0, streak + walking)
        walking &= streak < 2
    return winner, tried, n_vectors - int(np.count_nonzero(walking))


def _count_second_level(
    vectors: int, tried: np.ndarray, early_exits: int
) -> None:
    """Level two's counters: vectors sampled, combinations tried, early
    exits."""
    if obs.ENABLED:
        obs.metrics.counter_add("sampler.second_level_runs", vectors)
        obs.metrics.counter_add("sampler.combinations_tried", int(tried.sum()))
        if early_exits:
            obs.metrics.counter_add("sampler.early_exits", early_exits)


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
    if len(candidates) == 1:
        obs.counter_add("sampler.second_level_skipped")
        return SecondLevelResult(
            combination=candidates[0], combinations_tried=0, skipped=True
        )

    exponents, factors = _candidate_arrays(candidates)
    with obs.span("sampler.second_level"):
        sample = sample_vector(np.asarray(vector, dtype=np.float64), samples)
        sizes = estimate_sizes_matrix(sample[:, None], exponents, factors)
        winner, tried, early_exits = _greedy_walk(sizes)
    _count_second_level(1, tried, early_exits)
    return SecondLevelResult(
        combination=candidates[int(winner[0])],
        combinations_tried=int(tried[0]),
        skipped=False,
    )


def second_level_sample_rowgroup(
    rowgroup: np.ndarray,
    candidates: tuple[ExponentFactor, ...],
    vector_size: int = VECTOR_SIZE,
    samples: int = SAMPLES_PER_VECTOR_SECOND_LEVEL,
) -> VectorChoices:
    """Level-two sampling for every vector of a row-group, batched.

    The full vectors' samples come from one gather and one
    (s x vectors x k') evaluation (a shorter tail sample is evaluated
    on its own), and the greedy early-exit walk replays over the
    (vectors x k') size matrix in at most k' - 1 numpy steps.  Winners
    and try counts are identical to calling :func:`second_level_sample`
    on each chunk.
    """
    exponents, factors = _candidate_arrays(candidates)
    rowgroup = np.ascontiguousarray(rowgroup, dtype=np.float64)
    n_vectors = -(-rowgroup.size // vector_size)
    if len(candidates) == 1:
        obs.counter_add("sampler.second_level_skipped", n_vectors)
        return VectorChoices(
            exponents=np.full(n_vectors, exponents[0]),
            factors=np.full(n_vectors, factors[0]),
            tried=np.zeros(n_vectors, dtype=np.int64),
        )

    with obs.span("sampler.second_level"):
        sizes = np.empty((n_vectors, len(candidates)), dtype=np.int64)
        for vector_ids, positions in _second_level_positions(
            rowgroup.size, vector_size, samples
        ):
            sizes[vector_ids] = estimate_sizes_matrix(
                rowgroup[positions], exponents, factors
            )
        winner, tried, early_exits = _greedy_walk(sizes)
    _count_second_level(n_vectors, tried, early_exits)
    return VectorChoices(
        exponents=exponents[winner], factors=factors[winner], tried=tried
    )


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
    from repro.core.alp import estimate_size_bits

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
    best_size = estimate_size_bits(
        sample, best_combo.exponent, best_combo.factor
    )
    worse_streak = 0
    tried = 1
    for candidate in candidates[1:]:
        size = estimate_size_bits(sample, candidate.exponent, candidate.factor)
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
