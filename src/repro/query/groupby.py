"""Vectorized GROUP BY aggregation over compressed columns.

Completes the engine's queries with the aggregation pattern real
analytical queries use: group a value column by a key column, entirely
vector-at-a-time.  Per batch, keys and values decode together, the keys
are factorized (``np.unique``) and per-group partial aggregates are
accumulated with ``np.bincount`` / ``np.minimum.at`` — no per-row Python.

Keys are float64 like everything else in the engine (the paper's corpus
stores even discrete counts as doubles); grouping is by exact bit
pattern, so NaN keys group together and ±0.0 stay distinct.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from repro.query.sources import ColumnSource


@dataclass
class GroupedAggregate:
    """Accumulates per-group sum / count / min / max across batches."""

    sums: dict[int, float] = field(default_factory=dict)
    counts: dict[int, int] = field(default_factory=dict)
    mins: dict[int, float] = field(default_factory=dict)
    maxs: dict[int, float] = field(default_factory=dict)

    def update(self, keys: np.ndarray, values: np.ndarray) -> None:
        """Fold one (keys, values) vector pair into the running groups."""
        if keys.size != values.size:
            raise ValueError("keys and values must align")
        if keys.size == 0:
            return
        key_bits = np.ascontiguousarray(keys, dtype=np.float64).view(
            np.uint64
        )
        unique, codes = np.unique(key_bits, return_inverse=True)
        group_sums = np.bincount(
            codes, weights=values, minlength=unique.size
        )
        group_counts = np.bincount(codes, minlength=unique.size)
        # fmin/fmax skip NaN without the invalid-value warning that
        # minimum.at raises; NaN groups are set afterwards, so each
        # group's min/max matches np.min/np.max over its values.
        nan_codes = codes[np.isnan(values)]
        group_mins = np.full(unique.size, np.inf)
        np.fmin.at(group_mins, codes, values)
        group_mins[nan_codes] = np.nan
        group_maxs = np.full(unique.size, -np.inf)
        np.fmax.at(group_maxs, codes, values)
        group_maxs[nan_codes] = np.nan

        for i, raw_key in enumerate(unique.tolist()):
            self.sums[raw_key] = self.sums.get(raw_key, 0.0) + group_sums[i]
            self.counts[raw_key] = (
                self.counts.get(raw_key, 0) + int(group_counts[i])
            )
            low, high = float(group_mins[i]), float(group_maxs[i])
            # Python's min/max keep a NaN already held but drop a new one.
            if not math.isnan(low):
                low = min(self.mins.get(raw_key, math.inf), low)
            if not math.isnan(high):
                high = max(self.maxs.get(raw_key, -math.inf), high)
            self.mins[raw_key] = low
            self.maxs[raw_key] = high

    def result(self, kind: str = "sum") -> dict[float, float]:
        """Final {key: aggregate} mapping (keys back as floats)."""
        source = {
            "sum": self.sums,
            "count": self.counts,
            "min": self.mins,
            "max": self.maxs,
        }.get(kind)
        if source is None:
            raise ValueError(f"unknown aggregate {kind!r}")

        def to_float(raw_key: int) -> float:
            return float(
                np.array([raw_key], dtype=np.uint64).view(np.float64)[0]
            )

        return {to_float(raw_key): float(v) for raw_key, v in source.items()}

    @property
    def group_count(self) -> int:
        """Number of distinct keys seen."""
        return len(self.counts)


def group_by(
    keys: ColumnSource,
    values: ColumnSource,
    kind: str = "sum",
) -> dict[float, float]:
    """GROUP BY aggregation of two aligned compressed columns."""
    if keys.value_count != values.value_count:
        raise ValueError(
            f"column lengths differ: {keys.value_count} vs "
            f"{values.value_count}"
        )
    accumulator = GroupedAggregate()
    for key_vector, value_vector in zip(keys.vectors(), values.vectors(), strict=True):
        accumulator.update(key_vector, value_vector)
    return accumulator.result(kind)
