"""Vector-at-a-time physical operators (pull-based, Tectorwise style).

Operators form a pull pipeline: each ``next_vector()`` call returns the
next 1024-value float64 vector (possibly shorter at the tail) or ``None``
at end of stream.  Work inside an operator is numpy-vectorized over the
vector — the defining property of the execution model the paper targets.

Two pipelines coexist:

- the *decoded* pipeline (:class:`ScanOperator` → :class:`FilterOperator`
  → :class:`AggregateOperator`) materializes every vector as float64 and
  runs operators on doubles;
- the *encoded* pipeline (:class:`EncodedScanOperator` and the
  aggregates below) pulls :class:`~repro.query.sources.EncodedBatch`
  objects and executes SUM / range predicates directly on the ALP
  integer domain — late materialization: doubles are never built for
  values that only feed an aggregate, and vectors whose FFOR header
  already decides a predicate are skipped without unpacking a bit.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterator, Optional

import numpy as np

from repro.core.alp import alp_sum_vector
from repro.core.predicates import (
    count_vector_encoded,
    sum_range_vector,
)

if TYPE_CHECKING:
    from repro.query.sources import ColumnSource, EncodedBatch


class Operator:
    """Base class of the pull pipeline."""

    def next_vector(self) -> Optional[np.ndarray]:
        """Return the next vector, or None when exhausted."""
        raise NotImplementedError

    def __iter__(self) -> Iterator[np.ndarray]:
        while True:
            vector = self.next_vector()
            if vector is None:
                return
            yield vector


class ScanOperator(Operator):
    """Leaf operator: pulls vectors out of a column source."""

    def __init__(self, source: "ColumnSource") -> None:
        self._iter = source.vectors()

    def next_vector(self) -> Optional[np.ndarray]:
        return next(self._iter, None)


class FilterOperator(Operator):
    """Range selection: keeps values in [low, high].

    Emits compacted vectors (selection applied), like Tectorwise's
    selection-vector approach after compaction.  Vectors with no
    qualifying values are dropped, so downstream operators do less work —
    combined with zone maps this is the predicate push-down story.
    """

    def __init__(self, child: Operator, low: float, high: float) -> None:
        self._child = child
        self._low = low
        self._high = high

    def next_vector(self) -> Optional[np.ndarray]:
        while True:
            vector = self._child.next_vector()
            if vector is None:
                return None
            mask = (vector >= self._low) & (vector <= self._high)
            if mask.any():
                return vector[mask]


class AggregateOperator(Operator):
    """Terminal aggregate over the child stream: SUM/COUNT/MIN/MAX.

    ``result()`` drains the child and returns the aggregate value.
    """

    _INITIAL = {
        "sum": 0.0,
        "count": 0.0,
        "min": float("inf"),
        "max": float("-inf"),
    }

    def __init__(self, child: Operator, kind: str = "sum") -> None:
        if kind not in self._INITIAL:
            raise ValueError(f"unknown aggregate {kind!r}")
        self._child = child
        self._kind = kind

    def next_vector(self) -> Optional[np.ndarray]:
        # Aggregates are sinks; expose the scalar via result() instead.
        return None

    def result(self) -> float:
        value = self._INITIAL[self._kind]
        for vector in self._child:
            if self._kind == "sum":
                value += float(vector.sum())
            elif self._kind == "count":
                value += vector.size
            elif self._kind == "min" and vector.size:
                value = min(value, float(vector.min()))
            elif self._kind == "max" and vector.size:
                value = max(value, float(vector.max()))
        return value


# -- the encoded (late-materialization) pipeline ----------------------


class EncodedScanOperator:
    """Leaf of the encoded pipeline: pulls batches that stay compressed.

    ``value_range``, when given, is forwarded to the source as a
    push-down hint — sources with zone maps may withhold batches that
    cannot contain qualifying values (safe for any filtered op: withheld
    batches contribute nothing to the result).
    """

    def __init__(
        self,
        source: object,
        value_range: tuple[float, float] | None = None,
    ) -> None:
        batches = getattr(source, "encoded_batches")
        self._iter = batches(value_range)

    def next_batch(self) -> "Optional[EncodedBatch]":
        return next(self._iter, None)

    def __iter__(self) -> "Iterator[EncodedBatch]":
        while True:
            batch = self.next_batch()
            if batch is None:
                return
            yield batch


class EncodedSumOperator:
    """SUM without materialization: integer-domain per ALP batch.

    ALP batches are summed by :func:`~repro.core.alp.alp_sum_vector`
    (packed-integer reduction + one scale per vector + sparse exception
    correction); already-decoded fallback batches contribute the same
    ``float(values.sum())`` term the decoded pipeline would.
    """

    def __init__(self, child: EncodedScanOperator) -> None:
        self._child = child

    def result(self) -> float:
        total = 0.0
        started = False
        for batch in self._child:
            if batch.alp is not None:
                term = alp_sum_vector(batch.alp)
            elif batch.values is not None and batch.values.size:
                term = float(batch.values.sum())
            else:
                continue
            # Mirror the decoded pipeline's `0.0 + term` accumulation
            # from the first batch on, so results match to the bit when
            # there is exactly one contributing batch of exceptions.
            total = term if not started else total + term
            started = True
        return total


class EncodedRangeAggregateOperator:
    """Filtered SUM + COUNT over ``[low, high]``, encoded-domain.

    ``result()`` returns ``(sum, count)`` of qualifying values.  ALP
    batches go through the exact integer-bounds translation
    (:mod:`repro.core.predicates`); fallback batches are filtered as
    doubles.
    """

    def __init__(
        self, child: EncodedScanOperator, low: float, high: float
    ) -> None:
        self._child = child
        self._low = low
        self._high = high

    def result(self) -> tuple[float, int]:
        total = 0.0
        count = 0
        started = False
        for batch in self._child:
            if batch.alp is not None:
                term, kept = sum_range_vector(
                    batch.alp, self._low, self._high
                )
            else:
                values = batch.values
                if values is None or not values.size:
                    continue
                mask = (values >= self._low) & (values <= self._high)
                kept = int(mask.sum())
                term = float(values[mask].sum()) if kept else 0.0
            if not kept:
                continue
            total = term if not started else total + term
            started = True
            count += kept
        return total, count


class EncodedRangeCountOperator:
    """COUNT of values in ``[low, high]``; header-decided ALP vectors
    are counted with zero unpacking."""

    def __init__(
        self, child: EncodedScanOperator, low: float, high: float
    ) -> None:
        self._child = child
        self._low = low
        self._high = high

    def result(self) -> int:
        count = 0
        for batch in self._child:
            if batch.alp is not None:
                count += count_vector_encoded(
                    batch.alp, self._low, self._high
                )
            elif batch.values is not None and batch.values.size:
                values = batch.values
                count += int(
                    ((values >= self._low) & (values <= self._high)).sum()
                )
        return count
