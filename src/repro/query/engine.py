"""The query engine (Table 6 / Figure 6): each query is one loop.

Section 4.3 of the paper runs SCAN and SUM one vector at a time inside
Tectorwise.  Here each query is that loop, written out once:

- :func:`scan_query` — decompress the whole column vector by vector
  (materializing every vector, discarding it);
- :func:`sum_query` — SUM aggregation over the source's encoded batches
  when it has them (late materialization: packed integers are reduced
  once per row-group and scaled once per vector, doubles are never
  built), otherwise over decoded vectors;
- :func:`comp_query` — compress the column and serialize it, including
  the metadata the paper mentions (offsets, parameters).

:func:`range_sum_query` / :func:`range_count_query` add the filtered
aggregates: range predicates are translated to exact integer bounds and
compared against the unpacked residuals of a whole row-group at once on
encoded sources, with FFOR-header (and, for file sources, zone-map)
skipping.

Each encoded batch is one row-group (see
:class:`~repro.query.sources.EncodedBatch`).  The encoded loops do the
row-group's integer work in one step (:func:`~repro.core.alp.alp_exact_sums`,
:func:`~repro.core.predicates.range_selections`) and then call the
per-vector term functions (``alp_sum_vector``, ``sum_range_vector``,
``count_vector_encoded``) with that precomputed result, so every term —
and the order :func:`fold_sum` adds them in — is what the per-vector
loop produced.

A source takes the encoded path when it has an ``encoded_batches``
method (:class:`~repro.query.sources.AlpSource` and
:class:`~repro.query.sources.FileColumnSource`).  Every query also has
an explicit ``*_decoded`` form, which is both the path for every other
source and the oracle the property tests compare against.
:func:`aggregate` is the one SUM / COUNT / MIN / MAX reducer over
decoded vectors, and :func:`fold_sum` the one order in which encoded
SUM terms (and the shard router's partition partials) are added.

:func:`run_partitioned` executes a query over N partitions with a thread
pool; numpy kernels release the GIL for part of their work, so the
ALP-style vectorized sources see real scaling while the per-value Python
codecs stay serialized — a faithful, if exaggerated, analogue of
"CPU-bound codecs scale flat".
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from typing import Callable, Iterable

import numpy as np

from repro import obs
from repro.core.alp import alp_exact_sums, alp_sum_vector
from repro.core.predicates import (
    count_vector_encoded,
    range_selections,
    sum_range_vector,
)
from repro.query.sources import AlpSource, ColumnSource, make_source
from repro.storage.serializer import serialize_rowgroup


def aggregate(vectors: Iterable[np.ndarray], kind: str = "sum") -> float:
    """SUM / COUNT / MIN / MAX over a stream of float64 vectors.

    SUM adds each vector's ``float(vector.sum())`` to ``0.0`` left to
    right.  MIN and MAX equal ``np.min`` / ``np.max`` over the whole
    stream whatever its vector boundaries: NaN if any value is NaN (as
    SUM propagates it); an empty stream gives +inf / -inf.
    """
    if kind not in ("sum", "count", "min", "max"):
        raise ValueError(f"unknown aggregate {kind!r}")
    if kind == "sum":
        total = 0.0
        with np.errstate(invalid="ignore", over="ignore"):
            for vector in vectors:
                total += float(vector.sum())
        return total
    if kind == "count":
        return float(sum(vector.size for vector in vectors))
    pick = min if kind == "min" else max
    extreme = math.inf if kind == "min" else -math.inf
    for vector in vectors:
        if vector.size:
            term = float(vector.min() if kind == "min" else vector.max())
            # Python's min/max keep a NaN already held but drop a new one.
            extreme = term if math.isnan(term) else pick(extreme, term)
    return extreme


def fold_sum(terms: Iterable[float]) -> float:
    """Add SUM terms in order: the first as-is, later ones left to right.

    Float addition is not associative, so this order is part of every
    encoded SUM's result; an empty stream sums to ``0.0``.
    """
    stream = iter(terms)
    total = next(stream, 0.0)
    for term in stream:
        total += term
    return total


def scan_query(source: ColumnSource) -> int:
    """Decompress every vector; returns the number of values scanned."""
    with obs.span("query.scan"):
        scanned = 0
        vectors = 0
        for vector in source.vectors():
            scanned += vector.size
            vectors += 1
        if obs.ENABLED:
            obs.metrics.counter_add("query.vectors_scanned", vectors)
            obs.metrics.counter_add("query.values_scanned", scanned)
        return scanned


def _encoded(source: ColumnSource) -> bool:
    """True when ``source`` yields still-compressed batches."""
    return hasattr(source, "encoded_batches")


def sum_query(source: ColumnSource) -> float:
    """SUM aggregation; encoded-domain when the source supports it."""
    with obs.span("query.sum"):
        if _encoded(source):
            obs.counter_add("query.sum_encoded")
            terms: list[float] = []
            with np.errstate(invalid="ignore", over="ignore"):
                for batch in getattr(source, "encoded_batches")(None):
                    if batch.alp is None:
                        terms += [
                            float(v.sum()) for v in batch.values if v.size
                        ]
                        continue
                    vectors = batch.alp.vectors
                    d_sums = alp_exact_sums(vectors, batch.vectors)
                    for v, d_sum in zip(batch.vectors, d_sums, strict=True):
                        terms.append(alp_sum_vector(vectors[v], d_sum))
            result = fold_sum(terms)
        else:
            result = sum_query_decoded(source)
    obs.counter_add("query.sum_queries")
    return float(result)


def sum_query_decoded(source: ColumnSource) -> float:
    """The decode-then-aggregate SUM: default path and test oracle."""
    return aggregate(source.vectors(), "sum")


def range_sum_query(
    source: ColumnSource, low: float, high: float
) -> tuple[float, int]:
    """Filtered SUM: ``(sum, count)`` of values in ``[low, high]``.

    The source may withhold batches that its zone maps show hold no
    value in the range: they add nothing to either result.
    """
    with obs.span("query.range_sum"):
        if _encoded(source):
            terms: list[float] = []
            count = 0
            for batch in getattr(source, "encoded_batches")((low, high)):
                if batch.alp is None:
                    with np.errstate(invalid="ignore", over="ignore"):
                        for values in batch.values:
                            keep = (values >= low) & (values <= high)
                            selected = values[keep]
                            if selected.size:
                                terms.append(float(selected.sum()))
                                count += selected.size
                    continue
                vectors = batch.alp.vectors
                members, sums, counts = range_selections(
                    vectors, batch.vectors, low, high
                )
                found = dict(zip(members, zip(sums, counts)))
                for v in batch.vectors:
                    term, kept = sum_range_vector(
                        vectors[v], low, high, found.get(v)
                    )
                    if kept:
                        terms.append(term)
                        count += kept
            total = fold_sum(terms)
        else:
            total, count = range_sum_query_decoded(source, low, high)
    obs.counter_add("query.range_queries")
    return float(total), int(count)


def range_sum_query_decoded(
    source: ColumnSource, low: float, high: float
) -> tuple[float, int]:
    """Decode-then-filter-then-sum: default path and test oracle."""
    total = 0.0
    count = 0
    with np.errstate(invalid="ignore", over="ignore"):
        for vector in source.vectors():
            selected = vector[(vector >= low) & (vector <= high)]
            total += float(selected.sum())
            count += selected.size
    return total, count


def range_count_query(
    source: ColumnSource, low: float, high: float
) -> int:
    """COUNT of values in ``[low, high]``; header-decided ALP vectors
    are counted without unpacking."""
    with obs.span("query.range_count"):
        if _encoded(source):
            result = 0
            for batch in getattr(source, "encoded_batches")((low, high)):
                if batch.alp is None:
                    for values in batch.values:
                        result += int(((values >= low) & (values <= high)).sum())
                    continue
                vectors = batch.alp.vectors
                members, _, kept = range_selections(
                    vectors, batch.vectors, low, high, totals=False
                )
                found = dict(zip(members, kept))
                for v in batch.vectors:
                    result += count_vector_encoded(
                        vectors[v], low, high, found.get(v)
                    )
        else:
            result = range_count_query_decoded(source, low, high)
    obs.counter_add("query.range_queries")
    return int(result)


def range_count_query_decoded(
    source: ColumnSource, low: float, high: float
) -> int:
    """Decode-then-filter-then-count: default path and test oracle."""
    return sum(
        int(((vector >= low) & (vector <= high)).sum())
        for vector in source.vectors()
    )


def comp_query(codec_name: str, values: np.ndarray) -> int:
    """Compress ``values`` under a codec; returns compressed bits.

    ALP reports its serialized on-disk bits, metadata included — the
    paper notes that COMP "also writes extra meta-data for the
    compressed blocks".  Every other codec reports its in-memory
    compressed footprint.
    """
    with obs.span("query.comp"):
        source = make_source(codec_name, values)
        if isinstance(source, AlpSource):
            return sum(
                len(serialize_rowgroup(rowgroup)) * 8
                for rowgroup in source.column.rowgroups
            )
        return source.compressed_bits


def run_partitioned(
    source: ColumnSource,
    query: Callable[[ColumnSource], float],
    threads: int,
) -> list[float]:
    """Run ``query`` over ``threads`` partitions of ``source`` in parallel.

    Returns the per-partition results (sum them for a global aggregate).
    """
    partitions = source.partition(threads)
    if len(partitions) == 1:
        return [query(partitions[0])]
    with ThreadPoolExecutor(max_workers=len(partitions)) as pool:
        return list(pool.map(query, partitions))
