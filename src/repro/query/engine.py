"""Query helpers for the end-to-end benchmarks (Table 6 / Figure 6).

Three queries, matching the paper:

- :func:`scan_query` — decompress the whole column through the scan
  operator (materializing every vector, discarding it);
- :func:`sum_query` — SUM aggregation, through the encoded-domain
  operators when the source yields encoded batches (late
  materialization: packed integers are reduced and scaled once per
  vector, doubles are never built), otherwise scan + vectorized float
  summing;
- :func:`comp_query` — compress the column and serialize it, including
  the metadata the paper mentions (offsets, parameters).

:func:`range_sum_query` / :func:`range_count_query` add the filtered
aggregates: range predicates are translated to exact integer bounds and
evaluated fused inside the unpack loop on encoded sources, with
FFOR-header (and, for file sources, zone-map) skipping.

A source takes the encoded path when it has an ``encoded_batches``
method (:class:`~repro.query.sources.AlpSource` and
:class:`~repro.query.sources.FileColumnSource`).  Every query also has
an explicit ``*_decoded`` form, which is both the path for every other
source and the oracle the property tests compare against.

:func:`run_partitioned` executes a query over N partitions with a thread
pool; numpy kernels release the GIL for part of their work, so the
ALP-style vectorized sources see real scaling while the per-value Python
codecs stay serialized — a faithful, if exaggerated, analogue of
"CPU-bound codecs scale flat".
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from typing import Callable

import numpy as np

from repro import obs
from repro.query.operators import (
    AggregateOperator,
    EncodedRangeAggregateOperator,
    EncodedRangeCountOperator,
    EncodedScanOperator,
    EncodedSumOperator,
    FilterOperator,
    ScanOperator,
)
from repro.query.sources import AlpSource, ColumnSource, make_source
from repro.storage.serializer import serialize_rowgroup


def scan_query(source: ColumnSource) -> int:
    """Decompress every vector; returns the number of values scanned."""
    with obs.span("query.scan"):
        scanned = 0
        vectors = 0
        for vector in ScanOperator(source):
            scanned += vector.size
            vectors += 1
        if obs.ENABLED:
            obs.metrics.counter_add("query.vectors_scanned", vectors)
            obs.metrics.counter_add("query.values_scanned", scanned)
        return scanned


def _encoded(source: ColumnSource) -> bool:
    """True when ``source`` can feed the encoded-domain operators."""
    return hasattr(source, "encoded_batches")


def sum_query(source: ColumnSource) -> float:
    """SUM aggregation; encoded-domain when the source supports it."""
    with obs.span("query.sum"):
        if _encoded(source):
            obs.counter_add("query.sum_encoded")
            result = EncodedSumOperator(EncodedScanOperator(source)).result()
        else:
            result = sum_query_decoded(source)
    obs.counter_add("query.sum_queries")
    return float(result)


def sum_query_decoded(source: ColumnSource) -> float:
    """The decode-then-aggregate SUM: default path and test oracle."""
    return AggregateOperator(ScanOperator(source), kind="sum").result()


def range_sum_query(
    source: ColumnSource, low: float, high: float
) -> tuple[float, int]:
    """Filtered SUM: ``(sum, count)`` of values in ``[low, high]``."""
    with obs.span("query.range_sum"):
        if _encoded(source):
            scan = EncodedScanOperator(source, value_range=(low, high))
            total, count = EncodedRangeAggregateOperator(
                scan, low, high
            ).result()
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
    for vector in FilterOperator(ScanOperator(source), low, high):
        total += float(vector.sum())
        count += vector.size
    return total, count


def range_count_query(
    source: ColumnSource, low: float, high: float
) -> int:
    """COUNT of values in ``[low, high]``."""
    with obs.span("query.range_count"):
        if _encoded(source):
            scan = EncodedScanOperator(source, value_range=(low, high))
            result = EncodedRangeCountOperator(scan, low, high).result()
        else:
            result = range_count_query_decoded(source, low, high)
    obs.counter_add("query.range_queries")
    return int(result)


def range_count_query_decoded(
    source: ColumnSource, low: float, high: float
) -> int:
    """Decode-then-filter-then-count: default path and test oracle."""
    count = 0
    for vector in FilterOperator(ScanOperator(source), low, high):
        count += vector.size
    return count


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
