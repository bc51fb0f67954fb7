"""A small vectorized query engine (the paper's Tectorwise substrate).

Section 4.3 of the paper integrates every compressor into Tectorwise, a
research engine with vector-at-a-time (Volcano-with-vectors) execution,
and benchmarks SCAN, SUM and COMP queries.  This subpackage provides the
same machinery:

- :mod:`repro.query.sources` — per-codec column sources that deliver
  1024-value vectors out of compressed storage (vector-at-a-time for
  ALP/PDE, stream-decode for the XOR family, block-decode for the
  general-purpose codec),
- :mod:`repro.query.engine` — the queries (scan / sum / range /
  compression), each one loop over a source's vectors or, for sources
  with ``encoded_batches``, over still-compressed row-groups (integer
  work once per row-group, one SUM term per vector); the one
  SUM / COUNT / MIN / MAX reducer (:func:`aggregate`); plus
  multi-threaded partitioned execution for the scaling experiment.
"""

from repro.query.engine import (
    aggregate,
    comp_query,
    run_partitioned,
    scan_query,
    sum_query,
)
from repro.query.sources import (
    ColumnSource,
    FileColumnSource,
    make_source,
)
from repro.query.groupby import GroupedAggregate, group_by
from repro.query.table import CompressedTable, FilterPredicate

__all__ = [
    "ColumnSource",
    "CompressedTable",
    "FileColumnSource",
    "FilterPredicate",
    "GroupedAggregate",
    "aggregate",
    "comp_query",
    "group_by",
    "make_source",
    "run_partitioned",
    "scan_query",
    "sum_query",
]
