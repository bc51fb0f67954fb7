"""Multi-column compressed tables with late materialization.

The engine's single-column queries cover the paper's SCAN/SUM
benchmarks; real analytical queries touch several columns.  A
:class:`CompressedTable` holds one compressed column source per name and
executes filtered aggregations with *late materialization*: the filter
column decodes vector by vector, produces selection masks, and payload
columns only materialize the selected positions — vectors whose mask is
empty are decoded lazily (or, for ALP sources, not at all).

This is the query-processing pattern that vector-granular compressed
storage enables and block-based compression defeats, i.e. the systems
argument of the paper's introduction made executable.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

import numpy as np

from repro.query.engine import aggregate
from repro.query.sources import ColumnSource, make_source


@dataclass(frozen=True)
class FilterPredicate:
    """A range predicate on one column: ``low <= value <= high``."""

    column: str
    low: float
    high: float

    def mask(self, values: np.ndarray) -> np.ndarray:
        """Boolean selection mask for one vector."""
        return (values >= self.low) & (values <= self.high)


class CompressedTable:
    """A set of equally-long compressed columns, queryable vector-wise."""

    def __init__(self, columns: dict[str, ColumnSource]) -> None:
        if not columns:
            raise ValueError("a table needs at least one column")
        counts = {name: source.value_count for name, source in columns.items()}
        if len(set(counts.values())) != 1:
            raise ValueError(f"column lengths differ: {counts}")
        self._columns = dict(columns)

    @classmethod
    def from_arrays(
        cls,
        arrays: dict[str, np.ndarray],
        codec: str = "alp",
    ) -> "CompressedTable":
        """Compress a dict of float64 arrays into a table."""
        return cls(
            {name: make_source(codec, values) for name, values in arrays.items()}
        )

    @property
    def column_names(self) -> tuple[str, ...]:
        """Names of the table's columns."""
        return tuple(self._columns)

    @property
    def row_count(self) -> int:
        """Number of rows."""
        return next(iter(self._columns.values())).value_count

    def column(self, name: str) -> ColumnSource:
        """Access one column's source."""
        try:
            return self._columns[name]
        except KeyError:
            raise KeyError(
                f"unknown column {name!r}; have {sorted(self._columns)}"
            ) from None

    def compressed_bits(self) -> int:
        """Total compressed footprint of all columns."""
        return sum(source.compressed_bits for source in self._columns.values())

    def scan(
        self,
        columns: list[str],
        predicate: FilterPredicate | None = None,
    ) -> Iterator[dict[str, np.ndarray]]:
        """Yield vector-wise batches of the selected columns.

        With a predicate, the filter column drives: its vector decodes
        first, the mask compacts every projected column, and batches with
        no qualifying rows are skipped without materializing the payload
        columns — late materialization.
        """
        for name in columns:
            self.column(name)  # validate upfront

        if predicate is None:
            iterators = {name: self.column(name).vectors() for name in columns}
            while True:
                batch = {}
                for name, it in iterators.items():
                    vector = next(it, None)
                    if vector is None:
                        return
                    batch[name] = vector
                yield batch
            return

        filter_iter = self.column(predicate.column).vectors()
        payload_names = [n for n in columns if n != predicate.column]
        payload_iters = {
            name: self.column(name).vectors() for name in payload_names
        }
        for filter_vector in filter_iter:
            mask = predicate.mask(filter_vector)
            if not mask.any():
                # Advance payload cursors without materializing results.
                for it in payload_iters.values():
                    next(it, None)
                continue
            batch = {}
            if predicate.column in columns:
                batch[predicate.column] = filter_vector[mask]
            for name, it in payload_iters.items():
                payload_vector = next(it, None)
                if payload_vector is None:
                    return
                batch[name] = payload_vector[mask]
            yield batch

    def aggregate(
        self,
        column: str,
        kind: str = "sum",
        predicate: FilterPredicate | None = None,
    ) -> float:
        """Filtered aggregate of one column: sum / count / min / max
        (see :func:`~repro.query.engine.aggregate`)."""
        return aggregate(
            (batch[column] for batch in self.scan([column], predicate)), kind
        )
