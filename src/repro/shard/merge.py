"""Deterministic merging of per-partition responses.

The merge rules exist to keep one promise: **with every shard healthy, a
routed scan is byte-identical to the same request served by one node**,
and a routed sum is too whenever the partition partials are exact
(pinned by ``tests/test_shard_router.py``).

- *Scans* return partition payloads as response parts in partition
  (row-group) order — exactly the order a single node's row-group loop
  produces.  The parts are the backend receive buffers or
  ``memoryview`` slices of them; no scan merge joins or copies bytes.
- *Sums* fold partition partials with
  :func:`~repro.query.engine.fold_sum`, left-to-right in partition
  order, the fold a single node applies to its per-vector terms.  The
  association still differs: the router adds whole-partition partials,
  one node adds vector terms across partition boundaries.  So the two
  agree to the bit only when every partial and running sum is exact in
  float64 (integer-valued doubles under 2**53, say); on general data
  they can differ by rounding.  Pinning one order across the two is
  the ROADMAP bit-exactness item.
- *Quarantine tallies* add across partitions, and a partition whose
  every replica is unreachable degrades into those same tallies (its
  row-group and row counts), keeping the response row-aligned: counts
  always account for every row the dataset owns.

Each helper consumes :class:`PartResult` records — one per partition,
``missing=True`` when no replica answered.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.query.engine import fold_sum
from repro.shard.placement import Partition


@dataclass(frozen=True)
class PartResult:
    """One partition's outcome: a backend response or a degraded miss."""

    partition: Partition
    #: Response header fields (empty when missing).
    fields: dict[str, object] = field(default_factory=dict)
    payload: bytes | bytearray = b""
    missing: bool = False


def _int_field(fields: dict[str, object], key: str) -> int:
    value = fields.get(key, 0)
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        return 0
    return int(value)


def merge_tallies(parts: "list[PartResult]") -> dict[str, object]:
    """Summed quarantine tallies, with missing partitions folded in."""
    rowgroups = 0
    values = 0
    missing = 0
    for part in parts:
        if part.missing:
            rowgroups += part.partition.stop - part.partition.start
            values += part.partition.rows
            missing += 1
        else:
            rowgroups += _int_field(part.fields, "rowgroups_quarantined")
            values += _int_field(part.fields, "values_quarantined")
    fields: dict[str, object] = {
        "rowgroups_quarantined": rowgroups,
        "values_quarantined": values,
    }
    if missing:
        fields["partial"] = True
        fields["shards_missed"] = missing
    return fields


def merge_scan(
    parts: "list[PartResult]",
) -> tuple[dict[str, object], list[bytes | bytearray]]:
    """Merge single-column scan partitions: payloads as ordered parts."""
    fields = merge_tallies(parts)
    fields["count"] = sum(
        _int_field(part.fields, "count") for part in parts
    )
    return fields, [part.payload for part in parts if part.payload]


def merge_scan_columns(
    parts: "list[PartResult]", n_columns: int
) -> tuple[dict[str, object], list[memoryview]]:
    """Merge projection partitions into one per-column-major payload.

    Each partition's payload is column-major *within the partition*
    (column 0's slice, then column 1's …, per its ``counts``); the
    single-node response is column-major over the whole table.  So the
    merge re-slices: for each column, that column's slice from every
    partition in order, as ``memoryview`` parts.  float64 values are 8
    bytes each, which makes the slicing arithmetic exact.
    """
    fields = merge_tallies(parts)
    columns: list[list[memoryview]] = [[] for _ in range(n_columns)]
    counts = [0] * n_columns
    for part in parts:
        if part.missing:
            continue
        part_counts = part.fields.get("counts")
        if (
            not isinstance(part_counts, list)
            or len(part_counts) != n_columns
        ):
            raise ValueError(
                f"partition {part.partition.key} returned malformed "
                f"'counts': {part_counts!r}"
            )
        view = memoryview(part.payload)
        offset = 0
        for index, raw in enumerate(part_counts):
            size = int(raw) * 8
            columns[index].append(view[offset : offset + size])
            counts[index] += int(raw)
            offset += size
    fields["counts"] = counts
    fields["count"] = sum(counts)
    payload = [piece for slices in columns for piece in slices]
    # The schema echo comes from any shard that answered — they serve
    # identical files, so any copy is the canonical one.
    for part in parts:
        if not part.missing and "schema" in part.fields:
            fields["schema"] = part.fields["schema"]
            break
    return fields, payload


def merge_sum(parts: "list[PartResult]") -> dict[str, object]:
    """Fold partition sums in partition order (:func:`fold_sum`)."""
    fields = merge_tallies(parts)
    terms: list[float] = []
    count = 0
    for part in parts:
        if part.missing:
            continue
        term = part.fields.get("sum")
        if isinstance(term, bool) or not isinstance(term, (int, float)):
            raise ValueError(
                f"partition {part.partition.key} returned malformed "
                f"'sum': {term!r}"
            )
        terms.append(float(term))
        count += _int_field(part.fields, "count")
    fields["sum"] = fold_sum(terms)
    fields["count"] = count
    return fields
