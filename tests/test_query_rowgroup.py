"""Row-group encoded queries: bit-identical to the per-vector terms.

``sum_query``, ``range_sum_query`` and ``range_count_query`` do their
integer work once per row-group (one residual grid per row-group, one
ALP_rd decode per row-group) and still fold one term per vector.  These
tests pin every result, bit for bit, to the left-to-right fold of the
per-vector terms computed on their own (``alp_sum_vector``,
``sum_range_vector``, ``count_vector_encoded`` and the decoded ALP_rd
vector's ``sum``) over the same vectors the source yields, on a corpus
with NaN payloads, signed zeros, infinities, subnormals, all-exception
vectors, width 0, widths above 53 bits, short tail vectors, ALP_rd
row-groups and zone-map-pruned, non-contiguous survivors.  The
steady-state allocations, the mmap buffer lifetime and the
deserializer's consistency checks are tested at the end.
"""

from __future__ import annotations

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import api
from repro.api import CompressionOptions
from repro.core.alp import alp_encode_rowgroup, alp_sum_vector
from repro.core.compressor import (
    AlpRowGroup,
    CompressedRowGroup,
    CompressedRowGroups,
    CompressionStats,
    compress,
    compress_rowgroup,
    decode_rowgroup_vector,
)
from repro.core.predicates import count_vector_encoded, sum_range_vector
from repro.core.sampler import ExponentFactor, FirstLevelResult
from repro.data.datasets import get_dataset
from repro.query.engine import (
    fold_sum,
    range_count_query,
    range_sum_query,
    sum_query,
)
from repro.query.sources import AlpSource, FileColumnSource
from repro.storage.errors import CorruptRowGroupError
from repro.storage.serializer import deserialize_rowgroup, serialize_rowgroup

#: Small vectors keep the corpus fast; the grid path still serves every
#: full vector wider than the modular fold's widths.
VECTOR_SIZE = 64
ROWGROUP_VECTORS = 4

#: A NaN with a payload, distinct from numpy's default NaN bits.
PAYLOAD_NAN = np.array([0x7FF8_0000_DEAD_BEEF], dtype=np.uint64).view(
    np.float64
)[0]


def _vector(kind: str, rng: np.random.Generator, n: int) -> np.ndarray:
    """``n`` doubles of one shape of data."""
    if n == 0:
        return np.empty(0)
    if kind == "cents":  # narrow residuals: the per-vector fold
        return np.round(rng.uniform(-100, 100, n), 2)
    if kind == "wide":  # ~34-bit residuals: the grid, one uint64 sum
        return np.round(rng.normal(0, 1e7, n), 3)
    if kind == "huge":  # ~62-bit residuals: the grid, split sums
        big = rng.integers(0, 2**57, n).astype(np.float64)
        return np.where(rng.random(n) < 0.5, big, np.round(rng.normal(0, 100, n), 2))
    if kind == "const":  # width 0
        return np.full(n, 2.5)
    if kind == "specials":  # exceptions with IEEE corners
        values = np.round(rng.normal(0, 1e5, n), 2)
        picks = [PAYLOAD_NAN, math.inf, -0.0, 5e-324, math.pi, -1e300]
        at = rng.choice(n, size=min(n, 6), replace=False)
        values[at] = picks[: at.size]
        return values
    if kind == "ninf":
        values = np.round(rng.normal(0, 1e6, n), 1)
        values[rng.integers(n)] = -math.inf
        return values
    if kind == "negzero":  # every slot an exception; the sum is -0.0
        return np.full(n, -0.0)
    if kind == "real":  # no decimal form: ALP_rd when it dominates
        return rng.random(n) * 10.0 ** rng.integers(0, 7)
    raise AssertionError(kind)


KINDS = ("cents", "wide", "huge", "const", "specials", "ninf", "negzero", "real")


@st.composite
def columns(draw) -> np.ndarray:
    """A column of whole vectors of drawn kinds plus a short tail."""
    kinds = draw(st.lists(st.sampled_from(KINDS), min_size=1, max_size=10))
    tail_kind = draw(st.sampled_from(KINDS))
    tail = draw(st.integers(min_value=0, max_value=VECTOR_SIZE - 1))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    parts = [_vector(kind, rng, VECTOR_SIZE) for kind in kinds]
    parts.append(_vector(tail_kind, rng, tail))
    return np.concatenate(parts)


def _fold_sum(walk) -> float:
    terms = []
    for rowgroup, survivors in walk:
        for v in survivors:
            if rowgroup.alp is not None:
                terms.append(alp_sum_vector(rowgroup.alp.vectors[v]))
            else:
                values = decode_rowgroup_vector(rowgroup, v)
                if values.size:
                    terms.append(float(values.sum()))
    return fold_sum(terms)


def _fold_range(walk, low: float, high: float) -> tuple[float, int, int]:
    """(range sum, its count, range count) from per-vector terms."""
    terms, count, counted = [], 0, 0
    for rowgroup, survivors in walk:
        for v in survivors:
            if rowgroup.alp is not None:
                vector = rowgroup.alp.vectors[v]
                term, kept = sum_range_vector(vector, low, high)
                counted += count_vector_encoded(vector, low, high)
            else:
                values = decode_rowgroup_vector(rowgroup, v)
                selected = values[(values >= low) & (values <= high)]
                term, kept = float(selected.sum()), selected.size
                counted += kept
            if kept:
                terms.append(term)
                count += kept
    return fold_sum(terms), count, counted


def _bits(value: float) -> int:
    return int(np.float64(value).view(np.uint64))


def _memory_walk(column: CompressedRowGroups):
    return [(rg, range(rg.vector_count)) for rg in column.rowgroups]


def _file_walk(source: FileColumnSource, hint=None):
    ranges = [r for r in (source.value_range, hint) if r is not None]
    bounds = (
        (max(lo for lo, _ in ranges), min(hi for _, hi in ranges))
        if ranges
        else None
    )
    start, stop = source._rg_bounds()
    return [
        (rg, survivors)
        for _, survivors, rg in source.reader.iter_rowgroups_compressed(
            bounds, start, stop
        )
    ]


def _check(source, walk, low: float, high: float) -> None:
    """Every encoded query on ``source`` against the per-vector fold."""
    assert _bits(sum_query(source)) == _bits(_fold_sum(walk(None)))
    want_sum, want_count, want_counted = _fold_range(walk((low, high)), low, high)
    total, count = range_sum_query(source, low, high)
    assert (_bits(total), count) == (_bits(want_sum), want_count)
    assert range_count_query(source, low, high) == want_counted


def _window(values: np.ndarray, data) -> tuple[float, float]:
    finite = np.sort(values[np.isfinite(values)])
    if finite.size == 0:
        return -1.0, 1.0
    i = data.draw(st.integers(0, finite.size - 1))
    j = data.draw(st.integers(i, finite.size - 1))
    return float(finite[i]), float(finite[j])


@settings(max_examples=60, deadline=None)
@given(values=columns(), data=st.data())
def test_alp_source_matches_per_vector_fold(values, data):
    column = compress(
        values, vector_size=VECTOR_SIZE, rowgroup_vectors=ROWGROUP_VECTORS
    )
    low, high = _window(values, data)
    _check(AlpSource(column), lambda hint: _memory_walk(column), low, high)


@settings(
    max_examples=40,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(values=columns(), data=st.data())
def test_file_sources_match_per_vector_fold(values, data, tmp_path_factory):
    path = tmp_path_factory.mktemp("rowgroup") / "column.alpc"
    api.write(
        path,
        values,
        CompressionOptions(
            vector_size=VECTOR_SIZE, rowgroup_vectors=ROWGROUP_VECTORS
        ),
    )
    low, high = _window(values, data)
    prune = _window(values, data)
    source = FileColumnSource.open(path)
    try:
        n_groups = source.reader.rowgroup_count
        half = n_groups // 2
        sources = [
            source,
            dataclasses.replace(source, value_range=prune),
            dataclasses.replace(source, rowgroups=(0, half)),
            dataclasses.replace(source, rowgroups=(half, n_groups)),
        ]
        for each in sources:
            _check(
                each, lambda hint, each=each: _file_walk(each, hint), low, high
            )
    finally:
        source.reader.close()


def _forced_rowgroup(values: np.ndarray, e: int, f: int) -> CompressedRowGroup:
    """A row-group of 1024-value vectors all encoded under ``(e, f)``."""
    vectors = tuple(alp_encode_rowgroup(values, e, f, 1024))
    candidates = (ExponentFactor(e, f),)
    return CompressedRowGroup(
        alp=AlpRowGroup(vectors=vectors, candidates=candidates, count=values.size),
        rd=None,
        first_level=FirstLevelResult(
            candidates=candidates, use_rd=False, best_estimated_bits_per_value=0.0
        ),
        count=values.size,
    )


def test_exception_free_widths_past_53_bits_sum_exactly():
    """Multiples of 2**40 up to 2**60 under (0, 0): 61-bit residuals
    with no exceptions, summed through the split 32-bit halves."""
    rng = np.random.default_rng(5)
    values = rng.integers(-(2**20), 2**20, 4 * 1024 + 300) * 2.0**40
    values[2048:3072] = np.round(rng.normal(0, 50, 1024)) + 0.0  # narrow, no -0.0
    rowgroup = _forced_rowgroup(values, 0, 0)
    widths = [v.ffor.bit_width for v in rowgroup.alp.vectors]
    assert max(widths) > 53 and min(widths) <= 15
    assert not any(v.exception_count for v in rowgroup.alp.vectors)
    column = CompressedRowGroups(
        rowgroups=(rowgroup,), count=values.size, vector_size=1024,
        stats=CompressionStats(),
    )
    finite = np.sort(values)
    low, high = float(finite[100]), float(finite[-100])
    _check(AlpSource(column), lambda hint: _memory_walk(column), low, high)


@pytest.mark.parametrize("dataset", ["NYC/29", "Food-prices", "POI-lat", "Gov/26"])
def test_paper_datasets_match_per_vector_fold(dataset, tmp_path):
    values = get_dataset(dataset, n=3 * 102_400 + 5_000)
    column = compress(values)
    finite = np.sort(values[np.isfinite(values)])
    low, high = float(finite[finite.size // 3]), float(finite[finite.size // 2])
    _check(AlpSource(column), lambda hint: _memory_walk(column), low, high)
    path = tmp_path / "column.alpc"
    api.write(path, values)
    source = FileColumnSource.open(path, value_range=(low, float(finite[-1])))
    try:
        _check(source, lambda hint: _file_walk(source, hint), low, high)
    finally:
        source.reader.close()


def test_pruned_alprd_rowgroup_decodes_its_survivors(tmp_path):
    """Zone maps drop every other vector of ALP_rd row-groups: the
    batch decodes the survivors alone, each term its own vector's."""
    rng = np.random.default_rng(8)
    scales = [1e6 if v % 2 == 0 else 1.0 for v in range(10)]
    values = np.concatenate([rng.random(1024) * scale for scale in scales])
    path = tmp_path / "column.alpc"
    api.write(path, values, CompressionOptions(rowgroup_vectors=5))
    source = FileColumnSource.open(path, value_range=(2.0, 2e6))
    try:
        walk = _file_walk(source)
        assert all(rg.rd is not None for rg, _ in walk)
        assert [list(survivors) for _, survivors in walk] == [[0, 2, 4], [1, 3]]
        _check(source, lambda hint: _file_walk(source, hint), 1e3, 5e5)
    finally:
        source.reader.close()


@pytest.mark.parametrize("dataset", ["NYC/29", "Basel-Temp"])
def test_steady_state_queries_allocate_nothing_large(dataset):
    """The residual grid and its masks live in per-thread scratch
    buffers: after a warm-up no encoded query holds a fresh block of
    ``LARGE_ALLOC_BYTES`` at once, at 42-bit widths or exception-heavy
    25-33-bit widths.  (An ALP_rd row-group decodes into a fresh array
    of its covered vectors.)"""
    from repro.bench.harness import traced_large_allocs

    values = get_dataset(dataset, n=2 * 102_400)
    source = AlpSource(compress(values))
    low, high = (float(q) for q in np.quantile(values, [0.3, 0.6]))
    for query in (
        lambda: sum_query(source),
        lambda: range_sum_query(source, low, high),
        lambda: range_count_query(source, low, high),
    ):
        assert traced_large_allocs(query) == 0


def test_mmap_handle_closes_after_every_encoded_query(tmp_path):
    """No query keeps a payload view of the map alive once it returns."""
    rng = np.random.default_rng(2)
    values = np.concatenate(
        [np.round(rng.normal(0, 1e6, 4096), 3), rng.random(2048) * 1e6]
    )
    values[10] = math.pi
    path = tmp_path / "column.alpc"
    api.write(path, values, CompressionOptions(rowgroup_vectors=2))
    queries = [
        lambda s: sum_query(s),
        lambda s: range_sum_query(s, -1e5, 1e5),
        lambda s: range_count_query(s, -1e5, 1e5),
    ]
    for query in queries:
        for value_range in (None, (-1e5, 1e5)):
            handle = api.open_table(path, mmap=True)
            reader = handle.column_reader(handle.schema.names[0])
            query(FileColumnSource(reader=reader, value_range=value_range))
            del reader
            handle.close()


def _alp_rowgroup() -> CompressedRowGroup:
    values = np.round(np.random.default_rng(4).normal(0, 1e4, 4096), 2)
    values[7] = math.pi
    rowgroup, _, _ = compress_rowgroup(values)
    assert rowgroup.alp is not None and rowgroup.alp.vectors[0].exception_count
    return rowgroup


def _with_vector(rowgroup: CompressedRowGroup, index: int, **changes):
    vectors = list(rowgroup.alp.vectors)
    vectors[index] = dataclasses.replace(vectors[index], **changes)
    alp = dataclasses.replace(rowgroup.alp, vectors=tuple(vectors))
    return dataclasses.replace(rowgroup, alp=alp)


def _lying_header_count(rowgroup: CompressedRowGroup) -> bytes:
    """Vector 0's u16 header count set to 1000; its FFOR count stays."""
    data = bytearray(serialize_rowgroup(rowgroup))
    n_candidates = data[5]
    at = 6 + 2 * n_candidates + 2 + 2  # past e and f of vector 0
    assert int.from_bytes(data[at : at + 2], "little") == 1024
    data[at : at + 2] = (1000).to_bytes(2, "little")
    return bytes(data)


def _damaged() -> dict[str, bytes]:
    rowgroup = _alp_rowgroup()
    v0 = rowgroup.alp.vectors[0]
    short = alp_encode_rowgroup(
        np.round(np.linspace(0, 5, 500), 2), v0.exponent, v0.factor, 1024
    )[0]
    return {
        "header-count": _lying_header_count(rowgroup),
        "payload-length": serialize_rowgroup(
            _with_vector(
                rowgroup, 1,
                ffor=dataclasses.replace(
                    rowgroup.alp.vectors[1].ffor,
                    payload=bytes(rowgroup.alp.vectors[1].ffor.payload)[:-1],
                ),
            )
        ),
        "exception-position": serialize_rowgroup(
            _with_vector(
                rowgroup, 0,
                exc_positions=np.full(v0.exception_count, 1024, dtype=np.uint16),
            )
        ),
        "more-exceptions-than-values": serialize_rowgroup(
            _with_vector(
                rowgroup, 3,
                exc_positions=np.zeros(1025, dtype=np.uint16),
                exc_values=np.zeros(1025),
            )
        ),
        "short-middle-vector": serialize_rowgroup(
            _with_vector(
                rowgroup, 1, ffor=short.ffor, count=short.count,
                exc_positions=short.exc_positions, exc_values=short.exc_values,
            )
        ),
        "count-sum": serialize_rowgroup(
            dataclasses.replace(rowgroup, count=rowgroup.count + 1)
        ),
    }


@pytest.mark.parametrize("damage", sorted(_damaged()))
def test_inconsistent_vector_counts_rejected_at_deserialize(damage):
    with pytest.raises(ValueError):
        deserialize_rowgroup(_damaged()[damage])


def test_lying_header_count_is_a_typed_chunk_error(tmp_path):
    """The repro: a header count of 1000 over a 1024-value FFOR frame
    used to sum all 1024 values; the file read now refuses the chunk."""
    from repro.storage.tablefile import (
        CODEC_FLOAT_ROWGROUP,
        ChunkMeta,
        TableFileWriter,
        _chunk_zone,
        _vector_zones_typed,
        _zone_table,
        chunk_frame,
    )
    from repro.storage.schema import Column, Schema

    rowgroup = _alp_rowgroup()
    values = np.concatenate(
        [decode_rowgroup_vector(rowgroup, v) for v in range(rowgroup.vector_count)]
    )
    column = Column("x")
    meta = ChunkMeta(
        0, 0, 0,
        _chunk_zone(column, values, None),
        _zone_table(column, _vector_zones_typed(column, values, None, 1024)),
    )
    path = tmp_path / "lying.alpc"
    with TableFileWriter(path, Schema((column,))) as writer:
        frame = chunk_frame(CODEC_FLOAT_ROWGROUP, _lying_header_count(rowgroup))
        writer.append_chunks(rowgroup.count, [(frame, meta)])
    source = FileColumnSource.open(path)
    try:
        with pytest.raises(CorruptRowGroupError):
            sum_query(source)
        with pytest.raises(CorruptRowGroupError):
            range_count_query(source, -1e9, 1e9)
    finally:
        source.reader.close()
