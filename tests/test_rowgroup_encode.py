"""Row-group-at-a-time encode against the per-vector oracles.

``compress_rowgroup`` encodes a row-group with whole-grid numpy passes:
one ALP_enc/ALP_dec/exception pass, one FFOR width reduction, one
``pack_bits`` call per distinct bit width and one ALP_rd dictionary
lookup.  The int64 chunks of the table writer do the same for their
FFOR and delta frames.  Every result here is compared *as serialized
bytes* with the per-vector loops kept as references
(``compress_rowgroup_reference``, ``_encode_int_payload_reference``),
so the files the writer produces cannot change.
"""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import alp as alp_module
from repro.core.alp import alp_encode_rowgroup, alp_encode_vector
from repro.core.alprd import encode_vector_bits
from repro.core.compressor import (
    compress_rowgroup,
    compress_rowgroup_reference,
)
from repro.core.constants import ROWGROUP_SIZE, VECTOR_SIZE
from repro.core.float32 import compress_f32
from repro.data import DATASET_ORDER, get_dataset
from repro.encodings import bitpack
from repro.encodings.bitpack import pack_bits, pack_rows
from repro.storage.serializer import serialize_rowgroup
from repro.storage.tablefile import (
    _encode_int_payload,
    _encode_int_payload_reference,
)

INT64_MIN = int(np.iinfo(np.int64).min)
INT64_MAX = int(np.iinfo(np.int64).max)


def assert_same_encoding(
    values: np.ndarray,
    vector_size: int = VECTOR_SIZE,
    force_scheme: str | None = None,
) -> None:
    """Batched and per-vector encodes serialize to the same bytes."""
    values = np.asarray(values, dtype=np.float64)
    rowgroup_size = vector_size * (ROWGROUP_SIZE // VECTOR_SIZE)
    for start in range(0, max(values.size, 1), rowgroup_size):
        chunk = values[start : start + rowgroup_size]
        batched, _, _ = compress_rowgroup(
            chunk, vector_size=vector_size, force_scheme=force_scheme
        )
        reference = compress_rowgroup_reference(
            chunk, vector_size=vector_size, force_scheme=force_scheme
        )
        assert serialize_rowgroup(batched) == serialize_rowgroup(reference)


def specials(n: int, seed: int) -> np.ndarray:
    """Decimals sprinkled with every IEEE special and NaN payloads."""
    rng = np.random.default_rng(seed)
    values = np.round(rng.normal(0.0, 100.0, n), 2)
    pool = np.array(
        [math.nan, math.inf, -math.inf, -0.0, 0.0, 5e-324, -2.5e-310, 1e300]
    )
    picks = rng.random(n) < 0.05
    values[picks] = rng.choice(pool, int(picks.sum()))
    payloads = np.uint64(0x7FF0000000000000) | rng.integers(
        1, 1 << 51, 16, dtype=np.uint64
    )
    values[rng.integers(0, n, 16)] = payloads.view(np.float64)
    return values


class TestPackRows:
    """A 2-D ``pack_bits`` is every row's own payload, back to back."""

    @pytest.mark.parametrize("width", range(65))
    @pytest.mark.parametrize("count", [1024, 1023, 1000, 37, 1])
    def test_every_width(self, width, count):
        rng = np.random.default_rng(width * 7919 + count)
        rows = (
            rng.integers(0, 1 << 63, (5, count), dtype=np.uint64)
            >> np.uint64(64 - width)
            if width
            else np.zeros((5, count), dtype=np.uint64)
        )
        expected = b"".join(pack_bits(row, width) for row in rows)
        assert pack_bits(rows, width) == expected

    def test_pack_rows_mixed_widths(self):
        rng = np.random.default_rng(3)
        widths = [0, 5, 13, 5, 64, 0, 13, 33]
        rows = np.zeros((len(widths), VECTOR_SIZE), dtype=np.uint64)
        for r, width in enumerate(widths):
            if width:
                rows[r] = rng.integers(
                    0, 1 << 63, VECTOR_SIZE, dtype=np.uint64
                ) >> np.uint64(64 - width)
                rows[r, 0] = np.uint64((1 << width) - 1)  # pin the width
        got_widths, payloads = pack_rows(rows, rows.max(axis=1))
        assert got_widths == widths
        assert payloads == [
            pack_bits(row, width)
            for row, width in zip(rows, widths, strict=True)
        ]

    def test_rejects_overwide_row_and_3d(self):
        rows = np.zeros((3, 64), dtype=np.uint64)
        rows[2, 5] = 8
        with pytest.raises(ValueError, match="does not fit"):
            pack_bits(rows, 3)
        with pytest.raises(ValueError, match="1-D or 2-D"):
            pack_bits(np.zeros((2, 2, 2), dtype=np.uint64), 3)


class TestFloatEncode:
    """``compress_rowgroup`` serializes like the per-vector loop."""

    @pytest.mark.parametrize("name", DATASET_ORDER)
    def test_every_dataset(self, name):
        # One full row-group, then a short one ending in a tail vector.
        values = get_dataset(name, n=ROWGROUP_SIZE + 3 * VECTOR_SIZE + 17)
        assert_same_encoding(values)

    @pytest.mark.parametrize("scheme", [None, "alp", "alprd"])
    def test_special_values(self, scheme):
        assert_same_encoding(specials(20 * VECTOR_SIZE + 3, 1), force_scheme=scheme)

    def test_all_exception_vector(self):
        values = np.round(np.random.default_rng(2).normal(0, 10, 4096), 1)
        # Vector 1 holds only values no decimal (e, f) round-trips.
        values[VECTOR_SIZE : 2 * VECTOR_SIZE] = np.array(
            [math.nan, math.inf, -math.inf, 1e300]
        )[np.arange(VECTOR_SIZE) % 4]
        rowgroup, _, _ = compress_rowgroup(values, force_scheme="alp")
        vector = rowgroup.alp.vectors[1]
        assert vector.exception_count == vector.count
        assert vector.ffor.reference == 0 and vector.ffor.bit_width == 0
        assert_same_encoding(values, force_scheme="alp")

    def test_k_prime_above_one(self):
        # Vectors alternate between two decimal precisions, so level one
        # keeps several candidates and level two picks per vector.
        rng = np.random.default_rng(4)
        parts = [
            np.round(rng.uniform(0, 1000, VECTOR_SIZE), 1 + 3 * (i % 2))
            for i in range(40)
        ]
        values = np.concatenate(parts)
        rowgroup, _, _ = compress_rowgroup(values)
        assert len(rowgroup.alp.candidates) > 1
        combos = {(v.exponent, v.factor) for v in rowgroup.alp.vectors}
        assert len(combos) > 1
        assert_same_encoding(values)
        assert_same_encoding(values[: 20 * VECTOR_SIZE + 500])

    @pytest.mark.parametrize("n", [1, 1023, 1025, 5 * VECTOR_SIZE + 999])
    @pytest.mark.parametrize("scheme", ["alp", "alprd"])
    def test_short_tails(self, n, scheme):
        assert_same_encoding(get_dataset("POI-lat", n=n), force_scheme=scheme)
        assert_same_encoding(specials(n, n), force_scheme=scheme)

    @pytest.mark.parametrize("vector_size", [1000, 37])
    @pytest.mark.parametrize("name", ["City-Temp", "NYC/29", "POI-lat"])
    def test_odd_vector_sizes(self, vector_size, name):
        values = get_dataset(name, n=60 * vector_size + 11)
        assert_same_encoding(values, vector_size=vector_size)
        assert_same_encoding(
            specials(30 * vector_size + 5, vector_size),
            vector_size=vector_size,
        )

    def test_tail_does_not_take_the_traced_vector_path(self, monkeypatch):
        # The e2e tracer counts vectors on alp_encode_rowgroup *and* on
        # alp_encode_vector; a nested call would count the tail twice.
        def forbidden(*args, **kwargs):
            raise AssertionError("alp_encode_vector called")

        monkeypatch.setattr(alp_module, "alp_encode_vector", forbidden)
        values = get_dataset("City-Temp", n=3 * VECTOR_SIZE + 7)
        vectors = alp_encode_rowgroup(values, 2, 0, VECTOR_SIZE)
        assert [v.count for v in vectors] == [VECTOR_SIZE] * 3 + [7]


class TestFloat32RdEncode:
    """ALP_rd-32 goes through the same row-group ALP_rd encoder."""

    @pytest.mark.parametrize("n", [0, 5, 3 * VECTOR_SIZE, 3 * VECTOR_SIZE + 9])
    def test_matches_per_vector(self, n):
        rng = np.random.default_rng(n)
        values = rng.standard_normal(n).astype(np.float32)
        column = compress_f32(values, force_scheme="alprd")
        bits = values.view(np.uint32).astype(np.uint64)
        expected = tuple(
            encode_vector_bits(bits[s : s + VECTOR_SIZE], column.rd_parameters)
            for s in range(0, n, VECTOR_SIZE)
        )
        assert len(column.vectors) == len(expected)
        for got, want in zip(column.vectors, expected, strict=True):
            assert got.left_payload == want.left_payload
            assert got.right_payload == want.right_payload
            np.testing.assert_array_equal(got.exc_positions, want.exc_positions)
            np.testing.assert_array_equal(got.exc_values, want.exc_values)
            assert got.exc_positions.dtype == want.exc_positions.dtype
            assert got.exc_values.dtype == want.exc_values.dtype
            assert got.count == want.count


def int_columns() -> list[np.ndarray]:
    rng = np.random.default_rng(9)
    ts = 1_600_000_000_000 + np.cumsum(rng.integers(500, 1500, 5000))
    return [
        ts.astype(np.int64),
        rng.integers(INT64_MIN, INT64_MAX, 3000, dtype=np.int64),
        # Alternating extremes: every delta wraps around int64.
        np.array([INT64_MIN, INT64_MAX] * 1100, dtype=np.int64),
        np.full(2100, -7, dtype=np.int64),
        np.array([INT64_MAX], dtype=np.int64),
        np.empty(0, dtype=np.int64),
    ]


class TestIntFrames:
    """int64 chunks: batched FFOR and delta frames equal per-vector ones."""

    @pytest.mark.parametrize("codec", ["ffor", "delta"])
    @pytest.mark.parametrize("vector_size", [VECTOR_SIZE, 1000, 37])
    def test_frames_match(self, codec, vector_size):
        for values in int_columns():
            payload, _ = _encode_int_payload(values, vector_size, codec)
            assert payload == _encode_int_payload_reference(
                values, vector_size, codec
            )

    def test_unpinned_codec_picks_the_smaller(self):
        for values in int_columns():
            payload, _ = _encode_int_payload(values, VECTOR_SIZE, None)
            sizes = [
                len(_encode_int_payload_reference(values, VECTOR_SIZE, c))
                for c in ("ffor", "delta")
            ]
            assert len(payload) == min(sizes)


class TestPackPlanCache:
    """Pack plans stay the size of one vector (a plan for a whole
    row-group's width group holds megabytes and inflated ingest RSS)."""

    @pytest.mark.parametrize("vector_size", [VECTOR_SIZE, 1000])
    def test_plans_are_per_vector(self, monkeypatch, vector_size):
        counts: list[int] = []
        original = bitpack._pack_plan

        def recording(width: int, count: int):
            counts.append(count)
            return original(width, count)

        monkeypatch.setattr(bitpack, "_pack_plan", recording)
        for name in ("City-Temp", "NYC/29", "POI-lat", "Stocks-DE", "CMS/25"):
            values = get_dataset(name, n=30 * vector_size + 100)
            compress_rowgroup(values, vector_size=vector_size)
        for values in int_columns():
            for codec in ("ffor", "delta"):
                _encode_int_payload(values, vector_size, codec)
        assert counts, "no generic-width pack ran"
        assert max(counts) <= vector_size


_doubles = st.one_of(
    st.sampled_from((0.0, -0.0, 5e-324, math.nan, math.inf, -math.inf, 1.1)),
    st.floats(allow_nan=True, allow_infinity=True, width=64),
    st.integers(-10**6, 10**6).map(lambda i: i / 100),
)


@settings(max_examples=40, deadline=None)
@given(
    st.lists(_doubles, min_size=1, max_size=400),
    st.sampled_from([1, 7, 37, 64, 100]),
    st.sampled_from([None, "alp", "alprd"]),
)
def test_property_float_encode_matches_reference(values, vector_size, scheme):
    assert_same_encoding(np.array(values), vector_size, scheme)


@settings(max_examples=40, deadline=None)
@given(
    st.lists(st.integers(INT64_MIN, INT64_MAX), min_size=0, max_size=300),
    st.sampled_from([1, 7, 37, 64]),
    st.sampled_from(["ffor", "delta"]),
)
def test_property_int_frames_match_reference(values, vector_size, codec):
    array = np.array(values, dtype=np.int64)
    payload, _ = _encode_int_payload(array, vector_size, codec)
    assert payload == _encode_int_payload_reference(array, vector_size, codec)


def test_alp_encode_rowgroup_matches_alp_encode_vector():
    values = specials(4 * VECTOR_SIZE + 100, 11)
    exponents = [14, 2, 0, 5, 2]
    factors = [12, 0, 0, 3, 1]
    vectors = alp_encode_rowgroup(values, exponents, factors, VECTOR_SIZE)
    for i, vector in enumerate(vectors):
        want = alp_encode_vector(
            values[i * VECTOR_SIZE : (i + 1) * VECTOR_SIZE],
            exponents[i],
            factors[i],
        )
        assert vector.ffor == want.ffor
        assert (vector.exponent, vector.factor) == (exponents[i], factors[i])
        np.testing.assert_array_equal(vector.exc_positions, want.exc_positions)
        np.testing.assert_array_equal(
            vector.exc_values.view(np.uint64), want.exc_values.view(np.uint64)
        )
