"""Property tests for encoded-domain query execution.

The late-materialization contract: every encoded-domain kernel — the
packed-field sums, the fused FFOR filter/aggregate kernels, ALP vector
SUM and the integer-bound range predicates — must agree with the
decode-then-execute pipeline, including the IEEE 754 corners (NaN/Inf
payloads, signed zeros), exception-heavy and all-exception vectors, and
empty selections.  Sums are compared against the scalar ``_reference``
oracles (bit-identical by construction); predicate selections are
compared bit-for-bit against masks computed on the decoded doubles.
"""

from __future__ import annotations

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.alp import (
    alp_decode_vector,
    alp_encode_vector,
    alp_sum_vector,
    alp_sum_vector_reference,
)
from repro.core.predicates import (
    EMPTY_BOUNDS,
    count_vector_encoded,
    decode_scalar,
    exact_encoded_bounds,
    filter_mask_encoded,
    sum_range_vector,
)
from repro.encodings.bitpack import (
    pack_bits,
    unpack_sum,
    unpack_sum_excluding,
    unpack_sum_reference,
)
from repro.encodings.ffor import (
    ffor_encode,
    ffor_filter_range,
    ffor_filter_range_reference,
    ffor_sum,
    ffor_sum_range,
    ffor_sum_range_reference,
    ffor_sum_reference,
)

#: Doubles that force ALP exceptions (no finite decimal representation
#: at small (e, f), NaN/Inf payloads, extreme magnitudes).
_EXCEPTION_DOUBLES = (
    math.pi,
    -math.e,
    float("nan"),
    float("inf"),
    float("-inf"),
    5e-324,
    1e308,
    -0.0,
)

#: Mostly round decimals (encode cleanly) salted with exception makers.
_mixed_double = st.one_of(
    st.integers(min_value=-10_000, max_value=10_000).map(
        lambda cents: cents / 100.0
    ),
    st.sampled_from(_EXCEPTION_DOUBLES),
)


@st.composite
def _packed_case(draw):
    """(buffer, width, count, values) spanning fold/cast/gather regimes."""
    width = draw(st.integers(min_value=0, max_value=64))
    count = draw(st.integers(min_value=0, max_value=200))
    upper = (1 << width) - 1 if width else 0
    values = np.array(
        draw(
            st.lists(
                st.one_of(
                    st.integers(min_value=0, max_value=upper),
                    st.just(upper),  # all-max stresses the fold modulus
                ),
                min_size=count,
                max_size=count,
            )
        ),
        dtype=np.uint64,
    )
    return pack_bits(values, width), width, count, values


class TestPackedSums:
    @settings(max_examples=60, deadline=None)
    @given(_packed_case())
    def test_unpack_sum_matches_reference(self, case):
        buffer, width, count, _ = case
        assert unpack_sum(buffer, width, count) == unpack_sum_reference(
            buffer, width, count
        )

    @settings(max_examples=60, deadline=None)
    @given(_packed_case(), st.data())
    def test_unpack_sum_excluding_matches_reference(self, case, data):
        buffer, width, count, values = case
        n_excluded = data.draw(st.integers(min_value=0, max_value=count))
        positions = np.array(
            sorted(
                data.draw(
                    st.sets(
                        st.integers(min_value=0, max_value=max(count - 1, 0)),
                        min_size=min(n_excluded, count),
                        max_size=min(n_excluded, count),
                    )
                )
                if count
                else []
            ),
            dtype=np.uint16,
        )
        got = unpack_sum_excluding(buffer, width, count, positions)
        skip = set(positions.tolist())
        expected = sum(
            int(value)
            for position, value in enumerate(values.tolist())
            if position not in skip
        )
        assert got == expected


_int60 = st.integers(min_value=-(1 << 59), max_value=(1 << 59) - 1)


class TestFforFused:
    @settings(max_examples=50, deadline=None)
    @given(st.lists(_int60, min_size=0, max_size=200), st.data())
    def test_sum_with_exclusions(self, values, data):
        array = np.array(values, dtype=np.int64)
        encoded = ffor_encode(array)
        positions = np.array(
            sorted(
                data.draw(
                    st.sets(
                        st.integers(
                            min_value=0, max_value=max(array.size - 1, 0)
                        ),
                        max_size=array.size,
                    )
                )
                if array.size
                else []
            ),
            dtype=np.uint16,
        )
        assert ffor_sum(encoded, exclude=positions) == ffor_sum_reference(
            encoded, exclude=positions
        )

    @settings(max_examples=50, deadline=None)
    @given(st.lists(_int60, min_size=1, max_size=200), st.data())
    def test_filter_and_sum_range(self, values, data):
        array = np.array(values, dtype=np.int64)
        encoded = ffor_encode(array)
        # Bounds drawn around the value domain so accept / reject /
        # partial header states all occur.
        d_low = data.draw(_int60)
        d_high = data.draw(_int60)
        assert np.array_equal(
            ffor_filter_range(encoded, d_low, d_high),
            ffor_filter_range_reference(encoded, d_low, d_high),
        )
        assert ffor_sum_range(
            encoded, d_low, d_high
        ) == ffor_sum_range_reference(encoded, d_low, d_high)


class TestAlpSum:
    @settings(max_examples=50, deadline=None)
    @given(
        st.lists(_mixed_double, min_size=0, max_size=300),
        st.integers(min_value=0, max_value=18),
        st.data(),
    )
    def test_bit_identical_to_reference(self, values, exponent, data):
        factor = data.draw(st.integers(min_value=0, max_value=exponent))
        array = np.array(values, dtype=np.float64)
        vector = alp_encode_vector(array, exponent, factor)
        fused = alp_sum_vector(vector)
        oracle = alp_sum_vector_reference(vector)
        assert np.float64(fused).view(np.uint64) == np.float64(
            oracle
        ).view(np.uint64)

    def test_all_exception_vector_matches_decoded_sum(self):
        array = np.array(
            [math.pi, -math.e, float("inf"), 5e-324], dtype=np.float64
        )
        vector = alp_encode_vector(array, 2, 0)
        assert vector.exception_count == array.size
        fused = np.float64(alp_sum_vector(vector))
        decoded = np.float64(np.sum(alp_decode_vector(vector)))
        assert fused.view(np.uint64) == decoded.view(np.uint64)

    def test_infinities_sum_to_decoded_nan_without_warning(self):
        array = np.array([float("inf"), float("-inf")], dtype=np.float64)
        vector = alp_encode_vector(array, 2, 0)
        assert vector.exception_count == array.size
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            fused = np.float64(alp_sum_vector(vector))
            oracle = np.float64(alp_sum_vector_reference(vector))
        with np.errstate(invalid="ignore"):
            decoded = np.float64(np.sum(alp_decode_vector(vector)))
        assert np.isnan(decoded)
        assert fused.view(np.uint64) == decoded.view(np.uint64)
        assert oracle.view(np.uint64) == decoded.view(np.uint64)

    def test_negative_zero_exception_sum_keeps_sign(self):
        array = np.array([-0.0], dtype=np.float64)
        vector = alp_encode_vector(array, 14, 14)
        fused = np.float64(alp_sum_vector(vector))
        decoded = np.float64(np.sum(alp_decode_vector(vector)))
        assert fused.view(np.uint64) == decoded.view(np.uint64)


class TestEncodedPredicates:
    @settings(max_examples=50, deadline=None)
    @given(
        st.lists(_mixed_double, min_size=1, max_size=300),
        st.floats(min_value=-150, max_value=150, allow_nan=False),
        st.floats(min_value=0, max_value=200, allow_nan=False),
    )
    def test_mask_bit_identical_to_decoded(self, values, low, width):
        array = np.array(values, dtype=np.float64)
        vector = alp_encode_vector(array, 4, 2)
        high = low + width
        mask = filter_mask_encoded(vector, low, high)
        decoded = alp_decode_vector(vector)
        expected = (decoded >= low) & (decoded <= high)
        assert np.array_equal(mask, expected)
        assert count_vector_encoded(vector, low, high) == int(
            expected.sum()
        )

    @settings(max_examples=50, deadline=None)
    @given(
        st.lists(_mixed_double, min_size=1, max_size=300),
        st.floats(min_value=-150, max_value=150, allow_nan=False),
        st.floats(min_value=0, max_value=200, allow_nan=False),
    )
    def test_sum_range_count_and_empty_selection(self, values, low, width):
        array = np.array(values, dtype=np.float64)
        vector = alp_encode_vector(array, 4, 2)
        high = low + width
        total, kept = sum_range_vector(vector, low, high)
        decoded = alp_decode_vector(vector)
        selected = decoded[(decoded >= low) & (decoded <= high)]
        assert kept == selected.size
        if not selected.size:
            # Empty selection: exactly +0.0, never an accumulated term.
            assert np.float64(total).view(np.uint64) == np.float64(
                0.0
            ).view(np.uint64)
        else:
            assert math.isclose(
                total, float(np.sum(selected)), rel_tol=1e-9, abs_tol=1e-9
            )

    def test_nan_and_inverted_bounds_select_nothing(self):
        array = np.round(np.linspace(0.0, 10.0, 256), 2)
        vector = alp_encode_vector(array, 4, 2)
        for low, high in ((math.nan, 5.0), (0.0, math.nan), (7.0, 3.0)):
            assert exact_encoded_bounds(low, high, 4, 2) == EMPTY_BOUNDS
            assert count_vector_encoded(vector, low, high) == 0
            assert sum_range_vector(vector, low, high) == (0.0, 0)


class TestExactBounds:
    @settings(max_examples=60, deadline=None)
    @given(
        st.floats(min_value=-1e6, max_value=1e6, allow_nan=False),
        st.floats(min_value=0, max_value=1e6, allow_nan=False),
        st.integers(min_value=0, max_value=18),
        st.data(),
    )
    def test_membership_iff_integer_bounds(self, low, width, exponent, data):
        factor = data.draw(st.integers(min_value=0, max_value=exponent))
        high = low + width
        d_low, d_high = exact_encoded_bounds(low, high, exponent, factor)
        for d in data.draw(
            st.lists(
                st.integers(min_value=-(1 << 62), max_value=1 << 62),
                min_size=1,
                max_size=20,
            )
        ):
            in_float = low <= decode_scalar(d, exponent, factor) <= high
            assert in_float == (d_low <= d <= d_high)


def _refuse_decode():
    raise AssertionError("the query decoded the source first")


class TestQueryRoutes:
    """Which path each query takes.  Parity alone cannot tell: a query
    that silently fell back to decode-first would still agree."""

    LOW, HIGH = 10.0, 90.0

    def _values(self, n=6_144):
        rng = np.random.default_rng(17)
        values = np.round(rng.uniform(-50, 150, n), 2)
        values[::700] = math.pi
        return values

    def _answers(self, source):
        from repro.query.engine import (
            range_count_query,
            range_sum_query,
            sum_query,
        )

        return (
            sum_query(source),
            range_sum_query(source, self.LOW, self.HIGH),
            range_count_query(source, self.LOW, self.HIGH),
        )

    def _decoded_answers(self, source):
        from repro.query.engine import (
            range_count_query_decoded,
            range_sum_query_decoded,
            sum_query_decoded,
        )

        return (
            sum_query_decoded(source),
            range_sum_query_decoded(source, self.LOW, self.HIGH),
            range_count_query_decoded(source, self.LOW, self.HIGH),
        )

    def _assert_encoded_route(self, source, monkeypatch):
        expected = self._decoded_answers(source)
        monkeypatch.setattr(source, "vectors", _refuse_decode)
        total, (range_total, count), counted = self._answers(source)
        assert math.isclose(total, expected[0], rel_tol=1e-12)
        assert math.isclose(range_total, expected[1][0], rel_tol=1e-12)
        assert count == expected[1][1] == counted == expected[2]

    def test_alp_source_runs_encoded(self, monkeypatch):
        from repro.query.sources import AlpSource, make_source

        source = make_source("alp", self._values())
        assert isinstance(source, AlpSource)
        self._assert_encoded_route(source, monkeypatch)

    def test_alp_source_with_alprd_rowgroup_runs_encoded(self, monkeypatch):
        from repro.core.compressor import compress
        from repro.query.sources import AlpSource

        values = np.concatenate(
            [self._values(2_048), np.random.default_rng(2).random(2_048)]
        )
        column = compress(values, vector_size=1024, rowgroup_vectors=2)
        assert {rg.scheme for rg in column.rowgroups} == {"alp", "alprd"}
        self._assert_encoded_route(AlpSource(column), monkeypatch)

    def test_file_source_runs_encoded(self, monkeypatch, tmp_path):
        from repro import api
        from repro.query.sources import FileColumnSource

        path = tmp_path / "column.alpc"
        api.write(path, self._values())
        source = FileColumnSource.open(path)
        self._assert_encoded_route(source, monkeypatch)

    @pytest.mark.parametrize(
        "codec, kind",
        [
            ("uncompressed", "UncompressedSource"),
            ("gorilla", "PerVectorCodecSource"),
            ("zlib(gp)", "BlockCodecSource"),
        ],
    )
    def test_other_sources_run_decoded(self, codec, kind):
        from repro.query.sources import make_source

        source = make_source(codec, self._values(2_048))
        assert type(source).__name__ == kind
        assert not hasattr(source, "encoded_batches")
        total, (range_total, count), counted = self._answers(source)
        expected = self._decoded_answers(source)
        assert total == expected[0]
        assert (range_total, count) == expected[1]
        assert counted == expected[2]

    def test_comp_query_counts_serialized_bits_for_alp(self):
        from repro.core.compressor import compress
        from repro.query.engine import comp_query
        from repro.query.sources import make_source
        from repro.storage.serializer import serialize_rowgroup

        values = self._values()
        serialized = sum(
            len(serialize_rowgroup(rowgroup)) * 8
            for rowgroup in compress(values).rowgroups
        )
        assert comp_query("alp", values) == serialized
        assert serialized != make_source("alp", values).compressed_bits
        assert comp_query("gorilla", values[:2_048]) == make_source(
            "gorilla", values[:2_048]
        ).compressed_bits


class TestEngineParity:
    def _column(self, n=8192, seed=3):
        rng = np.random.default_rng(seed)
        values = np.round(rng.uniform(-50, 150, n), 2)
        values[::700] = math.pi  # sprinkle exceptions
        values[5] = math.nan
        return values

    def test_sum_query_fused_vs_decoded(self):
        from repro.query.engine import sum_query, sum_query_decoded
        from repro.query.sources import make_source

        values = self._column()
        source = make_source("alp", values)
        fused = sum_query(source)
        decoded = sum_query_decoded(source)
        # NaN propagates through both paths identically.
        assert math.isnan(fused) and math.isnan(decoded)

        finite = np.nan_to_num(values, nan=0.25)
        source = make_source("alp", finite)
        assert math.isclose(
            sum_query(source),
            sum_query_decoded(source),
            rel_tol=1e-12,
        )

    def test_range_queries_fused_vs_decoded(self):
        from repro.query.engine import (
            range_count_query,
            range_count_query_decoded,
            range_sum_query,
            range_sum_query_decoded,
        )
        from repro.query.sources import make_source

        values = self._column()
        source = make_source("alp", values)
        low, high = 10.0, 90.0
        assert range_count_query(
            source, low, high
        ) == range_count_query_decoded(source, low, high)
        total, count = range_sum_query(source, low, high)
        exp_total, exp_count = range_sum_query_decoded(source, low, high)
        assert count == exp_count
        assert math.isclose(total, exp_total, rel_tol=1e-12)

    @pytest.mark.parametrize("scheme", ["alp", "alprd"])
    @pytest.mark.parametrize("kind", ["memory", "file"])
    def test_opposite_infinities_in_one_vector(self, scheme, kind, tmp_path):
        """+inf and -inf in one vector: SUM and range SUM are NaN bit for
        bit as after decoding, range COUNT counts both, and nothing
        warns (ALP keeps them as exceptions, ALP_rd decodes them)."""
        from repro import api
        from repro.core.compressor import compress
        from repro.query.engine import (
            range_count_query,
            range_count_query_decoded,
            range_sum_query,
            range_sum_query_decoded,
            sum_query,
            sum_query_decoded,
        )
        from repro.query.sources import AlpSource, FileColumnSource

        rng = np.random.default_rng(8)
        if scheme == "alp":
            values = np.round(rng.uniform(0, 100, 4_096), 2)
        else:
            values = rng.random(4_096) * 1e6
        values[10] = math.inf
        values[20] = -math.inf
        column = compress(values)
        assert (column.rowgroups[0].rd is not None) == (scheme == "alprd")
        if kind == "memory":
            source = AlpSource(column)
        else:
            api.write(tmp_path / "column.alpc", values)
            source = FileColumnSource.open(tmp_path / "column.alpc")
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                total = sum_query(source)
                assert math.isnan(total)
                assert np.float64(total).view(np.uint64) == np.float64(
                    sum_query_decoded(source)
                ).view(np.uint64)
                for low, high in (
                    (-math.inf, math.inf),
                    (-math.inf, 50.0),
                    (50.0, math.inf),
                ):
                    total, count = range_sum_query(source, low, high)
                    oracle, oracle_count = range_sum_query_decoded(
                        source, low, high
                    )
                    assert np.float64(total).view(np.uint64) == np.float64(
                        oracle
                    ).view(np.uint64)
                    assert count == oracle_count
                    expected = int(((values >= low) & (values <= high)).sum())
                    assert range_count_query(source, low, high) == expected
                    assert range_count_query_decoded(
                        source, low, high
                    ) == expected
        finally:
            if kind == "file":
                source.reader.close()

    def test_file_source_end_to_end(self, tmp_path):
        from repro import api
        from repro.query.engine import (
            range_count_query,
            range_count_query_decoded,
            sum_query,
            sum_query_decoded,
        )
        from repro.query.sources import FileColumnSource

        values = np.nan_to_num(self._column(n=20_480), nan=1.5)
        path = tmp_path / "column.alpc"
        api.write(path, values)
        source = FileColumnSource.open(path)
        assert math.isclose(
            sum_query(source), sum_query_decoded(source), rel_tol=1e-12
        )
        low, high = -10.0, 42.0
        assert range_count_query(
            source, low, high
        ) == range_count_query_decoded(source, low, high)
        expected = int(((values >= low) & (values <= high)).sum())
        assert range_count_query(source, low, high) == expected

    def test_sum_is_left_to_right_fold_of_vector_terms(self, tmp_path):
        """Encoded SUM equals, to the bit, the per-vector terms (ALP:
        ``alp_sum_vector``; ALP_rd: the decoded vector's ``sum``) added
        first-as-is then left to right — the order a row-group SUM
        kernel must keep."""
        from repro import api
        from repro.api import CompressionOptions
        from repro.core.compressor import compress, decode_rowgroup_vector
        from repro.query.engine import fold_sum, sum_query
        from repro.query.sources import AlpSource, FileColumnSource

        rng = np.random.default_rng(13)
        values = np.concatenate(
            [
                np.round(rng.normal(0, 1e6, 4_096), 3),
                rng.random(2_048) * 1e6,
                np.round(rng.normal(0, 1e6, 2_048), 3),
            ]
        )
        values[100] = math.pi  # an ALP exception
        column = compress(values, vector_size=1024, rowgroup_vectors=2)
        assert "alprd" in {rg.scheme for rg in column.rowgroups}
        terms = []
        for rowgroup in column.rowgroups:
            for v in range(rowgroup.vector_count):
                if rowgroup.alp is not None:
                    terms.append(alp_sum_vector(rowgroup.alp.vectors[v]))
                else:
                    vector = decode_rowgroup_vector(rowgroup, v)
                    terms.append(float(vector.sum()))
        expected = terms[0]
        for term in terms[1:]:
            expected += term
        # The seed is chosen so that another order would be visible.
        assert fold_sum(reversed(terms)) != expected != float(values.sum())

        path = tmp_path / "column.alpc"
        api.write(path, values, CompressionOptions(rowgroup_vectors=2))
        for source in (AlpSource(column), FileColumnSource.open(path)):
            total = sum_query(source)
            assert np.float64(total).view(np.uint64) == np.float64(
                expected
            ).view(np.uint64)
