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
from repro.query import dispatch as dispatch_mod
from repro.query.dispatch import dispatch, handlers_for, register

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


class _Base:
    def encoded_batches(self, value_range=None):
        return iter(())


class _Sub(_Base):
    pass


class TestDispatchRegistry:
    def test_mro_specificity_and_inheritance(self):
        register("test-op-mro", _Base, lambda source: "base")
        # A subclass inherits the base handler...
        assert dispatch(
            "test-op-mro", _Sub(), default=lambda source: "default"
        ) == "base"
        # ...until its own, more specific handler is registered.
        register("test-op-mro", _Sub, lambda source: "sub")
        assert dispatch(
            "test-op-mro", _Sub(), default=lambda source: "default"
        ) == "sub"
        assert [
            handler(None)
            for handler in handlers_for("test-op-mro", _Sub())
        ] == ["sub", "base"]

    def test_not_implemented_falls_through(self):
        register(
            "test-op-decline", _Base, lambda source: "base"
        )
        register(
            "test-op-decline", _Sub, lambda source: NotImplemented
        )
        # The subclass handler declines, the base handler answers.
        assert dispatch(
            "test-op-decline", _Sub(), default=lambda source: "default"
        ) == "base"

    def test_all_declined_runs_default(self):
        register(
            "test-op-all-decline", _Base, lambda source: NotImplemented
        )
        assert dispatch(
            "test-op-all-decline",
            _Base(),
            default=lambda source: "default",
        ) == "default"

    def test_reregistration_replaces(self):
        register("test-op-replace", _Base, lambda source: "first")
        register("test-op-replace", _Base, lambda source: "second")
        assert len(handlers_for("test-op-replace", _Base())) == 1
        assert dispatch(
            "test-op-replace", _Base(), default=lambda source: "default"
        ) == "second"

    def teardown_method(self):
        for op in list(dispatch_mod._registry):
            if op.startswith("test-op-"):
                del dispatch_mod._registry[op]


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

    def test_encoded_batch_counts(self):
        from repro.query.sources import EncodedBatch

        empty = EncodedBatch()
        assert empty.count == 0 and empty.decode().size == 0
        decoded = EncodedBatch(values=np.ones(3))
        assert decoded.count == 3
        vector = alp_encode_vector(
            np.round(np.linspace(0, 1, 64), 2), 4, 2
        )
        assert EncodedBatch(alp=vector).count == 64
