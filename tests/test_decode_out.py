"""Decode-into-buffer (``out=``) contracts across the kernel stack."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import api
from repro.core.compressor import compress, decompress
from repro.encodings.bitpack import pack_bits, unpack_bits, unpack_sum
from repro.encodings.ffor import ffor_decode, ffor_encode


def awkward_column(n: int, seed: int = 11) -> np.ndarray:
    """Doubles that force exception patching plus every IEEE special."""
    rng = np.random.default_rng(seed)
    values = np.round(rng.normal(0.0, 50.0, n), 2)
    # Exception-heavy stretch: values ALP cannot hit with one exponent.
    values[100:200] = rng.random(100) * 1e300
    values[::61] = np.nan
    values[1::73] = np.inf
    values[2::89] = -np.inf
    values[3::53] = -0.0
    return values


# ------------------------------------------------------------- bitpack


class TestUnpackBitsBuffers:
    @given(
        st.lists(
            st.integers(min_value=0, max_value=2**13 - 1),
            min_size=0,
            max_size=300,
        )
    )
    @settings(max_examples=40, deadline=None)
    def test_buffer_types_round_trip(self, raw):
        values = np.array(raw, dtype=np.uint64)
        packed = pack_bits(values, 13)
        for wrap in (bytes, bytearray, memoryview):
            got = unpack_bits(wrap(packed), 13, values.size)
            np.testing.assert_array_equal(got, values)

    def test_mmap_style_memoryview_slice(self):
        values = np.arange(500, dtype=np.uint64) % 1000
        packed = pack_bits(values, 10)
        framed = b"\xAA" * 32 + packed + b"\xBB" * 32
        view = memoryview(framed)[32 : 32 + len(packed)]
        np.testing.assert_array_equal(
            unpack_bits(view, 10, values.size), values
        )
        assert unpack_sum(view, 10, values.size) == int(values.sum())

    def test_non_contiguous_buffer_rejected(self):
        packed = pack_bits(np.arange(64, dtype=np.uint64), 7)
        strided = memoryview(bytes(2 * len(packed)))[::2]
        with pytest.raises(ValueError, match="C-contiguous"):
            unpack_bits(strided, 7, 64)

    @given(
        st.integers(min_value=0, max_value=64),
        st.integers(min_value=0, max_value=200),
    )
    @settings(max_examples=60, deadline=None)
    def test_out_matches_alloc(self, width, count):
        rng = np.random.default_rng(width * 211 + count)
        hi = (1 << width) - 1 if width else 0
        values = rng.integers(0, hi + 1, count, dtype=np.uint64)
        packed = pack_bits(values, width)
        expect = unpack_bits(packed, width, count)
        target = np.empty(count, dtype=np.uint64)
        got = unpack_bits(packed, width, count, out=target)
        assert got is target
        np.testing.assert_array_equal(got, expect)

    def test_bad_out_rejected(self):
        packed = pack_bits(np.arange(8, dtype=np.uint64), 5)
        with pytest.raises(ValueError, match="uint64"):
            unpack_bits(packed, 5, 8, out=np.empty(8, dtype=np.int64))
        with pytest.raises(ValueError, match="exactly"):
            unpack_bits(packed, 5, 8, out=np.empty(9, dtype=np.uint64))
        with pytest.raises(ValueError, match="writable"):
            frozen = np.empty(8, dtype=np.uint64)
            frozen.setflags(write=False)
            unpack_bits(packed, 5, 8, out=frozen)


# ---------------------------------------------------------------- ffor


class TestFforOut:
    def test_out_matches_alloc(self):
        rng = np.random.default_rng(5)
        values = rng.integers(-(2**40), 2**40, 3000, dtype=np.int64)
        encoded = ffor_encode(values)
        expect = ffor_decode(encoded)
        target = np.empty(values.size, dtype=np.int64)
        got = ffor_decode(encoded, out=target)
        # The result is the caller's buffer (re-viewed as int64), not a
        # fresh allocation.
        assert np.shares_memory(got, target)
        np.testing.assert_array_equal(got, expect)
        np.testing.assert_array_equal(target, values)


# ------------------------------------------------- whole-column decode


class TestDecompressOut:
    @pytest.fixture(scope="class")
    def column(self):
        values = awkward_column(30_000)
        return values, compress(values, rowgroup_vectors=4)

    def test_serial_out_bit_identical(self, column):
        values, compressed = column
        target = np.empty(values.size, dtype=np.float64)
        got = decompress(compressed, out=target)
        assert got is target
        np.testing.assert_array_equal(
            got.view(np.uint64), values.view(np.uint64)
        )

    def test_out_window_leaves_neighbours_untouched(self, column):
        # Every row-group decodes into its own slice of the caller's
        # window; a canary prefix/suffix proves no write strays.
        values, compressed = column
        canary = np.full(values.size + 128, 1e999, dtype=np.float64)
        window = canary[64:-64]
        got = decompress(compressed, out=window)
        assert got.base is canary
        np.testing.assert_array_equal(
            got.view(np.uint64), values.view(np.uint64)
        )
        assert np.all(canary[:64] == np.inf)
        assert np.all(canary[-64:] == np.inf)

    def test_api_decompress_out(self, column):
        values, compressed = column
        target = np.empty(values.size, dtype=np.float64)
        got = api.decompress(compressed, out=target)
        assert got is target
        np.testing.assert_array_equal(
            got.view(np.uint64), values.view(np.uint64)
        )

    def test_bad_out_rejected(self, column):
        _, compressed = column
        with pytest.raises(ValueError, match="float64"):
            decompress(
                compressed, out=np.empty(compressed.count, dtype=np.int64)
            )
        with pytest.raises(ValueError):
            decompress(
                compressed,
                out=np.empty(compressed.count - 1, dtype=np.float64),
            )
        fortran_2d = np.empty((compressed.count, 1), dtype=np.float64)
        with pytest.raises(ValueError):
            decompress(compressed, out=fortran_2d)
