"""CRC32C: block-table kernel vs the scalar oracle, buffer-protocol inputs."""

from __future__ import annotations

import mmap
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.storage.integrity import (
    BLOCK_BYTES,
    PARALLEL_MIN_BYTES,
    crc32c,
    crc32c_reference,
)


def _random_bytes(n: int, seed: int) -> bytes:
    rng = np.random.default_rng(seed)
    return rng.integers(0, 256, n, dtype=np.uint8).tobytes()


class TestKnownVectors:
    def test_check_value(self):
        # The iSCSI/RFC 3720 check value every crc32c agrees on.
        assert crc32c(b"123456789") == 0xE3069283

    def test_empty(self):
        assert crc32c(b"") == 0
        assert crc32c_reference(b"") == 0

    def test_chaining_matches_whole(self):
        data = bytes(range(256)) * 64
        split = len(data) // 3
        chained = crc32c(data[split:], crc32c(data[:split]))
        assert chained == crc32c(data)


class TestEquivalence:
    @given(st.binary(min_size=0, max_size=48 * PARALLEL_MIN_BYTES))
    @settings(max_examples=60, deadline=None)
    def test_parallel_matches_reference(self, data):
        assert crc32c(data) == crc32c_reference(data)

    @given(
        st.binary(min_size=1, max_size=32 * PARALLEL_MIN_BYTES),
        st.integers(min_value=0, max_value=0xFFFFFFFF),
    )
    @settings(max_examples=30, deadline=None)
    def test_seeded_state_matches_reference(self, data, seed):
        assert crc32c(data, seed) == crc32c_reference(data, seed)

    def test_sizes_straddling_the_lane_threshold(self):
        rng = np.random.default_rng(3)
        for n in (
            PARALLEL_MIN_BYTES - 1,
            PARALLEL_MIN_BYTES,
            PARALLEL_MIN_BYTES + 1,
            64 * PARALLEL_MIN_BYTES + 13,
        ):
            data = rng.integers(0, 256, n, dtype=np.uint8).tobytes()
            assert crc32c(data) == crc32c_reference(data)


class TestBlockKernel:
    """Sizes that hit each edge of the block tables and merge tree."""

    BASE = 16 * BLOCK_BYTES  # one full row of block CRCs at merge level 0

    @pytest.mark.parametrize("tail", range(BLOCK_BYTES))
    def test_every_tail_length(self, tail):
        data = _random_bytes(self.BASE + tail, tail)
        assert crc32c(data) == crc32c_reference(data)

    @pytest.mark.parametrize("k", range(2, 13))
    @pytest.mark.parametrize("delta", [-1, 0, 1])
    def test_power_of_two_block_counts(self, k, delta):
        n = BLOCK_BYTES * 2**k + delta
        data = _random_bytes(n, k)
        assert crc32c(data) == crc32c_reference(data)

    @pytest.mark.parametrize("blocks", [5, 17, 255, 257, 4097, 4711])
    def test_non_power_of_two_block_counts(self, blocks):
        data = _random_bytes(blocks * BLOCK_BYTES + 3, blocks)
        assert crc32c(data) == crc32c_reference(data)

    @pytest.mark.parametrize("seed", [0, 1, 0xFFFFFFFF, 0xE3069283])
    def test_chained_seeds(self, seed):
        data = _random_bytes(40_000, 9)
        for cut in (0, 1, BLOCK_BYTES, 5_000, 39_999):
            first = crc32c(data[:cut], seed)
            assert first == crc32c_reference(data[:cut], seed)
            assert crc32c(data[cut:], first) == crc32c_reference(data, seed)

    def test_all_zero_and_all_ones(self):
        for fill in (b"\x00", b"\xff"):
            data = fill * (BLOCK_BYTES * 1000 + 7)
            assert crc32c(data) == crc32c_reference(data)
            seeded = crc32c_reference(data, 0x12345678)
            assert crc32c(data, 0x12345678) == seeded

    def test_unaligned_mmap_slices(self, tmp_path):
        data = _random_bytes(200_003, 12)
        path = tmp_path / "blob.bin"
        path.write_bytes(data)
        with open(path, "rb") as f, mmap.mmap(
            f.fileno(), 0, access=mmap.ACCESS_READ
        ) as mapped:
            view = memoryview(mapped)
            try:
                spans = ((1, 200_003), (3, 70_001), (4097, 131_073))
                for start, stop in spans:
                    expect = crc32c_reference(data[start:stop])
                    assert crc32c(view[start:stop]) == expect
            finally:
                view.release()


class TestBufferInputs:
    DATA = bytes(range(256)) * 256  # 64 KiB, well into the block path

    @pytest.mark.parametrize(
        "wrap",
        [
            bytes,
            bytearray,
            memoryview,
            lambda b: memoryview(b)[:],
            lambda b: np.frombuffer(b, dtype=np.uint8),
        ],
        ids=["bytes", "bytearray", "memoryview", "mv-slice", "ndarray"],
    )
    def test_buffer_types_agree(self, wrap):
        expect = crc32c(self.DATA)
        assert crc32c(wrap(self.DATA)) == expect
        assert crc32c_reference(wrap(self.DATA)) == expect

    def test_memoryview_slice_matches_bytes_slice(self):
        view = memoryview(self.DATA)[1000:50_000]
        assert crc32c(view) == crc32c(self.DATA[1000:50_000])

    def test_non_contiguous_view_rejected(self):
        strided = memoryview(self.DATA)[::2]
        with pytest.raises(ValueError, match="C-contiguous"):
            crc32c(strided)
        with pytest.raises(ValueError, match="C-contiguous"):
            crc32c_reference(strided)

    def test_memoryview_input_is_not_materialized(self):
        # The no-copy pin: checksumming an 8 MiB view must not allocate
        # anything near the buffer's size (a bytes(view) fallback would
        # show up as an ~8 MiB transient in the tracemalloc peak).
        data = bytes(8 * 1024 * 1024)
        view = memoryview(data)
        crc32c(view)  # warm numpy/table caches outside the traced window
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
            crc32c(view)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak - base < len(data) // 2
