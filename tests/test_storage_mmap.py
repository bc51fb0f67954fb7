"""The zero-copy mmap read path: parity, fallbacks, lifetime guards."""

from __future__ import annotations

import numpy as np
import pytest

from repro import api
from repro.storage.errors import BufferLifetimeError
from repro.storage.tablefile import MMAP_MIN_BYTES, TableFileReader


def special_values(n: int, seed: int = 7) -> np.ndarray:
    """Decimal-like doubles salted with the IEEE special cases."""
    rng = np.random.default_rng(seed)
    values = np.round(rng.normal(20.0, 8.0, n), 3)
    values[::97] = np.nan
    values[1::151] = np.inf
    values[2::163] = -np.inf
    values[3::119] = -0.0
    return values


@pytest.fixture(scope="module")
def large_file(tmp_path_factory):
    """A file comfortably above the mmap threshold (several rowgroups)."""
    path = tmp_path_factory.mktemp("mmap") / "large.alpc"
    values = special_values(120_000)
    api.write(path, values, api.CompressionOptions(rowgroup_vectors=10))
    assert path.stat().st_size >= MMAP_MIN_BYTES
    return path, values


class TestParity:
    def test_mapped_reader_is_mapped(self, large_file):
        path, _ = large_file
        with api.open(path, mmap=True) as reader:
            assert reader.mapped
            assert not reader.closed

    def test_mmap_buffered_bit_identical(self, large_file):
        path, values = large_file
        with api.open(path) as buffered:
            expect = buffered.read_all()
        with api.open(path, mmap=True) as mapped:
            got = mapped.read_all()
        np.testing.assert_array_equal(
            expect.view(np.uint64), got.view(np.uint64)
        )
        np.testing.assert_array_equal(
            expect.view(np.uint64), values.view(np.uint64)
        )

    @pytest.mark.parametrize("mmap", [False, True])
    def test_read_all_out_matches_alloc(self, large_file, mmap):
        path, values = large_file
        with api.open(path, mmap=mmap) as reader:
            target = np.empty(reader.value_count, dtype=np.float64)
            got = reader.read_all(out=target)
            assert got is target
            np.testing.assert_array_equal(
                got.view(np.uint64), values.view(np.uint64)
            )

    def test_read_rowgroup_out_matches_alloc(self, large_file):
        path, _ = large_file
        with api.open(path, mmap=True) as reader:
            expect = reader.read_rowgroup(1)
            target = np.empty(expect.size, dtype=np.float64)
            got = reader.read_rowgroup(1, out=target)
            assert got is target
            np.testing.assert_array_equal(
                expect.view(np.uint64), got.view(np.uint64)
            )

    def test_api_open_mmap_flag(self, large_file):
        path, values = large_file
        with api.open(path, mmap=True) as reader:
            assert reader.mapped
            np.testing.assert_array_equal(
                reader.read_all().view(np.uint64), values.view(np.uint64)
            )


class TestFallback:
    def test_small_file_falls_back_to_buffered(self, tmp_path):
        path = tmp_path / "small.alpc"
        api.write(path, special_values(2048))
        assert path.stat().st_size < MMAP_MIN_BYTES
        with api.open(path, mmap=True) as reader:
            assert not reader.mapped
            assert reader.read_all().size == 2048


class TestPayloadViews:
    def test_payload_is_memoryview_not_copy(self, large_file):
        path, _ = large_file
        with TableFileReader(path, mmap=True) as reader:
            first = reader.chunk_payload(0, "large")
            second = reader.chunk_payload(0, "large")
            try:
                assert isinstance(first, memoryview)
                assert first.readonly
                # Both views alias the same underlying map — no
                # per-call materialization happened.
                assert first.obj is second.obj
                assert len(first) == reader.chunk_meta(0, "large").length
            finally:
                # Live views pin the map; drop them so the context
                # manager's close succeeds (TestLifetime covers the
                # refusal path).
                first.release()
                second.release()

    def test_buffered_payload_is_also_a_view(self, large_file):
        path, _ = large_file
        with TableFileReader(path) as reader:
            view = reader.chunk_payload(0, "large")
            assert isinstance(view, memoryview)
            assert view.obj is reader.chunk_payload(1, "large").obj


class TestLifetime:
    def test_close_with_live_view_raises_typed_error(self, large_file):
        path, _ = large_file
        reader = TableFileReader(path, mmap=True)
        view = reader.chunk_payload(0, "large")
        with pytest.raises(BufferLifetimeError):
            reader.close()
        # The refused close leaves the reader fully usable.
        assert not reader.closed
        assert reader.read_chunk(0, "large")[0].size > 0
        view.release()
        reader.close()
        assert reader.closed

    def test_close_is_idempotent(self, large_file):
        path, _ = large_file
        reader = api.open(path, mmap=True)
        reader.close()
        reader.close()
        assert reader.closed

    @pytest.mark.parametrize("mmap", [False, True])
    def test_closed_reader_raises_value_error(self, large_file, mmap):
        path, _ = large_file
        reader = api.open(path, mmap=mmap)
        reader.close()
        with pytest.raises(ValueError, match="closed"):
            reader.read_all()
        with pytest.raises(ValueError, match="closed"):
            reader._parent.chunk_payload(0, "large")
        with pytest.raises(ValueError, match="closed"):
            reader.read_rowgroup(0)
        with pytest.raises(ValueError, match="closed"):
            reader.read_rowgroup_compressed(0)

    def test_decoded_arrays_do_not_pin_the_map(self, large_file):
        # Decoding copies out of the map into float64 arrays, so holding
        # the *results* must never block close.
        path, _ = large_file
        reader = api.open(path, mmap=True)
        decoded = reader.read_all()
        reader.close()
        assert decoded.size > 0

    def test_bad_out_buffer_raises_plain_value_error(self, large_file):
        path, _ = large_file
        with api.open(path, mmap=True) as reader:
            wrong = np.empty(3, dtype=np.float64)
            with pytest.raises(ValueError, match="out must"):
                reader.read_rowgroup(0, out=wrong)
            # ...and the failure is not cached as corruption.
            assert reader.check_rowgroup(0) is None
            with pytest.raises(ValueError, match="out must"):
                reader.read_all(out=np.empty(1, dtype=np.float32))
