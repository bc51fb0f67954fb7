"""BufferPool ownership protocol, pooled cache fills, zero-alloc serving."""

from __future__ import annotations

import numpy as np
import pytest

from repro import api
from repro.bench.harness import LARGE_ALLOC_BYTES, traced_large_allocs
from repro.server.bufferpool import MAX_PER_BUCKET, BufferPool
from repro.server.cache import DecodedVectorCache
from repro.server.ops import build_ops
from repro.server.registry import DatasetRegistry


class TestAcquireRelease:
    def test_miss_then_hit(self):
        pool = BufferPool()
        first = pool.acquire(1000)
        assert first.dtype == np.float64 and first.size == 1000
        pool.release(first)
        second = pool.acquire(1000)
        assert second is first
        stats = pool.stats()
        assert (stats.hits, stats.misses, stats.outstanding) == (1, 1, 1)

    def test_distinct_sizes_use_distinct_buckets(self):
        pool = BufferPool()
        a, b = pool.acquire(10), pool.acquire(20)
        pool.release(a)
        pool.release(b)
        assert pool.acquire(20) is b
        assert pool.acquire(10) is a

    def test_outstanding_tracks_inflight(self):
        pool = BufferPool()
        buffers = [pool.acquire(64) for _ in range(5)]
        assert pool.stats().outstanding == 5
        for buf in buffers:
            pool.release(buf)
        assert pool.stats().outstanding == 0
        assert pool.stats().free_buffers == 5

    def test_byte_budget_caps_idle_bytes(self):
        pool = BufferPool(byte_budget=1000)
        small = pool.acquire(100)  # 800 bytes, fits
        big = pool.acquire(1000)  # 8000 bytes, never fits
        pool.release(small)
        pool.release(big)
        stats = pool.stats()
        assert stats.free_buffers == 1
        assert stats.free_bytes == 800
        assert stats.free_bytes <= stats.byte_budget

    def test_bucket_depth_is_capped(self):
        pool = BufferPool()
        buffers = [pool.acquire(8) for _ in range(MAX_PER_BUCKET + 5)]
        for buf in buffers:
            pool.release(buf)
        assert pool.stats().free_buffers == MAX_PER_BUCKET

    def test_clear_drops_idle_buffers(self):
        pool = BufferPool()
        pool.release(pool.acquire(50))
        pool.clear()
        assert pool.stats().free_buffers == 0
        assert pool.stats().free_bytes == 0

    def test_hit_rate(self):
        pool = BufferPool()
        pool.release(pool.acquire(10))
        pool.acquire(10)
        assert pool.stats().hit_rate == 0.5


class TestReleaseValidation:
    @pytest.mark.parametrize(
        "bad",
        [
            np.empty(10, dtype=np.float32),
            np.empty((5, 2), dtype=np.float64),
            np.empty(20, dtype=np.float64)[::2],
            np.empty(10, dtype=np.float64)[2:],
            b"not an array",
        ],
        ids=["dtype", "2d", "strided", "view", "not-array"],
    )
    def test_unreturnable_buffers_rejected(self, bad):
        pool = BufferPool()
        with pytest.raises(ValueError, match="release"):
            pool.release(bad)

    def test_read_only_buffer_rejected(self):
        pool = BufferPool()
        buf = pool.acquire(10)
        buf.setflags(write=False)
        with pytest.raises(ValueError, match="release"):
            pool.release(buf)

    def test_transfer_forgets_without_recycling(self):
        pool = BufferPool()
        buf = pool.acquire(77)
        pool.transfer(buf)
        stats = pool.stats()
        assert stats.outstanding == 0
        assert stats.free_buffers == 0
        # A transferred buffer is never handed out again.
        assert pool.acquire(77) is not buf


class TestCacheLoadInto:
    def test_miss_fills_pooled_buffer_and_transfers(self):
        pool = BufferPool()
        cache = DecodedVectorCache(pool=pool)
        filled = []

        def fill(out):
            out[...] = 42.0
            filled.append(out)

        resident = cache.load_into("key", 500, fill)
        assert resident is filled[0]
        assert not resident.flags.writeable  # cache residents are shared
        assert np.all(resident == 42.0)
        # Ownership moved to the cache: nothing outstanding, nothing on
        # the free list to be scribbled over.
        stats = pool.stats()
        assert stats.outstanding == 0
        assert stats.free_buffers == 0

    def test_hit_skips_the_pool(self):
        pool = BufferPool()
        cache = DecodedVectorCache(pool=pool)
        cache.load_into("key", 100, lambda out: out.fill(1.0))
        misses_before = pool.stats().misses
        again = cache.load_into(
            "key", 100, lambda out: pytest.fail("fill on a hit")
        )
        assert np.all(again == 1.0)
        assert pool.stats().misses == misses_before

    def test_fill_exception_returns_buffer_to_pool(self):
        pool = BufferPool()
        cache = DecodedVectorCache(pool=pool)

        def boom(out):
            raise RuntimeError("corrupt row-group")

        with pytest.raises(RuntimeError):
            cache.load_into("key", 200, boom)
        stats = pool.stats()
        assert stats.outstanding == 0
        assert stats.free_buffers == 1  # released, writable, reusable
        recycled = pool.acquire(200)
        assert recycled.flags.writeable

    def test_put_exception_returns_buffer_to_pool(self, monkeypatch):
        # Regression (found by RL9): the insertion used to sit outside
        # the try that released the buffer, so a put() failure leaked a
        # pooled buffer — and the handler returned it read-only, which
        # release() rejects.
        pool = BufferPool()
        cache = DecodedVectorCache(pool=pool)

        def broken_put(key, values):
            # Fail the way the real put() can: after freezing the array.
            values.setflags(write=False)
            raise MemoryError("insertion failed")

        monkeypatch.setattr(cache, "put", broken_put)
        with pytest.raises(MemoryError):
            cache.load_into("key", 200, lambda out: out.fill(4.0))
        stats = pool.stats()
        assert stats.outstanding == 0
        assert stats.free_buffers == 1
        assert pool.acquire(200).flags.writeable

    def test_over_budget_fill_goes_back_to_pool(self):
        pool = BufferPool()
        cache = DecodedVectorCache(byte_budget=100, pool=pool)
        result = cache.load_into("big", 500, lambda out: out.fill(2.0))
        assert np.all(result == 2.0)
        # put() returned the uncached array itself; the caller keeps it,
        # so it must have been transferred, not recycled.
        assert pool.stats().free_buffers == 0

    def test_pool_less_cache_still_works(self):
        cache = DecodedVectorCache()
        got = cache.load_into("k", 50, lambda out: out.fill(3.0))
        assert np.all(got == 3.0)
        assert cache.get("k") is got


class TestZeroAllocServing:
    """Steady-state ops perform zero large allocations per request.

    Asserted in-process at the op-handler layer (no sockets), with the
    tracemalloc peak-delta counter the bench records use: after warmup,
    a ``sum`` request — encoded-domain, tiny response — must allocate
    nothing at or above :data:`LARGE_ALLOC_BYTES`, and a ``scan``
    request nothing beyond the one documented response-serialization
    copy.
    """

    @pytest.fixture(scope="class")
    def served(self, tmp_path_factory):
        path = tmp_path_factory.mktemp("serve") / "col.alpc"
        rng = np.random.default_rng(2)
        values = np.round(rng.normal(15.0, 4.0, 120_000), 2)
        api.write(path, values, api.CompressionOptions(rowgroup_vectors=10))
        pool = BufferPool()
        cache = DecodedVectorCache(pool=pool)
        registry = DatasetRegistry(cache=cache, mmap=True, pool=pool)
        registry.register_file(path, name="col")
        ops = build_ops(registry)
        yield registry, ops, pool
        registry.column("col", None).reader.close()

    def test_sum_steady_state_allocates_nothing_large(self, served):
        _, ops, _ = served
        request = {"dataset": "col"}
        ops["sum"](request, b"")  # warm zone maps / plan caches
        allocs = traced_large_allocs(lambda: ops["sum"](request, b""))
        assert allocs == 0

    def test_scan_steady_state_allocates_only_the_response(self, served):
        registry, ops, pool = served
        request = {"dataset": "col"}
        response_bytes = ops["scan"](request, b"").payload
        hits_before = pool.stats().hits
        allocs = traced_large_allocs(lambda: ops["scan"](request, b""))
        # The serialized response frame is the one remaining large
        # allocation; the decode target itself came from the pool.
        budget = len(response_bytes) // LARGE_ALLOC_BYTES + 2
        assert allocs <= budget
        assert pool.stats().hits > hits_before  # buffers recycled

    def test_scan_without_pool_allocates_more(self, served):
        # Control: the same scan with the pool detached allocates the
        # decode target on top of the response copy.
        registry, ops, pool = served
        column = registry.column("col", None)
        request = {"dataset": "col"}
        response_bytes = ops["scan"](request, b"").payload
        pooled = traced_large_allocs(lambda: ops["scan"](request, b""))
        column.pool = None
        try:
            unpooled = traced_large_allocs(lambda: ops["scan"](request, b""))
        finally:
            column.pool = pool
        # Detached, the decode target is a fresh full-column allocation
        # on top of the response copy.
        assert unpooled > pooled
        assert len(response_bytes) > LARGE_ALLOC_BYTES
