"""A shared decoded-vector LRU cache with a byte budget.

Serving makes decode work *repeat*: the same hot row-groups are decoded
for every scan/sum that touches them.  This cache memoizes decoded
row-group values keyed by ``(file, rowgroup_index)`` under a byte
budget, evicting least-recently-used entries, so a warm server pays
decompression once per resident row-group instead of once per request.

The cache is deliberately storage-agnostic: :meth:`get_or_load` takes a
loader callable, so the same instance backs the server's request
handlers *and* the local query engine
(``FileColumnSource(cache=...)`` / ``TableColumnReader`` scans accept a
cache).  Entries are marked read-only before insertion — every consumer
sees the same array, so a writable view would let one request corrupt
another's results.

Thread-safety: bookkeeping (map, LRU order, counters) is lock-protected;
the *loader runs outside the lock*, so concurrent misses on different
keys decode in parallel.  Two threads missing the same key concurrently
may both run the loader — the first insertion wins, both get correct
values, and the duplicate work is counted as a second miss (this is a
cache, not a deduplicator).

Counters are mirrored into :mod:`repro.obs` when enabled
(``cache.hits`` / ``cache.misses`` / ``cache.evictions``, gauge
``cache.bytes``) and always available locally via :meth:`stats`.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Hashable

import numpy as np

from repro import obs
from repro.concurrency import create_lock

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for typing only
    from repro.server.bufferpool import BufferPool

#: Cache keys: ``(file path, row-group index)`` for column files; any
#: hashable works (the cache never interprets the key).
CacheKey = Hashable


@dataclass(frozen=True)
class CacheStats:
    """A point-in-time snapshot of the cache counters."""

    hits: int
    misses: int
    evictions: int
    entries: int
    bytes_used: int
    byte_budget: int

    @property
    def hit_rate(self) -> float:
        """Hits over lookups (0.0 when nothing was looked up)."""
        lookups = self.hits + self.misses
        return self.hits / lookups if lookups else 0.0

    def as_dict(self) -> dict[str, object]:
        return {
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
            "entries": self.entries,
            "bytes_used": self.bytes_used,
            "byte_budget": self.byte_budget,
            "hit_rate": self.hit_rate,
        }


class DecodedVectorCache:
    """Byte-budgeted, thread-safe LRU over decoded float64 row-groups.

    ``pool``, when given, is a :class:`~repro.server.bufferpool.BufferPool`
    that :meth:`load_into` draws fill targets from — decode-into-buffer
    cache fills instead of fresh allocations.  Inserted targets are
    *transferred* to the cache (made read-only, never recycled), so a
    pool-fed cache is safe to share with in-flight responses.
    """

    def __init__(
        self,
        byte_budget: int = 256 * 1024 * 1024,
        pool: "BufferPool | None" = None,
    ) -> None:
        if byte_budget < 0:
            raise ValueError(f"byte_budget must be >= 0, got {byte_budget}")
        self._budget = byte_budget
        self._pool = pool
        self._lock = create_lock("DecodedVectorCache._lock")
        self._entries: OrderedDict[CacheKey, np.ndarray] = OrderedDict()
        self._bytes = 0
        self._hits = 0
        self._misses = 0
        self._evictions = 0

    @property
    def byte_budget(self) -> int:
        """The configured budget in bytes."""
        return self._budget

    def get(self, key: CacheKey) -> np.ndarray | None:
        """The cached values for ``key`` (refreshing LRU), or ``None``."""
        with self._lock:
            values = self._entries.get(key)
            if values is None:
                self._misses += 1
                obs.counter_add("cache.misses")
                return None
            self._entries.move_to_end(key)
            self._hits += 1
            obs.counter_add("cache.hits")
            return values

    def put(self, key: CacheKey, values: np.ndarray) -> np.ndarray:
        """Insert ``values`` under ``key``; returns the resident array.

        The array is made read-only (consumers share it).  Values larger
        than the whole budget are returned uncached.  When the key is
        already present the resident entry wins — concurrent loaders of
        the same key converge on one array.
        """
        values = np.ascontiguousarray(values, dtype=np.float64)
        values.setflags(write=False)
        size = int(values.nbytes)
        if size > self._budget:
            return values
        with self._lock:
            existing = self._entries.get(key)
            if existing is not None:
                self._entries.move_to_end(key)
                return existing
            self._entries[key] = values
            self._bytes += size
            while self._bytes > self._budget and self._entries:
                _, evicted = self._entries.popitem(last=False)
                self._bytes -= int(evicted.nbytes)
                self._evictions += 1
                obs.counter_add("cache.evictions")
            obs.gauge_set("cache.bytes", self._bytes)
            return values

    def get_or_load(
        self, key: CacheKey, loader: Callable[[], np.ndarray]
    ) -> np.ndarray:
        """Return the cached values or run ``loader`` and cache its result.

        The loader executes outside the lock; exceptions propagate
        uncached (a corrupt row-group must not poison the cache).
        """
        values = self.get(key)
        if values is not None:
            return values
        return self.put(key, loader())

    def load_into(
        self,
        key: CacheKey,
        count: int,
        fill: Callable[[np.ndarray], None],
    ) -> np.ndarray:
        """Like :meth:`get_or_load`, with a decode-into-buffer fill.

        On a miss, a float64 target of ``count`` values is drawn from
        the attached pool (or freshly allocated without one), ``fill``
        decodes into it in place, and the filled buffer is inserted.
        A buffer that becomes the resident entry is *transferred* to
        the cache; one that loses an insertion race (or exceeds the
        cache budget) goes back to the pool.  ``fill`` runs outside
        the lock; its exceptions propagate uncached, returning the
        buffer to the pool.
        """
        values = self.get(key)
        if values is not None:
            return values
        pool = self._pool
        if pool is None:
            buffer = np.empty(count, dtype=np.float64)
            fill(buffer)
            return self.put(key, buffer)
        buffer = pool.acquire(count)
        try:
            fill(buffer)
            resident = self.put(key, buffer)
        except BaseException:
            # put() may have already frozen the buffer; it must go back
            # writable or the next decode-into fails.  The nested
            # finally keeps the release on every path — RL9 checks this
            # shape statically.
            try:
                buffer.setflags(write=True)
            finally:
                pool.release(buffer)
            raise
        if resident is buffer:
            # The cache (or, for over-budget arrays, the caller) now
            # owns the buffer; it is read-only and must never be handed
            # out as a decode target again.
            pool.transfer(buffer)
        else:
            try:
                buffer.setflags(write=True)
            finally:
                pool.release(buffer)
        return resident

    def invalidate(self, key: CacheKey) -> bool:
        """Drop one entry; returns whether it was present."""
        with self._lock:
            values = self._entries.pop(key, None)
            if values is None:
                return False
            self._bytes -= int(values.nbytes)
            obs.gauge_set("cache.bytes", self._bytes)
            return True

    def clear(self) -> None:
        """Drop every entry (counters are kept)."""
        with self._lock:
            self._entries.clear()
            self._bytes = 0
            obs.gauge_set("cache.bytes", 0)

    def stats(self) -> CacheStats:
        """A consistent snapshot of the counters."""
        with self._lock:
            return CacheStats(
                hits=self._hits,
                misses=self._misses,
                evictions=self._evictions,
                entries=len(self._entries),
                bytes_used=self._bytes,
                byte_budget=self._budget,
            )
