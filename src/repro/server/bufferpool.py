"""A size-bucketed pool of reusable float64 decode buffers.

Cache fills need a row-group-sized decode target, and the sizes are
quantized by the column layout.  This pool keeps released buffers on
per-size free lists for the next fill.  Its one user is
:meth:`~repro.server.cache.DecodedVectorCache.load_into`: scans send
the cached row-group arrays themselves and need no target (see
``docs/PERFORMANCE.md``).

Ownership protocol — exactly one of the two per acquire:

- :meth:`release` — the request is done with the buffer; it returns to
  its free list (subject to the byte budget) for the next request.
- :meth:`transfer` — ownership moved somewhere long-lived (the
  :class:`~repro.server.cache.DecodedVectorCache` keeps fill targets
  resident and read-only).  The pool forgets the buffer: recycling an
  array the cache may still be sharing with an in-flight response
  would corrupt that response.

Thread-safety: all bookkeeping is lock-protected; ``acquire`` misses
allocate outside the lock.  Counters mirror into :mod:`repro.obs` when
enabled (``pool.hits`` / ``pool.misses``, gauges ``pool.outstanding`` /
``pool.bytes``) and are always available via :meth:`stats`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro import obs
from repro.concurrency import create_lock

#: Default budget of *idle* bytes kept on free lists (outstanding
#: buffers are the workload's, not the pool's; see docs/PERFORMANCE.md,
#: "pool sizing").
DEFAULT_POOL_BYTES = 64 * 1024 * 1024

#: Free buffers kept per size bucket; more than the worker-pool width
#: can ever have in flight at once buys nothing.
MAX_PER_BUCKET = 32


@dataclass(frozen=True)
class PoolStats:
    """A point-in-time snapshot of the pool counters."""

    hits: int
    misses: int
    outstanding: int
    free_buffers: int
    free_bytes: int
    byte_budget: int

    @property
    def hit_rate(self) -> float:
        """Hits over acquires (0.0 when nothing was acquired)."""
        acquires = self.hits + self.misses
        return self.hits / acquires if acquires else 0.0

    def as_dict(self) -> dict[str, object]:
        return {
            "hits": self.hits,
            "misses": self.misses,
            "outstanding": self.outstanding,
            "free_buffers": self.free_buffers,
            "free_bytes": self.free_bytes,
            "byte_budget": self.byte_budget,
            "hit_rate": self.hit_rate,
        }


class BufferPool:
    """Thread-safe free lists of float64 buffers, bucketed by size."""

    def __init__(self, byte_budget: int = DEFAULT_POOL_BYTES) -> None:
        if byte_budget < 0:
            raise ValueError(f"byte_budget must be >= 0, got {byte_budget}")
        self._budget = byte_budget
        self._lock = create_lock("BufferPool._lock")
        #: value count -> stack of idle buffers of exactly that size.
        self._free: dict[int, list[np.ndarray]] = {}
        self._free_bytes = 0
        self._outstanding = 0
        self._hits = 0
        self._misses = 0

    @property
    def byte_budget(self) -> int:
        """The configured idle-byte budget."""
        return self._budget

    def acquire(self, count: int) -> np.ndarray:
        """A writable C-contiguous float64 array of exactly ``count``.

        Contents are unspecified (recycled buffers hold stale values);
        callers decode into the whole buffer before reading it.
        """
        if count < 0:
            raise ValueError(f"count must be >= 0, got {count}")
        with self._lock:
            bucket = self._free.get(count)
            if bucket:
                buf = bucket.pop()
                self._free_bytes -= buf.nbytes
                self._hits += 1
                self._outstanding += 1
                obs.counter_add("pool.hits")
                obs.gauge_set("pool.outstanding", self._outstanding)
                obs.gauge_set("pool.bytes", self._free_bytes)
                return buf
            self._misses += 1
            self._outstanding += 1
            obs.counter_add("pool.misses")
            obs.gauge_set("pool.outstanding", self._outstanding)
        # Allocate outside the lock: np.empty of a large bucket can be
        # slower than every piece of bookkeeping above combined.
        return np.empty(count, dtype=np.float64)

    def release(self, buffer: np.ndarray) -> None:
        """Return an acquired buffer to its free list for reuse.

        Only call when nothing else can still be reading the buffer —
        the next ``acquire`` will scribble over it.  Buffers that would
        push idle bytes past the budget (or overfill their bucket) are
        dropped for the garbage collector instead.
        """
        self._check_returnable(buffer)
        size = int(buffer.nbytes)
        with self._lock:
            self._outstanding = max(0, self._outstanding - 1)
            bucket = self._free.setdefault(buffer.size, [])
            if (
                self._free_bytes + size <= self._budget
                and len(bucket) < MAX_PER_BUCKET
            ):
                bucket.append(buffer)
                self._free_bytes += size
            obs.gauge_set("pool.outstanding", self._outstanding)
            obs.gauge_set("pool.bytes", self._free_bytes)

    def transfer(self, buffer: np.ndarray) -> None:
        """Forget an acquired buffer whose ownership moved elsewhere.

        Used when a fill target becomes a long-lived, shared resident
        (e.g. a ``DecodedVectorCache`` entry): the buffer must never be
        recycled, but the outstanding gauge should stop counting it as
        in-flight request state.
        """
        with self._lock:
            self._outstanding = max(0, self._outstanding - 1)
            obs.gauge_set("pool.outstanding", self._outstanding)

    def _check_returnable(self, buffer: np.ndarray) -> None:
        if (
            not isinstance(buffer, np.ndarray)
            or buffer.dtype != np.float64
            or buffer.ndim != 1
            or not buffer.flags.c_contiguous
            or not buffer.flags.writeable
            or buffer.base is not None
        ):
            raise ValueError(
                "release() takes a buffer the pool could hand out again: "
                "a writable, C-contiguous, base-owning 1-D float64 array"
            )

    def clear(self) -> None:
        """Drop every idle buffer (counters are kept)."""
        with self._lock:
            self._free.clear()
            self._free_bytes = 0
            obs.gauge_set("pool.bytes", 0)

    def stats(self) -> PoolStats:
        """A consistent snapshot of the counters."""
        with self._lock:
            return PoolStats(
                hits=self._hits,
                misses=self._misses,
                outstanding=self._outstanding,
                free_buffers=sum(len(b) for b in self._free.values()),
                free_bytes=self._free_bytes,
                byte_budget=self._budget,
            )
