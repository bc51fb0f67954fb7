"""Lightweight observability: counters, gauges and timer spans.

The ALP pipeline is instrumented at every stage boundary (sampling,
scheme selection, encode/decode, bit-packing, storage I/O, query
operators) with three primitive kinds:

- **counters** — monotonically increasing event/byte tallies,
- **gauges** — last-written values (e.g. bits/value of the last column),
- **spans** — context-manager wall-clock timers that nest: entering a
  span inside another records under the path ``outer/inner``, so one
  snapshot shows where the time inside ``compressor.compress`` went.

Metrics are **disabled by default** and the disabled fast path is a
single module-global flag test per call site (no allocation, no locking,
no string formatting), measured at well under 1% of the tier-1 suite
runtime.  Enable with :func:`enable`, the ``REPRO_OBS=1`` environment
variable, or the ``alp-repro stats`` CLI subcommand.

All state lives in the module-level :data:`metrics` registry;
:meth:`MetricsRegistry.snapshot` exports it as a JSON-ready dict (the
same shape embedded in the ``BENCH_*.json`` benchmark records — see
``docs/OBSERVABILITY.md``).

Thread-safety: counter/gauge/span aggregation is lock-protected, and the
span nesting stack is thread-local, so server workers and
partitioned query scans record correctly (their spans nest under the
worker thread's own stack, not the spawning thread's).
"""

from __future__ import annotations

import json
import os
import threading
import time
from dataclasses import dataclass, field
from types import TracebackType

from repro.concurrency import create_lock

__all__ = [
    "MetricsRegistry",
    "SpanStat",
    "counter_add",
    "disable",
    "enable",
    "enabled",
    "gauge_set",
    "metrics",
    "reset",
    "snapshot",
    "snapshot_json",
    "span",
]

#: Global on/off switch.  Call sites test this one module global before
#: doing any metric work; it is mutated only by :func:`enable` /
#: :func:`disable`.  Read it via :func:`enabled` from application code.
ENABLED = False


class _NullSpan:
    """Shared no-op context manager returned while metrics are disabled."""

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(
        self,
        exc_type: type[BaseException] | None,
        exc: BaseException | None,
        tb: TracebackType | None,
    ) -> bool:
        return False


_NULL_SPAN = _NullSpan()


@dataclass
class SpanStat:
    """Aggregate timing of one span path: count, total, min, max."""

    count: int = 0
    total_s: float = 0.0
    min_s: float = field(default=float("inf"))
    max_s: float = 0.0

    def record(self, elapsed: float) -> None:
        self.count += 1
        self.total_s += elapsed
        if elapsed < self.min_s:
            self.min_s = elapsed
        if elapsed > self.max_s:
            self.max_s = elapsed

    def as_dict(self) -> dict[str, float]:
        mean = self.total_s / self.count if self.count else 0.0
        return {
            "count": self.count,
            "total_s": self.total_s,
            "mean_s": mean,
            "min_s": self.min_s if self.count else 0.0,
            "max_s": self.max_s,
        }


class _Span:
    """A live timer span; use via ``with registry.span(name):``."""

    __slots__ = ("_registry", "_name", "_path", "_start")

    def __init__(self, registry: "MetricsRegistry", name: str) -> None:
        self._registry = registry
        self._name = name

    def __enter__(self) -> "_Span":
        self._path = self._registry._push(self._name)
        self._start = time.perf_counter()
        return self

    def __exit__(
        self,
        exc_type: type[BaseException] | None,
        exc: BaseException | None,
        tb: TracebackType | None,
    ) -> bool:
        elapsed = time.perf_counter() - self._start
        self._registry._pop(self._path, elapsed)
        return False


class MetricsRegistry:
    """Holds all counters, gauges and span aggregates.

    The module-level :data:`metrics` instance is the one the pipeline
    writes to; independent registries can be created for tests.
    """

    def __init__(self) -> None:
        self._lock = create_lock("MetricsRegistry._lock")
        self._local = threading.local()
        self._counters: dict[str, float] = {}
        self._gauges: dict[str, float] = {}
        self._spans: dict[str, SpanStat] = {}

    # -- recording ----------------------------------------------------

    def counter_add(self, name: str, value: float = 1) -> None:
        """Add ``value`` to counter ``name`` (creating it at zero)."""
        with self._lock:
            self._counters[name] = self._counters.get(name, 0) + value

    def gauge_set(self, name: str, value: float) -> None:
        """Set gauge ``name`` to ``value`` (last write wins)."""
        with self._lock:
            self._gauges[name] = value

    def span(self, name: str) -> _Span:
        """A context manager timing one stage; nests via the name stack."""
        return _Span(self, name)

    # -- span nesting internals (thread-local stack) ------------------

    def _stack(self) -> list[str]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = []
            self._local.stack = stack
        return stack

    def _push(self, name: str) -> str:
        stack = self._stack()
        path = f"{stack[-1]}/{name}" if stack else name
        stack.append(path)
        return path

    def _pop(self, path: str, elapsed: float) -> None:
        stack = self._stack()
        if stack and stack[-1] == path:
            stack.pop()
        with self._lock:
            stat = self._spans.get(path)
            if stat is None:
                stat = self._spans[path] = SpanStat()
            stat.record(elapsed)

    # -- export -------------------------------------------------------

    def snapshot(self) -> dict[str, object]:
        """JSON-ready view of everything recorded so far."""
        with self._lock:
            return {
                "enabled": ENABLED,
                "counters": dict(sorted(self._counters.items())),
                "gauges": dict(sorted(self._gauges.items())),
                "spans": {
                    path: stat.as_dict()
                    for path, stat in sorted(self._spans.items())
                },
            }

    def snapshot_json(self, indent: int | None = 2) -> str:
        """The snapshot serialized to a JSON string."""
        return json.dumps(self.snapshot(), indent=indent)

    def reset(self) -> None:
        """Drop every recorded value (the enabled flag is untouched)."""
        with self._lock:
            self._counters.clear()
            self._gauges.clear()
            self._spans.clear()


#: The registry every instrumented call site writes to.
metrics = MetricsRegistry()


def enable() -> None:
    """Turn metric recording on (module-wide)."""
    global ENABLED
    ENABLED = True


def disable() -> None:
    """Turn metric recording off; already-recorded values are kept."""
    global ENABLED
    ENABLED = False


def enabled() -> bool:
    """Is metric recording currently on?"""
    return ENABLED


def counter_add(name: str, value: float = 1) -> None:
    """Add to a counter on the global registry (no-op when disabled)."""
    if ENABLED:
        metrics.counter_add(name, value)


def gauge_set(name: str, value: float) -> None:
    """Set a gauge on the global registry (no-op when disabled)."""
    if ENABLED:
        metrics.gauge_set(name, value)


def span(name: str) -> _Span | _NullSpan:
    """Timer span on the global registry; a shared no-op when disabled.

    The disabled path allocates nothing: every call returns the same
    inert context manager.
    """
    if ENABLED:
        return metrics.span(name)
    return _NULL_SPAN


def snapshot() -> dict[str, object]:
    """Snapshot of the global registry."""
    return metrics.snapshot()


def snapshot_json(indent: int | None = 2) -> str:
    """JSON snapshot of the global registry."""
    return metrics.snapshot_json(indent=indent)


def reset() -> None:
    """Clear the global registry."""
    metrics.reset()


if os.environ.get("REPRO_OBS", "") not in ("", "0"):
    enable()
