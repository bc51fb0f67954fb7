"""Closed-loop load generator for a running repro server.

``alp-repro loadgen`` drives N concurrent worker threads, each with its
own :class:`~repro.server.client.ServerClient`, in a *closed loop*: a
worker issues its next request the moment the previous response lands,
so offered load tracks server capacity instead of piling an open-loop
backlog onto the admission queue.

Each worker cycles through an op mix (``scan``/``sum``/``comp`` by
default) against the datasets the server advertises.  Per-request
latency is recorded; the run reports p50/p95/p99/max, throughput
(requests/s and decoded values/s), and the per-code error tally —
``overloaded`` responses count as *backpressure*, not failures, because
an explicit rejection is the protocol working as designed.

Results can be persisted as a schema-valid ``BENCH_*.json`` document
(see :mod:`repro.bench.records`): served scan throughput maps into the
required MB/s fields and the latency percentiles travel in the
free-form ``counters`` dict of the single record.
"""

from __future__ import annotations

import bisect
import itertools
import random
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

from repro.bench.records import BenchRecord, write_bench_json
from repro.concurrency import create_lock
from repro.server.client import ServerClient, ServerError

#: Default operation mix, cycled per worker request.
DEFAULT_OPS = ("scan", "sum", "sum", "scan")


@dataclass
class LoadgenResult:
    """What one loadgen run measured."""

    requests: int = 0
    errors: dict[str, int] = field(default_factory=dict)
    overloaded: int = 0
    values_scanned: int = 0
    elapsed_s: float = 0.0
    latencies_s: list[float] = field(default_factory=list)
    #: Client-process memory accounting (see the trace pass in
    #: :func:`run_loadgen`): ``None`` when not measured.
    peak_rss_bytes: int | None = None
    large_allocs: int | None = None

    @property
    def error_count(self) -> int:
        """Total non-backpressure errors."""
        return sum(self.errors.values())

    def percentile(self, q: float) -> float:
        """Latency percentile (seconds) by nearest-rank; 0.0 if empty."""
        if not self.latencies_s:
            return 0.0
        ordered = sorted(self.latencies_s)
        rank = min(len(ordered) - 1, int(q / 100.0 * len(ordered)))
        return ordered[rank]

    def summary(self) -> dict[str, object]:
        """JSON-ready run summary (the CLI prints this)."""
        rps = self.requests / self.elapsed_s if self.elapsed_s else 0.0
        return {
            "requests": self.requests,
            "errors": dict(sorted(self.errors.items())),
            "error_count": self.error_count,
            "overloaded": self.overloaded,
            "values_scanned": self.values_scanned,
            "elapsed_s": self.elapsed_s,
            "requests_per_s": rps,
            "latency_p50_ms": self.percentile(50) * 1e3,
            "latency_p95_ms": self.percentile(95) * 1e3,
            "latency_p99_ms": self.percentile(99) * 1e3,
            "latency_max_ms": (
                max(self.latencies_s) * 1e3 if self.latencies_s else 0.0
            ),
            "peak_rss_bytes": self.peak_rss_bytes,
            "large_allocs": self.large_allocs,
        }


@dataclass(frozen=True)
class LoadgenConfig:
    """One loadgen run's shape."""

    host: str = "127.0.0.1"
    port: int = 0
    clients: int = 4
    requests_per_client: int = 50
    ops: tuple[str, ...] = DEFAULT_OPS
    deadline_ms: float | None = None
    #: Retry budget for ``overloaded`` rejections, per request.
    overload_retries: int = 0
    retry_sleep_s: float = 0.01
    #: Zipf exponent for target selection: 0.0 (default) keeps the
    #: legacy round-robin trace; ``s > 0`` draws each request's target
    #: with probability ∝ 1/rank^s (rank = discovery order), so a few
    #: hot keys dominate — the cache-friendly skew real serving sees,
    #: and what makes warm-cache-aware shard routing measurable.
    zipf_s: float = 0.0
    #: Seed for the zipfian draw (per-worker streams derive from it),
    #: so a trace is reproducible across runs and machines.
    seed: int = 0

    def __post_init__(self) -> None:
        if self.clients < 1:
            raise ValueError(f"clients must be >= 1, got {self.clients}")
        if self.requests_per_client < 1:
            raise ValueError(
                "requests_per_client must be >= 1, "
                f"got {self.requests_per_client}"
            )
        bad = set(self.ops) - {"scan", "sum", "comp"}
        if bad:
            raise ValueError(f"unsupported loadgen ops: {sorted(bad)}")
        if self.zipf_s < 0:
            raise ValueError(f"zipf_s must be >= 0, got {self.zipf_s}")


def _zipf_picker(
    config: LoadgenConfig, worker_index: int, n_targets: int
) -> "Callable[[int], int] | None":
    """A per-worker target picker under zipfian skew, or ``None``.

    Each worker gets its own ``random.Random`` stream derived from the
    run seed, so a multi-worker trace is reproducible yet workers do
    not march in lockstep over the same hot key.
    """
    if config.zipf_s == 0.0 or n_targets <= 1:
        return None
    rng = random.Random(config.seed * 1000 + worker_index)
    weights = [1.0 / (rank**config.zipf_s) for rank in range(1, n_targets + 1)]
    cumulative = list(itertools.accumulate(weights))
    total = cumulative[-1]

    def pick(_request_index: int) -> int:
        return bisect.bisect(cumulative, rng.random() * total)

    return pick


def _issue(
    client: ServerClient, op: str, dataset: str, column: str | None
) -> int:
    """One request; returns the number of values it touched server-side."""
    if op == "scan":
        values, _ = client.scan(dataset, column)
        return int(values.size)
    if op == "sum":
        _, fields = client.sum(dataset, column)
        return int(fields.get("count", 0))  # type: ignore[arg-type]
    response = client.comp(dataset, column)
    return int(response.get("count", 0))  # type: ignore[arg-type]


def _worker(
    config: LoadgenConfig,
    targets: list[tuple[str, str | None]],
    worker_index: int,
    result: LoadgenResult,
    lock: threading.Lock,
) -> None:
    pick = _zipf_picker(config, worker_index, len(targets))
    with ServerClient(
        config.host, config.port, deadline_ms=config.deadline_ms
    ) as client:
        for i in range(config.requests_per_client):
            op = config.ops[(worker_index + i) % len(config.ops)]
            target_index = (
                pick(i) if pick else (worker_index + i) % len(targets)
            )
            dataset, column = targets[target_index]
            start = time.perf_counter()
            scanned = 0
            error_code: str | None = None
            retries_left = config.overload_retries
            while True:
                try:
                    scanned = _issue(client, op, dataset, column)
                except ServerError as exc:
                    if exc.is_overloaded:
                        with lock:
                            result.overloaded += 1
                        if retries_left > 0:
                            retries_left -= 1
                            time.sleep(config.retry_sleep_s)
                            continue
                    error_code = exc.code
                break
            elapsed = time.perf_counter() - start
            with lock:
                result.requests += 1
                result.latencies_s.append(elapsed)
                result.values_scanned += scanned
                if error_code is not None:
                    result.errors[error_code] = (
                        result.errors.get(error_code, 0) + 1
                    )


def discover_targets(
    config: LoadgenConfig,
) -> list[tuple[str, str | None]]:
    """Ask the server which (dataset, column) pairs it serves."""
    with ServerClient(config.host, config.port) as client:
        described = client.datasets()
    targets: list[tuple[str, str | None]] = []
    for dataset, columns in described.items():
        # The `datasets` op body maps dataset -> {column: metadata}.
        if isinstance(columns, dict) and columns:
            targets.extend((dataset, str(column)) for column in columns)
        else:
            targets.append((dataset, None))
    if not targets:
        raise RuntimeError("server advertises no datasets to load-test")
    return targets


def run_loadgen(
    config: LoadgenConfig,
    targets: list[tuple[str, str | None]] | None = None,
) -> LoadgenResult:
    """Run the closed loop; returns the aggregated result."""
    if targets is None:
        targets = discover_targets(config)
    result = LoadgenResult()
    lock = create_lock("run_loadgen.result_lock")
    threads = [
        threading.Thread(
            target=_worker,
            args=(config, targets, index, result, lock),
            name=f"loadgen-{index}",
        )
        for index in range(config.clients)
    ]
    start = time.perf_counter()
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    result.elapsed_s = time.perf_counter() - start

    # Memory accounting rides after the timed run, so tracemalloc's
    # interpreter hooks never inflate a measured latency.  The traced
    # pass replays one request of each op against the first target and
    # keeps the worst per-request large-allocation count — the
    # client-side copy trajectory (receive buffers, decoded responses).
    from repro.bench.harness import peak_rss_bytes, traced_large_allocs

    result.peak_rss_bytes = peak_rss_bytes()
    dataset, column = targets[0]
    with ServerClient(
        config.host, config.port, deadline_ms=config.deadline_ms
    ) as client:
        result.large_allocs = max(
            traced_large_allocs(lambda: _issue(client, op, dataset, column))
            for op in dict.fromkeys(config.ops)
        )
    return result


def write_loadgen_json(
    path: str | Path,
    config: LoadgenConfig,
    result: LoadgenResult,
    record_name: str = "loadgen",
) -> dict:
    """Persist a run as a schema-valid ``BENCH_*.json`` document.

    The bench schema is (dataset, codec)-shaped; a serving run maps onto
    it as one record: decoded-scan throughput fills the MB/s fields
    (8 bytes per served float64 value), the compression-shape fields are
    0.0 (allowed by the schema, meaning "not measured here"), and the
    latency percentiles ride in the free-form ``counters`` dict.

    ``decompress_rel`` is served MB/s divided by the same-process
    :func:`~repro.bench.harness.calibration_mbps` reference — the
    machine-relative number the regression gate actually compares, so a
    routed-serving baseline checked into the repo holds across CI
    runners of different speeds.

    ``record_name`` distinguishes single-node (``loadgen``) from routed
    (e.g. ``shard_loadgen``) runs — gate comparisons key on it.
    """
    from repro.bench.harness import calibration_mbps

    summary = result.summary()
    served_mbps = (
        result.values_scanned * 8 / 1e6 / result.elapsed_s
        if result.elapsed_s
        else 0.0
    )
    calibration = calibration_mbps()
    record = BenchRecord(
        dataset="served",
        codec=record_name,
        n=max(result.requests, 1),
        bits_per_value=0.0,
        compression_ratio=0.0,
        compress_mbps=0.0,
        decompress_mbps=served_mbps,
        compress_rel=0.0,
        decompress_rel=served_mbps / calibration if calibration else 0.0,
        spans={},
        counters=summary,
        peak_rss_bytes=result.peak_rss_bytes,
        large_allocs=result.large_allocs,
    )
    return write_bench_json(
        path,
        [record],
        config={
            "mode": record_name,
            "clients": config.clients,
            "requests_per_client": config.requests_per_client,
            "ops": list(config.ops),
            "deadline_ms": config.deadline_ms,
            "zipf_s": config.zipf_s,
            "seed": config.seed,
        },
        calibration_mbps=calibration,
    )
