"""Measurement utilities shared by all benchmark modules.

Speed is reported in values per second and, as a cross-reference to the
paper's metric, in a *tuples-per-cycle proxy*: values/second divided by
a nominal 3.5 GHz (the paper's Ice Lake clock).  Absolute numbers are
not comparable between CPython and the paper's C++ — the benches compare
*relative* speeds, which is what the paper's claims are about
(DESIGN.md, substitution 3).

Beyond the original best-of-N timing helpers, the harness builds
**structured** results: :func:`bench_codec_structured` measures one
(dataset, codec) pair — ratio, MB/s, machine-relative throughput against
a same-process :func:`calibration_mbps` baseline, and the per-stage
:mod:`repro.obs` span/counter snapshot of one instrumented run — as a
:class:`repro.bench.records.BenchRecord`.  :func:`run_structured_bench`
sweeps a dataset x codec grid and emits a ``BENCH_*.json`` document
(see :mod:`repro.bench.records`), which is what the CI regression gate
(:mod:`repro.bench.gate`) consumes.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable

import numpy as np

from repro.baselines.registry import get_codec
from repro.bench.records import BenchRecord, write_bench_json
from repro.core.constants import VECTOR_SIZE
from repro.data import get_dataset

if TYPE_CHECKING:
    from repro.core.alp import AlpVector

#: Nominal clock used for the tuples-per-cycle proxy (paper's Ice Lake).
NOMINAL_GHZ = 3.5

#: An allocation below this is "small" for memory accounting: decode
#: scratch, headers, Python object churn.  At or above it, an
#: allocation is the kind the zero-copy read path exists to eliminate
#: (payload copies, fresh decode targets) — one 64 KiB block is eight
#: 1024-value float64 vectors.
LARGE_ALLOC_BYTES = 1 << 16


def peak_rss_bytes() -> int:
    """The process's high-water resident set size, in bytes.

    ``ru_maxrss`` is kilobytes on Linux (bytes on macOS, where this
    over-reports 1024x — acceptable for a trajectory metric that is
    only ever compared against same-platform baselines).
    """
    import resource

    # KiB -> bytes (not the vector size).  # reprolint: ignore[RL4]
    return int(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss) * 1024


def traced_large_allocs(
    fn: "Callable[[], object]",
    iterations: int = 3,
    threshold: int = LARGE_ALLOC_BYTES,
) -> int:
    """Large-allocation-equivalents of one ``fn()`` call, via tracemalloc.

    tracemalloc snapshots only see *live* blocks, so a transient copy
    (allocated and freed inside the call) would be invisible to a
    before/after diff.  The traced *peak* does see it: after a warm-up
    call, each iteration resets the peak, runs ``fn`` and divides the
    peak growth over the pre-call footprint by ``threshold``.  The
    worst iteration is returned — ``0`` means no code path in ``fn``
    ever held ``threshold`` bytes of fresh allocation at once, the
    steady-state property the serving buffer pool is for.
    """
    import tracemalloc

    was_tracing = tracemalloc.is_tracing()
    if not was_tracing:
        tracemalloc.start()
    try:
        fn()  # warm-up: lazy imports, caches, pool buckets
        worst = 0
        for _ in range(iterations):
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
            fn()
            peak = tracemalloc.get_traced_memory()[1]
            worst = max(worst, int(max(0, peak - base) // threshold))
        return worst
    finally:
        if not was_tracing:
            tracemalloc.stop()


def bench_n(default: int = 60_000) -> int:
    """Values per dataset for table sweeps (override: REPRO_BENCH_N)."""
    return int(os.environ.get("REPRO_BENCH_N", default))


def measure_ratio(
    codec_name: str, values: np.ndarray, verify: bool = True
) -> float:
    """Compressed bits per value for a codec on a column."""
    codec = get_codec(codec_name)
    if verify:
        return codec.roundtrip_bits_per_value(values)
    encoded = codec.compress(values)
    return encoded.size_bits() / max(values.size, 1)


@dataclass(frozen=True)
class SpeedResult:
    """One timing measurement."""

    values_per_second: float
    seconds: float
    count: int

    @property
    def tuples_per_cycle_proxy(self) -> float:
        """values/sec normalized by the nominal clock."""
        return self.values_per_second / (NOMINAL_GHZ * 1e9)


def time_callable(
    fn: Callable[[], object],
    value_count: int,
    repeats: int = 5,
    warmup: int = 1,
    stat: str = "best",
) -> SpeedResult:
    """Wall-clock timing of a zero-arg callable over N runs.

    ``stat="best"`` (the default) follows the micro-benchmark practice
    of measuring the code, not the scheduler.  ``stat="median"`` is
    what the structured bench records and the CI regression gate use:
    best-of occasionally catches a run inside an unpreempted boost
    quantum that later runs can never reproduce, and a gate built on
    such lucky samples flakes; the median is robust to outliers in
    both directions.
    """
    if stat not in ("best", "median"):
        raise ValueError(f"stat must be 'best' or 'median', got {stat!r}")
    for _ in range(warmup):
        fn()
    samples = []
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        samples.append(time.perf_counter() - start)
    samples.sort()
    if stat == "best":
        seconds = samples[0]
    else:
        mid = len(samples) // 2
        if len(samples) % 2:
            seconds = samples[mid]
        else:
            seconds = (samples[mid - 1] + samples[mid]) / 2
    seconds = max(seconds, 1e-12)
    return SpeedResult(
        values_per_second=value_count / seconds,
        seconds=seconds,
        count=value_count,
    )


def tuples_per_cycle(result: SpeedResult) -> float:
    """Convenience accessor for the proxy metric."""
    return result.tuples_per_cycle_proxy


def codec_speed_on_vector(
    codec_name: str,
    values: np.ndarray,
    repeats: int = 5,
) -> tuple[SpeedResult, SpeedResult]:
    """(compression, decompression) speed of a codec on one array.

    Mirrors the paper's §4.2 micro-benchmark: repeatedly [de]compress an
    L1-resident vector and take the best run.
    """
    codec = get_codec(codec_name)
    compress_speed = time_callable(
        lambda: codec.compress(values), values.size, repeats=repeats
    )
    encoded = codec.compress(values)
    decompress_speed = time_callable(
        lambda: codec.decompress(encoded), values.size, repeats=repeats
    )
    return compress_speed, decompress_speed


def dataset_vector(name: str, vector_size: int = VECTOR_SIZE) -> np.ndarray:
    """One vector of a dataset (the micro-benchmark unit)."""
    return get_dataset(name, n=vector_size)


def alp_vector_speed(
    values: np.ndarray, repeats: int = 5, calls: int = 1, stat: str = "best"
) -> tuple[SpeedResult, SpeedResult]:
    """ALP micro-benchmark speeds under the paper's protocol (§4.2).

    The paper's micro-benchmark repeatedly encodes one L1-resident vector
    and explicitly notes that "the first sampling phase ... was not
    present in the micro-benchmarks": row-group-level sampling is paid
    once per 100 vectors in real compression, so the per-vector cost is
    second-level sampling + encode (+ FFOR), and decode is UNFFOR +
    ALP_dec + patch.

    One timed unit runs the vector ``calls`` times and ``stat`` is taken
    over ``repeats`` units (see :func:`time_callable`).  The defaults,
    one call best-of, are the paper tables' protocol; a gated record
    uses longer units and the median, which one ~50 us call cannot give
    steadily.
    """
    from repro.core.alp import alp_decode_vector, alp_encode_vector
    from repro.core.sampler import first_level_sample, second_level_sample

    values = np.ascontiguousarray(values, dtype=np.float64)
    candidates = first_level_sample(values).candidates

    def compress_once() -> "AlpVector":
        combo = second_level_sample(values, candidates).combination
        return alp_encode_vector(values, combo.exponent, combo.factor)

    def compress_unit() -> None:
        for _ in range(calls):
            compress_once()

    count = values.size * calls
    compress_speed = time_callable(
        compress_unit, count, repeats=repeats, stat=stat
    )
    encoded = compress_once()

    def decompress_unit() -> None:
        for _ in range(calls):
            alp_decode_vector(encoded)

    decompress_speed = time_callable(
        decompress_unit, count, repeats=repeats, stat=stat
    )
    return compress_speed, decompress_speed


# ---------------------------------------------------------------------------
# Structured records (BENCH_*.json)
# ---------------------------------------------------------------------------


def calibration_mbps(
    values: np.ndarray | None = None,
    repeats: int = 5,
    vector_size: int = VECTOR_SIZE,
) -> float:
    """Throughput of a codec-shaped reference workload, in MB/s.

    Measured in the same process as the codec timings, this anchors the
    machine-relative ``*_rel`` throughput fields of the bench records:
    the regression gate compares codec speed *relative to this number*,
    so a slower CI runner does not read as a codec regression.

    The workload deliberately mirrors the codecs' bottleneck profile —
    a Python loop dispatching small numpy kernels per 1024-value vector
    (scale, round, int cast, compare) — rather than one big memcpy.  A
    memory-bound ``ndarray.copy()`` does *not* co-vary with the
    interpreter-bound codec throughput when the machine slows down
    (frequency scaling, noisy neighbours), which made the gate's
    relative numbers drift; per-vector dispatch work does.  The default
    array is sized so one pass takes a few milliseconds — the same
    order as one codec run — because sub-millisecond workloads can slip
    through a scheduler quantum unpreempted and report throughput the
    longer codec runs can never reach.
    """
    if values is None:
        values = np.arange(262_144, dtype=np.float64)
    values = np.ascontiguousarray(values, dtype=np.float64)

    def work() -> int:
        exceptions = 0
        for start in range(0, values.size, vector_size):
            chunk = values[start : start + vector_size]
            encoded = np.rint(chunk * 100.0).astype(np.int64)
            decoded = encoded.astype(np.float64) * 0.01
            exceptions += int((decoded != chunk).sum())
        return exceptions

    result = time_callable(work, values.size, repeats=repeats, stat="median")
    return values.nbytes / result.seconds / 1e6


def bench_codec_structured(
    codec_name: str,
    dataset: str,
    values: np.ndarray,
    calibration: float | None = None,
    repeats: int = 3,
) -> BenchRecord:
    """Measure one (dataset, codec) pair into a :class:`BenchRecord`.

    Three passes: a verified round-trip for the ratio, best-of-N wall
    clock for MB/s, and one run with :mod:`repro.obs` enabled for the
    per-stage span/counter breakdown.  The obs pass is separate so the
    instrumentation overhead never pollutes the timing numbers.

    When ``calibration`` is ``None`` (the default), the calibration is
    measured *here*, immediately before and after the codec timings,
    and the mean of the two anchors this record's ``*_rel`` fields.
    Sandwiching matters: machine speed drifts over the seconds a full
    sweep takes, and a single process-start calibration lets that drift
    masquerade as a codec regression.
    """
    from repro import obs

    codec = get_codec(codec_name)
    values = np.ascontiguousarray(values, dtype=np.float64)
    cal_before = calibration_mbps(repeats=repeats) if calibration is None else 0.0
    bits_per_value = codec.roundtrip_bits_per_value(values)

    compress_speed = time_callable(
        lambda: codec.compress(values),
        values.size,
        repeats=repeats,
        stat="median",
    )
    encoded = codec.compress(values)
    decompress_speed = time_callable(
        lambda: codec.decompress(encoded),
        values.size,
        repeats=repeats,
        stat="median",
    )
    compress_mbps = values.nbytes / compress_speed.seconds / 1e6
    decompress_mbps = values.nbytes / decompress_speed.seconds / 1e6
    if calibration is None:
        calibration = (cal_before + calibration_mbps(repeats=repeats)) / 2

    was_enabled = obs.enabled()
    obs.enable()
    obs.reset()
    try:
        codec.decompress(codec.compress(values))
        breakdown = obs.snapshot()
    finally:
        if not was_enabled:
            obs.disable()
        obs.reset()

    # Memory accounting, after the timing passes so tracemalloc's
    # interpreter hooks never slow a measured iteration.
    large_allocs = traced_large_allocs(lambda: codec.decompress(encoded))

    return BenchRecord(
        dataset=dataset,
        codec=codec_name,
        n=int(values.size),
        bits_per_value=bits_per_value,
        compression_ratio=64.0 / bits_per_value if bits_per_value else 0.0,
        compress_mbps=compress_mbps,
        decompress_mbps=decompress_mbps,
        compress_rel=compress_mbps / calibration,
        decompress_rel=decompress_mbps / calibration,
        spans=breakdown["spans"],
        counters=breakdown["counters"],
        peak_rss_bytes=peak_rss_bytes(),
        large_allocs=large_allocs,
    )


def run_structured_bench(
    datasets: list[str],
    codecs: list[str],
    n: int,
    repeats: int = 3,
    out_path: str | os.PathLike | None = None,
    include_kernels: bool = False,
) -> tuple[dict, list[BenchRecord]]:
    """Sweep a dataset x codec grid into bench records (and optional JSON).

    Returns ``(document, records)``; when ``out_path`` is given the
    document is also written as a ``BENCH_*.json`` file.
    ``include_kernels`` appends the kernel micro-benchmark records
    (:func:`repro.bench.kernels.kernel_bench_records`) to the document,
    under their ``kernels/*`` pseudo-dataset keys.

    The document-level ``calibration_mbps`` is informational (one
    process-start measurement); each record's ``*_rel`` fields use
    their own sandwiched calibration (see
    :func:`bench_codec_structured`).
    """
    calibration = calibration_mbps()
    records = []
    for dataset in datasets:
        values = get_dataset(dataset, n=n)
        for codec_name in codecs:
            records.append(
                bench_codec_structured(
                    codec_name,
                    dataset,
                    values,
                    repeats=repeats,
                )
            )
    if include_kernels:
        from repro.bench.kernels import kernel_bench_records

        records.extend(kernel_bench_records(repeats=repeats))
    config = {
        "n": n,
        "repeats": repeats,
        "datasets": list(datasets),
        "codecs": list(codecs),
        "kernels": include_kernels,
    }
    if out_path is not None:
        document = write_bench_json(out_path, records, config, calibration)
    else:
        from repro.bench.records import build_document

        document = build_document(records, config, calibration)
    return document, records
