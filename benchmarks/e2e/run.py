"""End-to-end benchmark of the ALP stack: one command, four workloads.

    python3 benchmarks/e2e/run.py --workload analytics --seed 3 \\
        --seconds 20 --trace 0 [--out R.json] [--trace-out T.json]

Runs from the repository root (``src/`` must hold the ``repro``
package; nothing needs to be installed).  ``--workload all`` (the
default) runs ``ingest``, ``analytics``, ``serve-hot`` and
``serve-cold`` in turn.  Each workload is set up several times (the
median is ``setup_s``), measured for ``--seconds``, checked, and torn
down.

``--trace 0`` reports the end-to-end metrics of ``BENCHMARK.json``;
``--trace 1`` measures half the time untraced and half with the span
wrappers of ``tracing.py`` installed, and reports the per-layer metrics
plus the tracing overhead.  The last line of standard output is one
JSON object: ``{"correct", "attempted", "failed", "metrics"}`` (metric
names get an ``@workload`` suffix when several workloads ran).
``--out`` writes the full result (every metric, set-up samples,
calibration drift, layer bases, environment) for ``compare.py`` and
``trace_report.py``; ``--trace-out`` writes the spans as Chrome
trace-event JSON.  See ``benchmarks/e2e/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import sys
import time
from pathlib import Path

import numpy as np

from metrics import (
    END_TO_END_UNITS,
    LAYER_UNITS,
    Phase,
    end_to_end,
    layer_metrics,
)
from tracing import Spans, Tracer, write_chrome_trace

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SRC = ROOT / "src"

#: Timed-phase length when ``--seconds`` is not given.
DEFAULT_SECONDS = 20.0
#: Relative change of the calibration kernel's time, across a workload,
#: above which ``compare.py`` flags the run as noisy.
DRIFT_LIMIT = 0.05


def _bootstrap() -> None:
    """Import ``repro`` from this checkout's ``src/`` or stop."""
    if not (SRC / "repro" / "__init__.py").is_file():
        sys.exit(f"run.py: no repro package under {SRC}; run from a "
                 f"checkout of the repository")
    sys.path.insert(0, str(SRC))


def calibrate() -> float:
    """Median time of a fixed numpy kernel (the machine's noise guard)."""
    data = np.random.default_rng(12345).random(1 << 20)
    np.sort(data)  # untimed: the first call also faults in fresh pages
    times = []
    for _ in range(5):
        start = time.perf_counter()
        np.sort(data)
        (data * 1.5 + 2.0).cumsum()
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def _git_sha() -> str:
    """HEAD's commit read from ``.git`` (no git process), or "unknown"."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment(seed: int) -> dict[str, object]:
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "platform": platform.platform(),
        "git_sha": _git_sha(),
        "seed": seed,
    }


def _with_units(values: dict[str, float], units: dict[str, str]) -> dict:
    return {
        name: {"value": values[name], "unit": units[name]} for name in units
    }


def run_workload(
    name: str,
    seed: int,
    seconds: float,
    trace: bool,
    smoke: bool,
    workdir: Path,
    corrupt_oracle: bool = False,
) -> tuple[dict, list]:
    """Set up, measure and check one workload.

    Returns the result record and the spans of the traced phase as
    ``(label, spans)`` pairs (empty without ``trace``).
    """
    from workloads import FULL, SMOKE, WORKLOADS

    scale = SMOKE if smoke else FULL
    workload = WORKLOADS[name](seed, scale, workdir, corrupt_oracle)
    before = calibrate()
    setup_seconds = []
    segments = []
    record: dict[str, object] = {}
    spans: list[tuple[str, Spans]] = []
    try:
        # One segment of the untraced phase follows each set-up: the
        # machine's speed drifts over seconds and each server starts on
        # fresh memory, so measuring across every set-up steadies the
        # run's numbers.
        untraced = seconds / 2 if trace else seconds
        for i in range(scale.setups):
            if i:
                workload.teardown()
            start = time.perf_counter()
            workload.setup()
            setup_seconds.append(time.perf_counter() - start)
            if not i:
                workload.prepare()
            segments.append(workload.run(untraced / scale.setups))
        record["metrics"] = _with_units(
            end_to_end(segments, setup_seconds, workload.bits_per_value()),
            END_TO_END_UNITS,
        )
        if trace:
            tracer = Tracer()
            traced = workload.run(seconds / 2, tracer)
            spans = _traced_record(
                record, name, Phase.merged(segments), traced, tracer,
                workload.server_trace,
            )
            segments.append(traced)
    finally:
        workload.teardown()
    after = calibrate()
    attempted = sum(p.attempted for p in segments)
    failed = sum(p.failed for p in segments)
    record.update(
        correct=failed == 0,
        attempted=attempted,
        failed=failed,
        failed_frac=failed / max(attempted, 1),
        samples=sum(p.attempted for p in segments[: scale.setups]),
        setup_s_samples=setup_seconds,
        calibration_s={"before": before, "after": after},
        calibration_drift=after / before - 1.0,
    )
    return record, spans


def _traced_record(
    record: dict,
    name: str,
    base: Phase,
    traced: Phase,
    tracer: Tracer,
    server: dict,
) -> list[tuple[str, Spans]]:
    """Fill ``record`` with the per-layer metrics of a traced phase.

    Spans come from this process (in-process workloads) or from the
    traced server (serve workloads, ``server`` non-empty); the overhead
    compares the traced phase's throughput with the untraced phase of
    the same run.
    """
    if server:
        spans: Spans = server["spans"]
        counts, values = server["counts"], server["values"]
        label = f"server {name}"
    else:
        spans = tracer.spans()
        counts, values = tracer.counts(), tracer.values()
        label = f"benchmark {name}"
    mb_base, ops_base = base.throughput()
    mb_traced, ops_traced = traced.throughput()
    overhead = 1.0 - mb_traced / mb_base if mb_base else 0.0
    record["layers"] = _with_units(
        layer_metrics(traced, spans, counts, values, server, overhead),
        LAYER_UNITS,
    )
    ops = traced.ops
    record["layer_bases"] = {
        "ops": sum(1 for op in ops if op.ok),
        "op_kinds": {
            kind: sum(1 for op in ops if op.kind == kind)
            for kind in {op.kind for op in ops}
        },
        "counts": counts,
        "server_stats": {
            key: server.get(key)
            for key in ("cache_before", "cache_after", "pool_before",
                        "pool_after")
        },
        "spans": spans.by_name(),
    }
    record["overhead"] = {
        "untraced_mb_per_s": mb_base,
        "traced_mb_per_s": mb_traced,
        "untraced_ops_per_s": ops_base,
        "traced_ops_per_s": ops_traced,
        "frac": overhead,
    }
    return [(label, spans)]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description="End-to-end benchmark: ingest, analytics, serve-hot, "
        "serve-cold."
    )
    parser.add_argument("--workload", default="all",
                        help="workload name, or all (default)")
    parser.add_argument("--seed", type=int, default=1,
                        help="seed of every generated input")
    parser.add_argument("--seconds", type=float, default=DEFAULT_SECONDS,
                        help="timed-phase length per workload")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: report per-layer metrics from a traced run")
    parser.add_argument("--out", help="write the full result JSON here")
    parser.add_argument("--trace-out",
                        help="write spans as Chrome trace-event JSON here "
                        "(with --trace 1)")
    parser.add_argument("--smoke", action="store_true",
                        help="~1/20 of the data and one set-up (tests)")
    args = parser.parse_args(argv)
    _bootstrap()
    # A terminated run still unwinds, so the teardown stops the server.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))

    from workloads import workload_names

    try:
        names = workload_names(args.workload)
    except KeyError:
        parser.error(f"unknown workload {args.workload!r}")
    workdir = ROOT / ".bench_build" / f"e2e-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    results: dict[str, dict] = {}
    all_spans = []
    try:
        for name in names:
            print(f"[e2e] {name}: seed {args.seed}, {args.seconds:g} s"
                  f"{' traced' if args.trace else ''}", file=sys.stderr)
            results[name], spans = run_workload(
                name, args.seed, args.seconds, bool(args.trace), args.smoke,
                workdir,
            )
            all_spans.extend(spans)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    key = "layers" if args.trace else "metrics"
    metrics = {}
    for name, record in results.items():
        for metric, value in record[key].items():
            metrics[metric if len(results) == 1 else f"{metric}@{name}"] = value
    if args.out:
        Path(args.out).write_text(json.dumps({
            "environment": environment(args.seed),
            "arguments": vars(args),
            "drift_limit": DRIFT_LIMIT,
            "workloads": results,
        }, indent=1))
    if args.trace_out and all_spans:
        write_chrome_trace(
            args.trace_out,
            [(label, pid, spans)
             for pid, (label, spans) in enumerate(all_spans, start=1)],
        )
    print(json.dumps({
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
