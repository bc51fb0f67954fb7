"""Print the per-layer table of traced end-to-end results.

    python3 benchmarks/e2e/trace_report.py R.json [R2.json ...]

Each file is a ``run.py --trace 1 --out`` result.  For every workload:
the tracing overhead (traced against untraced throughput of the same
run), then each layer with the end-to-end metrics it should move and
where it is predicted flat, and each per-layer metric with the base it
was computed from: self time over the number of operations, a ratio's
numerator and denominator, a percentile's sample count.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from metrics import (  # noqa: E402
    FRACTIONS,
    LAYERS,
    PER_OP_COUNTS,
    SELF_TIME,
    TOTAL_TIME,
)


def _base(metric: str, bases: dict) -> str:
    """How ``metric`` was computed, in the numbers it came from."""
    ops = bases["ops"]
    counts = bases["counts"]
    spans = bases["spans"]
    if metric in SELF_TIME:
        row = spans.get(SELF_TIME[metric], {})
        return f"{row.get('self_s', 0.0):.4f} s self / {ops} ops"
    if metric in TOTAL_TIME:
        row = spans.get(TOTAL_TIME[metric], {})
        return f"{row.get('total_s', 0.0):.4f} s / {ops} ops"
    if metric in PER_OP_COUNTS:
        return f"{counts.get(PER_OP_COUNTS[metric], 0)} / {ops} ops"
    if metric in FRACTIONS:
        num, den = FRACTIONS[metric]
        n = sum(counts.get(k, 0) for k in num)
        d = sum(counts.get(k, 0) for k in den)
        if "covered.vectors" in den:
            return f"{n} vectors decoded / vectors covered by the ops"
        return f"{n} {'+'.join(num)} / {d} {'+'.join(den)}"
    if metric.startswith("ops.") and metric.endswith(".p50_ms"):
        kind = metric[len("ops."):-len(".p50_ms")]
        return f"{bases['op_kinds'].get(kind, 0)} samples"
    if metric in ("cache.hit_rate", "cache.evictions", "bufferpool.hit_rate"):
        stats = bases.get("server_stats") or {}
        prefix = "cache" if metric.startswith("cache") else "pool"
        before, after = stats.get(f"{prefix}_before"), stats.get(f"{prefix}_after")
        if not before or not after:
            return "no server"
        hits = after["hits"] - before["hits"]
        misses = after["misses"] - before["misses"]
        if metric == "cache.evictions":
            evicted = after["evictions"] - before["evictions"]
            return f"{evicted} evictions / {ops} ops"
        return f"{hits} hits / {hits + misses} lookups"
    if metric.startswith("service.queue_wait"):
        return "admission to worker start, traced requests"
    if metric == "wire.p50_ms":
        return "client latency - server handler span"
    if metric in ("service.overloaded", "service.deadline_exceeded"):
        return "error frames in the traced phase"
    if metric == "trace.overhead_frac":
        return "1 - traced / untraced MB/s"
    return ""


def report(path: str) -> None:
    result = json.loads(Path(path).read_text())
    env = result.get("environment", {})
    print(f"# {path}  (seed {env.get('seed')}, git {env.get('git_sha')}, "
          f"python {env.get('python')}, numpy {env.get('numpy')}, "
          f"nproc {env.get('nproc')})")
    for workload, record in result["workloads"].items():
        layers = record.get("layers")
        if not layers:
            print(f"\n## {workload}: no traced phase (run with --trace 1)")
            continue
        bases = record["layer_bases"]
        over = record["overhead"]
        print(f"\n## {workload}: {bases['ops']} traced operations")
        print(f"tracing overhead {over['frac']:+.1%}: traced "
              f"{over['traced_mb_per_s']:.2f} MB/s "
              f"({over['traced_ops_per_s']:.2f} ops/s) vs untraced "
              f"{over['untraced_mb_per_s']:.2f} MB/s "
              f"({over['untraced_ops_per_s']:.2f} ops/s)")
        for layer, names, moves, flat in LAYERS:
            print(f"\n  {layer}  (moves {moves}; flat on {flat})")
            for metric in names:
                item = layers[metric]
                print(f"    {metric:32s} {item['value']:14.6g} "
                      f"{item['unit']:9s} {_base(metric, bases)}")


def main(argv: list[str] | None = None) -> int:
    paths = sys.argv[1:] if argv is None else argv
    if not paths:
        print(__doc__, file=sys.stderr)
        return 2
    for path in paths:
        report(path)
    return 0


if __name__ == "__main__":
    sys.exit(main())
