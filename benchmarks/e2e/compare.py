"""Compare two sets of end-to-end result files, metric by metric.

    python3 benchmarks/e2e/compare.py A1.json A2.json A3.json -- \\
        B1.json B2.json B3.json

Each file is a ``run.py --out`` result.  For every workload and every
end-to-end metric of ``BENCHMARK.json`` the medians of the two sets are
compared against the metric's bound (its ``better`` direction decides
what "worse" means):

- ``ok``: the medians differ by at most the bound;
- ``worse`` / ``better``: they differ by more;
- ``unresolved``: one set's own spread (interquartile range over its
  median) exceeds the bound, so the sets cannot be told apart.

A rise in the share of failed operations is always ``worse``.  Runs whose
calibration kernel drifted by more than the limit across the workload
are flagged as noisy.  One row per workload; then each metric's median
and quartiles per set.  Exits 1 unless every metric is ``ok``.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """``(q1, median, q3)`` as ``statistics.quantiles(n=4)`` gives them."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3


def spread(values: list[float]) -> float:
    q1, med, q3 = quartiles(values)
    return (q3 - q1) / abs(med) if med else 0.0


def load_set(paths: list[str]) -> tuple[dict, list[str]]:
    """workload -> metric -> values; plus noisy-run notes."""
    table: dict[str, dict[str, list[float]]] = {}
    notes = []
    for path in paths:
        result = json.loads(Path(path).read_text())
        limit = result.get("drift_limit", 0.05)
        for workload, record in result["workloads"].items():
            metrics = table.setdefault(workload, {})
            for name, metric in record["metrics"].items():
                metrics.setdefault(name, []).append(metric["value"])
            metrics.setdefault("failed_frac", []).append(record["failed_frac"])
            drift = record["calibration_drift"]
            if abs(drift) > limit:
                notes.append(
                    f"noisy: {path} {workload}: calibration drift "
                    f"{drift:+.1%} (limit {limit:.0%})"
                )
    return table, notes


def verdict(a: list[float], b: list[float], bound: float, better: str) -> tuple[str, float]:
    """``(verdict, relative change of B's median against A's)``."""
    med_a = quartiles(a)[1]
    med_b = quartiles(b)[1]
    change = (med_b - med_a) / abs(med_a) if med_a else 0.0
    if spread(a) > bound or spread(b) > bound:
        return "unresolved", change
    worse = change if better == "lower" else -change
    if worse > bound:
        return "worse", change
    if -worse > bound:
        return "better", change
    return "ok", change


def compare(set_a: list[str], set_b: list[str]) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    metrics = {m["name"]: m for m in spec["end_to_end"]}
    table_a, notes_a = load_set(set_a)
    table_b, notes_b = load_set(set_b)
    workloads = [w for w in table_a if w in table_b]
    all_ok = bool(workloads)
    rows = []
    for workload in workloads:
        cells = []
        for name, metric in metrics.items():
            a = table_a[workload].get(name)
            b = table_b[workload].get(name)
            if not a or not b:
                cells.append(f"{name} missing")
                all_ok = False
                continue
            result, change = verdict(a, b, metric["bound"], metric["better"])
            all_ok &= result == "ok"
            cells.append(f"{name} {change:+.1%} {result}")
        fa = statistics.mean(table_a[workload]["failed_frac"])
        fb = statistics.mean(table_b[workload]["failed_frac"])
        failed = "ok" if fb <= fa else "worse"
        all_ok &= failed == "ok"
        cells.append(f"failed_frac {fa:.3g}->{fb:.3g} {failed}")
        rows.append(f"{workload:10s} | " + " | ".join(cells))
    print("\n".join(rows))
    print()
    print(f"{'workload':10s} {'metric':15s} {'bound':>6s}  "
          f"{'A median [q1, q3]':>32s}  {'B median [q1, q3]':>32s}")
    for workload in workloads:
        for name, metric in metrics.items():
            a = table_a[workload].get(name)
            b = table_b[workload].get(name)
            if not a or not b:
                continue
            qa, qb = quartiles(a), quartiles(b)
            print(f"{workload:10s} {name:15s} {metric['bound']:6.1%}  "
                  f"{qa[1]:12.4f} [{qa[0]:.4f}, {qa[2]:.4f}]  "
                  f"{qb[1]:12.4f} [{qb[0]:.4f}, {qb[2]:.4f}]")
    for note in notes_a + notes_b:
        print(note)
    return 0 if all_ok else 1


def main(argv: list[str] | None = None) -> int:
    args = sys.argv[1:] if argv is None else argv
    if "--" not in args:
        print(__doc__, file=sys.stderr)
        return 2
    cut = args.index("--")
    set_a, set_b = args[:cut], args[cut + 1 :]
    if not set_a or not set_b:
        print("compare.py: both sets need at least one result file",
              file=sys.stderr)
        return 2
    return compare(set_a, set_b)


if __name__ == "__main__":
    sys.exit(main())
