"""The benchmark regression gate run by CI.

``python -m repro.bench.gate CURRENT.json [CURRENT.json ...] BASELINE.json``
merges the records of every current document (a dataset + codec key
that appears twice is an error) and checks each one against the
baseline record with the same key.  Every check holds one field to one
bound:

- a baseline record's ``bounds`` (see :mod:`repro.bench.records`) name
  a record field or counter and its limit: relative worsening, an
  absolute floor, or a floor on the ratio to another record of the same
  run;
- fields without one keep the defaults in :data:`DEFAULT_BOUNDS`.
  ``bits_per_value`` may grow by 2% — ratios are deterministic
  (fixed-seed synthetic data), so this only leaves room for intentional
  trade-offs.  The machine-relative ``compress_rel`` /
  ``decompress_rel`` throughputs (codec MB/s divided by a same-process,
  codec-shaped calibration workload — see
  :func:`repro.bench.harness.calibration_mbps`) may drop by 25%, which
  keeps slow CI runners from reading as codec regressions.

Improvements never fail the gate.  Structural problems do: a baseline
record missing from the current run (coverage must not silently
shrink), a bounded field missing from either record, a ratio bound whose
reference record is absent, and a ``*_speedup_vs_decode`` counter the
baseline leaves unbounded.  New records in the current run are reported
but pass.

Besides the plain-text report on stdout, the gate renders the same
per-metric table as GitHub-flavoured markdown and appends it to the file
named by ``GITHUB_STEP_SUMMARY`` when that is set (as it is inside every
Actions step), so a reviewer sees baseline vs current numbers without
opening the log.
"""

from __future__ import annotations

import argparse
import os
import sys
from collections.abc import Mapping, Sequence
from dataclasses import dataclass
from pathlib import Path

from repro.bench.records import (
    RECORD_MEMORY_FIELDS,
    RECORD_NUMERIC_FIELDS,
    SPEEDUP_SUFFIX,
    BenchRecord,
    read_bench_json,
)

#: Bounds of fields a baseline record does not bound itself.
DEFAULT_BOUNDS: dict[str, dict] = {
    "bits_per_value": {"worse": "higher", "tolerance": 0.02},
    "compress_rel": {"worse": "lower", "tolerance": 0.25},
    "decompress_rel": {"worse": "lower", "tolerance": 0.25},
}

#: Names a bound reads from the record itself; any other is a counter.
RECORD_FIELDS = RECORD_NUMERIC_FIELDS + RECORD_MEMORY_FIELDS

RecordKey = tuple[str, str]


@dataclass(frozen=True)
class Check:
    """One comparison line of the gate report."""

    dataset: str
    codec: str
    metric: str
    baseline: float
    current: float
    failed: bool
    verdict: str  # where the current value stands against its bound

    def format(self) -> str:
        marker = "FAIL" if self.failed else "ok  "
        return (
            f"[{marker}] {self.dataset:14s} {self.codec:8s} "
            f"{self.metric:14s} baseline {self.baseline:10.4f} "
            f"current {self.current:10.4f} ({self.verdict})"
        )


def _field_value(record: BenchRecord, name: str) -> float | None:
    """A record field or counter as a float, or None when absent."""
    value = (
        getattr(record, name)
        if name in RECORD_FIELDS
        else record.counters.get(name)
    )
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        return None
    return float(value)


def compare_records(
    current: BenchRecord,
    baseline: BenchRecord,
    run: Mapping[RecordKey, BenchRecord] | None = None,
) -> tuple[list[Check], list[str]]:
    """Every bound of one (dataset, codec) pair: (checks, problems).

    ``run`` holds the current run's records by key, for ratio bounds;
    it defaults to ``current`` alone.
    """
    run = run or {current.key: current}
    where = f"{current.dataset} {current.codec}"
    problems = [
        f"{where}: baseline leaves {name} unbounded"
        for name in baseline.counters
        if name.endswith(SPEEDUP_SUFFIX) and name not in baseline.bounds
    ]
    checks: list[Check] = []
    for metric, bound in {**DEFAULT_BOUNDS, **baseline.bounds}.items():
        base = _field_value(baseline, metric)
        cur = _field_value(current, metric)
        if base is None or cur is None:
            side = "baseline" if base is None else "current"
            problems.append(f"{where}: {metric} missing from {side} record")
            continue
        if "tolerance" in bound:
            worse, better = (
                (cur, base) if bound["worse"] == "higher" else (base, cur)
            )
            change = _relative_increase(better, worse)
            failed = change > bound["tolerance"]
            verdict = f"{change:+.1%}, tolerance {bound['tolerance']:.0%}"
        elif "of" in bound:
            of = tuple(bound["of"])
            reference = run.get(of)
            ref_value = (
                None if reference is None else _field_value(reference, metric)
            )
            if not ref_value:
                problems.append(
                    f"{where}: {metric} bound needs a non-zero {metric} "
                    f"in a current {' '.join(of)} record"
                )
                continue
            ratio = cur / ref_value
            failed = ratio < bound["min"]
            verdict = f"{ratio:.2f}x {'/'.join(of)}, floor {bound['min']:.2f}x"
        else:
            failed = cur < bound["min"]
            verdict = f"floor {bound['min']:.2f}"
        checks.append(
            Check(
                dataset=current.dataset,
                codec=current.codec,
                metric=metric,
                baseline=base,
                current=cur,
                failed=failed,
                verdict=verdict,
            )
        )
    return checks, problems


def _relative_increase(baseline: float, current: float) -> float:
    """(current - baseline) / baseline, with a zero-safe denominator."""
    if baseline <= 0:
        return 0.0 if current <= 0 else float("inf")
    return (current - baseline) / baseline


def run_gate(
    current_paths: Sequence[str], baseline_path: str
) -> tuple[list[Check], list[str]]:
    """Compare documents; returns (checks, structural problems)."""
    problems: list[str] = []
    current_by_key: dict[RecordKey, BenchRecord] = {}
    for path in current_paths:
        for record in read_bench_json(path)[1]:
            if record.key in current_by_key:
                problems.append(
                    f"record {record.key} appears in more than one "
                    "current document"
                )
            current_by_key[record.key] = record
    _, baseline_records = read_bench_json(baseline_path)
    baseline_by_key = {record.key: record for record in baseline_records}

    problems.extend(
        f"baseline record {key} missing from current run"
        for key in baseline_by_key
        if key not in current_by_key
    )
    checks: list[Check] = []
    for key, record in current_by_key.items():
        baseline = baseline_by_key.get(key)
        if baseline is None:
            print(f"[new ] {key[0]} {key[1]}: no baseline yet, passing")
            continue
        record_checks, record_problems = compare_records(
            record, baseline, current_by_key
        )
        checks.extend(record_checks)
        problems.extend(record_problems)
    return checks, problems


def render_markdown(checks: list[Check], problems: list[str]) -> str:
    """The gate report as a GitHub-flavoured markdown table.

    One row per compared metric — baseline, current, where the current
    value stands against its bound, and pass/fail — followed by any
    structural problems.  This is what lands in the Actions job summary.
    """
    lines = [
        "## Benchmark regression gate",
        "",
        "| dataset | codec | metric | baseline | current | bound "
        "| status |",
        "|---|---|---|---:|---:|---|---|",
    ]
    for check in checks:
        status = ":x: FAIL" if check.failed else ":white_check_mark: ok"
        lines.append(
            f"| {check.dataset} | {check.codec} | {check.metric} "
            f"| {check.baseline:.4f} | {check.current:.4f} "
            f"| {check.verdict} | {status} |"
        )
    if problems:
        lines.append("")
        for problem in problems:
            lines.append(f"- :x: {problem}")
    failed = sum(1 for check in checks if check.failed)
    lines.append("")
    if failed or problems:
        lines.append(
            f"**Gate FAILED** — {failed} regressed metric(s), "
            f"{len(problems)} structural problem(s)."
        )
    else:
        lines.append(f"**Gate passed** ({len(checks)} checks).")
    return "\n".join(lines) + "\n"


def write_summary(checks: list[Check], problems: list[str]) -> None:
    """Append the markdown report to ``$GITHUB_STEP_SUMMARY`` when set.

    That variable names an append-only file inside Actions steps;
    appending (rather than overwriting) lets several gate invocations in
    one job stack their tables.
    """
    path = os.environ.get("GITHUB_STEP_SUMMARY")
    if not path:
        return
    with Path(path).open("a", encoding="utf-8") as handle:
        handle.write(render_markdown(checks, problems))


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.bench.gate",
        description="fail when a bench run regresses vs. a baseline JSON",
    )
    parser.add_argument(
        "current",
        nargs="+",
        help="BENCH_*.json of this run (several merge their records)",
    )
    parser.add_argument("baseline", help="checked-in baseline BENCH_*.json")
    args = parser.parse_args(argv)

    checks, problems = run_gate(args.current, args.baseline)
    for check in checks:
        print(check.format())
    for problem in problems:
        print(f"[FAIL] {problem}")
    write_summary(checks, problems)
    failed = [check for check in checks if check.failed]
    if failed or problems:
        print(
            f"regression gate FAILED: {len(failed)} regressed metric(s), "
            f"{len(problems)} structural problem(s)"
        )
        return 1
    print(f"regression gate passed ({len(checks)} checks)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
