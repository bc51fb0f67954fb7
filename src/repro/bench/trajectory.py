"""The main-branch benchmark trajectory (``BENCH_trajectory.jsonl``).

The regression gate (:mod:`repro.bench.gate`) answers "did this run
regress vs the checked-in baseline?" — a two-point comparison.  This
module keeps the *history*: every main-branch CI run appends one
condensed line to a JSONL trajectory file (carried between runs by the
Actions cache and republished as the ``BENCH_trajectory`` artifact), so
a slow drift that never trips the per-run tolerance is still visible.

One trajectory line holds the run label (commit SHA in CI), the
document's creation time and environment fingerprint, and per
(dataset, codec) record the drift-relevant metrics: ``bits_per_value``
(deterministic), the machine-relative ``compress_rel`` /
``decompress_rel`` throughputs, and any ``*_speedup_vs_decode``
counters — the fused-query ratios the kernel baseline floors.

CLI::

    python -m repro.bench.trajectory append BENCH.json TRAJ.jsonl [--label L]
    python -m repro.bench.trajectory show TRAJ.jsonl [--last N] [--summary P]

``append`` is idempotent per label: re-running a job for the same
commit replaces that label's line instead of duplicating it.  ``show``
renders a markdown table (latest value, delta vs previous run, delta
across the shown window) and, like the gate, appends it to
``$GITHUB_STEP_SUMMARY`` when set.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

from repro.bench.records import SPEEDUP_SUFFIX, read_bench_json

#: Per-record scalar fields copied into a trajectory line.
TRACKED_FIELDS = ("bits_per_value", "compress_rel", "decompress_rel")


def condense_document(document: dict, label: str) -> dict:
    """One trajectory line (a plain dict) from a full bench document."""
    metrics: dict[str, dict[str, float]] = {}
    for record in document["records"]:
        entry = {name: float(record[name]) for name in TRACKED_FIELDS}
        for name, value in record.get("counters", {}).items():
            if name.endswith(SPEEDUP_SUFFIX):
                entry[name] = float(value)
        metrics[f"{record['dataset']}/{record['codec']}"] = entry
    return {
        "label": label,
        "created_unix": document.get("created_unix"),
        "environment": document.get("environment", {}),
        "metrics": metrics,
    }


def load_trajectory(path: str | Path) -> list[dict]:
    """All well-formed lines of a trajectory file, oldest first.

    Malformed lines (a truncated cache restore, a partial write) are
    skipped with a warning rather than failing the run — the trajectory
    is an observability aid, and losing one point must never block CI.
    """
    trajectory_path = Path(path)
    if not trajectory_path.exists():
        return []
    runs: list[dict] = []
    for lineno, line in enumerate(
        trajectory_path.read_text().splitlines(), start=1
    ):
        if not line.strip():
            continue
        try:
            run = json.loads(line)
        except json.JSONDecodeError:
            print(
                f"warning: {path}:{lineno} is not valid JSON, skipping",
                file=sys.stderr,
            )
            continue
        if isinstance(run, dict) and isinstance(run.get("metrics"), dict):
            runs.append(run)
        else:
            print(
                f"warning: {path}:{lineno} is not a trajectory line, "
                "skipping",
                file=sys.stderr,
            )
    return runs


def append_run(
    bench_path: str | Path,
    trajectory_path: str | Path,
    label: str | None = None,
) -> dict:
    """Validate ``bench_path`` and append its condensed line.

    A line with the same label (e.g. a re-run job for the same commit)
    is replaced in place, keeping one point per commit.
    """
    document, _ = read_bench_json(bench_path)
    line = condense_document(document, label or "local")
    runs = [
        run
        for run in load_trajectory(trajectory_path)
        if run.get("label") != line["label"]
    ]
    runs.append(line)
    Path(trajectory_path).write_text(
        "".join(json.dumps(run, sort_keys=True) + "\n" for run in runs)
    )
    return line


def render_trajectory(runs: list[dict], last: int = 10) -> str:
    """Markdown table of metric evolution over the most recent runs.

    One row per (record, metric): the latest value, the signed change
    vs the previous run, and the signed change across the whole shown
    window — the drift the per-run gate tolerance cannot see.
    """
    window = runs[-last:]
    if not window:
        return "## Benchmark trajectory\n\n(no runs recorded yet)\n"
    labels = [str(run.get("label", "?")) for run in window]
    lines = [
        "## Benchmark trajectory",
        "",
        f"{len(window)} run(s): {' → '.join(labels)}",
        "",
        "| record | metric | latest | vs previous | vs window start |",
        "|---|---|---:|---:|---:|",
    ]
    latest = window[-1]
    for key in sorted(latest["metrics"]):
        for metric, value in sorted(latest["metrics"][key].items()):
            prev_delta = _delta(window[-2:-1], key, metric, value)
            start_delta = _delta(window[:1], key, metric, value)
            lines.append(
                f"| {key} | {metric} | {value:.4f} "
                f"| {prev_delta} | {start_delta} |"
            )
    return "\n".join(lines) + "\n"


def _delta(
    reference_runs: list[dict], key: str, metric: str, value: float
) -> str:
    """Signed fractional change vs a reference run, or a dash."""
    if not reference_runs:
        return "—"
    reference = (
        reference_runs[0].get("metrics", {}).get(key, {}).get(metric)
    )
    if reference is None or reference == value:
        return "—" if reference is None else "±0.0%"
    if reference == 0:
        return "new"
    return f"{(value - reference) / reference:+.1%}"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.bench.trajectory",
        description="append/inspect the main-branch bench trajectory",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    append_cmd = commands.add_parser(
        "append", help="condense a BENCH_*.json onto a trajectory JSONL"
    )
    append_cmd.add_argument("bench", help="BENCH_*.json of this run")
    append_cmd.add_argument("trajectory", help="trajectory JSONL to extend")
    append_cmd.add_argument(
        "--label",
        default=None,
        help="run label, e.g. the commit SHA (default 'local')",
    )

    show_cmd = commands.add_parser(
        "show", help="render the trajectory as a markdown delta table"
    )
    show_cmd.add_argument("trajectory", help="trajectory JSONL to read")
    show_cmd.add_argument(
        "--last", type=int, default=10, help="runs to show (default 10)"
    )
    show_cmd.add_argument(
        "--summary",
        default=None,
        help=(
            "also append the table to this file "
            "(default: $GITHUB_STEP_SUMMARY when set)"
        ),
    )
    args = parser.parse_args(argv)

    if args.command == "append":
        line = append_run(args.bench, args.trajectory, label=args.label)
        total = len(load_trajectory(args.trajectory))
        print(
            f"appended run {line['label']!r} "
            f"({len(line['metrics'])} records) to {args.trajectory} "
            f"({total} run(s) total)"
        )
        return 0

    runs = load_trajectory(args.trajectory)
    table = render_trajectory(runs, last=args.last)
    print(table, end="")
    summary_path = args.summary or os.environ.get("GITHUB_STEP_SUMMARY")
    if summary_path:
        with Path(summary_path).open("a", encoding="utf-8") as handle:
            handle.write(table)
    return 0


if __name__ == "__main__":
    sys.exit(main())
