"""The CI benchmark smoke run: a small, fixed-seed bench subset.

``python -m repro.bench.smoke --out BENCH_smoke.json`` measures ALP on
four synthetic datasets chosen to cover both schemes — decimal-heavy
columns (``City-Temp``, ``Stocks-DE``, ``Gov/10``) that take the main
ALP path and ``POI-lat`` whose full-precision mantissas force the
ALP_rd fallback — and writes the structured document the regression
gate (:mod:`repro.bench.gate`) checks against the checked-in baseline
``benchmarks/baselines/BENCH_smoke_baseline.json``.

The synthetic generators are deterministic (fixed seeds derived from
the dataset name), so ``bits_per_value`` is bit-for-bit reproducible
across machines; only the throughput fields vary, which is why the gate
compares the calibration-relative ``*_rel`` numbers.

The kernel micro-benchmarks (:mod:`repro.bench.kernels`) are not part
of this run: CI measures and gates them once, in their own job, against
``benchmarks/baselines/BENCH_kernels_baseline.json``.
"""

from __future__ import annotations

import argparse
import sys

#: The fixed smoke subset (dataset names from :mod:`repro.data`).
SMOKE_DATASETS = ["City-Temp", "Stocks-DE", "Gov/10", "POI-lat"]
SMOKE_CODECS = ["alp"]
#: Large enough that one decompress is milliseconds, not microseconds —
#: best-of-N over sub-millisecond timings is scheduler noise.
SMOKE_N = 65_536
SMOKE_REPEATS = 7


def run_smoke(
    out_path: str,
    n: int = SMOKE_N,
    repeats: int = SMOKE_REPEATS,
) -> dict:
    """Run the smoke subset and write ``out_path``; returns the document."""
    from repro.bench.harness import run_structured_bench

    document, records = run_structured_bench(
        SMOKE_DATASETS,
        SMOKE_CODECS,
        n=n,
        repeats=repeats,
        out_path=out_path,
    )
    for record in records:
        print(
            f"{record.dataset:18s} {record.codec:6s} "
            f"{record.bits_per_value:6.2f} bits/value  "
            f"compress {record.compress_mbps:8.1f} MB/s "
            f"(rel {record.compress_rel:.4f})  "
            f"decompress {record.decompress_mbps:8.1f} MB/s "
            f"(rel {record.decompress_rel:.4f})"
        )
    print(f"wrote {len(records)} records to {out_path}")
    return document


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.bench.smoke",
        description="fixed-seed benchmark smoke run (emits BENCH_*.json)",
    )
    parser.add_argument(
        "--out",
        default="BENCH_smoke.json",
        help="output JSON path (default BENCH_smoke.json)",
    )
    parser.add_argument(
        "--n", type=int, default=SMOKE_N, help="values per dataset"
    )
    parser.add_argument(
        "--repeats", type=int, default=SMOKE_REPEATS, help="timing repeats"
    )
    args = parser.parse_args(argv)
    run_smoke(args.out, n=args.n, repeats=args.repeats)
    return 0


if __name__ == "__main__":
    sys.exit(main())
