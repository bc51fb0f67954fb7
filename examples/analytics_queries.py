"""Vectorized analytics over compressed columns: who pays what at scan time.

Builds the same column under several compressed formats, then runs SCAN
and SUM through the vector-at-a-time engine and compares throughput —
a miniature of the paper's Table 6 / Figure 6 experiment.

Run:  python examples/analytics_queries.py
"""

import time

from repro.data import get_dataset
from repro.query import make_source, scan_query, sum_query
from repro.query.engine import range_count_query

values = get_dataset("City-Temp", n=120_000)
print(f"column: City-Temp, {values.size:,} doubles\n")

print(f"{'codec':14s} {'bits/val':>9s} {'SCAN Mv/s':>10s} {'SUM Mv/s':>10s}")
for codec in ("uncompressed", "alp", "pde", "patas", "chimp128", "zlib(gp)"):
    source = make_source(codec, values)

    start = time.perf_counter()
    scanned = scan_query(source)
    scan_speed = scanned / (time.perf_counter() - start) / 1e6

    start = time.perf_counter()
    total = sum_query(source)
    sum_speed = values.size / (time.perf_counter() - start) / 1e6

    assert total == float(values.sum()) or abs(total - values.sum()) < 1e-6
    bits = source.compressed_bits / values.size if source.compressed_bits else 64.0
    print(f"{codec:14s} {bits:9.1f} {scan_speed:10.2f} {sum_speed:10.2f}")

# A filtered aggregation: COUNT of freezing days, evaluated on the
# still-compressed ALP vectors (FFOR headers decide whole vectors).
freezing = range_count_query(make_source("alp", values), low=-100.0, high=32.0)
print(f"\ndays at or below 32F (filter+count over compressed ALP): "
      f"{freezing:,} of {values.size:,}")
