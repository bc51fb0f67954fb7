"""Columnar storage with predicate push-down over ALP-compressed data.

Writes a year of synthetic stock ticks into an ALPC column file, then
answers a range query while *skipping* row-groups whose zone maps prove
they contain no qualifying values — the capability the paper contrasts
with block-based general-purpose compression.

Run:  python examples/timeseries_storage.py
"""

import tempfile
import time
from pathlib import Path

import numpy as np

from repro import api

# One year of tick prices: a slow upward random walk, two decimals.
rng = np.random.default_rng(21)
prices = np.round(
    np.cumsum(rng.normal(0.002, 0.08, 1_500_000)) + 150.0, 2
)

path = Path(tempfile.mkdtemp()) / "stocks.alpc"
start = time.perf_counter()
api.write(path, prices)  # atomic, checksummed (format v4)
write_seconds = time.perf_counter() - start

raw_mib = prices.nbytes / 2**20
file_mib = path.stat().st_size / 2**20
print(f"wrote {prices.size:,} ticks in {write_seconds:.2f}s")
print(f"file size : {file_mib:.2f} MiB (raw {raw_mib:.2f} MiB, "
      f"{raw_mib / file_mib:.1f}x smaller)")

reader = api.open(path)
print(f"row-groups: {reader.rowgroup_count}, each with a [min, max] zone map")

# Range query: prices the walk only reaches late in the year.
low, high = float(np.percentile(prices, 99.5)), float(prices.max())
skippable = reader.count_skippable(low, high)
print(f"\nquery: price in [{low:.2f}, {high:.2f}]")
print(f"zone maps skip {skippable}/{reader.rowgroup_count} row-groups "
      "without touching their bytes")

start = time.perf_counter()
matches = 0
for _index, values in reader.scan_range(low, high):
    matches += int(((values >= low) & (values <= high)).sum())
pushdown_seconds = time.perf_counter() - start

start = time.perf_counter()
everything = reader.read_all()
full_matches = int(((everything >= low) & (everything <= high)).sum())
full_seconds = time.perf_counter() - start

assert matches == full_matches
print(f"push-down scan : {pushdown_seconds * 1000:.0f} ms "
      f"({matches:,} matches)")
print(f"full scan      : {full_seconds * 1000:.0f} ms (same answer)")
print(f"speedup        : {full_seconds / max(pushdown_seconds, 1e-9):.1f}x")
