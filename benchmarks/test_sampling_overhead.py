"""E8 — §4.2 "Sampling Overhead in Compression" statistics.

The paper instruments the two-level sampler over all datasets and
reports:

- ~54% of vectors skip second-level sampling entirely (k' == 1),
- among sampled vectors, trying 2 or 3 combinations is common and 4-5
  rare (22.9% / 20.0% / 2.9% / 0.3% of all vectors),
- brute-force search over the full 253-combination space improves the
  compression ratio by < 1% on average over the sampled choice.

We compress every dataset with the instrumented compressor and print
the same statistics, then run the brute-force-vs-sampling ratio
comparison on a subset.

A timing table follows, report-only (no check): the sampler's share
of ``compress`` time per dataset (the two sampling levels timed alone
against the whole compression of the same column).
"""

from __future__ import annotations

from functools import partial

import numpy as np

from repro.bench.harness import bench_n, time_callable
from repro.bench.report import format_table, shape_check
from repro.core.alp import alp_encode_vector
from repro.core.compressor import compress
from repro.core.constants import ROWGROUP_SIZE, VECTOR_SIZE
from repro.core.sampler import (
    find_best_combination,
    first_level_sample,
    second_level_sample_rowgroup,
)
from repro.data import DATASET_ORDER, DATASETS

BRUTE_FORCE_DATASETS = (
    "City-Temp",
    "Stocks-USA",
    "Btc-Price",
    "CMS/1",
    "Food-prices",
    "SD-bench",
)


def _sampling_stats(dataset_cache):
    n = min(bench_n(), 32_768)
    skipped = 0
    encoded_vectors = 0
    tried = []
    per_dataset = {}
    for name in DATASET_ORDER:
        if DATASETS[name].expects_rd:
            continue
        column = compress(dataset_cache(name, n))
        stats = column.stats
        skipped += stats.second_level_skipped
        encoded_vectors += stats.vectors_encoded
        tried.extend(stats.combinations_tried)
        per_dataset[name] = (
            stats.second_level_skipped,
            stats.vectors_encoded,
        )
    return skipped, encoded_vectors, tried, per_dataset


def _brute_force_gap(dataset_cache):
    """Compare sampled-choice ratio vs full-search-per-vector ratio."""
    n = min(bench_n(), 16_384)
    gaps = {}
    for name in BRUTE_FORCE_DATASETS:
        values = dataset_cache(name, n)
        sampled_bits = compress(values, force_scheme="alp").size_bits()
        brute_bits = 0
        for start in range(0, values.size, VECTOR_SIZE):
            chunk = values[start : start + VECTOR_SIZE]
            combo, _ = find_best_combination(chunk)  # full 253-combo search
            brute_bits += alp_encode_vector(
                chunk, combo.exponent, combo.factor
            ).size_bits()
        gaps[name] = (sampled_bits - brute_bits) / brute_bits
    return gaps


def _sample_only(values: np.ndarray) -> None:
    """The sampling ``compress`` runs, alone: level one per row-group,
    level two where more than one candidate survived."""
    for start in range(0, values.size, ROWGROUP_SIZE):
        rowgroup = values[start : start + ROWGROUP_SIZE]
        first = first_level_sample(rowgroup)
        if not first.use_rd and len(first.candidates) > 1:
            second_level_sample_rowgroup(rowgroup, first.candidates)


def _sampler_share(dataset_cache) -> list[list[str]]:
    """Per dataset: compress ms, sampler ms, sampler share of compress."""
    n = bench_n()
    rows = []
    for name in DATASET_ORDER:
        values = dataset_cache(name, n)
        whole = time_callable(partial(compress, values), n, stat="median")
        sampling = time_callable(
            partial(_sample_only, values), n, stat="median"
        )
        rows.append(
            [
                name,
                f"{whole.seconds * 1e3:.2f}",
                f"{sampling.seconds * 1e3:.2f}",
                f"{sampling.seconds / whole.seconds * 100:.0f}%",
            ]
        )
    return rows


def test_sampling_overhead(benchmark, emit, dataset_cache):
    (skipped, total, tried, per_dataset), gaps = benchmark.pedantic(
        lambda: (
            _sampling_stats(dataset_cache),
            _brute_force_gap(dataset_cache),
        ),
        rounds=1,
        iterations=1,
    )

    skip_fraction = skipped / total
    tried_hist = {
        k: sum(1 for t in tried if t == k) / total for k in (2, 3, 4, 5)
    }

    rows = [
        ["vectors encoded", total],
        ["second level skipped (k'=1)", f"{skip_fraction * 100:.1f}%"],
    ]
    for k in (2, 3, 4, 5):
        rows.append(
            [f"vectors trying {k} combinations", f"{tried_hist[k] * 100:.1f}%"]
        )
    gap_rows = [
        [name, f"{gap * 100:+.2f}%"] for name, gap in sorted(gaps.items())
    ]
    worst_gap = max(gaps.values())

    checks = [
        shape_check(
            f"a large share of vectors skip level two "
            f"({skip_fraction * 100:.0f}%; paper ~54%; require >= 30%)",
            skip_fraction >= 0.30,
        ),
        shape_check(
            "trying 4-5 combinations is rare (< 15% of vectors)",
            tried_hist[4] + tried_hist[5] < 0.15,
        ),
        shape_check(
            f"sampling is within 8% of brute force everywhere "
            f"(worst {worst_gap * 100:+.2f}%; paper < 1% average)",
            worst_gap <= 0.08,
        ),
        shape_check(
            f"average sampling-vs-brute-force gap < 1.5% "
            f"({np.mean(list(gaps.values())) * 100:+.2f}%)",
            float(np.mean(list(gaps.values()))) <= 0.015,
        ),
    ]

    report = format_table(
        ["statistic", "value"],
        rows,
        title="Sampling overhead (§4.2) — second-level statistics over all "
        "decimal datasets",
    )
    report += "\n\n" + format_table(
        ["dataset", "sampled vs brute-force size"],
        gap_rows,
        title="Brute force gap — extra size of sampled (e,f) choices",
    )
    report += "\n\n" + format_table(
        ["dataset", "compress ms", "sampler ms", "sampler share"],
        _sampler_share(dataset_cache),
        title=f"Sampler share of compress time ({bench_n()} values, median "
        "of 5)",
    )
    report += "\n" + "\n".join(checks)
    emit("sampling_overhead", report)
    assert all(c.startswith("[PASS]") for c in checks), "\n" + "\n".join(checks)
