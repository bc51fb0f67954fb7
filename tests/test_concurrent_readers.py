"""One shared column reader, many threads, a corrupted file.

The serving layer hammers a single shared reader from a worker pool, so
the reader's integrity bookkeeping must be thread-safe: every thread
sees the same deterministic values, and the quarantine observability
counters fire exactly once per bad row-group no matter how many threads
race into it (first-insert-wins under the reader's integrity lock).
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from repro import api, obs
from repro.server.cache import DecodedVectorCache
from repro.storage.errors import CorruptRowGroupError

VECTOR_SIZE = 128
ROWGROUP_VECTORS = 4
ROWGROUP_VALUES = VECTOR_SIZE * ROWGROUP_VECTORS
N_ROWGROUPS = 6
BAD = (1, 4)
OPTIONS = api.CompressionOptions(
    vector_size=VECTOR_SIZE, rowgroup_vectors=ROWGROUP_VECTORS
)
THREADS = 16
ROUNDS = 6
LOW, HIGH = 29.5, 30.5


def bitwise_equal(a, b):
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    return a.shape == b.shape and np.array_equal(
        a.view(np.uint64), b.view(np.uint64)
    )


@pytest.fixture
def corrupted(tmp_path):
    """A column file with two flipped row-groups; returns (path, values)."""
    rng = np.random.default_rng(7)
    values = np.round(
        np.cumsum(rng.normal(0, 0.25, ROWGROUP_VALUES * N_ROWGROUPS)) + 30.0,
        2,
    )
    path = tmp_path / "damaged.alpc"
    api.write(path, values, OPTIONS)
    metadata = api.open(path).metadata
    data = bytearray(path.read_bytes())
    for index in BAD:
        data[metadata[index].offset + 3] ^= 0x20
    path.write_bytes(bytes(data))
    return path, values


def _good_values(values):
    keep = [
        values[i * ROWGROUP_VALUES : (i + 1) * ROWGROUP_VALUES]
        for i in range(N_ROWGROUPS)
        if i not in BAD
    ]
    return np.concatenate(keep)


def _range_values(values):
    good = _good_values(values)
    return good[(good >= LOW) & (good <= HIGH)]


class TestConcurrentDegradedReader:
    def test_hammer_is_deterministic_with_exact_quarantine(self, corrupted):
        path, values = corrupted
        reader = api.open(path, degraded=True)
        cache = DecodedVectorCache(byte_budget=64 << 20)
        expect_all = _good_values(values)
        expect_range = _range_values(values)
        good_index = 2
        expect_rg = values[
            good_index * ROWGROUP_VALUES : (good_index + 1) * ROWGROUP_VALUES
        ]

        def hammer(worker):
            outcomes = []
            for round_no in range(ROUNDS):
                kind = (worker + round_no) % 4
                if kind == 0:
                    # Bulk degraded read, through the shared cache for
                    # half the workers so cached and uncached decodes
                    # race on the same row-groups.
                    got = reader.read_all(
                        cache=cache if worker % 2 else None
                    )
                    outcomes.append(("all", bitwise_equal(got, expect_all)))
                elif kind == 1:
                    chunks = [
                        chunk[(chunk >= LOW) & (chunk <= HIGH)]
                        for _, chunk in reader.scan_range(LOW, HIGH)
                    ]
                    got = (
                        np.concatenate(chunks)
                        if chunks
                        else np.empty(0, dtype=np.float64)
                    )
                    outcomes.append(
                        ("range", bitwise_equal(got, expect_range))
                    )
                elif kind == 2:
                    got = reader.read_rowgroup(good_index)
                    outcomes.append(("rg", bitwise_equal(got, expect_rg)))
                else:
                    # Direct access to a corrupt row-group raises even
                    # on a degraded reader — explicit reads are strict.
                    try:
                        reader.read_rowgroup(BAD[worker % len(BAD)])
                        outcomes.append(("bad", False))
                    except CorruptRowGroupError:
                        outcomes.append(("bad", True))
            return outcomes

        obs.enable()
        obs.reset()
        try:
            with ThreadPoolExecutor(max_workers=THREADS) as pool:
                all_outcomes = list(pool.map(hammer, range(THREADS)))
            snap = obs.snapshot()
        finally:
            obs.disable()
            obs.reset()

        flat = [item for outcomes in all_outcomes for item in outcomes]
        assert len(flat) == THREADS * ROUNDS
        assert all(ok for _, ok in flat), [kind for kind, ok in flat if not ok]

        # Exactly one quarantine and one checksum tally per bad
        # row-group, regardless of how many threads raced into them.
        counters = snap["counters"]
        assert counters["tablefile.checksum_failures"] == len(BAD)
        assert counters["tablefile.chunks_quarantined"] == len(BAD)
        assert (
            counters["tablefile.values_quarantined"]
            == len(BAD) * ROWGROUP_VALUES
        )

        report = reader.scan_report()
        assert report.rowgroups_quarantined == len(BAD)
        assert report.values_quarantined == len(BAD) * ROWGROUP_VALUES
        assert tuple(entry.index for entry in report.quarantined) == BAD

    def test_strict_reader_raises_under_concurrency(self, corrupted):
        path, _ = corrupted
        reader = api.open(path, degraded=False)

        def attempt(_):
            try:
                reader.read_all()
                return False
            except CorruptRowGroupError:
                return True

        with ThreadPoolExecutor(max_workers=8) as pool:
            assert all(pool.map(attempt, range(16)))

    def test_cache_converges_to_good_rowgroups_only(self, corrupted):
        path, values = corrupted
        reader = api.open(path, degraded=True)
        cache = DecodedVectorCache(byte_budget=64 << 20)

        def scan(_):
            return reader.read_all(cache=cache)

        with ThreadPoolExecutor(max_workers=8) as pool:
            results = list(pool.map(scan, range(24)))
        expect = _good_values(values)
        assert all(bitwise_equal(got, expect) for got in results)
        # Only intact row-groups are ever cached; failures never are.
        assert cache.stats().entries == N_ROWGROUPS - len(BAD)
