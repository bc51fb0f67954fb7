"""Kernel-level micro-benchmarks: bit-packing, FFOR and the ALP vector codec.

``python -m repro.bench.kernels`` (or ``alp-repro bench --kernels``)
times the hot kernels the word-parallel rewrite targets, at the widths
that exercise its three code paths:

- width 4  — sub-byte fields, the generic scatter/gather path;
- width 16 — byte-aligned, the direct dtype-cast fast path;
- width 48 — byte-aligned but wider than any native dtype, the
  byte-column path.

Each width yields one ``pack`` record (compress = ``pack_bits``,
decompress = ``unpack_bits``) and one ``ffor`` record (compress =
``ffor_encode``, decompress = fused ``ffor_decode``); a
``kernels/alp-vector`` record times the end-to-end per-vector ALP
encode (level-two sampling + ALP_enc + FFOR) and decode (UNFFOR +
ALP_dec + patch), the paper's §4.2 micro-benchmark unit, as the median
over units of :data:`ALP_VECTOR_CALLS` calls.  The ``pack``
records also carry the measured speedup over the retired bit-matrix
packer (:func:`repro.encodings.bitpack.pack_bits_bitmatrix`) in their
``counters``.

Two further records benchmark the encoded-domain *query* kernels
against the decode-then-aggregate baseline on real-shaped columns:

- ``kernels/q-sum`` — full-column SUM on a City-Temp column:
  ``compress_mbps`` is the fused path (modular-fold
  :func:`~repro.encodings.bitpack.unpack_sum` + once-per-vector
  scaling), ``decompress_mbps`` the decode-first path (UNFFOR +
  ALP_dec + ``np.sum``), and ``counters["query.sum_speedup_vs_decode"]``
  the median ratio of interleaved pairs (:func:`_paired_times`);
- ``kernels/q-cmp`` — a selective (98th-percentile) range COUNT on a
  Stocks-DE column: fused unpack-compare with FFOR-header vector
  skipping versus decode-then-mask, ratio under
  ``counters["query.cmp_speedup_vs_decode"]``.

Both query kernels are exception-light by construction (the datasets
are decimal columns ALP encodes with few exceptions), which is the
regime the encoded-domain paths target.  Every ``*_speedup_vs_decode``
ratio is floored by a ``bounds`` entry of the checked-in kernel baseline
(``benchmarks/baselines/BENCH_kernels_baseline.json``), which the
regression gate (:mod:`repro.bench.gate`) enforces.

A ``kernels/q-table`` record benchmarks format v4 zone-map predicate
pushdown end to end: a selective (~1%) range scan over a two-column
table — ``compress_mbps`` the pruned ``TableFileReader.scan`` path,
``decompress_mbps`` the decode-everything-then-mask baseline, their
ratio under ``counters["table.scan_speedup_vs_decode"]`` (floored like
the other query kernels), and the fraction of
vectors never decoded under ``counters["table.vectors_skip_fraction"]``.

A ``kernels/crc32c`` record times the block-table CRC32C that every
file write and read runs against the scalar slicing-by-8 reference on
one chunk-sized buffer; its ratio, ``counters["crc.speedup_vs_reference"]``,
has a floor in the kernel baseline too.

A ``kernels/rowgroup-decode`` record times
:func:`~repro.core.compressor.decode_rowgroup_into` (one unpack per bit
width, one ALP_rd unpack per stream) against the per-vector decode loop
it replaced, on four row-groups each of City-Temp, NYC/29 and POI-lat;
``counters["rowgroup.<dataset>_speedup_vs_vector"]`` are floored.  A
``kernels/deserialize`` record times the chunk parse every read pays
(and the serializer) on four chunks each of the same three columns.  A
``kernels/rowgroup-encode`` record is its write-side mirror: the
row-group encode (one ALP pass, one pack per bit width, one ALP_rd
dictionary pass, batched int64 frames) against the per-vector encode
loop, on City-Temp (k' = 1), Stocks-DE (k' > 1), POI-lat (ALP_rd) and
an int64 timestamp column, outputs byte-identical;
``counters["rowgroup.<dataset>_speedup_vs_vector_encode"]`` are
floored too.  A ``kernels/sampler`` record times both sampling levels
(the batched kernel) against the loop references that estimate one
combination at a time through ``estimate_size_bits``, on City-Temp
(k' = 1), Stocks-DE (k' > 1) and POI-lat (ALP_rd), decisions identical;
``counters["sampler.<dataset>_speedup_vs_loop"]`` are floored.

Records follow the ``BENCH_*.json`` schema (see
:mod:`repro.bench.records`): ``bits_per_value`` is the field width and
``compression_ratio`` is ``64 / width``, both deterministic, so the CI
regression gate's ratio check doubles as a layout invariant; the
``*_rel`` throughputs are calibration-anchored like every other record.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import re
import sys
import time

import numpy as np

from repro.bench.records import SPEEDUP_SUFFIX, BenchRecord
from repro.core.constants import VECTOR_SIZE

#: The widths benchmarked — one per pack/unpack code path (see module doc).
KERNEL_WIDTHS = (4, 16, 48)

#: The micro-benchmark unit: one L1-resident vector, as in the paper.
KERNEL_VECTOR_SIZE = VECTOR_SIZE

#: Vectors processed per timed call, so one call takes long enough that
#: ``perf_counter`` granularity and scheduler noise do not dominate.
KERNEL_VECTORS = 64

#: Per-vector ALP calls in one timed unit of ``kernels/alp-vector``:
#: one ~50 us call is too short to time steadily, 32 take 1-4 ms.
ALP_VECTOR_CALLS = 32

#: Column the encoded-domain SUM kernel is measured on (exception-light,
#: narrow residual widths — the fold regime of ``unpack_sum``).
QUERY_SUM_DATASET = "City-Temp"
#: Column the fused range-predicate kernel is measured on.
QUERY_CMP_DATASET = "Stocks-DE"
#: The range predicate keeps the top ``1 - QUERY_CMP_QUANTILE`` of the
#: column: selective enough that most vectors are header-rejected, the
#: case late materialization exists for.
QUERY_CMP_QUANTILE = 0.98


def _kernel_values(width: int) -> np.ndarray:
    """Deterministic uint64 test values that need exactly ``width`` bits."""
    rng = np.random.default_rng(0xA19 + width)
    count = KERNEL_VECTORS * KERNEL_VECTOR_SIZE
    if width == 0:
        return np.zeros(count, dtype=np.uint64)
    values = rng.integers(0, 1 << width, size=count, dtype=np.uint64)
    # Pin the top bit somewhere so bit_width_required(values) == width.
    values[0] = (1 << width) - 1
    return values


def _per_vector_mbps(fn, values_nbytes: int, repeats: int) -> float:
    """Median MB/s of a callable that processes all KERNEL_VECTORS."""
    from repro.bench.harness import time_callable

    result = time_callable(
        fn, values_nbytes // 8, repeats=repeats, stat="median"
    )
    return values_nbytes / result.seconds / 1e6


def _bench_pack(width: int, repeats: int, calibration: float) -> BenchRecord:
    """One pack/unpack record at ``width`` (+ bit-matrix speedup)."""
    from repro.encodings.bitpack import (
        pack_bits,
        pack_bits_bitmatrix,
        unpack_bits,
    )

    values = _kernel_values(width)
    vectors = [
        values[start : start + KERNEL_VECTOR_SIZE]
        for start in range(0, values.size, KERNEL_VECTOR_SIZE)
    ]
    payloads = [pack_bits(v, width) for v in vectors]

    pack_mbps = _per_vector_mbps(
        lambda: [pack_bits(v, width) for v in vectors],
        values.nbytes,
        repeats,
    )
    bitmatrix_mbps = _per_vector_mbps(
        lambda: [pack_bits_bitmatrix(v, width) for v in vectors],
        values.nbytes,
        repeats,
    )
    unpack_mbps = _per_vector_mbps(
        lambda: [
            unpack_bits(p, width, KERNEL_VECTOR_SIZE) for p in payloads
        ],
        values.nbytes,
        repeats,
    )
    return BenchRecord(
        dataset=f"kernels/w{width:02d}",
        codec="pack",
        n=int(values.size),
        bits_per_value=float(width),
        compression_ratio=64.0 / width,
        compress_mbps=pack_mbps,
        decompress_mbps=unpack_mbps,
        compress_rel=pack_mbps / calibration,
        decompress_rel=unpack_mbps / calibration,
        counters={
            "pack.bitmatrix_mbps": bitmatrix_mbps,
            "pack.speedup_vs_bitmatrix": pack_mbps / bitmatrix_mbps,
        },
    )


def _bench_ffor(width: int, repeats: int, calibration: float) -> BenchRecord:
    """One FFOR encode/decode record with ``width``-bit residuals."""
    from repro.encodings.ffor import ffor_decode, ffor_encode

    residuals = _kernel_values(width).astype(np.int64)
    base = 1 << 52  # a far-from-zero reference, as ALP integers have
    values = residuals + base
    vectors = [
        values[start : start + KERNEL_VECTOR_SIZE]
        for start in range(0, values.size, KERNEL_VECTOR_SIZE)
    ]
    encoded = [ffor_encode(v) for v in vectors]

    encode_mbps = _per_vector_mbps(
        lambda: [ffor_encode(v) for v in vectors], values.nbytes, repeats
    )
    decode_mbps = _per_vector_mbps(
        lambda: [ffor_decode(e) for e in encoded], values.nbytes, repeats
    )
    return BenchRecord(
        dataset=f"kernels/w{width:02d}",
        codec="ffor",
        n=int(values.size),
        bits_per_value=float(width),
        compression_ratio=64.0 / width,
        compress_mbps=encode_mbps,
        decompress_mbps=decode_mbps,
        compress_rel=encode_mbps / calibration,
        decompress_rel=decode_mbps / calibration,
    )


def _bench_alp_vector(repeats: int, calibration: float) -> BenchRecord:
    """End-to-end per-vector ALP encode/decode (§4.2 protocol)."""
    from repro.bench.harness import alp_vector_speed
    from repro.data import get_dataset

    values = get_dataset("City-Temp", n=KERNEL_VECTOR_SIZE)
    compress_speed, decompress_speed = alp_vector_speed(
        values, repeats=repeats, calls=ALP_VECTOR_CALLS, stat="median"
    )
    compress_mbps = compress_speed.values_per_second * 8 / 1e6
    decompress_mbps = decompress_speed.values_per_second * 8 / 1e6
    from repro.core.alp import alp_encode_vector
    from repro.core.sampler import find_best_combination

    combo, _ = find_best_combination(values)
    encoded = alp_encode_vector(values, combo.exponent, combo.factor)
    bits_per_value = encoded.bits_per_value()
    return BenchRecord(
        dataset="kernels/alp-vector",
        codec="alp",
        n=int(values.size),
        bits_per_value=bits_per_value,
        compression_ratio=64.0 / bits_per_value,
        compress_mbps=compress_mbps,
        decompress_mbps=decompress_mbps,
        compress_rel=compress_mbps / calibration,
        decompress_rel=decompress_mbps / calibration,
    )


def _query_column(name: str) -> tuple[np.ndarray, list, float]:
    """A dataset column ALP-encoded vector by vector for query kernels.

    Returns ``(values, vectors, bits_per_value)``: the raw doubles, the
    :class:`~repro.core.alp.AlpVector` list (one per
    ``KERNEL_VECTOR_SIZE`` chunk) and the measured storage footprint.
    """
    from repro.core.alp import alp_encode_rowgroup
    from repro.core.sampler import find_best_combination
    from repro.data import get_dataset

    values = get_dataset(name, n=KERNEL_VECTORS * KERNEL_VECTOR_SIZE)
    combo, _ = find_best_combination(values)
    vectors = alp_encode_rowgroup(
        values, combo.exponent, combo.factor, KERNEL_VECTOR_SIZE
    )
    bits = sum(v.size_bits() for v in vectors) / values.size
    return values, vectors, bits


def _bench_query_sum(repeats: int, calibration: float) -> BenchRecord:
    """Encoded-domain SUM vs decode-then-aggregate (``kernels/q-sum``)."""
    from repro.core.alp import alp_decode_vector, alp_sum_vector

    values, vectors, bits = _query_column(QUERY_SUM_DATASET)

    def fused() -> float:
        return sum(alp_sum_vector(v) for v in vectors)

    def decode_first() -> float:
        return sum(float(np.sum(alp_decode_vector(v))) for v in vectors)

    decode_s, fused_s, speedup = _paired_times(decode_first, fused, repeats)
    fused_mbps = values.nbytes / fused_s / 1e6
    decode_mbps = values.nbytes / decode_s / 1e6
    return BenchRecord(
        dataset="kernels/q-sum",
        codec="alp",
        n=int(values.size),
        bits_per_value=bits,
        compression_ratio=64.0 / bits,
        compress_mbps=fused_mbps,
        decompress_mbps=decode_mbps,
        compress_rel=fused_mbps / calibration,
        decompress_rel=decode_mbps / calibration,
        counters={"query.sum_speedup_vs_decode": speedup},
    )


def _bench_query_cmp(repeats: int, calibration: float) -> BenchRecord:
    """Fused selective range COUNT vs decode-then-mask (``kernels/q-cmp``)."""
    from repro.core.predicates import count_vector_encoded
    from repro.core.alp import alp_decode_vector

    values, vectors, bits = _query_column(QUERY_CMP_DATASET)
    low = float(np.quantile(values, QUERY_CMP_QUANTILE))
    high = float(values.max())

    def fused() -> int:
        return sum(count_vector_encoded(v, low, high) for v in vectors)

    def decode_first() -> int:
        total = 0
        for vector in vectors:
            decoded = alp_decode_vector(vector)
            total += int(((decoded >= low) & (decoded <= high)).sum())
        return total

    decode_s, fused_s, speedup = _paired_times(decode_first, fused, repeats)
    fused_mbps = values.nbytes / fused_s / 1e6
    decode_mbps = values.nbytes / decode_s / 1e6
    return BenchRecord(
        dataset="kernels/q-cmp",
        codec="alp",
        n=int(values.size),
        bits_per_value=bits,
        compression_ratio=64.0 / bits,
        compress_mbps=fused_mbps,
        decompress_mbps=decode_mbps,
        compress_rel=fused_mbps / calibration,
        decompress_rel=decode_mbps / calibration,
        counters={"query.cmp_speedup_vs_decode": speedup},
    )


#: Columns of ``kernels/q-sum-rowgroup``: NYC/29 (42-bit residuals,
#: the row-group grid's regime) and Food-prices.
QUERY_SUM_ROWGROUP_DATASETS = ("NYC/29", "Food-prices")
#: Row-groups per column it sums per call.
QUERY_SUM_ROWGROUP_ROWGROUPS = 2
#: Interleaved pairs per repeat of each of its two comparisons.
QUERY_SUM_ROWGROUP_PAIRS_PER_REPEAT = 3


def _bench_query_sum_rowgroup(repeats: int, calibration: float) -> BenchRecord:
    """Row-group encoded SUM (``kernels/q-sum-rowgroup``).

    :func:`~repro.query.engine.sum_query` over an
    :class:`~repro.query.sources.AlpSource` of
    :data:`QUERY_SUM_ROWGROUP_ROWGROUPS` full row-groups of each of
    :data:`QUERY_SUM_ROWGROUP_DATASETS` (one integer pass per
    row-group, one term per vector), timed in interleaved pairs
    (:func:`_paired_times`) against two other arms:

    - the per-vector encoded loop it replaced (``alp_sum_vector`` on
      each vector alone), ratio under
      ``counters["query.<dataset>_sum_speedup_vs_vector"]``;
    - decode-first SUM by row-group
      (:func:`~repro.core.compressor.decode_rowgroup_into`, then one
      ``np.sum`` per vector), ratio under
      ``counters["query.<dataset>_sum_speedup_vs_decode"]``.

    All three fold the same per-vector terms in the same order; the
    encoded arms must agree to the bit.  ``compress_mbps`` is the
    row-group encoded SUM, ``decompress_mbps`` decode-first, both over
    both columns.
    """
    from repro.core.alp import alp_sum_vector
    from repro.core.compressor import compress, decode_rowgroup_into
    from repro.core.constants import ROWGROUP_VECTORS
    from repro.data import get_dataset
    from repro.query.engine import fold_sum, sum_query
    from repro.query.sources import AlpSource

    counters: dict[str, float] = {}
    encoded_seconds = decode_seconds = 0.0
    total_bits = total_values = 0
    pairs = QUERY_SUM_ROWGROUP_PAIRS_PER_REPEAT * repeats
    for name in QUERY_SUM_ROWGROUP_DATASETS:
        rows = QUERY_SUM_ROWGROUP_ROWGROUPS * ROWGROUP_VECTORS
        values = get_dataset(name, n=rows * KERNEL_VECTOR_SIZE)
        column = compress(values)
        if column.uses_rd:
            raise AssertionError(f"{name}: expected ALP row-groups only")
        source = AlpSource(column)
        alp_vectors = [v for rg in column.rowgroups for v in rg.alp.vectors]
        outs = [np.empty(rg.count, dtype=np.float64) for rg in column.rowgroups]

        def per_vector() -> float:
            return fold_sum(alp_sum_vector(v) for v in alp_vectors)

        def per_rowgroup() -> float:
            return sum_query(source)

        def decode_first() -> float:
            terms = []
            for rowgroup, out in zip(column.rowgroups, outs, strict=True):
                decode_rowgroup_into(rowgroup, out)
                terms += [
                    float(out[at : at + KERNEL_VECTOR_SIZE].sum())
                    for at in range(0, out.size, KERNEL_VECTOR_SIZE)
                ]
            return fold_sum(terms)

        if np.float64(per_vector()).tobytes() != np.float64(
            per_rowgroup()
        ).tobytes():
            raise AssertionError(f"{name}: row-group SUM is not bit-identical")
        _, _, vs_vector = _paired_times(per_vector, per_rowgroup, pairs)
        decode_s, encoded_s, vs_decode = _paired_times(
            decode_first, per_rowgroup, pairs
        )
        counters[f"query.{name}_sum_speedup_vs_vector"] = vs_vector
        counters[f"query.{name}_sum{SPEEDUP_SUFFIX}"] = vs_decode
        encoded_seconds += encoded_s
        decode_seconds += decode_s
        total_bits += column.size_bits()
        total_values += values.size
    encoded_mbps = total_values * 8 / encoded_seconds / 1e6
    decode_mbps = total_values * 8 / decode_seconds / 1e6
    bits_per_value = total_bits / total_values
    return BenchRecord(
        dataset="kernels/q-sum-rowgroup",
        codec="alp",
        n=total_values,
        bits_per_value=bits_per_value,
        compression_ratio=64.0 / bits_per_value,
        compress_mbps=encoded_mbps,
        decompress_mbps=decode_mbps,
        compress_rel=encoded_mbps / calibration,
        decompress_rel=decode_mbps / calibration,
        counters=counters,
    )


#: Rows of the v4 table the zone-map pushdown kernel scans.
TABLE_BENCH_ROWS = 256 * KERNEL_VECTOR_SIZE
#: Selectivity of its range predicate (fraction of rows kept).
TABLE_BENCH_SELECTIVITY = 0.01


def _bench_query_table(repeats: int, calibration: float) -> BenchRecord:
    """Zone-map-pruned v4 table scan vs decode-everything
    (``kernels/q-table``)."""
    import os
    import tempfile

    from repro import obs
    from repro.query.table import FilterPredicate
    from repro.storage.schema import Column, Schema
    from repro.storage.tablefile import TableFileReader, TableFileWriter

    n = TABLE_BENCH_ROWS
    rng = np.random.default_rng(0xA19)
    # A monotone predicate column (the time-series shape zone maps
    # exist for) plus a decimal value column.
    ts = np.cumsum(rng.random(n) + 0.5)
    value = np.round(rng.normal(20, 5, n), 2)
    lo_row = int(n * (0.5 - TABLE_BENCH_SELECTIVITY / 2))
    hi_row = int(n * (0.5 + TABLE_BENCH_SELECTIVITY / 2)) - 1
    low, high = float(ts[lo_row]), float(ts[hi_row])
    predicate = FilterPredicate("ts", low=low, high=high)

    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "qtable.alpc")
        schema = Schema((Column("ts"), Column("value")))
        with TableFileWriter(path, schema) as writer:
            writer.write_rows({"ts": ts, "value": value})
        with TableFileReader(path) as reader:

            def pruned() -> np.ndarray:
                values, _ = reader.scan(["value"], predicate)
                return values["value"]

            def decode_everything() -> np.ndarray:
                values, _ = reader.read_columns(["ts", "value"])
                mask = (values["ts"] >= low) & (values["ts"] <= high)
                return values["value"][mask]

            # The pruned scan must be bit-identical to the full scan
            # before its throughput means anything.
            if not np.array_equal(pruned(), decode_everything()):
                raise AssertionError(
                    "pruned table scan disagrees with decode-everything"
                )

            nbytes = ts.nbytes + value.nbytes
            pruned_mbps = _per_vector_mbps(pruned, nbytes, repeats)
            decode_mbps = _per_vector_mbps(
                decode_everything, nbytes, repeats
            )

            # Skip fraction, measured from the reader's own pruning
            # counters over one observed scan.
            was_enabled = obs.enabled()
            obs.enable()
            try:
                before = obs.snapshot()["counters"]
                pruned()
                after = obs.snapshot()["counters"]
            finally:
                if not was_enabled:
                    obs.disable()

            def delta(name: str) -> float:
                return float(after.get(name, 0)) - float(
                    before.get(name, 0)
                )

            skipped = delta("tablefile.vectors_pruned")
            decoded = delta("tablefile.vectors_decoded")
            skip_fraction = skipped / max(skipped + decoded, 1.0)

        compressed_bytes = os.path.getsize(path)

    bits = 8.0 * compressed_bytes / n
    return BenchRecord(
        dataset="kernels/q-table",
        codec="alp",
        n=n,
        bits_per_value=bits,
        compression_ratio=(2 * 64.0) / bits if bits else 0.0,
        compress_mbps=pruned_mbps,
        decompress_mbps=decode_mbps,
        compress_rel=pruned_mbps / calibration,
        decompress_rel=decode_mbps / calibration,
        counters={
            "table.scan_speedup_vs_decode": pruned_mbps / decode_mbps,
            "table.vectors_skip_fraction": skip_fraction,
        },
    )


def _bench_io(repeats: int, calibration: float) -> BenchRecord:
    """Cold-file read pipelines: the ``kernels/io`` record.

    ``compress_mbps`` times the **retired** pipeline, step for step —
    buffered open, a ``bytes(...)`` copy per payload, the scalar
    :func:`~repro.storage.integrity.crc32c_reference` checksum, a fresh
    decode allocation per row-group and a final ``concatenate`` —
    against ``decompress_mbps``, the current one: ``mmap=True`` open,
    checksums over zero-copy ``memoryview`` slices via the
    block-table CRC, and every row-group decoding straight into one
    reused caller buffer.  Their ratio,
    ``counters["io.coldread_speedup_vs_decode"]``, is floored like the
    query kernels'; the counters also carry the warm-read throughput
    (reader kept open, checksum verdicts cached) and the in-memory
    decode-into vs decode-alloc ratio, isolating the allocation term
    from the I/O term.
    """
    import shutil
    import tempfile

    from repro.core.compressor import (
        CompressedRowGroups,
        compress,
        decompress,
    )
    from repro.data import get_dataset
    from repro.storage.integrity import crc32c_reference
    from repro.storage.schema import Column, Schema
    from repro.storage.serializer import deserialize_rowgroup, empty_stats
    from repro.storage.tablefile import (
        TableColumnReader,
        TableFileReader,
        TableFileWriter,
    )

    values = get_dataset(
        QUERY_SUM_DATASET, n=KERNEL_VECTORS * KERNEL_VECTOR_SIZE
    )
    tmpdir = tempfile.mkdtemp(prefix="alp-bench-io-")
    path = f"{tmpdir}/io.alpc"
    try:
        with TableFileWriter(path, Schema((Column("io"),))) as writer:
            writer.write_rows({"io": values})

        probe = TableColumnReader.open(path, mmap=True)
        vector_size = probe.vector_size
        file_bits = sum(m.length * 8 for m in probe.metadata)
        probe.close()

        def legacy_cold_read() -> np.ndarray:
            reader = TableFileReader(path)
            chunks = []
            for index in range(reader.rowgroup_count):
                payload = bytes(reader.chunk_payload(index, "io"))
                meta = reader.chunk_meta(index, "io")
                if crc32c_reference(payload) != meta.payload_crc:
                    raise ValueError("checksum mismatch")
                # Past the 6-byte frame of a null-free float chunk:
                # flags (u8), codec tag (u8), payload length (u32).
                rowgroup, _ = deserialize_rowgroup(payload, 6)
                column = CompressedRowGroups(
                    rowgroups=(rowgroup,),
                    count=rowgroup.count,
                    vector_size=vector_size,
                    stats=empty_stats(),
                )
                chunks.append(decompress(column))
            reader.close()
            return np.concatenate(chunks)

        target = np.empty(values.size, dtype=np.float64)

        def mmap_cold_read() -> np.ndarray:
            reader = TableColumnReader.open(path, mmap=True)
            reader.read_all(out=target)
            reader.close()
            return target

        legacy_mbps = _per_vector_mbps(
            legacy_cold_read, values.nbytes, repeats
        )
        mmap_mbps = _per_vector_mbps(mmap_cold_read, values.nbytes, repeats)

        warm_reader = TableColumnReader.open(path, mmap=True)
        warm_reader.read_all(out=target)  # prime checksum verdicts
        warm_mbps = _per_vector_mbps(
            lambda: warm_reader.read_all(out=target), values.nbytes, repeats
        )
        warm_reader.close()

        column = compress(values)
        into_mbps = _per_vector_mbps(
            lambda: decompress(column, out=target), values.nbytes, repeats
        )
        alloc_mbps = _per_vector_mbps(
            lambda: decompress(column), values.nbytes, repeats
        )
    finally:
        shutil.rmtree(tmpdir, ignore_errors=True)

    bits = file_bits / values.size
    return BenchRecord(
        dataset="kernels/io",
        codec="read",
        n=int(values.size),
        bits_per_value=bits,
        compression_ratio=64.0 / bits,
        compress_mbps=legacy_mbps,
        decompress_mbps=mmap_mbps,
        compress_rel=legacy_mbps / calibration,
        decompress_rel=mmap_mbps / calibration,
        counters={
            "io.coldread_speedup_vs_decode": mmap_mbps / legacy_mbps,
            "io.warm_read_mbps": warm_mbps,
            "io.decode_into_speedup_vs_alloc": into_mbps / alloc_mbps,
        },
    )


#: Bytes the CRC32C kernel record checksums: about one compressed
#: float64 chunk of a 51,200-row row-group.
CRC_BENCH_BYTES = 300_000


def _bench_crc32c(repeats: int, calibration: float) -> BenchRecord:
    """Block-table CRC32C vs the scalar reference (``kernels/crc32c``).

    ``compress_mbps`` times the scalar slicing-by-8
    :func:`~repro.storage.integrity.crc32c_reference`,
    ``decompress_mbps`` the block-table :func:`~repro.storage.integrity.crc32c`
    the writer and readers run, both over one chunk-sized buffer; their
    ratio is ``counters["crc.speedup_vs_reference"]``.
    """
    from repro.storage.integrity import crc32c, crc32c_reference

    data = np.random.default_rng(0xC2C).integers(
        0, 256, CRC_BENCH_BYTES, dtype=np.uint8
    ).tobytes()
    if crc32c(data) != crc32c_reference(data):
        raise AssertionError("block-table crc32c disagrees with the reference")
    reference_mbps = _per_vector_mbps(
        lambda: crc32c_reference(data), len(data), repeats
    )
    block_mbps = _per_vector_mbps(lambda: crc32c(data), len(data), repeats)
    return BenchRecord(
        dataset="kernels/crc32c",
        codec="crc",
        n=len(data),
        bits_per_value=8.0,
        compression_ratio=1.0,
        compress_mbps=reference_mbps,
        decompress_mbps=block_mbps,
        compress_rel=reference_mbps / calibration,
        decompress_rel=block_mbps / calibration,
        counters={"crc.speedup_vs_reference": block_mbps / reference_mbps},
    )


#: Columns the row-group decode kernel is measured on: two ALP columns
#: (narrow and wide bit widths) and the ALP_rd column.
ROWGROUP_DECODE_DATASETS = ("City-Temp", "NYC/29", "POI-lat")
#: Row-groups per column the row-group decode kernel decodes per call.
ROWGROUP_DECODE_ROWGROUPS = 4
#: Calls per timed unit of ``kernels/rowgroup-decode``: units of 15-30 ms
#: on a 2-vCPU host instead of one 7-14 ms call.
ROWGROUP_DECODE_CALLS = 2
#: Interleaved pairs per repeat.  On a loaded 2-vCPU host the City-Temp
#: median of 7 pairs read down to 1.53 against its 1.6 floor; the median
#: of 21 read 1.80-1.95 over 20 runs.
ROWGROUP_DECODE_PAIRS_PER_REPEAT = 3
#: Counter suffix of the row-group decode speedups.
VECTOR_SPEEDUP = "_speedup_vs_vector"


def _decode_per_vector(rowgroup, out: np.ndarray) -> None:
    """The per-vector loop :func:`decode_rowgroup_into` replaced: one
    full decode (unpack, reference, ALP_dec or glue) per vector."""
    from repro.core.alp import alp_decode_vector
    from repro.core.alprd import decode_vector_bits

    pos = 0
    if rowgroup.alp is not None:
        for vector in rowgroup.alp.vectors:
            alp_decode_vector(vector, out=out[pos : pos + vector.count])
            pos += vector.count
        return
    bits = out.view(np.uint64)
    for vector in rowgroup.rd.vectors:
        bits[pos : pos + vector.count] = decode_vector_bits(
            vector, rowgroup.rd.parameters
        )
        pos += vector.count


def _paired_times(
    before, after, repeats: int
) -> tuple[float, float, float]:
    """Median seconds of ``before`` and ``after`` and their speedup.

    The two callables alternate so host-speed drift hits both alike;
    the speedup is the median of the ``repeats`` adjacent-pair ratios.
    """
    before_times, after_times = [], []
    for _ in range(repeats):
        for fn, times in ((before, before_times), (after, after_times)):
            start = time.perf_counter()
            fn()
            times.append(time.perf_counter() - start)
    return (
        float(np.median(before_times)),
        float(np.median(after_times)),
        float(np.median(np.array(before_times) / np.array(after_times))),
    )


def _bench_rowgroup_decode(repeats: int, calibration: float) -> BenchRecord:
    """Row-group decode vs the per-vector loop (``kernels/rowgroup-decode``).

    :data:`ROWGROUP_DECODE_ROWGROUPS` full row-groups (100 vectors
    each) of each of :data:`ROWGROUP_DECODE_DATASETS`, decoded
    :data:`ROWGROUP_DECODE_CALLS` times per timed unit, over
    :data:`ROWGROUP_DECODE_PAIRS_PER_REPEAT` interleaved pairs per
    repeat: ``compress_mbps`` is the per-vector loop
    (:func:`_decode_per_vector`), ``decompress_mbps``
    :func:`~repro.core.compressor.decode_rowgroup_into`, both over all
    three columns, and ``counters["rowgroup.<dataset>_speedup_vs_vector"]``
    their ratio per column, each floored in the kernel baseline.
    """
    from repro.core.compressor import compress, decode_rowgroup_into
    from repro.core.constants import ROWGROUP_VECTORS
    from repro.data import get_dataset

    counters: dict[str, float] = {}
    loop_seconds = rowgroup_seconds = 0.0
    total_bits = total_values = 0
    for name in ROWGROUP_DECODE_DATASETS:
        rows = ROWGROUP_DECODE_ROWGROUPS * ROWGROUP_VECTORS
        values = get_dataset(name, n=rows * KERNEL_VECTOR_SIZE)
        column = compress(values)
        parts = [
            (rowgroup, np.empty(rowgroup.count, dtype=np.float64))
            for rowgroup in column.rowgroups
        ]

        def per_vector() -> None:
            for _ in range(ROWGROUP_DECODE_CALLS):
                for rowgroup, out in parts:
                    _decode_per_vector(rowgroup, out)

        def per_rowgroup() -> None:
            for _ in range(ROWGROUP_DECODE_CALLS):
                for rowgroup, out in parts:
                    decode_rowgroup_into(rowgroup, out)

        per_rowgroup()
        decoded = np.concatenate([out for _, out in parts])
        if not np.array_equal(decoded.view(np.uint64), values.view(np.uint64)):
            raise AssertionError(f"{name}: row-group decode is not bit-exact")
        loop_s, rowgroup_s, speedup = _paired_times(
            per_vector,
            per_rowgroup,
            ROWGROUP_DECODE_PAIRS_PER_REPEAT * repeats,
        )
        counters[f"rowgroup.{name}{VECTOR_SPEEDUP}"] = speedup
        loop_seconds += loop_s
        rowgroup_seconds += rowgroup_s
        total_bits += column.size_bits()
        total_values += values.size
    nbytes = total_values * 8 * ROWGROUP_DECODE_CALLS
    loop_mbps = nbytes / loop_seconds / 1e6
    rowgroup_mbps = nbytes / rowgroup_seconds / 1e6
    bits_per_value = total_bits / total_values
    return BenchRecord(
        dataset="kernels/rowgroup-decode",
        codec="decode",
        n=total_values,
        bits_per_value=bits_per_value,
        compression_ratio=64.0 / bits_per_value,
        compress_mbps=loop_mbps,
        decompress_mbps=rowgroup_mbps,
        compress_rel=loop_mbps / calibration,
        decompress_rel=rowgroup_mbps / calibration,
        counters=counters,
    )


#: Chunks per column the ``kernels/deserialize`` record parses per call.
DESERIALIZE_ROWGROUPS = 4


def _bench_deserialize(repeats: int, calibration: float) -> BenchRecord:
    """Chunk parse speed (``kernels/deserialize``).

    :data:`DESERIALIZE_ROWGROUPS` full row-groups (100 vectors each) of
    each of :data:`ROWGROUP_DECODE_DATASETS`, serialized once:
    ``compress_mbps`` times :func:`~repro.storage.serializer.serialize_rowgroup`
    and ``decompress_mbps``
    :func:`~repro.storage.serializer.deserialize_rowgroup` over all
    twelve chunks, both in MB/s of the float64 values the chunks hold.
    Raises unless every parse consumes its whole chunk and serializes
    back to the same bytes.
    """
    from repro.core.compressor import compress
    from repro.core.constants import ROWGROUP_VECTORS
    from repro.data import get_dataset
    from repro.storage.serializer import (
        deserialize_rowgroup,
        serialize_rowgroup,
    )

    rowgroups = []
    total_bits = total_values = 0
    for name in ROWGROUP_DECODE_DATASETS:
        rows = DESERIALIZE_ROWGROUPS * ROWGROUP_VECTORS
        values = get_dataset(name, n=rows * KERNEL_VECTOR_SIZE)
        column = compress(values)
        rowgroups += column.rowgroups
        total_bits += column.size_bits()
        total_values += values.size
    chunks = [serialize_rowgroup(rowgroup) for rowgroup in rowgroups]
    for chunk in chunks:
        parsed, consumed = deserialize_rowgroup(chunk)
        if consumed != len(chunk) or serialize_rowgroup(parsed) != chunk:
            raise AssertionError("deserialize_rowgroup does not round-trip")
    nbytes = total_values * 8
    serialize_mbps = _per_vector_mbps(
        lambda: [serialize_rowgroup(rowgroup) for rowgroup in rowgroups],
        nbytes,
        repeats,
    )
    deserialize_mbps = _per_vector_mbps(
        lambda: [deserialize_rowgroup(chunk) for chunk in chunks],
        nbytes,
        repeats,
    )
    bits_per_value = total_bits / total_values
    return BenchRecord(
        dataset="kernels/deserialize",
        codec="serde",
        n=total_values,
        bits_per_value=bits_per_value,
        compression_ratio=64.0 / bits_per_value,
        compress_mbps=serialize_mbps,
        decompress_mbps=deserialize_mbps,
        compress_rel=serialize_mbps / calibration,
        decompress_rel=deserialize_mbps / calibration,
    )


#: Columns the row-group encode kernel compresses: k' = 1, k' > 1
#: (every Stocks-DE row-group keeps two candidates), ALP_rd, and an
#: int64 timestamp column like the end-to-end benchmark's ``ts``.
ROWGROUP_ENCODE_DATASETS = ("City-Temp", "Stocks-DE", "POI-lat", "ts")
#: Counter suffix of the row-group encode speedups.
ENCODE_SPEEDUP = "_speedup_vs_vector_encode"


def _ts_column(n: int) -> np.ndarray:
    """Epoch-millisecond timestamps 0.5-1.5 s apart (an int64 column)."""
    rng = np.random.default_rng(0x7473)
    steps = np.round(rng.uniform(500.0, 1500.0, n)).astype(np.int64)
    return 1_600_000_000_000 + np.cumsum(steps)


def _float_chunks(chunks: list[np.ndarray]) -> list[bytes]:
    """Serialized :func:`~repro.core.compressor.compress_rowgroup` of
    each float64 row-group."""
    from repro.core.compressor import compress_rowgroup
    from repro.storage.serializer import serialize_rowgroup

    return [serialize_rowgroup(compress_rowgroup(c)[0]) for c in chunks]


def _float_chunks_per_vector(chunks: list[np.ndarray]) -> list[bytes]:
    """The same through the per-vector reference encoder."""
    from repro.core.compressor import compress_rowgroup_reference
    from repro.storage.serializer import serialize_rowgroup

    return [serialize_rowgroup(compress_rowgroup_reference(c)) for c in chunks]


def _int_chunks(chunks: list[np.ndarray]) -> list[bytes]:
    """The table writer's int64 chunk payload of each row-group."""
    from repro.storage.tablefile import _encode_int_payload

    return [_encode_int_payload(c, VECTOR_SIZE, None)[0] for c in chunks]


def _int_chunks_per_vector(chunks: list[np.ndarray]) -> list[bytes]:
    """The same from one FFOR and one delta encode per vector, keeping
    the smaller payload (FFOR on a tie) as the writer does."""
    from repro.storage.tablefile import _encode_int_payload_reference

    return [
        min(
            _encode_int_payload_reference(c, VECTOR_SIZE, "ffor"),
            _encode_int_payload_reference(c, VECTOR_SIZE, "delta"),
            key=len,
        )
        for c in chunks
    ]


def _bench_rowgroup_encode(repeats: int, calibration: float) -> BenchRecord:
    """Row-group encode vs the per-vector loop (``kernels/rowgroup-encode``).

    :data:`ROWGROUP_DECODE_ROWGROUPS` full row-groups of each of
    :data:`ROWGROUP_ENCODE_DATASETS`.  Float columns time
    :func:`~repro.core.compressor.compress_rowgroup` against
    :func:`~repro.core.compressor.compress_rowgroup_reference` (sampling
    included on both sides); the int64 column times the table writer's
    chunk encoder against one ``ffor_encode`` / ``delta_encode`` call
    per vector.  The serialized outputs must be byte-identical.
    ``compress_mbps`` is the row-group path, ``decompress_mbps`` the
    per-vector loop, both over all four columns, and
    ``counters["rowgroup.<dataset>_speedup_vs_vector_encode"]`` their
    ratio per column, each floored in the kernel baseline.
    """
    from repro.core.constants import ROWGROUP_SIZE
    from repro.data import get_dataset

    counters: dict[str, float] = {}
    loop_seconds = rowgroup_seconds = 0.0
    total_bytes = total_values = 0
    n = ROWGROUP_DECODE_ROWGROUPS * ROWGROUP_SIZE
    for name in ROWGROUP_ENCODE_DATASETS:
        values = _ts_column(n) if name == "ts" else get_dataset(name, n=n)
        chunks = [
            values[start : start + ROWGROUP_SIZE]
            for start in range(0, n, ROWGROUP_SIZE)
        ]
        if name == "ts":
            per_vector = functools.partial(_int_chunks_per_vector, chunks)
            per_rowgroup = functools.partial(_int_chunks, chunks)
        else:
            per_vector = functools.partial(_float_chunks_per_vector, chunks)
            per_rowgroup = functools.partial(_float_chunks, chunks)
        encoded = per_rowgroup()
        if encoded != per_vector():
            raise AssertionError(f"{name}: row-group encode is not byte-exact")
        loop_s, rowgroup_s, speedup = _paired_times(
            per_vector, per_rowgroup, repeats
        )
        counters[f"rowgroup.{name}{ENCODE_SPEEDUP}"] = speedup
        loop_seconds += loop_s
        rowgroup_seconds += rowgroup_s
        total_bytes += sum(len(payload) for payload in encoded)
        total_values += values.size
    nbytes = total_values * 8
    rowgroup_mbps = nbytes / rowgroup_seconds / 1e6
    loop_mbps = nbytes / loop_seconds / 1e6
    bits_per_value = total_bytes * 8 / total_values
    return BenchRecord(
        dataset="kernels/rowgroup-encode",
        codec="encode",
        n=total_values,
        bits_per_value=bits_per_value,
        compression_ratio=64.0 / bits_per_value,
        compress_mbps=rowgroup_mbps,
        decompress_mbps=loop_mbps,
        compress_rel=rowgroup_mbps / calibration,
        decompress_rel=loop_mbps / calibration,
        counters=counters,
    )


#: Columns the sampler kernel samples: k' = 1 (City-Temp), k' > 1
#: (Stocks-DE, level two runs) and ALP_rd (POI-lat, level one decides).
SAMPLER_DATASETS = ("City-Temp", "Stocks-DE", "POI-lat")
#: Row-groups per column the sampler kernel samples per call.
SAMPLER_ROWGROUPS = 2
#: Counter suffix of the sampler speedups.
SAMPLER_SPEEDUP = "_speedup_vs_loop"


def _sample_batched(chunks: list[np.ndarray]) -> list[tuple]:
    """Both sampling levels of each row-group, as ``compress`` runs them:
    ``(candidates, use_rd, estimate, per-vector (e, f, tried) or None)``
    with ``estimate`` the level-one bits/value."""
    from repro.core.sampler import (
        first_level_sample,
        second_level_sample_rowgroup,
    )

    decisions = []
    for chunk in chunks:
        first = first_level_sample(chunk)
        winners = None
        if not first.use_rd and first.k_prime > 1:
            choices = second_level_sample_rowgroup(chunk, first.candidates)
            winners = list(
                zip(
                    choices.exponents.tolist(),
                    choices.factors.tolist(),
                    choices.tried.tolist(),
                    strict=True,
                )
            )
        decisions.append(
            (
                first.candidates,
                first.use_rd,
                first.best_estimated_bits_per_value,
                winners,
            )
        )
    return decisions


def _sample_loop(chunks: list[np.ndarray]) -> list[tuple]:
    """The same decisions from the loop references: one
    ``estimate_size_bits`` call per (vector, combination)."""
    from repro.core.sampler import (
        first_level_sample_loop,
        second_level_sample_loop,
    )

    decisions = []
    for chunk in chunks:
        first = first_level_sample_loop(chunk)
        winners = None
        if not first.use_rd and first.k_prime > 1:
            winners = []
            for start in range(0, chunk.size, VECTOR_SIZE):
                second = second_level_sample_loop(
                    chunk[start : start + VECTOR_SIZE], first.candidates
                )
                combo = second.combination
                winners.append(
                    (combo.exponent, combo.factor, second.combinations_tried)
                )
        decisions.append(
            (
                first.candidates,
                first.use_rd,
                first.best_estimated_bits_per_value,
                winners,
            )
        )
    return decisions


def _bench_sampler(repeats: int, calibration: float) -> BenchRecord:
    """Batched two-level sampling vs the loop references
    (``kernels/sampler``).

    :data:`SAMPLER_ROWGROUPS` full row-groups of each of
    :data:`SAMPLER_DATASETS`: ``compress_mbps`` is
    :func:`~repro.core.sampler.first_level_sample` plus
    :func:`~repro.core.sampler.second_level_sample_rowgroup` where more
    than one candidate survives, ``decompress_mbps`` the per-vector,
    per-combination loop references, both over all three columns, and
    ``counters["sampler.<dataset>_speedup_vs_loop"]`` their ratio per
    column, each floored in the kernel baseline.  Candidates, the ALP_rd
    decision, the level-one estimate and every vector's winner must be
    identical.  ``bits_per_value`` is the mean level-one estimate.
    """
    from repro.core.constants import ROWGROUP_SIZE
    from repro.data import get_dataset

    counters: dict[str, float] = {}
    loop_seconds = batched_seconds = 0.0
    estimates: list[float] = []
    total_values = 0
    n = SAMPLER_ROWGROUPS * ROWGROUP_SIZE
    for name in SAMPLER_DATASETS:
        values = get_dataset(name, n=n)
        chunks = [
            values[start : start + ROWGROUP_SIZE]
            for start in range(0, n, ROWGROUP_SIZE)
        ]
        batched = functools.partial(_sample_batched, chunks)
        loop = functools.partial(_sample_loop, chunks)
        decisions = batched()
        if decisions != loop():
            raise AssertionError(f"{name}: batched sampling decisions differ")
        loop_s, batched_s, speedup = _paired_times(loop, batched, repeats)
        counters[f"sampler.{name}{SAMPLER_SPEEDUP}"] = speedup
        loop_seconds += loop_s
        batched_seconds += batched_s
        estimates.extend(estimate for _, _, estimate, _ in decisions)
        total_values += values.size
    nbytes = total_values * 8
    batched_mbps = nbytes / batched_seconds / 1e6
    loop_mbps = nbytes / loop_seconds / 1e6
    bits_per_value = float(np.mean(estimates))
    return BenchRecord(
        dataset="kernels/sampler",
        codec="sample",
        n=total_values,
        bits_per_value=bits_per_value,
        compression_ratio=64.0 / bits_per_value,
        compress_mbps=batched_mbps,
        decompress_mbps=loop_mbps,
        compress_rel=batched_mbps / calibration,
        decompress_rel=loop_mbps / calibration,
        counters=counters,
    )


def kernel_bench_records(repeats: int = 5) -> list[BenchRecord]:
    """All kernel micro-benchmark records (see module docstring).

    The calibration anchoring the ``*_rel`` fields is measured next to
    each record: before the first, then after every record, and each
    record is anchored on the mean of the calibrations on either side
    of it.  A host slowdown over part of the sweep then moves the
    records it overlaps and their own calibrations together, the same
    drift-compensation idea as the per-record sandwich in
    :func:`repro.bench.harness.bench_codec_structured`.
    """
    from repro.bench.harness import calibration_mbps

    builders = [
        functools.partial(bench, width)
        for width in KERNEL_WIDTHS
        for bench in (_bench_pack, _bench_ffor)
    ] + [
        _bench_alp_vector,
        _bench_query_sum,
        _bench_query_sum_rowgroup,
        _bench_query_cmp,
        _bench_query_table,
        _bench_io,
        _bench_crc32c,
        _bench_rowgroup_decode,
        _bench_deserialize,
        _bench_rowgroup_encode,
        _bench_sampler,
    ]
    records = []
    before = calibration_mbps(repeats=repeats)
    for build in builders:
        record = build(repeats, before)
        after = calibration_mbps(repeats=repeats)
        calibration = (before + after) / 2
        records.append(
            dataclasses.replace(
                record,
                compress_rel=record.compress_mbps / calibration,
                decompress_rel=record.decompress_mbps / calibration,
            )
        )
        before = after
    return records


def _speedup_note(record: BenchRecord) -> str:
    """The printed summary of a record's ``*speedup_vs_*`` counters,
    e.g. ``(NYC/29_sum 2.61x vs vector, ...)``."""
    notes = []
    for name, value in record.counters.items():
        found = re.fullmatch(r"[^.]*\.(?:(.*)_)?speedup_vs_(.*)", name)
        if found:
            label = f"{found.group(1)} " if found.group(1) else ""
            notes.append(f"{label}{value:.2f}x vs {found.group(2)}")
    return f"  ({', '.join(notes)})" if notes else ""


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.bench.kernels",
        description="kernel micro-benchmarks (pack/unpack, FFOR, ALP vector)",
    )
    parser.add_argument(
        "--repeats", type=int, default=5, help="timing repeats (default 5)"
    )
    parser.add_argument(
        "--out",
        default=None,
        help="also write the records as a BENCH_*.json document",
    )
    args = parser.parse_args(argv)
    records = kernel_bench_records(repeats=args.repeats)
    for record in records:
        extra = _speedup_note(record)
        print(
            f"{record.dataset:23s} {record.codec:6s} "
            f"C {record.compress_mbps:8.1f} MB/s  "
            f"D {record.decompress_mbps:8.1f} MB/s{extra}"
        )
    if args.out:
        from repro.bench.harness import calibration_mbps
        from repro.bench.records import write_bench_json

        config = {
            "repeats": args.repeats,
            "widths": list(KERNEL_WIDTHS),
            "vectors": KERNEL_VECTORS,
            "vector_size": KERNEL_VECTOR_SIZE,
        }
        write_bench_json(
            args.out, records, config, calibration_mbps(repeats=args.repeats)
        )
        print(f"wrote {len(records)} records to {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
