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
ALP_dec + patch), the paper's §4.2 micro-benchmark unit.  The ``pack``
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
  their ratio;
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

Records follow the ``BENCH_*.json`` schema (see
:mod:`repro.bench.records`): ``bits_per_value`` is the field width and
``compression_ratio`` is ``64 / width``, both deterministic, so the CI
regression gate's ratio check doubles as a layout invariant; the
``*_rel`` throughputs are calibration-anchored like every other record.
"""

from __future__ import annotations

import argparse
import sys

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
        values, repeats=repeats
    )
    compress_mbps = values.nbytes / compress_speed.seconds / 1e6
    decompress_mbps = values.nbytes / decompress_speed.seconds / 1e6
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

    fused_mbps = _per_vector_mbps(fused, values.nbytes, repeats)
    decode_mbps = _per_vector_mbps(decode_first, values.nbytes, repeats)
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
        counters={"query.sum_speedup_vs_decode": fused_mbps / decode_mbps},
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

    fused_mbps = _per_vector_mbps(fused, values.nbytes, repeats)
    decode_mbps = _per_vector_mbps(decode_first, values.nbytes, repeats)
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
        counters={"query.cmp_speedup_vs_decode": fused_mbps / decode_mbps},
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


def kernel_bench_records(repeats: int = 5) -> list[BenchRecord]:
    """All kernel micro-benchmark records (see module docstring).

    The calibration anchoring the ``*_rel`` fields is measured once
    before and once after the kernel sweep and averaged, the same
    drift-compensation idea as the per-record sandwich in
    :func:`repro.bench.harness.bench_codec_structured`.
    """
    from repro.bench.harness import calibration_mbps

    cal_before = calibration_mbps(repeats=repeats)
    raw: list[BenchRecord] = []
    for width in KERNEL_WIDTHS:
        raw.append(_bench_pack(width, repeats, cal_before))
        raw.append(_bench_ffor(width, repeats, cal_before))
    raw.append(_bench_alp_vector(repeats, cal_before))
    raw.append(_bench_query_sum(repeats, cal_before))
    raw.append(_bench_query_cmp(repeats, cal_before))
    raw.append(_bench_query_table(repeats, cal_before))
    raw.append(_bench_io(repeats, cal_before))
    raw.append(_bench_crc32c(repeats, cal_before))
    calibration = (cal_before + calibration_mbps(repeats=repeats)) / 2

    # Re-anchor every record on the averaged calibration.
    return [
        BenchRecord(
            dataset=record.dataset,
            codec=record.codec,
            n=record.n,
            bits_per_value=record.bits_per_value,
            compression_ratio=record.compression_ratio,
            compress_mbps=record.compress_mbps,
            decompress_mbps=record.decompress_mbps,
            compress_rel=record.compress_mbps / calibration,
            decompress_rel=record.decompress_mbps / calibration,
            spans=record.spans,
            counters=record.counters,
        )
        for record in raw
    ]


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
        extra = ""
        speedup = record.counters.get("pack.speedup_vs_bitmatrix")
        if speedup is not None:
            extra = f"  ({speedup:.1f}x vs bit-matrix)"
        speedup = record.counters.get("crc.speedup_vs_reference")
        if speedup is not None:
            extra = f"  ({speedup:.1f}x vs scalar reference)"
        for name, value in record.counters.items():
            if name.endswith(SPEEDUP_SUFFIX):
                extra = f"  ({value:.2f}x fused vs decode-first)"
        print(
            f"{record.dataset:18s} {record.codec:5s} "
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
