"""Metric definitions of the end-to-end benchmark.

End-to-end metrics come from untraced timed phases; per-layer metrics
come from a traced phase (see ``tracing.py``).  Names and units here are
the ones ``BENCHMARK.json`` lists — ``test_e2e.py`` checks that every
listed metric is emitted with its unit.
"""

from __future__ import annotations

import statistics
from dataclasses import dataclass, field

import numpy as np

from tracing import Spans

MB = 1e6
MIB = 1 << 20


@dataclass
class Op:
    """One timed operation as the caller saw it."""

    kind: str
    seconds: float
    nbytes: int  # raw 8-byte values the operation covered, in bytes
    vectors: int  # 1024-value vectors the operation covered
    ok: bool = True
    trace: int = -1


@dataclass
class Phase:
    """The operations of one timed phase.

    ``busy_s`` is the throughput denominator: the summed operation time
    of a single-threaded in-process phase (so checks done between
    operations never count), or the wall time of a multi-client phase.
    """

    ops: list[Op] = field(default_factory=list)
    busy_s: float = 0.0
    #: Peak resident set of the measured process while operations ran.
    peak_rss_bytes: int = 0

    @classmethod
    def merged(cls, segments: list["Phase"]) -> "Phase":
        """The segments of one phase as a whole (peak: the highest)."""
        return cls(
            ops=[op for seg in segments for op in seg.ops],
            busy_s=sum(seg.busy_s for seg in segments),
            peak_rss_bytes=max(seg.peak_rss_bytes for seg in segments),
        )

    @property
    def attempted(self) -> int:
        return len(self.ops)

    @property
    def failed(self) -> int:
        return sum(1 for op in self.ops if not op.ok)

    def throughput(self) -> tuple[float, float]:
        """``(MB/s, ops/s)`` over the completed operations."""
        done = [op for op in self.ops if op.ok]
        busy = max(self.busy_s, 1e-9)
        return sum(op.nbytes for op in done) / MB / busy, len(done) / busy


def percentile_ms(seconds: list[float], q: float) -> float:
    """The ``q``-th percentile (linear interpolation) in milliseconds."""
    if not seconds:
        return 0.0
    return float(np.percentile(np.asarray(seconds), q)) * 1e3


#: name -> unit of every end-to-end metric (the ``--trace 0`` output).
END_TO_END_UNITS = {
    "setup_s": "s",
    "mb_per_s": "MB/s",
    "ops_per_s": "1/s",
    "op_p50_ms": "ms",
    "op_p95_ms": "ms",
    "bits_per_value": "bits",
    "peak_rss_mb": "MiB",
}


def end_to_end(
    segments: list[Phase],
    setup_seconds: list[float],
    bits_per_value: float,
) -> dict[str, float]:
    """Every end-to-end metric of one untraced phase.

    Throughput and latency pool the operations of every segment; the
    peak RSS is the median of the segments' peaks (one transient spike
    of buffered responses does not decide it), like ``setup_s`` is the
    median of the set-ups.
    """
    phase = Phase.merged(segments)
    mb_per_s, ops_per_s = phase.throughput()
    latencies = [op.seconds for op in phase.ops]
    return {
        "setup_s": statistics.median(setup_seconds),
        "mb_per_s": mb_per_s,
        "ops_per_s": ops_per_s,
        "op_p50_ms": percentile_ms(latencies, 50),
        "op_p95_ms": percentile_ms(latencies, 95),
        "bits_per_value": bits_per_value,
        "peak_rss_mb": statistics.median(
            seg.peak_rss_bytes for seg in segments
        ) / MIB,
    }


#: Operation kinds over all workloads (``ops.<kind>.p50_ms``).
OP_KINDS = (
    "write", "close", "decode", "sum", "range_sum", "predicate", "scan",
    "range_scan",
)

#: Per-layer metric -> span name whose self time (per operation) it is.
SELF_TIME = {
    "sampler.self_s": "sampler.sample",
    "alp.encode_self_s": "alp.encode",
    "alp.decode_self_s": "alp.decode",
    "alp.sum_self_s": "alp.sum",
    "alprd.encode_self_s": "alprd.encode",
    "alprd.decode_self_s": "alprd.decode",
    "ffor.encode_self_s": "ffor.encode",
    "ffor.decode_self_s": "ffor.decode",
    "ffor.sum_self_s": "ffor.sum",
    "bitpack.pack_self_s": "bitpack.pack",
    "bitpack.unpack_self_s": "bitpack.unpack",
    "bitpack.unpack_sum_self_s": "bitpack.unpack_sum",
    "compressor.compress_self_s": "compressor.compress",
    "compressor.decode_self_s": "compressor.decode",
    "serializer.serialize_self_s": "serializer.serialize",
    "serializer.deserialize_self_s": "serializer.deserialize",
    "integrity.crc_self_s": "integrity.crc",
    "tablefile.write_self_s": "tablefile.write",
    "tablefile.read_self_s": "tablefile.read",
    "query.self_s": "query.sum",
    "predicates.self_s": "predicates.sum_range",
    "protocol.decode_self_s": "protocol.decode",
    "protocol.encode_self_s": "protocol.encode",
    "ops.scan_self_s": "ops.scan",
    "ops.sum_self_s": "ops.sum",
    "cache.load_self_s": "cache.load",
    "other.self_s": "op",
}

#: Per-layer metric -> span name whose whole duration (per op) it is.
TOTAL_TIME = {
    "tablefile.close_s": "tablefile.close",
    "tablefile.open_s": "tablefile.open",
    "service.worker_s": "service.worker",
}

#: Per-layer metric -> counter it reports per operation.
PER_OP_COUNTS = {
    "sampler.rowgroups": "sampler.rowgroups",
    "alp.vectors_encoded": "alp.vectors_encoded",
    "alp.vectors_decoded": "alp.vectors_decoded",
    "integrity.crc_bytes": "integrity.crc_bytes",
    "tablefile.bytes_written": "tablefile.bytes_written",
    "protocol.bytes_out": "protocol.bytes_out",
}

#: Per-layer metric -> (numerator counters, denominator counters).
FRACTIONS = {
    "sampler.second_level_frac": (("sampler.second_level",),
                                  ("sampler.rowgroups",)),
    "alp.exception_frac": (("alp.exceptions",), ("alp.values",)),
    "alprd.rowgroup_frac": (("rowgroups.rd",), ("rowgroups",)),
    "tablefile.vectors_decoded_frac": (
        ("alp.vectors_decoded", "alprd.vectors_decoded"),
        ("covered.vectors",),
    ),
    "query.encoded_batch_frac": (("query.batches_encoded",),
                                 ("query.batches",)),
}


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def _stats_delta(
    before: dict | None, after: dict | None
) -> tuple[float, float]:
    """``(hit rate, evictions)`` between two ``stats().as_dict()``s."""
    if not before or not after:
        return 0.0, 0.0
    hits = after["hits"] - before["hits"]
    misses = after["misses"] - before["misses"]
    evictions = after.get("evictions", 0) - before.get("evictions", 0)
    return _ratio(hits, hits + misses), float(evictions)


def layer_metrics(
    phase: Phase,
    spans: Spans,
    counts: dict[str, int],
    values: dict[str, list[float]],
    server_stats: dict[str, dict | None],
    overhead_frac: float,
) -> dict[str, float]:
    """Every per-layer metric of one traced phase.

    Times and counts are per completed operation of the phase, so runs
    of different lengths compare; a layer the workload never reaches
    reports 0.
    """
    n_ops = max(sum(1 for op in phase.ops if op.ok), 1)
    counts = dict(counts)
    counts["covered.vectors"] = sum(op.vectors for op in phase.ops)
    by_name = spans.by_name()

    out: dict[str, float] = {}
    for metric, label in SELF_TIME.items():
        out[metric] = by_name.get(label, {}).get("self_s", 0.0) / n_ops
    for metric, label in TOTAL_TIME.items():
        out[metric] = by_name.get(label, {}).get("total_s", 0.0) / n_ops
    for metric, key in PER_OP_COUNTS.items():
        out[metric] = counts.get(key, 0) / n_ops
    for metric, (num, den) in FRACTIONS.items():
        out[metric] = _ratio(
            sum(counts.get(k, 0) for k in num),
            sum(counts.get(k, 0) for k in den),
        )
    for kind in OP_KINDS:
        out[f"ops.{kind}.p50_ms"] = percentile_ms(
            [op.seconds for op in phase.ops if op.kind == kind], 50
        )
    waits = values.get("service.queue_wait", [])
    out["service.queue_wait_p50_ms"] = percentile_ms(waits, 50)
    out["service.queue_wait_p95_ms"] = percentile_ms(waits, 95)
    out["service.overloaded"] = float(counts.get("error.overloaded", 0))
    out["service.deadline_exceeded"] = float(
        counts.get("error.deadline_exceeded", 0)
    )
    out["wire.p50_ms"] = percentile_ms(_wire_seconds(phase, spans), 50)
    out["cache.hit_rate"], evictions = _stats_delta(
        server_stats.get("cache_before"), server_stats.get("cache_after")
    )
    out["cache.evictions"] = evictions / n_ops
    out["bufferpool.hit_rate"], _ = _stats_delta(
        server_stats.get("pool_before"), server_stats.get("pool_after")
    )
    out["trace.overhead_frac"] = overhead_frac
    return out


def _wire_seconds(phase: Phase, spans: Spans) -> list[float]:
    """Client latency minus the server handler span, per request."""
    ids = [i for i, label in enumerate(spans.names)
           if label in ("ops.scan", "ops.sum")]
    mask = np.isin(spans.name, ids) & (spans.trace >= 0)
    handler = dict(zip(
        spans.trace[mask].tolist(),
        ((spans.end - spans.start)[mask] / 1e9).tolist(),
        strict=True,
    ))
    return [
        op.seconds - handler[op.trace]
        for op in phase.ops
        if op.trace in handler
    ]


#: name -> unit of every per-layer metric (the ``--trace 1`` output).
LAYER_UNITS: dict[str, str] = {
    **{metric: "s/op" for metric in SELF_TIME},
    **{metric: "s/op" for metric in TOTAL_TIME},
    "sampler.rowgroups": "count/op",
    "alp.vectors_encoded": "count/op",
    "alp.vectors_decoded": "count/op",
    "integrity.crc_bytes": "bytes/op",
    "tablefile.bytes_written": "bytes/op",
    "protocol.bytes_out": "bytes/op",
    **{metric: "frac" for metric in FRACTIONS},
    **{f"ops.{kind}.p50_ms": "ms" for kind in OP_KINDS},
    "service.queue_wait_p50_ms": "ms",
    "service.queue_wait_p95_ms": "ms",
    "service.overloaded": "count",
    "service.deadline_exceeded": "count",
    "wire.p50_ms": "ms",
    "cache.hit_rate": "frac",
    "cache.evictions": "count/op",
    "bufferpool.hit_rate": "frac",
    "trace.overhead_frac": "frac",
}


#: The layer map: (modules, per-layer metrics, the end-to-end metrics
#: (``metric@workload``) a change to the layer should move, and the
#: workloads where it is predicted flat).
LAYERS: tuple[tuple[str, tuple[str, ...], str, str], ...] = (
    ("core.sampler",
     ("sampler.self_s", "sampler.rowgroups", "sampler.second_level_frac"),
     "mb_per_s@ingest", "analytics, serve-hot, serve-cold"),
    ("core.alp",
     ("alp.encode_self_s", "alp.decode_self_s", "alp.sum_self_s",
      "alp.vectors_encoded", "alp.vectors_decoded", "alp.exception_frac"),
     "mb_per_s@ingest (encode), mb_per_s@analytics (decode, sum), "
     "ops_per_s@serve-cold", "serve-hot"),
    ("core.alprd",
     ("alprd.encode_self_s", "alprd.decode_self_s", "alprd.rowgroup_frac"),
     "op_p95_ms@analytics, op_p95_ms@serve-cold (POI-lat ops are the tail)",
     "serve-hot"),
    ("encodings.ffor, encodings.bitpack",
     ("ffor.encode_self_s", "ffor.decode_self_s", "ffor.sum_self_s",
      "bitpack.pack_self_s", "bitpack.unpack_self_s",
      "bitpack.unpack_sum_self_s"),
     "mb_per_s@ingest, mb_per_s@analytics", "serve-hot"),
    ("core.compressor",
     ("compressor.compress_self_s", "compressor.decode_self_s"),
     "mb_per_s@ingest, mb_per_s@analytics", "serve-hot"),
    ("storage.serializer, storage.integrity",
     ("serializer.serialize_self_s", "serializer.deserialize_self_s",
      "integrity.crc_self_s", "integrity.crc_bytes"),
     "mb_per_s@ingest, mb_per_s@analytics",
     "serve-hot, serve-cold (a reader checks each chunk once)"),
    ("storage.tablefile",
     ("tablefile.write_self_s", "tablefile.close_s", "tablefile.open_s",
      "tablefile.read_self_s", "tablefile.bytes_written",
      "tablefile.vectors_decoded_frac"),
     "op_p50_ms@ingest, op_p50_ms@analytics (a footer parse per query)",
     "serve-hot"),
    ("query, core.predicates",
     ("query.self_s", "predicates.self_s", "query.encoded_batch_frac",
      *(f"ops.{kind}.p50_ms" for kind in OP_KINDS)),
     "op_p50_ms@analytics, op_p50_ms@serve-cold", "ingest, serve-hot"),
    ("server.protocol",
     ("protocol.decode_self_s", "protocol.encode_self_s",
      "protocol.bytes_out", "wire.p50_ms"),
     "op_p50_ms@serve-hot, ops_per_s@serve-hot", "ingest, analytics"),
    ("server.service",
     ("service.queue_wait_p50_ms", "service.queue_wait_p95_ms",
      "service.worker_s", "service.overloaded", "service.deadline_exceeded"),
     "op_p95_ms@serve-hot, op_p95_ms@serve-cold", "ingest, analytics"),
    ("server.ops, server.registry",
     ("ops.scan_self_s", "ops.sum_self_s"),
     "op_p50_ms@serve-hot", "ingest, analytics"),
    ("server.cache",
     ("cache.hit_rate", "cache.evictions", "cache.load_self_s"),
     "ops_per_s@serve-cold", "serve-hot (hits ~100%)"),
    ("server.bufferpool",
     ("bufferpool.hit_rate",),
     "peak_rss_mb@serve-cold", "analytics"),
    ("outside every traced layer",
     ("other.self_s", "trace.overhead_frac"),
     "-", "-"),
)
