"""The registered observability names RL3 validates against.

Every span/counter/gauge name literal used with :mod:`repro.obs` must
appear here, and ``docs/OBSERVABILITY.md`` documents this same set —
``tests/test_lint_self.py`` cross-checks both, so a metric cannot be
added (or renamed) without the registry and the docs following along.

To add a metric: use it in code, add its name to the matching set below,
and document it in ``docs/OBSERVABILITY.md``.
"""

from __future__ import annotations

#: Span names (``with obs.span("...")``), one per instrumented phase.
SPAN_NAMES: frozenset[str] = frozenset(
    {
        "alp.decode_vector",
        "alp.encode_rowgroup",
        "alp.encode_vector",
        "alprd.decode",
        "alprd.encode",
        "alprd.fit_parameters",
        "compressor.compress",
        "compressor.decompress",
        "compressor.rowgroup",
        "query.comp",
        "query.range_count",
        "query.range_sum",
        "query.scan",
        "query.sum",
        "sampler.first_level",
        "sampler.second_level",
        "server.request",
        "shard.scatter",
        "tablefile.open",
        "tablefile.scan",
        "tablefile.verify",
        "tablefile.write",
    }
)

#: Counter names (``obs.counter_add("...", n)``).
COUNTER_NAMES: frozenset[str] = frozenset(
    {
        "alp.exceptions",
        "alp.vectors_decoded",
        "alp.vectors_encoded",
        "alp.vectors_summed_encoded",
        "alprd.exceptions",
        "alprd.vectors_decoded",
        "alprd.vectors_encoded",
        "bitpack.pack_bytes",
        "bitpack.pack_calls",
        "bitpack.pack_values",
        "bitpack.unpack_bytes",
        "bitpack.unpack_calls",
        "bitpack.unpack_sum_calls",
        "bitpack.unpack_values",
        "cache.evictions",
        "cache.hits",
        "cache.misses",
        "compressor.combinations_tried",
        "compressor.compressed_bits",
        "compressor.exceptions_patched",
        "compressor.rowgroups",
        "compressor.scheme.alp",
        "compressor.scheme.alprd",
        "compressor.second_level_skipped",
        "compressor.values",
        "compressor.values_decoded",
        "compressor.vectors_encoded",
        "ffor.bit_width_sum",
        "ffor.filter_fused",
        "ffor.packed_bytes",
        "ffor.sum_fused",
        "ffor.sum_range_fused",
        "ffor.vectors_decoded",
        "ffor.vectors_encoded",
        "predicates.vectors_accepted",
        "predicates.vectors_skipped",
        "query.batches_fallback",
        "query.range_queries",
        "query.sum_encoded",
        "query.sum_queries",
        "query.values_scanned",
        "query.vectors_scanned",
        "sampler.candidates_kept",
        "sampler.combinations_tried",
        "sampler.early_exits",
        "sampler.first_level_runs",
        "sampler.first_level_vectors",
        "pool.hits",
        "pool.misses",
        "sampler.second_level_runs",
        "sampler.second_level_skipped",
        "server.bytes_in",
        "server.bytes_out",
        "server.connections",
        "server.deadline_exceeded",
        "server.errors",
        "server.overloaded",
        "server.requests",
        "server.shutdown_rejected",
        "server.slow_clients",
        "shard.backend_ejected",
        "shard.backend_readmitted",
        "shard.failovers",
        "shard.partial_responses",
        "shard.scatter_rpcs",
        "shard.shards_missed",
        "tablefile.bytes_mapped",
        "tablefile.bytes_read",
        "tablefile.bytes_written",
        "tablefile.checksum_failures",
        "tablefile.chunks_quarantined",
        "tablefile.chunks_read",
        "tablefile.chunks_written",
        "tablefile.rowgroups_pruned",
        "tablefile.values_quarantined",
        "tablefile.vectors_decoded",
        "tablefile.vectors_pruned",
    }
)

#: Gauge names (``obs.gauge_set("...", value)``).
GAUGE_NAMES: frozenset[str] = frozenset(
    {
        "cache.bytes",
        "compressor.bits_per_value",
        "pool.bytes",
        "pool.outstanding",
        "server.inflight",
        "shard.backends_healthy",
    }
)

#: Everything together, for docs cross-checking.
ALL_METRIC_NAMES: frozenset[str] = SPAN_NAMES | COUNTER_NAMES | GAUGE_NAMES
