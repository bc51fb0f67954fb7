"""Command-line interface: ``python -m repro`` (or the ``alp-repro`` script).

Subcommands:

- ``compress IN.f64 OUT.alpc`` — compress a raw little-endian float64
  file (or ``.npy``) into the ALPC column format,
- ``decompress IN.alpc OUT.f64`` — decompress back to raw float64,
- ``inspect FILE.alpc`` — print the schema and per-chunk sizes, null
  counts and zone maps (any format version),
- ``ratio [--codec ...] [--n N] DATASET...`` — measure bits/value of
  any registered codec on the synthetic paper datasets,
- ``datasets`` — list the 30 synthetic datasets and their fingerprints,
- ``stats [INPUT]`` — run an instrumented compress / file round-trip /
  range scan and print the :mod:`repro.obs` metrics snapshot as JSON,
- ``verify PATH`` — walk a column file or dataset directory and report
  every corrupt section (``--json`` for machine-readable output;
  nonzero exit when damage is found),
- ``repair IN.alpc OUT.alpc`` — rewrite a damaged file (any version)
  into a v4 file keeping every intact row-group,
- ``bench [--out BENCH.json] [--kernels]`` — run the structured
  benchmark sweep (optionally plus the kernel micro-benchmarks) and
  emit the machine-readable ``BENCH_*.json`` record document,
- ``lint [PATHS...]`` — run reprolint, the repo-specific static
  analysis (see ``docs/STATIC_ANALYSIS.md``),
- ``serve PATH...`` — serve column files / dataset directories over the
  framed TCP protocol (see ``docs/SERVING.md``),
- ``shard-serve BACKEND...`` — a consistent-hash shard router over N
  running servers: scatter-gathers scans/sums by row-group partition
  with replica failover (``docs/SHARDING.md``).
- ``loadgen --port P`` — closed-loop concurrent load test against a
  running server or router; reports p50/p95/p99 latency and can emit a
  ``BENCH_*.json`` record.

The CLI is deliberately thin: each subcommand is a few lines over the
library's public API, so it doubles as usage documentation.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

import numpy as np


def _load_doubles(path: Path) -> np.ndarray:
    """Read a float64 column from .npy or raw little-endian bytes."""
    if path.suffix == ".npy":
        values = np.load(path)
        return np.ascontiguousarray(values, dtype=np.float64)
    data = path.read_bytes()
    if len(data) % 8:
        raise SystemExit(
            f"{path}: raw float64 input must be a multiple of 8 bytes"
        )
    return np.frombuffer(data, dtype="<f8").copy()


def _cmd_compress(args: argparse.Namespace) -> int:
    from repro import api

    values = _load_doubles(Path(args.input))
    api.write(args.output, values)
    raw = values.nbytes
    compressed = Path(args.output).stat().st_size
    print(
        f"{values.size:,} values: {raw:,} B -> {compressed:,} B "
        f"({8 * compressed / max(values.size, 1):.2f} bits/value, "
        f"{raw / max(compressed, 1):.1f}x)"
    )
    return 0


def _cmd_decompress(args: argparse.Namespace) -> int:
    from repro import api

    values = api.read(args.input)
    out = Path(args.output)
    if out.suffix == ".npy":
        np.save(out, values)
    else:
        out.write_bytes(values.astype("<f8").tobytes())
    print(f"wrote {values.size:,} values to {out}")
    return 0


def _cmd_inspect(args: argparse.Namespace) -> int:
    from repro.storage.tablefile import TableFileReader

    with TableFileReader(args.input) as reader:
        schema = reader.schema
        print(
            f"{args.input}: format v{reader.format_version} table, "
            f"{reader.row_count:,} rows x {len(schema)} columns in "
            f"{reader.rowgroup_count} row-groups "
            f"(vector size {reader.vector_size})"
        )
        print("schema:")
        for col in schema:
            codec = f", codec={col.codec}" if col.codec else ""
            print(
                f"  {col.name}: {col.type}"
                f"{' NULL' if col.nullable else ''}{codec}"
            )
        print(
            f"{'rg':>4} {'column':>16} {'rows':>9} {'bytes':>10} "
            f"{'bits/val':>9} {'nulls':>8} {'min':>14} {'max':>14}"
        )
        def fmt(v):
            if v is None:
                return "-"
            return f"{v:.6g}" if isinstance(v, float) else f"{v:d}"

        for rg in range(reader.rowgroup_count):
            rows = reader.rowgroup_rows(rg)
            for col in schema.names:
                meta = reader.chunk_meta(rg, col)
                zone = meta.zone
                bits = 8 * meta.length / max(rows, 1)
                print(
                    f"{rg:>4} {col:>16} {rows:>9,} {meta.length:>10,} "
                    f"{bits:>9.2f} {zone.null_count:>8,} "
                    f"{fmt(zone.min_value):>14} {fmt(zone.max_value):>14}"
                    + ("  [non-finite]" if zone.has_non_finite else "")
                )
    return 0


def _cmd_ratio(args: argparse.Namespace) -> int:
    from repro.baselines.registry import get_codec, list_codecs
    from repro.data import DATASET_ORDER, get_dataset

    names = args.datasets or list(DATASET_ORDER)
    codecs = args.codec or ["alp"]
    for codec_name in codecs:
        if codec_name not in list_codecs():
            raise SystemExit(
                f"unknown codec {codec_name!r}; known: "
                + ", ".join(list_codecs())
            )
    print(f"{'dataset':16s} " + " ".join(f"{c:>10s}" for c in codecs))
    for name in names:
        values = get_dataset(name, n=args.n)
        cells = []
        for codec_name in codecs:
            codec = get_codec(codec_name)
            cells.append(codec.roundtrip_bits_per_value(values))
        print(
            f"{name:16s} " + " ".join(f"{b:10.2f}" for b in cells)
        )
    return 0


def _cmd_analyze(args: argparse.Namespace) -> int:
    from repro.analysis.report import compressibility_report
    from repro.data import DATASETS, EXTENSION_DATASETS

    if args.input in DATASETS or args.input in EXTENSION_DATASETS:
        from repro.data import get_dataset

        values = get_dataset(args.input, n=args.n)
        name = args.input
    else:
        values = _load_doubles(Path(args.input))
        if values.size > args.n:
            values = values[: args.n]
        name = Path(args.input).name
    print(compressibility_report(values, name=name))
    return 0


def _cmd_choose(args: argparse.Namespace) -> int:
    from repro.core.autotune import choose_codec
    from repro.data import DATASETS, EXTENSION_DATASETS

    if args.input in DATASETS or args.input in EXTENSION_DATASETS:
        from repro.data import get_dataset

        values = get_dataset(args.input, n=args.n)
    else:
        values = _load_doubles(Path(args.input))
    choice = choose_codec(values)
    print(f"chosen codec : {choice.name}")
    print(f"projected    : {choice.projected_bits_per_value:.2f} bits/value")
    for name, bits in sorted(choice.trials.items(), key=lambda kv: kv[1]):
        shown = "n/a" if bits == float("inf") else f"{bits:.2f}"
        print(f"  trial {name:8s}: {shown}")
    return 0


def _load_values_or_dataset(name: str, n: int) -> np.ndarray:
    """Resolve ``name`` as a synthetic dataset or a doubles file."""
    from repro.data import DATASETS, EXTENSION_DATASETS

    if name in DATASETS or name in EXTENSION_DATASETS:
        from repro.data import get_dataset

        return get_dataset(name, n=n)
    path = Path(name)
    if not path.exists():
        raise SystemExit(
            f"{name!r} is neither a known dataset nor a file "
            f"(see `datasets` for the dataset list)"
        )
    values = _load_doubles(path)
    return values[:n] if values.size > n else values


def _cmd_stats(args: argparse.Namespace) -> int:
    """Instrumented end-to-end run, then the metrics snapshot as JSON.

    Exercises every instrumented layer once — adaptive compression
    (sampler + ALP/ALP_rd + FFOR + bitpack), decompression, the on-disk
    column format (write, open, zone-map range scan) and a query-engine
    aggregation — so the snapshot shows per-stage spans and counters
    for the full pipeline.
    """
    import json
    import tempfile

    from repro import api, obs
    from repro.core.compressor import decode_rowgroup_vector
    from repro.query.engine import sum_query
    from repro.query.sources import FileColumnSource

    values = _load_values_or_dataset(args.input, args.n)
    obs.enable()
    obs.reset()

    column = api.compress(values)
    restored = api.decompress(column)
    if not np.array_equal(
        restored.view(np.uint64), values.view(np.uint64)
    ):
        raise SystemExit("round-trip mismatch: refusing to report stats")

    with tempfile.TemporaryDirectory() as tmp:
        path = str(Path(tmp) / "stats.alpc")
        api.write(path, values)
        reader = api.open(path)
        reader.read_all()
        finite = values[np.isfinite(values)]
        if finite.size:
            # A selective range over the middle of the domain, so the
            # zone-map skip counters have something to count.
            low = float(np.quantile(finite, 0.45))
            high = float(np.quantile(finite, 0.55))
            for _, survivors, rowgroup in reader.iter_rowgroups_compressed(
                (low, high)
            ):
                for v in survivors:
                    decode_rowgroup_vector(rowgroup, v)
        sum_query(FileColumnSource.open(path))

    snapshot = obs.snapshot()
    obs.disable()
    obs.reset()
    print(json.dumps(snapshot, indent=args.indent))
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    """Integrity-walk a column file or dataset; exit 1 on any damage."""
    import json

    from repro import api

    report = api.verify(args.path)
    if args.json:
        print(json.dumps(report.as_dict(), indent=2))
        return 0 if report.ok else 1
    if report.ok:
        print(f"{args.path}: ok")
        return 0
    from repro.storage.verify import DatasetVerifyReport

    if isinstance(report, DatasetVerifyReport):
        if report.manifest_error is not None:
            print(f"{report.path}: {report.manifest_error}")
        file_reports = report.files
    else:
        file_reports = (report,)
    for file_report in file_reports:
        for section in file_report.bad_sections:
            where = (
                f"row-group {section.index} column {section.column!r}"
                if section.section == "chunk"
                else section.section
            )
            print(
                f"{file_report.path}: {where} "
                f"(offset {section.offset}, {section.length} bytes): "
                f"{section.error}"
            )
    return 1


def _cmd_repair(args: argparse.Namespace) -> int:
    """Rewrite a damaged column file, keeping every intact row-group."""
    import json

    from repro import api

    report = api.repair(args.input, args.output)
    if args.json:
        print(json.dumps(report.as_dict(), indent=2))
    else:
        print(
            f"{args.output}: kept {report.rowgroups_kept} row-groups "
            f"({report.values_kept:,} values), dropped "
            f"{report.rowgroups_dropped} ({report.values_dropped:,} values)"
        )
        for item in report.dropped:
            print(
                f"  dropped row-group {item['index']} "
                f"(offset {item['offset']}, {item['length']} bytes): "
                f"{item['reason']}"
            )
    return 0 if report.rowgroups_dropped == 0 else 1


def _cmd_bench(args: argparse.Namespace) -> int:
    """Structured benchmark sweep emitting a BENCH_*.json document."""
    from repro.baselines.registry import list_codecs
    from repro.bench.harness import run_structured_bench
    from repro.bench.smoke import SMOKE_DATASETS
    from repro.data import DATASET_ORDER

    datasets = args.datasets or list(SMOKE_DATASETS)
    codecs = args.codec or ["alp"]
    for name in datasets:
        if name not in DATASET_ORDER:
            raise SystemExit(
                f"unknown dataset {name!r}; see `alp-repro datasets`"
            )
    for codec_name in codecs:
        if codec_name not in list_codecs():
            raise SystemExit(
                f"unknown codec {codec_name!r}; known: "
                + ", ".join(list_codecs())
            )
    _, records = run_structured_bench(
        datasets,
        codecs,
        n=args.n,
        repeats=args.repeats,
        out_path=args.out,
        include_kernels=args.kernels,
    )
    for record in records:
        print(
            f"{record.dataset:18s} {record.codec:8s} "
            f"{record.bits_per_value:7.2f} bits/value  "
            f"C {record.compress_mbps:8.1f} MB/s  "
            f"D {record.decompress_mbps:8.1f} MB/s"
        )
    print(f"wrote {len(records)} records to {args.out}")
    return 0


def _cmd_lint(args: argparse.Namespace) -> int:
    from repro.lint.cli import main as lint_main

    argv: list[str] = [str(path) for path in args.paths]
    if args.root is not None:
        argv += ["--root", str(args.root)]
    argv += ["--format", args.format]
    if args.list_rules:
        argv.append("--list-rules")
    return lint_main(argv)


def _cmd_serve(args: argparse.Namespace) -> int:
    """Serve registered datasets over the framed TCP protocol."""
    import json
    import signal
    import threading

    from repro import obs
    from repro.server import BufferPool, DatasetRegistry, DecodedVectorCache
    from repro.server.service import ServerConfig, ServerHandle

    if args.obs:
        obs.enable()
    pool = (
        BufferPool(byte_budget=args.pool_mb * (1 << 20))
        if args.pool_mb > 0
        else None
    )
    cache = DecodedVectorCache(
        byte_budget=args.cache_mb * (1 << 20), pool=pool
    )
    registry = DatasetRegistry(
        cache=cache, degraded=not args.strict, mmap=args.mmap
    )
    for spec in args.data:
        name: str | None = None
        path = spec
        if "=" in spec:
            name, path = spec.split("=", 1)
        registered = registry.register_path(path, name=name)
        print(f"serving {registered!r} from {path}")
    config = ServerConfig(
        host=args.host,
        port=args.port,
        workers=args.workers,
        max_inflight=args.max_inflight,
        default_deadline_ms=args.deadline_ms,
    )
    handle = ServerHandle(registry, config)
    print(f"listening on {handle.host}:{handle.port}", flush=True)
    if args.port_file:
        # Multi-backend scripts (CI above all) start servers on port 0
        # and read the real port back from here instead of racing on
        # fixed port numbers.
        Path(args.port_file).write_text(f"{handle.port}\n")

    stop = threading.Event()

    def _on_signal(signum: int, frame: object) -> None:
        stop.set()

    signal.signal(signal.SIGINT, _on_signal)
    signal.signal(signal.SIGTERM, _on_signal)
    stop.wait()
    print("draining...", flush=True)
    handle.shutdown()
    print(f"cache: {json.dumps(cache.stats().as_dict())}")
    if pool is not None:
        print(f"pool: {json.dumps(pool.stats().as_dict())}")
    return 0


def _cmd_shard_serve(args: argparse.Namespace) -> int:
    """Route requests across repro.server backends (scatter-gather)."""
    import signal
    import threading

    from repro import obs
    from repro.server.service import ServerConfig
    from repro.shard.router import RouterConfig, RouterHandle

    if args.obs:
        obs.enable()
    config = RouterConfig(
        backends=tuple(args.backends),
        replication=args.replication,
        partition_rowgroups=args.partition_rowgroups,
        fanout=args.fanout,
        server=ServerConfig(
            host=args.host,
            port=args.port,
            workers=args.workers,
            max_inflight=args.max_inflight,
            default_deadline_ms=args.deadline_ms,
        ),
    )
    handle = RouterHandle(config)
    shards = sum(len(parts) for parts in handle.router.shard_map.values())
    print(
        f"routing {shards} partition(s) across "
        f"{len(config.backends)} backend(s), replication "
        f"{min(config.replication, len(config.backends))}"
    )
    print(f"listening on {handle.host}:{handle.port}", flush=True)
    if args.port_file:
        Path(args.port_file).write_text(f"{handle.port}\n")

    stop = threading.Event()

    def _on_signal(signum: int, frame: object) -> None:
        stop.set()

    signal.signal(signal.SIGINT, _on_signal)
    signal.signal(signal.SIGTERM, _on_signal)
    stop.wait()
    print("draining...", flush=True)
    handle.shutdown()
    return 0


def _cmd_loadgen(args: argparse.Namespace) -> int:
    """Closed-loop load test against a running server."""
    import json

    from repro.server.loadgen import (
        LoadgenConfig,
        discover_targets,
        run_loadgen,
        write_loadgen_json,
    )

    from repro.server.loadgen import DEFAULT_OPS

    ops = (
        tuple(op.strip() for op in args.ops.split(",") if op.strip())
        if args.ops
        else DEFAULT_OPS
    )
    config = LoadgenConfig(
        host=args.host,
        port=args.port,
        clients=args.clients,
        requests_per_client=args.requests,
        ops=ops,
        deadline_ms=args.deadline_ms,
        overload_retries=args.overload_retries,
        zipf_s=args.zipf_s,
        seed=args.seed,
    )
    targets = discover_targets(config)
    result = run_loadgen(config, targets)
    summary = result.summary()
    print(json.dumps(summary, indent=2))
    if args.out:
        write_loadgen_json(
            args.out, config, result, record_name=args.record_name
        )
        print(f"wrote {args.out}")
    if args.fail_on_errors and result.error_count:
        print(f"FAIL: {result.error_count} request errors")
        return 1
    return 0


def _cmd_datasets(args: argparse.Namespace) -> int:
    from repro.data import DATASETS

    print(f"{'name':16s} {'kind':6s} {'precision':>10s}  semantics")
    for name, spec in DATASETS.items():
        kind = "TS" if spec.time_series else "non-TS"
        lo, hi = spec.precision_hint
        print(f"{name:16s} {kind:6s} {f'{lo}..{hi}':>10s}  {spec.semantics}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    """Construct the CLI argument parser."""
    parser = argparse.ArgumentParser(
        prog="alp-repro",
        description="ALP adaptive lossless floating-point compression",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("compress", help="compress doubles into ALPC")
    p.add_argument("input", help="input .npy or raw little-endian float64")
    p.add_argument("output", help="output .alpc file")
    p.set_defaults(fn=_cmd_compress)

    p = sub.add_parser("decompress", help="decompress ALPC to doubles")
    p.add_argument("input", help="input .alpc file")
    p.add_argument("output", help="output .npy or raw float64 file")
    p.set_defaults(fn=_cmd_decompress)

    p = sub.add_parser("inspect", help="show ALPC file structure")
    p.add_argument("input", help=".alpc file")
    p.set_defaults(fn=_cmd_inspect)

    p = sub.add_parser("ratio", help="measure bits/value on datasets")
    p.add_argument("datasets", nargs="*", help="dataset names (default all)")
    p.add_argument(
        "--codec",
        action="append",
        help="codec to measure (repeatable; default alp)",
    )
    p.add_argument("--n", type=int, default=20_000, help="values per dataset")
    p.set_defaults(fn=_cmd_ratio)

    p = sub.add_parser(
        "analyze", help="compressibility report (Section 2 analysis)"
    )
    p.add_argument("input", help="dataset name, .npy or raw float64 file")
    p.add_argument("--n", type=int, default=20_000, help="values to analyze")
    p.set_defaults(fn=_cmd_analyze)

    p = sub.add_parser("choose", help="auto-select a codec from a sample")
    p.add_argument("input", help="dataset name, .npy or raw float64 file")
    p.add_argument("--n", type=int, default=20_000, help="values to sample")
    p.set_defaults(fn=_cmd_choose)

    p = sub.add_parser(
        "stats",
        help="print a JSON metrics snapshot of an instrumented run",
    )
    p.add_argument(
        "input",
        nargs="?",
        default="City-Temp",
        help="dataset name, .npy or raw float64 file (default City-Temp)",
    )
    p.add_argument(
        "--n", type=int, default=20_000, help="values to run through"
    )
    p.add_argument(
        "--indent", type=int, default=2, help="JSON indent (default 2)"
    )
    p.set_defaults(fn=_cmd_stats)

    p = sub.add_parser(
        "verify",
        help="check every checksum/section of a column file or dataset",
    )
    p.add_argument("path", help=".alpc file or alpc-dataset directory")
    p.add_argument(
        "--json", action="store_true", help="emit the report as JSON"
    )
    p.set_defaults(fn=_cmd_verify)

    p = sub.add_parser(
        "repair",
        help="rewrite a damaged column file keeping intact row-groups",
    )
    p.add_argument("input", help="damaged .alpc file")
    p.add_argument("output", help="destination for the repaired file")
    p.add_argument(
        "--json", action="store_true", help="emit the repair report as JSON"
    )
    p.set_defaults(fn=_cmd_repair)

    p = sub.add_parser(
        "bench", help="structured benchmark sweep (emits BENCH_*.json)"
    )
    p.add_argument(
        "datasets", nargs="*", help="dataset names (default: smoke subset)"
    )
    p.add_argument(
        "--codec",
        action="append",
        help="codec to measure (repeatable; default alp)",
    )
    p.add_argument(
        "--out",
        default="BENCH_cli.json",
        help="output JSON path (default BENCH_cli.json)",
    )
    p.add_argument("--n", type=int, default=65_536, help="values per dataset")
    p.add_argument("--repeats", type=int, default=5, help="timing repeats")
    p.add_argument(
        "--kernels",
        action="store_true",
        help="also run the kernel micro-benchmarks (pack/unpack, FFOR, "
        "per-vector ALP) and append their kernels/* records",
    )
    p.set_defaults(fn=_cmd_bench)

    p = sub.add_parser(
        "lint",
        help="run reprolint, the repo-specific static-analysis pass",
    )
    p.add_argument(
        "paths",
        nargs="*",
        help="files or directories to lint (default: src tests benchmarks)",
    )
    p.add_argument(
        "--root", default=None, help="repository root used for rule scoping"
    )
    p.add_argument(
        "--format", choices=("text", "json"), default="text", help="output format"
    )
    p.add_argument(
        "--list-rules", action="store_true", help="print the rule catalog"
    )
    p.set_defaults(fn=_cmd_lint)

    p = sub.add_parser(
        "serve", help="serve datasets over the framed TCP protocol"
    )
    p.add_argument(
        "data",
        nargs="+",
        help="column file or dataset directory to serve; "
        "NAME=PATH to pick the served name",
    )
    p.add_argument("--host", default="127.0.0.1", help="bind address")
    p.add_argument(
        "--port", type=int, default=8642, help="TCP port (0 = ephemeral)"
    )
    p.add_argument(
        "--workers", type=int, default=4, help="blocking-work threads"
    )
    p.add_argument(
        "--max-inflight",
        type=int,
        default=32,
        help="admission bound before `overloaded` rejections",
    )
    p.add_argument(
        "--deadline-ms",
        type=float,
        default=30_000.0,
        help="default per-request deadline",
    )
    p.add_argument(
        "--cache-mb",
        type=int,
        default=256,
        help="decoded-vector cache budget in MiB",
    )
    p.add_argument(
        "--pool-mb",
        type=int,
        default=64,
        help="cache-fill buffer-pool idle budget in MiB (0 disables pooling)",
    )
    p.add_argument(
        "--mmap",
        action="store_true",
        help="memory-map served column files for zero-copy payload reads",
    )
    p.add_argument(
        "--strict",
        action="store_true",
        help="fail requests on corrupt row-groups instead of quarantining",
    )
    p.add_argument(
        "--obs", action="store_true", help="enable metrics recording"
    )
    p.add_argument(
        "--port-file",
        default=None,
        help="write the bound port to this file (for --port 0 scripts)",
    )
    p.set_defaults(fn=_cmd_serve)

    p = sub.add_parser(
        "shard-serve",
        help="route requests across repro.server backends "
        "(consistent-hash scatter-gather)",
    )
    p.add_argument(
        "backends",
        nargs="+",
        help="backend addresses, host:port each; all must serve "
        "identical datasets",
    )
    p.add_argument(
        "--replication",
        type=int,
        default=2,
        help="replicas per partition (capped at the backend count)",
    )
    p.add_argument(
        "--partition-rowgroups",
        type=int,
        default=1,
        help="row-groups per partition (the scatter granularity)",
    )
    p.add_argument(
        "--fanout",
        type=int,
        default=8,
        help="concurrent backend RPCs across all in-flight requests",
    )
    p.add_argument("--host", default="127.0.0.1", help="bind address")
    p.add_argument(
        "--port", type=int, default=8641, help="TCP port (0 = ephemeral)"
    )
    p.add_argument(
        "--workers", type=int, default=4, help="frontend worker threads"
    )
    p.add_argument(
        "--max-inflight",
        type=int,
        default=32,
        help="admission bound before `overloaded` rejections",
    )
    p.add_argument(
        "--deadline-ms",
        type=float,
        default=30_000.0,
        help="default per-request deadline (budgeted across shards)",
    )
    p.add_argument(
        "--obs", action="store_true", help="enable metrics recording"
    )
    p.add_argument(
        "--port-file",
        default=None,
        help="write the bound port to this file (for --port 0 scripts)",
    )
    p.set_defaults(fn=_cmd_shard_serve)

    p = sub.add_parser(
        "loadgen", help="closed-loop load test against a running server"
    )
    p.add_argument("--host", default="127.0.0.1", help="server address")
    p.add_argument("--port", type=int, required=True, help="server port")
    p.add_argument(
        "--clients", type=int, default=4, help="concurrent closed-loop clients"
    )
    p.add_argument(
        "--requests", type=int, default=50, help="requests per client"
    )
    p.add_argument(
        "--deadline-ms", type=float, default=None, help="per-request deadline"
    )
    p.add_argument(
        "--overload-retries",
        type=int,
        default=0,
        help="retries per request after `overloaded` rejections",
    )
    p.add_argument(
        "--ops",
        default=None,
        help="comma-separated op trace cycled per worker "
        "(scan/sum/comp; default scan,sum,sum,scan)",
    )
    p.add_argument(
        "--zipf-s",
        type=float,
        default=0.0,
        help="zipfian target-skew exponent (0 = round-robin)",
    )
    p.add_argument(
        "--seed", type=int, default=0, help="seed for the zipfian trace"
    )
    p.add_argument(
        "--out", default=None, help="write a BENCH_*.json record document"
    )
    p.add_argument(
        "--record-name",
        default="loadgen",
        help="codec field of the BENCH record (gate comparisons key "
        "on it; use e.g. shard_loadgen for routed runs)",
    )
    p.add_argument(
        "--fail-on-errors",
        action="store_true",
        help="exit nonzero if any request failed (backpressure excluded)",
    )
    p.set_defaults(fn=_cmd_loadgen)

    p = sub.add_parser("datasets", help="list the synthetic datasets")
    p.set_defaults(fn=_cmd_datasets)
    return parser


def main(argv: list[str] | None = None) -> int:
    """CLI entry point."""
    args = build_parser().parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":
    sys.exit(main())
