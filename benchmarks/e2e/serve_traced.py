"""``alp-repro serve`` with the benchmark's span wrappers installed.

Usage (what ``workloads.py`` runs for a traced serve phase)::

    PYTHONPATH=src python benchmarks/e2e/serve_traced.py --out SPANS.npz \\
        -- serve mix=TABLE.alpc --port 0 --port-file PORT --mmap

The server code is unchanged: this script installs ``tracing.Tracer``,
adds the serving hooks below, then calls ``repro.cli.main``.  Requests
that carry a ``trace`` header field (the server ignores the field) are
attributed to that id; the first one marks the start of the traced
phase, so warm-up traffic is left out.  After the server drains, the
spans go to ``SPANS.npz`` and counters, queue waits and cache/pool
stats (at the phase start and at exit) to ``SPANS.npz.json``.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parents[1] / "src"))

from tracing import Tracer  # noqa: E402


class _ServerHooks:
    """Queue wait, trace ids, op-handler spans and cache/pool stats."""

    def __init__(self, tracer: Tracer) -> None:
        self.tracer = tracer
        self.phase_start_ns = 0
        self.instances: dict[str, list[object]] = {"cache": [], "pool": []}
        self.stats_before: dict[str, dict | None] = {}

    def stats(self, kind: str) -> dict | None:
        found = self.instances[kind]
        return found[-1].stats().as_dict() if found else None

    def install(self) -> None:
        from repro.server import bufferpool, cache, service

        self._capture(cache.DecodedVectorCache, "cache")
        self._capture(bufferpool.BufferPool, "pool")
        self._wrap_run_op(service.ReproServer)
        self._wrap_build_ops(service)

    def _capture(self, cls: type, kind: str) -> None:
        original = cls.__init__
        instances = self.instances[kind]

        @functools.wraps(original)
        def init(obj: object, *args: object, **kwargs: object) -> None:
            original(obj, *args, **kwargs)
            instances.append(obj)

        cls.__init__ = init

    def _wrap_run_op(self, cls: type) -> None:
        """Admission time is ``deadline - deadline_ms``, so the wait in
        the admission queue is known when a worker picks the request."""
        original = cls._run_op
        traced = self.tracer.wrap(original, "service.worker")
        hooks = self

        def run_op(server, handler, header, payload, deadline):
            trace = header.get("trace")
            if not isinstance(trace, int):
                return original(server, handler, header, payload, deadline)
            if not hooks.phase_start_ns:
                hooks.phase_start_ns = time.perf_counter_ns()
                hooks.tracer.reset_counts()
                hooks.stats_before = {
                    "cache_before": hooks.stats("cache"),
                    "pool_before": hooks.stats("pool"),
                }
            deadline_ms = header.get("deadline_ms")
            if not isinstance(deadline_ms, (int, float)) or isinstance(
                deadline_ms, bool
            ):
                deadline_ms = server.config.default_deadline_ms
            admitted = deadline - float(deadline_ms) / 1000.0
            hooks.tracer.record(
                "service.queue_wait", server._loop.time() - admitted
            )
            hooks.tracer.set_trace(trace)
            try:
                return traced(server, handler, header, payload, deadline)
            finally:
                hooks.tracer.set_trace(-1)

        cls._run_op = run_op

    def _wrap_build_ops(self, service: object) -> None:
        original = service.build_ops
        tracer = self.tracer

        @functools.wraps(original)
        def build_ops(*args: object, **kwargs: object) -> dict:
            ops = original(*args, **kwargs)
            return {
                name: tracer.wrap(handler, f"ops.{name}")
                for name, handler in ops.items()
            }

        service.build_ops = build_ops


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", required=True, help="spans file (.npz)")
    parser.add_argument("serve_args", nargs=argparse.REMAINDER)
    args = parser.parse_args(argv)
    serve_args = args.serve_args
    if serve_args[:1] == ["--"]:
        serve_args = serve_args[1:]

    from repro import cli

    tracer = Tracer().install()
    hooks = _ServerHooks(tracer)
    hooks.install()
    code = cli.main(serve_args)
    tracer.uninstall()
    tracer.spans().save(args.out)
    meta = {
        "phase_start_ns": hooks.phase_start_ns,
        "counts": tracer.counts(),
        "values": tracer.values(),
        **hooks.stats_before,
        "cache_after": hooks.stats("cache"),
        "pool_after": hooks.stats("pool"),
    }
    Path(f"{args.out}.json").write_text(json.dumps(meta))
    return int(code or 0)


if __name__ == "__main__":
    sys.exit(main())
