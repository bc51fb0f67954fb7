"""The four workloads of the end-to-end benchmark and their oracles.

Every input comes from the in-repo generators and ``--seed``: one table
mix of eight float64 columns (paper-dataset generators; POI-lat is the
only ALP_rd column) plus an int64 ``ts`` column.

- ``ingest``: one writer appends pre-generated batches with
  ``TableFileWriter.write_rows`` and closes each file (footer, fsync,
  atomic rename) after a fixed number of batches.  The only workload
  where the encode side works: sampler, ALP/ALP_rd encode, FFOR, pack,
  CRC, fsync.
- ``analytics``: one thread runs one-shot queries, each opening the table
  with ``api.open_table(mmap=True)``: a full-column decode, an encoded
  ``sum_query``, a ``range_sum_query`` over ~5% of the values, or a
  1%-selective ``ts`` predicate scan.  Decode, encoded SUM, zone maps and
  the ALP_rd fallback work; no cache, no server.
- ``serve-hot``: an ``alp-repro serve --mmap`` process whose decoded
  cache (256 MiB default) holds every column after a warm-up scan.  Two
  closed-loop clients replay a zipfian (s=1.1) trace: 3/4 full-column
  scans, 1/4 range scans.  Protocol, dispatch, cache hits, serialization
  and the socket work.
- ``serve-cold``: the same server with ``--cache-mb 8``, a working set
  ~6x the cache; two clients replay a round-robin trace alternating full
  scans and sums, so every scan misses the cache and pays read + decode.

Operations are timed one at a time; the checks of an operation's result
run after its timer stops.  A wrong result, an exception or an error
frame (``overloaded`` included) marks the operation failed.
"""

from __future__ import annotations

import ctypes
import gc
import hashlib
import json
import math
import os
import signal
import subprocess
import sys
import threading
import time
import zlib
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

import numpy as np

from metrics import Op, Phase
from repro import api
from repro.core.constants import ROWGROUP_SIZE, VECTOR_SIZE
from repro.data import generators
from repro.data.datasets import get_dataset
from repro.query import engine
from repro.query.sources import FileColumnSource
from repro.server.client import ServerClient, ServerError
from repro.storage.schema import FLOAT64, INT64, Column, Schema
from repro.storage.tablefile import TableFileWriter
from tracing import Spans, Tracer

HERE = Path(__file__).resolve().parent
SRC = HERE.parents[1] / "src"

#: Served/queried column name -> paper dataset generator.
FLOAT_COLUMNS = {
    "city_temp": "City-Temp",
    "stocks_de": "Stocks-DE",
    "bird_mig": "Bird-Mig",
    "basel_temp": "Basel-Temp",
    "gov26": "Gov/26",
    "cms25": "CMS/25",
    "nyc29": "NYC/29",
    "poi_lat": "POI-lat",
}
SCHEMA = Schema(
    (Column("ts", INT64),)
    + tuple(Column(name, FLOAT64) for name in FLOAT_COLUMNS)
)
#: Milliseconds since the epoch of the first ``ts`` value.
EPOCH_MS = 1_600_000_000_000
DATASET = "mix"


@dataclass(frozen=True)
class Scale:
    """Input sizes of one benchmark profile."""

    table_rows: int  # analytics / serve table
    batch_rows: int  # one ingest write_rows call
    batches: int  # pre-generated ingest batches = batches per file
    setups: int  # set-ups per run; setup_s is their median
    cold_cache_mb: int  # serve-cold's cache, a fraction of the table


#: The measured profile.  The serve table's eight float columns decode
#: to ~52 MB: inside the default 256 MiB cache, ~6x the 8 MiB one.
FULL = Scale(
    table_rows=8 * ROWGROUP_SIZE,
    batch_rows=ROWGROUP_SIZE // 2,
    batches=12,
    setups=3,
    cold_cache_mb=8,
)
#: ~1/20 of the data, for the tests.
SMOKE = Scale(
    table_rows=40 * VECTOR_SIZE,
    batch_rows=5 * VECTOR_SIZE,
    batches=4,
    setups=1,
    cold_cache_mb=1,
)


def make_table(seed: int, rows: int) -> dict[str, np.ndarray]:
    """The table mix: ``ts`` plus the eight generated float columns."""
    rng = np.random.default_rng(np.random.SeedSequence([seed, 0x7473]))
    steps = np.round(generators.iid_uniform(rows, rng, 500.0, 1500.0))
    columns = {"ts": (EPOCH_MS + np.cumsum(steps)).astype(np.int64)}
    for name, dataset in FLOAT_COLUMNS.items():
        columns[name] = get_dataset(dataset, n=rows, seed=seed)
    return columns


def reference_copy(
    columns: dict[str, np.ndarray], corrupt: bool
) -> dict[str, np.ndarray]:
    """The oracle's own copy of the inputs.

    ``corrupt`` flips the top mantissa bit of one non-zero value per
    float column, so checks against this copy fail (the tests use it to
    prove that wrong answers are counted).
    """
    ref = {name: values.copy() for name, values in columns.items()}
    if corrupt:
        for name in FLOAT_COLUMNS:
            nonzero = np.flatnonzero(ref[name])
            bits = ref[name].view(np.uint64)
            bits[nonzero[len(nonzero) // 2]] ^= np.uint64(1 << 51)
    return ref


def same_bits(got: np.ndarray, want: np.ndarray) -> bool:
    """Bit-exact equality (float64 compared as uint64)."""
    got = np.asarray(got)
    want = np.asarray(want)
    if got.shape != want.shape or got.dtype != want.dtype:
        return False
    if want.dtype == np.float64:
        return bool(np.array_equal(got.view(np.uint64), want.view(np.uint64)))
    return bool(np.array_equal(got, want))


def vectors_of(rows: int) -> int:
    return -(-rows // VECTOR_SIZE)


class SumCheck:
    """The oracle of one workload's sums.

    A sum must repeat exactly (bit for bit) for the same query, and
    match ``math.fsum`` of the selected values within 1e-9, relative
    (floored at 1e-12 of the absolute sum, so a cancelling column is not
    held to zero).  The exact sums are computed once per query.
    """

    def __init__(self) -> None:
        self._first: dict[object, float] = {}
        self._exact: dict[object, tuple[float, float]] = {}

    def __call__(
        self, key: object, got: float, values: Callable[[], np.ndarray]
    ) -> bool:
        first = self._first.setdefault(key, got)
        if repr(first) != repr(got):
            return False
        if key not in self._exact:
            selected = values()
            want = math.fsum(selected.tolist())
            scale = max(abs(want), 1e-3 * math.fsum(np.abs(selected).tolist()))
            self._exact[key] = (want, scale)
        want, scale = self._exact[key]
        return abs(got - want) <= 1e-9 * scale


# -- process helpers --------------------------------------------------


def reset_peak_rss(pid: int) -> None:
    """Restart the kernel's peak-RSS (VmHWM) count of ``pid``."""
    try:
        Path(f"/proc/{pid}/clear_refs").write_text("5")
    except OSError:
        pass  # the peak then covers the whole process life


def peak_rss_bytes(pid: int) -> int:
    for line in Path(f"/proc/{pid}/status").read_text().splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1]) << 10  # kB
    return 0


def _release_free_memory() -> None:
    """Collect garbage and hand freed heap pages back to the OS, so each
    segment's peak RSS starts from the same resident baseline."""
    gc.collect()
    trim = getattr(ctypes.CDLL(None), "malloc_trim", None)
    if trim is not None:
        trim(0)


def _timed(fn: Callable[[], object]) -> tuple[object, float, bool]:
    """``(result, seconds, raised)`` of one call."""
    start = time.perf_counter()
    try:
        result = fn()
    except Exception as exc:  # noqa: BLE001 - a failed operation
        return exc, time.perf_counter() - start, True
    return result, time.perf_counter() - start, False


class Workload:
    """One workload: repeatable set-up, a timed phase, teardown."""

    name = ""

    def __init__(
        self, seed: int, scale: Scale, workdir: Path, corrupt_oracle: bool
    ) -> None:
        self.seed = seed
        self.scale = scale
        self.workdir = workdir
        self.corrupt_oracle = corrupt_oracle
        #: Server-side trace of the last traced phase (serve workloads).
        self.server_trace: dict[str, object] = {}

    def setup(self) -> None:
        """One complete set-up, as a user would pay it."""
        raise NotImplementedError

    def prepare(self) -> None:
        """Build the oracles (untimed, after the first set-up: every
        set-up makes the same inputs)."""

    def run(self, seconds: float, tracer: Tracer | None = None) -> Phase:
        """The timed phase; ``tracer`` records spans while it runs."""
        raise NotImplementedError

    def teardown(self) -> None:
        """Release what ``setup`` made (idempotent)."""

    def bits_per_value(self) -> float:
        raise NotImplementedError


class _InProcess(Workload):
    """A single-threaded loop of operations timed in this process.

    The peak RSS counts only while an operation runs: the checks between
    operations hold the oracle's arrays, which are not the program's.
    Step numbers continue across the phases of one run.
    """

    _steps = 0

    def _loop(
        self,
        seconds: float,
        tracer: Tracer | None,
        step: Callable[[int], list[Op]],
    ) -> Phase:
        """Run ``step(i)`` until the operations' own time reaches
        ``seconds``; returns their phase."""
        phase = self._phase = Phase()
        _release_free_memory()
        if tracer is not None:
            tracer.install()
        try:
            while phase.busy_s < seconds:
                i = self._steps
                self._steps += 1
                if tracer is not None:
                    tracer.set_trace(i)
                for op in step(i):
                    op.trace = i
                    phase.ops.append(op)
                    phase.busy_s += op.seconds
        finally:
            if tracer is not None:
                tracer.uninstall()
        return phase

    def _op(
        self, tracer: Tracer | None, fn: Callable[[], object]
    ) -> tuple[object, float, bool]:
        pid = os.getpid()
        reset_peak_rss(pid)
        if tracer is None:
            outcome = _timed(fn)
        else:
            with tracer.span("op"):
                outcome = _timed(fn)
        self._phase.peak_rss_bytes = max(
            self._phase.peak_rss_bytes, peak_rss_bytes(pid)
        )
        return outcome


class Ingest(_InProcess):
    name = "ingest"

    def setup(self) -> None:
        rows = self.scale.batch_rows
        columns = make_table(self.seed, rows * self.scale.batches)
        self.batches = [
            {name: values[i * rows : (i + 1) * rows]
             for name, values in columns.items()}
            for i in range(self.scale.batches)
        ]
        self.reference = reference_copy(columns, self.corrupt_oracle)
        # Lazily built kernel plans must exist before anything is timed.
        writer = TableFileWriter(self.workdir / "warmup.alpc", SCHEMA)
        try:
            writer.write_rows(self.batches[0])
        finally:
            writer.abort()

    def prepare(self) -> None:
        self._verified: set[str] = set()
        self._bytes_written = 0
        self._values_written = 0

    def run(self, seconds: float, tracer: Tracer | None = None) -> Phase:
        path = self.workdir / "ingest.alpc"
        batch_bytes = self.scale.batch_rows * len(SCHEMA) * 8
        batch_vectors = vectors_of(self.scale.batch_rows) * len(SCHEMA)

        def one_file(i: int) -> list[Op]:
            writer = TableFileWriter(path, SCHEMA)
            ops = []
            for batch in self.batches:
                _, took, raised = self._op(
                    tracer, lambda b=batch: writer.write_rows(b)
                )
                ops.append(Op("write", took, batch_bytes, batch_vectors,
                              ok=not raised))
            _, took, raised = self._op(tracer, writer.close)
            ops.append(Op("close", took, 0, 0, ok=not raised))
            if raised:
                writer.abort()
            elif self._file_ok(path):
                self._bytes_written += path.stat().st_size
                self._values_written += (
                    self.scale.batch_rows * self.scale.batches * len(SCHEMA)
                )
            else:
                for op in ops:
                    op.ok = False
            path.unlink(missing_ok=True)
            return ops

        return self._loop(seconds, tracer, one_file)

    def _file_ok(self, path: Path) -> bool:
        """``api.verify`` plus a full bit-exact read-back.

        The writer is deterministic and every file holds the same
        batches, so a file byte-identical to one that already passed
        the full check passes too; any other file gets the full check.
        """
        digest = hashlib.sha256(path.read_bytes()).hexdigest()
        if digest in self._verified:
            return True
        if not api.verify(path).ok:
            return False
        table = api.read_table(path)
        if not all(
            same_bits(table.column(name), self.reference[name])
            for name in SCHEMA.names
        ):
            return False
        self._verified.add(digest)
        return True

    def bits_per_value(self) -> float:
        return 8 * self._bytes_written / max(self._values_written, 1)


class _Table(Workload):
    """Workloads over one table file written during set-up."""

    def _write_table(self) -> None:
        columns = make_table(self.seed, self.scale.table_rows)
        self.path = self.workdir / f"{self.name}.alpc"
        api.write_table(self.path, columns, schema=SCHEMA)
        self.reference = reference_copy(columns, self.corrupt_oracle)

    def bits_per_value(self) -> float:
        return 8 * self.path.stat().st_size / (
            self.scale.table_rows * len(SCHEMA)
        )

    def _windows(self, name: str, count: int, share: float) -> list[tuple]:
        """Seeded ``[low, high]`` value windows covering ~``share`` of
        a column's values."""
        values = np.sort(self.reference[name])
        rng = np.random.default_rng(
            np.random.SeedSequence([self.seed, zlib.crc32(name.encode())])
        )
        n = values.size
        width = max(int(n * share), 1)
        out = []
        for start in rng.integers(0, n - width, size=count).tolist():
            out.append((float(values[start]), float(values[start + width - 1])))
        return out


class Analytics(_InProcess, _Table):
    name = "analytics"
    KINDS = ("decode", "sum", "range_sum", "predicate")
    WINDOWS = 3

    def setup(self) -> None:
        self._write_table()

    def prepare(self) -> None:
        rows = self.scale.table_rows
        self.ranges = {
            name: self._windows(name, self.WINDOWS, 0.05)
            for name in FLOAT_COLUMNS
        }
        ts = self.reference["ts"]
        span = max(rows // 100, 1)
        rng = np.random.default_rng(np.random.SeedSequence([self.seed, 7]))
        self.predicates = [
            (int(ts[s]), int(ts[s + span - 1]))
            for s in rng.integers(0, rows - span, size=self.WINDOWS).tolist()
        ]
        self.sums = SumCheck()
        self._trace_rng = np.random.default_rng(
            np.random.SeedSequence([self.seed, 11])
        )

    def _query(self, i: int) -> tuple[str, str, int]:
        """The ``i``-th query: ``(kind, column, window)``.

        Kinds and columns cycle through every pair, so each run has the
        same mix whatever the seed; the seed picks the windows.
        """
        names = list(FLOAT_COLUMNS)
        kind = self.KINDS[(i // len(names)) % len(self.KINDS)]
        return kind, names[i % len(names)], int(
            self._trace_rng.integers(self.WINDOWS)
        )

    def run(self, seconds: float, tracer: Tracer | None = None) -> Phase:
        rows = self.scale.table_rows

        def one_query(i: int) -> list[Op]:
            kind, name, window = self._query(i)

            def call() -> object:
                handle = api.open_table(self.path, mmap=True)
                try:
                    if kind == "predicate":
                        low, high = self.predicates[window]
                        return handle.scan(
                            columns=[name],
                            predicate=api.FilterPredicate("ts", low, high),
                        ).column(name)
                    reader = handle.column_reader(name)
                    if kind == "decode":
                        return reader.read_all()
                    source = FileColumnSource(reader=reader)
                    if kind == "sum":
                        return engine.sum_query(source)
                    return engine.range_sum_query(
                        source, *self.ranges[name][window]
                    )
                finally:
                    handle.close()

            result, took, raised = self._op(tracer, call)
            ok = not raised and self._check(kind, name, window, result)
            # A predicate scan covers the ts column, the others their own.
            return [Op(kind, took, rows * 8, vectors_of(rows), ok=ok)]

        return self._loop(seconds, tracer, one_query)

    def _check(self, kind: str, name: str, window: int, result: Any) -> bool:
        ref = self.reference[name]
        if kind == "decode":
            return same_bits(result, ref)
        if kind == "predicate":
            low, high = self.predicates[window]
            ts = self.reference["ts"]
            return same_bits(result, ref[(ts >= low) & (ts <= high)])
        if kind == "sum":
            return self.sums(name, result, lambda: ref)
        low, high = self.ranges[name][window]
        total, count = result
        selected = (ref >= low) & (ref <= high)
        return count == int(selected.sum()) and self.sums(
            (name, window), total, lambda: ref[selected]
        )


class _Serve(_Table):
    """A server subprocess plus two closed-loop client threads."""

    CLIENTS = 2
    cold = False  # True: a cache far smaller than the table
    _proc: subprocess.Popen | None = None
    _log = None
    _traced = False
    _cpus: list[int] = []  # this process's CPUs before the split
    port = 0

    # -- server process ----------------------------------------------

    def _start_server(self, traced: bool) -> None:
        port_file = self.workdir / f"{self.name}.port"
        port_file.unlink(missing_ok=True)
        args = [
            "serve", f"{DATASET}={self.path}", "--port", "0",
            "--port-file", str(port_file), "--mmap",
        ]
        if self.cold:
            args += ["--cache-mb", str(self.scale.cold_cache_mb)]
        if traced:
            self.trace_file = self.workdir / f"{self.name}.spans.npz"
            self.trace_file.unlink(missing_ok=True)
            cmd = [sys.executable, str(HERE / "serve_traced.py"),
                   "--out", str(self.trace_file), "--", *args]
        else:
            cmd = [sys.executable, "-m", "repro", *args]
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
        )
        self._log = open(self.workdir / f"{self.name}.server.log", "ab")
        # The server inherits the first CPU and the clients keep the
        # rest, so load generator and server never take each other's core.
        if not self._cpus:
            self._cpus = sorted(os.sched_getaffinity(0))
        split = len(self._cpus) > 1
        if split:
            os.sched_setaffinity(0, self._cpus[:1])
        try:
            self._proc = subprocess.Popen(
                cmd, stdout=self._log, stderr=subprocess.STDOUT, env=env,
                cwd=self.workdir,
            )
        finally:
            os.sched_setaffinity(0, self._cpus[1:] if split else self._cpus)
        self._traced = traced
        deadline = time.monotonic() + 120
        while time.monotonic() < deadline:
            if self._proc.poll() is not None:
                raise RuntimeError(
                    f"server exited with {self._proc.returncode}; see "
                    f"{self.workdir / (self.name + '.server.log')}"
                )
            text = port_file.read_text() if port_file.exists() else ""
            if text.endswith("\n"):
                self.port = int(text)
                return
            time.sleep(0.01)
        raise RuntimeError("server did not report its port within 120 s")

    def _stop_server(self) -> None:
        proc, self._proc = self._proc, None
        if proc is not None:
            if proc.poll() is None:
                proc.send_signal(signal.SIGTERM)
            try:
                proc.wait(timeout=60)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait()
        if self._log is not None:
            self._log.close()
            self._log = None

    def _warm(self) -> None:
        """Scan every column once: fills the cache (serve-hot), maps the
        file and runs every lazy first-call path."""
        with ServerClient("127.0.0.1", self.port) as client:
            for name in FLOAT_COLUMNS:
                client.request("scan", {"dataset": DATASET, "column": name})

    def setup(self) -> None:
        self._write_table()
        self._start_server(traced=False)
        self._warm()

    def teardown(self) -> None:
        self._stop_server()
        if self._cpus:
            os.sched_setaffinity(0, self._cpus)

    # -- oracles and trace -------------------------------------------

    def prepare(self) -> None:
        self.expected = {
            name: self.reference[name].astype("<f8").tobytes()
            for name in FLOAT_COLUMNS
        }
        self.ranges = {
            name: self._windows(name, 4, 0.05) for name in FLOAT_COLUMNS
        }
        self.range_expected = {}
        for name, windows in self.ranges.items():
            ref = self.reference[name]
            for w, (low, high) in enumerate(windows):
                self.range_expected[(name, w)] = (
                    ref[(ref >= low) & (ref <= high)].astype("<f8").tobytes()
                )
        self.sums = SumCheck()
        self.trace = self._make_trace()

    def _make_trace(self) -> list[tuple[str, str, int]]:
        """``(kind, column, window)`` requests, replayed cyclically."""
        raise NotImplementedError

    def _fields(self, kind: str, name: str, window: int) -> tuple[str, dict]:
        fields: dict[str, object] = {"dataset": DATASET, "column": name}
        if kind == "range_scan":
            fields["low"], fields["high"] = self.ranges[name][window]
        return ("sum" if kind == "sum" else "scan"), fields

    def _check(
        self, kind: str, name: str, window: int, header: dict, payload: bytes
    ) -> bool:
        rows = self.scale.table_rows
        if kind == "scan":
            return header.get("count") == rows and payload == self.expected[name]
        if kind == "range_scan":
            want = self.range_expected[(name, window)]
            return (
                header.get("count") == len(want) // 8 and payload == want
            )
        total = header.get("sum")
        return (
            header.get("count") == rows
            and isinstance(total, float)
            and self.sums(name, total, lambda: self.reference[name])
        )

    # -- timed phase --------------------------------------------------

    def run(self, seconds: float, tracer: Tracer | None = None) -> Phase:
        traced = tracer is not None
        if traced != self._traced:
            self._stop_server()
            self._start_server(traced=traced)
            self._warm()
        rows = self.scale.table_rows
        lock = threading.Lock()
        counter = iter(range(1 << 62))
        results: list[list[Op]] = [[] for _ in range(self.CLIENTS)]
        errors: list[BaseException] = []
        pid = self._proc.pid
        reset_peak_rss(pid)
        started = time.perf_counter()
        stop_at = started + seconds

        def client_loop(slot: int) -> None:
            with ServerClient("127.0.0.1", self.port) as client:
                while time.perf_counter() < stop_at:
                    with lock:
                        i = next(counter)
                    kind, name, window = self.trace[i % len(self.trace)]
                    op_name, fields = self._fields(kind, name, window)
                    if traced:
                        fields["trace"] = i
                    t0 = time.perf_counter()
                    try:
                        header, payload = client.request(op_name, fields)
                    except ServerError:
                        took, ok = time.perf_counter() - t0, False
                    else:
                        took = time.perf_counter() - t0
                        ok = self._check(kind, name, window, header, payload)
                    results[slot].append(
                        Op(kind, took, rows * 8, vectors_of(rows), ok=ok,
                           trace=i)
                    )

        def guarded(slot: int) -> None:
            try:
                client_loop(slot)
            except BaseException as exc:  # noqa: BLE001 - re-raised below
                errors.append(exc)

        threads = [
            threading.Thread(target=guarded, args=(slot,))
            for slot in range(self.CLIENTS)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        phase = Phase(
            busy_s=time.perf_counter() - started,
            peak_rss_bytes=peak_rss_bytes(pid),
        )
        if errors:
            raise errors[0]
        phase.ops = sorted(
            (op for ops in results for op in ops), key=lambda op: op.trace
        )
        if traced:
            self._stop_server()
            self.server_trace = load_server_trace(self.trace_file)
        return phase


def load_server_trace(path: Path) -> dict[str, object]:
    """What ``serve_traced.py`` wrote at exit: spans since the first
    traced request, counters, samples and cache/pool stats."""
    meta = json.loads(Path(f"{path}.json").read_text())
    spans = Spans.load(str(path))
    meta["spans"] = spans.since(int(meta["phase_start_ns"]))
    return meta


class ServeHot(_Serve):
    name = "serve-hot"

    def _make_trace(self) -> list[tuple[str, str, int]]:
        rng = np.random.default_rng(np.random.SeedSequence([self.seed, 13]))
        ranked = [list(FLOAT_COLUMNS)[i]
                  for i in rng.permutation(len(FLOAT_COLUMNS))]
        weights = 1.0 / np.arange(1, len(ranked) + 1) ** 1.1
        n = 20_000
        columns = rng.choice(len(ranked), size=n, p=weights / weights.sum())
        scans = rng.random(n) < 0.75
        windows = rng.integers(4, size=n)
        return [
            ("scan", ranked[c], 0) if scan else ("range_scan", ranked[c], w)
            for c, scan, w in zip(
                columns.tolist(), scans.tolist(), windows.tolist(), strict=True
            )
        ]


class ServeCold(_Serve):
    name = "serve-cold"
    cold = True

    def _make_trace(self) -> list[tuple[str, str, int]]:
        rng = np.random.default_rng(np.random.SeedSequence([self.seed, 17]))
        order = [list(FLOAT_COLUMNS)[i]
                 for i in rng.permutation(len(FLOAT_COLUMNS))]
        return [
            ("scan" if i % 2 == 0 else "sum", order[(i // 2) % len(order)], 0)
            for i in range(2 * len(order))
        ]


WORKLOADS: dict[str, type[Workload]] = {
    cls.name: cls for cls in (Ingest, Analytics, ServeHot, ServeCold)
}


def workload_names(selected: str) -> list[str]:
    """Workload names for ``--workload`` (``all`` = every workload)."""
    if selected == "all":
        return list(WORKLOADS)
    if selected not in WORKLOADS:
        raise KeyError(selected)
    return [selected]
