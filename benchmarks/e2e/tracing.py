"""Span tracing for the end-to-end benchmark, installed from outside.

The program is not edited to be traced.  :meth:`Tracer.install` wraps
the public functions and methods listed in :data:`FUNCTIONS` and
:data:`METHODS`: a function wrapper is rebound in every loaded
``repro.*`` module that holds the function object (so ``from x import
f`` call sites see it too), a method wrapper is set on its class.
:meth:`Tracer.uninstall` puts every original back.

Each call records one span: name, start, end, parent span and trace id
(the operation that caused it).  Spans live in per-thread ``array``
buffers, so server worker threads never contend on a lock, and are only
analysed when the run ends.  A layer's *self time* is the duration of
its spans minus the part of each span that its child spans cover
(:func:`self_times`).  Wrappers may also count work (values, vectors,
bytes) at the same boundary, so ratios are measured where work happens.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import json
import os
import sys
import threading
import time
from array import array
from typing import Callable, Iterator

import numpy as np

Counter = Callable[[tuple, dict, object], dict]

_now = time.perf_counter_ns


def _vectors(vectors: list) -> dict:
    return {
        "alp.vectors_encoded": len(vectors),
        "alp.values": sum(v.count for v in vectors),
        "alp.exceptions": sum(v.exception_count for v in vectors),
    }


def _decoded_vector(args: tuple, kwargs: dict, result: object) -> dict:
    vector = args[0]
    return {
        "alp.vectors_decoded": 1,
        "alp.values": vector.count,
        "alp.exceptions": vector.exception_count,
    }


def _rowgroup_scheme(rowgroup: object) -> dict:
    return {"rowgroups": 1, "rowgroups.rd": int(rowgroup.rd is not None)}


def _buffer_bytes(args: tuple, kwargs: dict, result: object) -> dict:
    return {"integrity.crc_bytes": memoryview(args[0]).nbytes}


def _file_bytes(args: tuple, kwargs: dict, result: object) -> dict:
    return {"tablefile.bytes_written": os.path.getsize(args[0].path)}


def _error_code(args: tuple, kwargs: dict, result: object) -> dict:
    return {f"error.{args[0]}": 1}


def _frame_bytes(args: tuple, kwargs: dict, result: bytes) -> dict:
    return {"protocol.bytes_out": len(result)}


#: (module, function, span name, counter) — every wrapped function.
#: Span names are ``<layer>.<work>``; one name may cover several
#: functions that do the same work for the layer.
FUNCTIONS: tuple[tuple[str, str, str, Counter | None], ...] = (
    ("repro.core.sampler", "first_level_sample", "sampler.sample",
     lambda a, k, r: {"sampler.rowgroups": 1}),
    ("repro.core.sampler", "second_level_sample_rowgroup", "sampler.sample",
     lambda a, k, r: {"sampler.second_level": 1}),
    ("repro.core.alp", "alp_encode_rowgroup", "alp.encode",
     lambda a, k, r: _vectors(r)),
    ("repro.core.alp", "alp_encode_vector", "alp.encode",
     lambda a, k, r: _vectors([r])),
    ("repro.core.alp", "alp_decode_vector", "alp.decode", _decoded_vector),
    ("repro.core.alp", "alp_sum_vector", "alp.sum", None),
    ("repro.core.alprd", "alprd_encode", "alprd.encode", None),
    ("repro.core.alprd", "alprd_decode", "alprd.decode",
     lambda a, k, r: {"alprd.vectors_decoded": len(a[0].vectors)}),
    ("repro.core.alprd", "decode_vector_bits", "alprd.decode",
     lambda a, k, r: {"alprd.vectors_decoded": 1}),
    ("repro.encodings.ffor", "ffor_encode", "ffor.encode", None),
    ("repro.encodings.ffor", "ffor_decode", "ffor.decode", None),
    ("repro.encodings.ffor", "ffor_sum", "ffor.sum", None),
    ("repro.encodings.ffor", "ffor_sum_range", "ffor.sum", None),
    ("repro.encodings.bitpack", "pack_bits", "bitpack.pack", None),
    ("repro.encodings.bitpack", "unpack_bits", "bitpack.unpack", None),
    ("repro.encodings.bitpack", "unpack_sum", "bitpack.unpack_sum", None),
    ("repro.encodings.bitpack", "unpack_sum_excluding", "bitpack.unpack_sum",
     None),
    ("repro.core.compressor", "compress_rowgroup", "compressor.compress",
     lambda a, k, r: _rowgroup_scheme(r[0])),
    ("repro.core.compressor", "decompress", "compressor.decode", None),
    ("repro.core.compressor", "decode_rowgroup_into", "compressor.decode",
     None),
    ("repro.storage.serializer", "serialize_rowgroup", "serializer.serialize",
     None),
    ("repro.storage.serializer", "deserialize_rowgroup",
     "serializer.deserialize", lambda a, k, r: _rowgroup_scheme(r[0])),
    ("repro.storage.integrity", "crc32c", "integrity.crc", _buffer_bytes),
    ("repro.query.engine", "sum_query", "query.sum", None),
    ("repro.query.engine", "range_sum_query", "query.sum", None),
    ("repro.core.predicates", "sum_range_vector", "predicates.sum_range",
     None),
    ("repro.server.protocol", "decode_header", "protocol.decode", None),
    ("repro.server.protocol", "encode_frame", "protocol.encode",
     _frame_bytes),
    ("repro.server.protocol", "values_to_bytes", "protocol.encode", None),
    ("repro.server.protocol", "error_frame", "protocol.encode", _error_code),
)

#: (module, Class.method, span name, counter) — every wrapped method.
METHODS: tuple[tuple[str, str, str, Counter | None], ...] = (
    ("repro.storage.tablefile", "TableFileWriter.write_rows",
     "tablefile.write", None),
    ("repro.storage.tablefile", "TableFileWriter.close", "tablefile.close",
     _file_bytes),
    ("repro.storage.tablefile", "TableFileReader.__init__", "tablefile.open",
     None),
    ("repro.storage.tablefile", "TableFileReader.scan", "tablefile.read",
     None),
    ("repro.storage.tablefile", "TableColumnReader.read_all",
     "tablefile.read", None),
    ("repro.storage.tablefile", "TableColumnReader.read_rowgroup",
     "tablefile.read", None),
    ("repro.storage.tablefile", "TableColumnReader.read_rowgroup_compressed",
     "tablefile.read", None),
    ("repro.server.cache", "DecodedVectorCache.load_into", "cache.load",
     None),
)


class _Buffer:
    """One thread's spans (parallel arrays) and counters."""

    __slots__ = ("name", "start", "end", "parent", "trace", "stack",
                 "trace_id", "counts", "values", "tid")

    def __init__(self) -> None:
        self.name = array("i")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("q")
        self.trace = array("q")
        self.stack: list[int] = []
        self.trace_id = -1
        self.counts: dict[str, int] = {}
        self.values: dict[str, list[float]] = {}
        self.tid = threading.get_ident()

    def open(self, nid: int) -> int:
        """Start a span named ``nid`` under the innermost open one."""
        idx = len(self.start)
        stack = self.stack
        self.name.append(nid)
        self.parent.append(stack[-1] if stack else -1)
        self.trace.append(self.trace_id)
        self.end.append(0)
        stack.append(idx)
        self.start.append(_now())  # last: the bookkeeping stays outside
        return idx

    def close(self, idx: int) -> None:
        self.end[idx] = _now()
        self.stack.pop()


class Tracer:
    """In-memory span recorder plus the wrappers that feed it."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self._local = threading.local()
        self._buffers: list[_Buffer] = []
        self._lock = threading.Lock()
        self._patches: list[tuple[object, str, object]] = []

    # -- recording ----------------------------------------------------

    def _buffer(self) -> _Buffer:
        buf = getattr(self._local, "buf", None)
        if buf is None:
            buf = _Buffer()
            with self._lock:
                self._buffers.append(buf)
            self._local.buf = buf
        return buf

    def name_id(self, name: str) -> int:
        with self._lock:
            if name not in self._ids:
                self._ids[name] = len(self.names)
                self.names.append(name)
            return self._ids[name]

    def set_trace(self, trace_id: int) -> None:
        """Attribute this thread's next spans to operation ``trace_id``."""
        self._buffer().trace_id = trace_id

    def count(self, key: str, amount: int = 1) -> None:
        counts = self._buffer().counts
        counts[key] = counts.get(key, 0) + amount

    def record(self, key: str, value: float) -> None:
        """Keep one sample of a distribution (e.g. a queue wait)."""
        self._buffer().values.setdefault(key, []).append(value)

    def reset_counts(self) -> None:
        """Forget every counter and sample so far (call while idle)."""
        with self._lock:
            for buf in self._buffers:
                buf.counts.clear()
                buf.values.clear()

    def wrap(
        self, fn: Callable, name: str, counter: Counter | None = None
    ) -> Callable:
        """``fn`` recording one span per call (plus optional counts)."""
        nid = self.name_id(name)
        buffer = self._buffer

        @functools.wraps(fn)
        def traced(*args: object, **kwargs: object) -> object:
            buf = buffer()
            idx = buf.open(nid)
            try:
                result = fn(*args, **kwargs)
            finally:
                buf.close(idx)
            if counter is not None:
                counts = buf.counts
                for key, value in counter(args, kwargs, result).items():
                    counts[key] = counts.get(key, 0) + int(value)
            return result

        return traced

    @contextlib.contextmanager
    def span(self, name: str) -> Iterator[None]:
        """Record one span around a block (for benchmark code)."""
        buf = self._buffer()
        idx = buf.open(self.name_id(name))
        try:
            yield
        finally:
            buf.close(idx)

    # -- installation -------------------------------------------------

    def patch_function(
        self, module: str, attr: str, name: str, counter: Counter | None
    ) -> None:
        original = getattr(importlib.import_module(module), attr)
        wrapped = self.wrap(original, name, counter)
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (
                mod_name == "repro" or mod_name.startswith("repro.")
            ):
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, key, wrapped)
                    self._patches.append((mod, key, original))

    def patch_method(
        self, module: str, qualname: str, name: str, counter: Counter | None
    ) -> None:
        cls_name, meth = qualname.split(".")
        cls = getattr(importlib.import_module(module), cls_name)
        original = cls.__dict__[meth]
        setattr(cls, meth, self.wrap(original, name, counter))
        self._patches.append((cls, meth, original))

    def patch_generator(
        self, module: str, qualname: str, counter: Callable[[object], dict]
    ) -> None:
        """Count what a generator method yields (no span: its work runs
        inside whichever span consumes it)."""
        cls_name, meth = qualname.split(".")
        cls = getattr(importlib.import_module(module), cls_name)
        original = cls.__dict__[meth]
        tracer = self

        @functools.wraps(original)
        def counted(*args: object, **kwargs: object) -> Iterator[object]:
            for item in original(*args, **kwargs):
                for key, value in counter(item).items():
                    tracer.count(key, int(value))
                yield item

        setattr(cls, meth, counted)
        self._patches.append((cls, meth, original))

    def install(self) -> "Tracer":
        """Wrap every function and method of the layer table."""
        for module, attr, name, counter in FUNCTIONS:
            self.patch_function(module, attr, name, counter)
        for module, qualname, name, counter in METHODS:
            self.patch_method(module, qualname, name, counter)
        self.patch_generator(
            "repro.query.sources",
            "FileColumnSource.encoded_batches",
            lambda batch: {
                "query.batches": 1,
                "query.batches_encoded": int(batch.alp is not None),
            },
        )
        return self

    def uninstall(self) -> None:
        """Restore every original (in reverse patch order)."""
        while self._patches:
            owner, key, original = self._patches.pop()
            setattr(owner, key, original)

    # -- results ------------------------------------------------------

    def spans(self) -> "Spans":
        """Every span so far, merged across threads.

        Spans still open end now.  The arrays are sliced (copied) before
        numpy sees them: exporting a live ``array`` buffer would make
        the next ``append`` on a recording thread fail.
        """
        with self._lock:
            buffers = list(self._buffers)
        now = _now()
        parts = []
        offset = 0
        for buf in buffers:
            n = min(len(buf.name), len(buf.start), len(buf.end),
                    len(buf.parent), len(buf.trace))
            end = np.frombuffer(buf.end[:n], dtype=np.int64).copy()
            end[end == 0] = now
            parent = np.frombuffer(buf.parent[:n], dtype=np.int64).copy()
            parent[parent >= 0] += offset
            parts.append(
                (
                    np.frombuffer(buf.name[:n], dtype=np.int32),
                    np.frombuffer(buf.start[:n], dtype=np.int64),
                    end,
                    parent,
                    np.frombuffer(buf.trace[:n], dtype=np.int64),
                    np.full(n, buf.tid, dtype=np.int64),
                )
            )
            offset += n
        if not parts:
            empty = np.empty(0, dtype=np.int64)
            return Spans(list(self.names), empty.astype(np.int32), empty,
                         empty, empty, empty, empty)
        cols = [np.concatenate(col) for col in zip(*parts, strict=True)]
        return Spans(list(self.names), *cols)

    def counts(self) -> dict[str, int]:
        with self._lock:
            buffers = list(self._buffers)
        total: dict[str, int] = {}
        for buf in buffers:
            for key, value in buf.counts.items():
                total[key] = total.get(key, 0) + value
        return total

    def values(self) -> dict[str, list[float]]:
        with self._lock:
            buffers = list(self._buffers)
        total: dict[str, list[float]] = {}
        for buf in buffers:
            for key, vals in buf.values.items():
                total.setdefault(key, []).extend(vals)
        return total


class Spans:
    """Finished spans as parallel arrays (``parent`` indexes the arrays,
    -1 for a root); times are ``perf_counter_ns`` values, which share
    one monotonic clock across processes on Linux."""

    def __init__(
        self,
        names: list[str],
        name: np.ndarray,
        start: np.ndarray,
        end: np.ndarray,
        parent: np.ndarray,
        trace: np.ndarray,
        tid: np.ndarray,
    ) -> None:
        self.names = names
        self.name = name
        self.start = start
        self.end = end
        self.parent = parent
        self.trace = trace
        self.tid = tid
        self._by_name: dict[str, dict[str, float]] | None = None

    def __len__(self) -> int:
        return int(self.start.size)

    def save(self, path: str) -> None:
        np.savez(
            path,
            names=np.array(self.names, dtype=str),
            name=self.name,
            start=self.start,
            end=self.end,
            parent=self.parent,
            trace=self.trace,
            tid=self.tid,
        )

    @classmethod
    def load(cls, path: str) -> "Spans":
        with np.load(path) as data:
            return cls(
                [str(n) for n in data["names"]],
                data["name"],
                data["start"],
                data["end"],
                data["parent"],
                data["trace"],
                data["tid"],
            )

    def since(self, start_ns: int) -> "Spans":
        """Only the spans that started at or after ``start_ns``.

        Parents dropped by the cut turn their children into roots.
        """
        keep = self.start >= start_ns
        remap = np.full(self.start.size + 1, -1, dtype=np.int64)
        remap[:-1][keep] = np.arange(int(keep.sum()))
        parent = remap[self.parent[keep]]  # parent -1 maps to remap[-1]
        return Spans(self.names, self.name[keep], self.start[keep],
                     self.end[keep], parent, self.trace[keep], self.tid[keep])

    def by_name(self) -> dict[str, dict[str, float]]:
        """Per span name: call count, total and self seconds."""
        if self._by_name is not None:
            return self._by_name
        own = self_times(self.start, self.end, self.parent)
        out: dict[str, dict[str, float]] = {}
        for nid, label in enumerate(self.names):
            mask = self.name == nid
            if not mask.any():
                continue
            out[label] = {
                "calls": int(mask.sum()),
                "total_s": float((self.end[mask] - self.start[mask]).sum())
                / 1e9,
                "self_s": float(own[mask].sum()) / 1e9,
            }
        self._by_name = out
        return out


def self_times(
    start: np.ndarray, end: np.ndarray, parent: np.ndarray
) -> np.ndarray:
    """Each span's duration minus the union of its children's intervals.

    Children are clipped to the parent's interval, and overlapping
    children (spans of one parent on several threads) are merged before
    their coverage is subtracted, so self time is never negative.
    """
    start = np.asarray(start, dtype=np.int64)
    end = np.asarray(end, dtype=np.int64)
    parent = np.asarray(parent, dtype=np.int64)
    own = end - start
    children = np.flatnonzero(parent >= 0)
    if children.size == 0:
        return own
    order = children[np.lexsort((start[children], parent[children]))]
    current = -1
    run_start = run_end = 0
    covered = 0
    for child in order.tolist():
        p = int(parent[child])
        lo = max(int(start[child]), int(start[p]))
        hi = min(int(end[child]), int(end[p]))
        if p != current:
            if current >= 0:
                covered += run_end - run_start
                own[current] -= covered
            current, covered = p, 0
            run_start, run_end = lo, max(lo, hi)
            continue
        if lo > run_end:
            covered += run_end - run_start
            run_start, run_end = lo, max(lo, hi)
        else:
            run_end = max(run_end, hi)
    covered += run_end - run_start
    own[current] -= covered
    return own


def write_chrome_trace(
    path: str, traces: list[tuple[str, int, Spans]]
) -> int:
    """Write spans as Chrome trace-event JSON (loadable in Perfetto).

    ``traces`` holds ``(process label, pid, spans)``; returns the number
    of events written.  Events stream out one by one, so a large trace
    never has to exist as one Python list.
    """
    written = 0
    with open(path, "w", encoding="utf-8") as out:
        out.write('{"traceEvents":[\n')
        first = True
        for label, pid, spans in traces:
            meta = {"name": "process_name", "ph": "M", "pid": pid,
                    "args": {"name": label}}
            out.write(("" if first else ",\n") + json.dumps(meta))
            first = False
            for i in range(len(spans)):
                event = {
                    "name": spans.names[int(spans.name[i])],
                    "ph": "X",
                    "ts": int(spans.start[i]) / 1000.0,
                    "dur": int(spans.end[i] - spans.start[i]) / 1000.0,
                    "pid": pid,
                    "tid": int(spans.tid[i]) % 1_000_000,
                    "args": {"trace": int(spans.trace[i])},
                }
                out.write(",\n" + json.dumps(event))
                written += 1
        out.write('\n],"displayTimeUnit":"ms"}\n')
    return written
