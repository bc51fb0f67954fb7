"""The asyncio TCP service: framing, admission, deadlines, draining.

Request lifecycle::

    accept -> read frame -> admit (bounded, else `overloaded`)
           -> worker thread (decode/compress via repro.api + the cache)
           -> respond (bounded drain, else slow-client disconnect)

Design points, in the order they bite in production:

- **The event loop never blocks.**  All codec/storage work runs in a
  ``ThreadPoolExecutor`` (``config.workers`` threads); the loop only
  parses frames and schedules.  reprolint RL6 enforces this split.
  Framing a response copies no payload: the loop writes the frame
  head, then each payload part (a scan's row-group arrays) as it is.
- **Bounded admission, explicit backpressure.**  At most
  ``config.max_inflight`` requests may be admitted-but-unfinished; the
  request that would exceed the bound is answered immediately with an
  ``overloaded`` error frame — never queued invisibly, never hung.  A
  slot is released when its worker actually finishes, so the bound
  tracks true resource usage even after a deadline fires.
- **Per-request deadlines.**  ``deadline_ms`` in the request header
  (default ``config.default_deadline_ms``) bounds queue wait + service
  time.  Expired requests get a ``deadline_exceeded`` frame; a request
  that expires while *queued* is never executed.  A worker that is
  already running cannot be interrupted — the slot stays held until it
  returns and its late result is discarded.
- **Slow-client write limits.**  Response writes must drain within
  ``config.write_timeout_s``; a client that cannot keep up is
  disconnected (``server.slow_clients``) instead of parking response
  buffers in memory.
- **Graceful shutdown.**  :meth:`ReproServer.shutdown` stops accepting,
  answers new requests on live connections with ``shutting_down``, and
  *drains*: every admitted request runs to completion and its response
  is written before connections close (bounded by
  ``config.drain_timeout_s``).
- **Degraded serving.**  Registered readers quarantine corrupt
  row-groups (PR 4) instead of failing requests; responses carry the
  quarantine tallies so clients can alert.
"""

from __future__ import annotations

import asyncio
import threading
from concurrent.futures import Future as ThreadFuture
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

from repro import api, obs
from repro.server import protocol
from repro.server.ops import OpError, OpHandler, OpResult, build_ops
from repro.server.registry import DatasetRegistry
from repro.storage.errors import IntegrityError


@dataclass(frozen=True)
class ServerConfig:
    """Every serving knob in one place (mirrors ``CompressionOptions``)."""

    host: str = "127.0.0.1"
    port: int = 0  # 0 = pick a free port; read it back from `server.port`
    #: Worker threads for blocking codec/storage work.
    workers: int = 4
    #: Admitted-but-unfinished request bound (admission queue + running).
    max_inflight: int = 32
    #: Default request deadline (queue wait + service time), milliseconds.
    default_deadline_ms: float = 30_000.0
    #: A response write must drain within this many seconds.
    write_timeout_s: float = 30.0
    #: Graceful shutdown waits at most this long for in-flight work.
    drain_timeout_s: float = 30.0
    #: Largest accepted request payload.
    max_payload_bytes: int = protocol.MAX_PAYLOAD_BYTES
    #: Options for the compress/decompress RPCs.
    compression: api.CompressionOptions | None = None

    def __post_init__(self) -> None:
        if self.workers < 1:
            raise ValueError(f"workers must be >= 1, got {self.workers}")
        if self.max_inflight < 1:
            raise ValueError(
                f"max_inflight must be >= 1, got {self.max_inflight}"
            )


class _ClientGone(Exception):
    """The peer disconnected or was dropped for being too slow."""


class _DeadlineExpired(Exception):
    """A queued request ran out of deadline before execution."""


class ReproServer:
    """One serving instance: registry + cache + asyncio TCP endpoint.

    Construct, then either ``await start()`` + ``await serve_forever()``
    inside an event loop, or use :func:`run_in_thread` /
    ``alp-repro serve`` from synchronous code.
    """

    def __init__(
        self,
        registry: DatasetRegistry,
        config: ServerConfig | None = None,
    ) -> None:
        self.registry = registry
        self.config = config or ServerConfig()
        self._ops: dict[str, OpHandler] = build_ops(
            registry, self.config.compression
        )
        self._executor = ThreadPoolExecutor(
            max_workers=self.config.workers,
            thread_name_prefix="repro-server",
        )
        self._server: asyncio.base_events.Server | None = None
        self._loop: asyncio.AbstractEventLoop | None = None
        self._inflight = 0
        #: Admitted requests whose response frame has not been sent yet.
        #: Distinct from ``_inflight``: a deadline-expired request frees
        #: its *response* immediately but holds its worker slot until
        #: the thread returns — drain must wait for both to hit zero.
        self._pending_responses = 0
        self._draining = False
        self._drained: asyncio.Event | None = None
        #: Set once shutdown() has fully finished; the loop thread waits
        #: on it so the event loop outlives the drain.
        self._terminated: asyncio.Event | None = None
        self._connections: set[asyncio.StreamWriter] = set()

    # -- extension ----------------------------------------------------

    def register_op(self, name: str, handler: OpHandler) -> None:
        """Add (or replace) an op handler — the tests' hook for slow or
        failing ops, and the extension point for embedders."""
        self._ops[name] = handler

    # -- lifecycle ----------------------------------------------------

    @property
    def port(self) -> int:
        """The bound TCP port (useful with ``config.port = 0``)."""
        if self._server is None or not self._server.sockets:
            raise RuntimeError("server is not started")
        return int(self._server.sockets[0].getsockname()[1])

    @property
    def inflight(self) -> int:
        """Requests admitted and not yet finished."""
        return self._inflight

    async def start(self) -> None:
        """Bind and start accepting connections."""
        self._loop = asyncio.get_running_loop()
        self._drained = asyncio.Event()
        self._drained.set()
        self._terminated = asyncio.Event()
        self._server = await asyncio.start_server(
            self._on_connection, host=self.config.host, port=self.config.port
        )

    async def serve_forever(self) -> None:
        """Serve until cancelled or :meth:`shutdown` is called."""
        if self._server is None:
            raise RuntimeError("call start() before serve_forever()")
        try:
            await self._server.serve_forever()
        except asyncio.CancelledError:
            pass

    async def shutdown(self) -> None:
        """Stop accepting, drain in-flight requests, close connections."""
        if self._server is None:
            return
        self._draining = True
        self._server.close()
        await self._server.wait_closed()
        # Drain: every admitted request finishes, *and its response is
        # written*, before the connections go away (bounded so a stuck
        # worker cannot wedge shutdown forever).
        if self._drained is not None:
            self._check_drained()
            try:
                await asyncio.wait_for(
                    self._drained.wait(), self.config.drain_timeout_s
                )
            except asyncio.TimeoutError:
                pass
        for writer in tuple(self._connections):
            writer.close()
        self._executor.shutdown(wait=False)
        if self._terminated is not None:
            self._terminated.set()

    async def wait_terminated(self) -> None:
        """Block until :meth:`shutdown` has fully finished."""
        if self._terminated is not None:
            await self._terminated.wait()

    # -- connection handling ------------------------------------------

    async def _on_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        obs.counter_add("server.connections")
        self._connections.add(writer)
        try:
            while True:
                try:
                    header, payload = await self._read_frame(reader)
                except (
                    asyncio.IncompleteReadError,
                    asyncio.CancelledError,
                    ConnectionError,
                    _ClientGone,
                ):
                    # CancelledError reaches here only when shutdown()
                    # closes a connection that is idle between frames —
                    # draining already guaranteed no response is pending.
                    break
                except protocol.ProtocolError as exc:
                    # Framing is lost: answer once, then hang up.
                    await self._send(
                        writer,
                        protocol.error_frame(
                            protocol.ERR_BAD_REQUEST, str(exc)
                        ),
                    )
                    break
                try:
                    await self._handle_request(header, payload, writer)
                except _ClientGone:
                    break
        finally:
            self._connections.discard(writer)
            writer.close()

    async def _read_frame(
        self, reader: asyncio.StreamReader
    ) -> tuple[dict[str, object], bytes]:
        prefix = await reader.readexactly(protocol.PREFIX_LEN)
        header_len, payload_len = protocol.parse_prefix(
            prefix, self.config.max_payload_bytes
        )
        header = protocol.decode_header(await reader.readexactly(header_len))
        payload = (
            await reader.readexactly(payload_len) if payload_len else b""
        )
        obs.counter_add(
            "server.bytes_in", protocol.PREFIX_LEN + header_len + payload_len
        )
        return header, payload

    async def _send(
        self, writer: asyncio.StreamWriter, frame: protocol.Frame
    ) -> None:
        if writer.is_closing():
            raise _ClientGone()
        # Head, then each payload part as it stands: a scan's parts are
        # its row-group arrays, never joined into one response buffer.
        writer.write(frame.head)
        for part in frame.parts:
            writer.write(part)
        try:
            await asyncio.wait_for(
                writer.drain(), self.config.write_timeout_s
            )
        except (asyncio.TimeoutError, ConnectionError) as exc:
            obs.counter_add("server.slow_clients")
            writer.close()
            raise _ClientGone() from exc
        obs.counter_add("server.bytes_out", len(frame))

    # -- request handling ---------------------------------------------

    async def _handle_request(
        self,
        header: dict[str, object],
        payload: bytes,
        writer: asyncio.StreamWriter,
    ) -> None:
        obs.counter_add("server.requests")
        request_id = header.get("id")
        if self._draining:
            obs.counter_add("server.shutdown_rejected")
            await self._send(
                writer,
                protocol.error_frame(
                    protocol.ERR_SHUTTING_DOWN,
                    "server is draining; not accepting new requests",
                    request_id,
                ),
            )
            return
        op = header.get("op")
        handler = self._ops.get(op) if isinstance(op, str) else None
        if handler is None:
            await self._send(
                writer,
                protocol.error_frame(
                    protocol.ERR_BAD_REQUEST,
                    f"unknown op {op!r}; known: {sorted(self._ops)}",
                    request_id,
                ),
            )
            return
        # Bounded admission: reject — loudly — rather than queue without
        # limit.  The client owns the retry policy.
        if self._inflight >= self.config.max_inflight:
            obs.counter_add("server.overloaded")
            await self._send(
                writer,
                protocol.error_frame(
                    protocol.ERR_OVERLOADED,
                    f"server is at its admission limit "
                    f"({self.config.max_inflight} in flight); retry later",
                    request_id,
                ),
            )
            return
        # Counted until the response frame is on the wire, so graceful
        # shutdown never closes a connection under an unsent response.
        self._pending_responses += 1
        if self._drained is not None:
            self._drained.clear()
        try:
            frame = await self._admit_and_run(
                handler, header, payload, request_id
            )
            await self._send(writer, frame)
        finally:
            self._pending_responses -= 1
            self._check_drained()

    async def _admit_and_run(
        self,
        handler: OpHandler,
        header: dict[str, object],
        payload: bytes,
        request_id: object,
    ) -> protocol.Frame:
        if self._loop is None:
            raise RuntimeError("server is not started")
        deadline_ms = header.get("deadline_ms")
        if not isinstance(deadline_ms, (int, float)) or isinstance(
            deadline_ms, bool
        ):
            deadline_ms = self.config.default_deadline_ms
        deadline = self._loop.time() + float(deadline_ms) / 1000.0

        self._inflight += 1
        obs.gauge_set("server.inflight", self._inflight)
        thread_future: ThreadFuture[OpResult] = self._executor.submit(
            self._run_op, handler, header, payload, deadline
        )
        thread_future.add_done_callback(self._on_worker_done)
        waiter = asyncio.wrap_future(thread_future, loop=self._loop)
        remaining = deadline - self._loop.time()
        done, _pending = await asyncio.wait(
            {waiter}, timeout=max(remaining, 0.0)
        )
        if not done:
            # The worker is still running; it cannot be interrupted, but
            # the client gets its answer now and the late result is
            # discarded (the admission slot is released by the worker's
            # done-callback, so the bound stays truthful).
            obs.counter_add("server.deadline_exceeded")
            waiter.add_done_callback(_consume_result)
            return protocol.error_frame(
                protocol.ERR_DEADLINE,
                f"deadline of {deadline_ms} ms exceeded",
                request_id,
            )
        try:
            result = waiter.result()
        except _DeadlineExpired:
            obs.counter_add("server.deadline_exceeded")
            return protocol.error_frame(
                protocol.ERR_DEADLINE,
                f"deadline of {deadline_ms} ms exceeded while queued",
                request_id,
            )
        except OpError as exc:
            return protocol.error_frame(exc.code, exc.message, request_id)
        except IntegrityError as exc:
            return protocol.error_frame(
                protocol.ERR_CORRUPT, str(exc), request_id
            )
        except Exception as exc:  # noqa: BLE001 — the op boundary
            obs.counter_add("server.errors")
            return protocol.error_frame(
                protocol.ERR_INTERNAL,
                f"{type(exc).__name__}: {exc}",
                request_id,
            )
        try:
            return protocol.ok_frame(
                result.fields, result.payload, request_id
            )
        except protocol.ProtocolError as exc:
            obs.counter_add("server.errors")
            return protocol.error_frame(
                protocol.ERR_INTERNAL, str(exc), request_id
            )

    def _run_op(
        self,
        handler: OpHandler,
        header: dict[str, object],
        payload: bytes,
        deadline: float,
    ) -> OpResult:
        """Worker-thread entry: deadline gate, then the blocking handler."""
        if self._loop is None:
            raise RuntimeError("server is not started")
        if self._loop.time() >= deadline:
            raise _DeadlineExpired()
        with obs.span("server.request"):
            return handler(header, payload)

    def _on_worker_done(self, future: ThreadFuture) -> None:
        """Release the admission slot when the worker truly finishes."""
        loop = self._loop
        if loop is None or loop.is_closed():
            return
        try:
            loop.call_soon_threadsafe(self._release_slot)
        except RuntimeError:
            pass  # loop shut down between the check and the call

    def _release_slot(self) -> None:
        self._inflight -= 1
        obs.gauge_set("server.inflight", self._inflight)
        self._check_drained()

    def _check_drained(self) -> None:
        if (
            self._inflight == 0
            and self._pending_responses == 0
            and self._drained is not None
        ):
            self._drained.set()


def _consume_result(future: "asyncio.Future[OpResult]") -> None:
    """Retrieve a discarded late result so asyncio never logs it."""
    if not future.cancelled():
        future.exception()


class ServerHandle:
    """A server running on a dedicated event-loop thread.

    This is what synchronous callers (tests, the CLI, embedders) use:
    construction blocks until the socket is bound, :meth:`shutdown`
    performs the graceful drain from any thread.
    """

    def __init__(
        self,
        registry: DatasetRegistry | None = None,
        config: ServerConfig | None = None,
        server: ReproServer | None = None,
    ) -> None:
        if server is None:
            if registry is None:
                raise ValueError(
                    "ServerHandle needs a registry (to build a server) "
                    "or an existing server"
                )
            server = ReproServer(registry, config)
        elif registry is not None or config is not None:
            raise ValueError(
                "pass either registry/config or a pre-built server, "
                "not both"
            )
        self.server = server
        self._started = threading.Event()
        self._startup_error: BaseException | None = None
        self._loop: asyncio.AbstractEventLoop | None = None
        self._thread = threading.Thread(
            target=self._run, name="repro-server-loop", daemon=True
        )
        self._thread.start()
        self._started.wait()
        if self._startup_error is not None:
            raise self._startup_error

    def _run(self) -> None:
        asyncio.run(self._main())

    async def _main(self) -> None:
        self._loop = asyncio.get_running_loop()
        try:
            await self.server.start()
        except BaseException as exc:  # bind failures surface to __init__
            self._startup_error = exc
            self._started.set()
            return
        self._started.set()
        await self.server.serve_forever()
        # serve_forever returns as soon as the listener closes; keep the
        # loop alive until shutdown() has finished draining, or the
        # in-flight handlers would be cancelled mid-response.
        await self.server.wait_terminated()

    @property
    def host(self) -> str:
        return self.server.config.host

    @property
    def port(self) -> int:
        return self.server.port

    def shutdown(self, timeout_s: float = 60.0) -> None:
        """Gracefully drain and stop the server; joins the loop thread."""
        loop = self._loop
        if loop is not None and loop.is_running():
            future = asyncio.run_coroutine_threadsafe(
                self.server.shutdown(), loop
            )
            try:
                future.result(timeout=timeout_s)
            except TimeoutError:
                pass
        self._thread.join(timeout=timeout_s)


def run_in_thread(
    registry: DatasetRegistry, config: ServerConfig | None = None
) -> ServerHandle:
    """Start a server on a background event-loop thread (bound on return)."""
    return ServerHandle(registry, config)
