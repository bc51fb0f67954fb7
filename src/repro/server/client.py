"""Synchronous TCP client for the :mod:`repro.server` protocol.

A thin blocking wrapper: one socket, sequential request/response frames.
Used by ``alp-repro loadgen`` (one client per concurrent worker thread),
the shard router's backend pool, the test suite, and anything that wants
to talk to a running server without touching asyncio.

Error responses raise :class:`ServerError` carrying the protocol error
code, so callers can branch on backpressure (``exc.code ==
"overloaded"``) versus genuine failures.  Connect failures — after the
bounded, jitter-backed retry budget is spent — raise the typed
:class:`ServerUnavailableError` instead of a raw ``OSError``, so
callers (the router's replica failover above all) can treat "this
backend is down" as one catchable condition.
"""

from __future__ import annotations

import random
import socket
import time
from types import TracebackType

import numpy as np

from repro.core.compressor import CompressedRowGroups
from repro.server import protocol


class ServerError(Exception):
    """An ``ok=False`` response from the server."""

    def __init__(self, code: str, message: str) -> None:
        super().__init__(f"{code}: {message}")
        self.code = code
        self.message = message

    @property
    def is_overloaded(self) -> bool:
        """Backpressure, not failure — the caller may retry later."""
        return self.code == protocol.ERR_OVERLOADED


class ServerUnavailableError(ConnectionError):
    """The server could not be reached within the retry budget.

    Raised by :class:`ServerClient` when every connect attempt (the
    initial one plus ``connect_retries`` backed-off retries) failed, or
    when a mid-request reconnect exhausted the same budget.  ``attempts``
    counts the connects tried; ``__cause__`` keeps the last ``OSError``.
    """

    def __init__(self, host: str, port: int, attempts: int) -> None:
        super().__init__(
            f"server {host}:{port} unavailable after "
            f"{attempts} connect attempt(s)"
        )
        self.host = host
        self.port = port
        self.attempts = attempts


class ServerClient:
    """One blocking connection to a repro server.

    Use as a context manager, or call :meth:`close` explicitly.  A
    single client is *not* thread-safe (frames would interleave); give
    each thread its own client.

    ``connect_retries`` bounds *additional* connect attempts after a
    refused/failed connect, with jittered exponential backoff
    (``retry_backoff_s * 2**attempt``, each multiplied by a uniform
    ``1.0..1.0+retry_jitter`` factor so synchronized clients do not
    reconnect in lockstep).  ``request_retries`` additionally retries a
    request whose connection died mid-flight (every op is stateless and
    idempotent, so a resend is safe) after reconnecting under the same
    policy.
    """

    def __init__(
        self,
        host: str,
        port: int,
        timeout_s: float | None = 60.0,
        deadline_ms: float | None = None,
        connect_retries: int = 0,
        request_retries: int = 0,
        retry_backoff_s: float = 0.05,
        retry_jitter: float = 0.5,
        rng: random.Random | None = None,
    ) -> None:
        self.deadline_ms = deadline_ms
        self._host = host
        self._port = port
        self._timeout_s = timeout_s
        self._connect_retries = max(0, int(connect_retries))
        self._request_retries = max(0, int(request_retries))
        self._retry_backoff_s = retry_backoff_s
        self._retry_jitter = retry_jitter
        self._rng = rng or random.Random()
        self._next_id = 0
        self._sock = self._connect()

    def _connect(self) -> socket.socket:
        """One bounded, backed-off connect; typed error on exhaustion."""
        attempts = self._connect_retries + 1
        for attempt in range(attempts):
            try:
                return socket.create_connection(
                    (self._host, self._port), timeout=self._timeout_s
                )
            except OSError as exc:
                if attempt + 1 == attempts:
                    raise ServerUnavailableError(
                        self._host, self._port, attempts
                    ) from exc
                backoff = self._retry_backoff_s * (2.0**attempt)
                backoff *= 1.0 + self._retry_jitter * self._rng.random()
                time.sleep(backoff)
        raise AssertionError("unreachable")  # pragma: no cover

    # -- plumbing -----------------------------------------------------

    def close(self) -> None:
        self._sock.close()

    def __enter__(self) -> "ServerClient":
        return self

    def __exit__(
        self,
        exc_type: type[BaseException] | None,
        exc: BaseException | None,
        tb: TracebackType | None,
    ) -> None:
        self.close()

    def _read_exactly(self, n: int) -> bytearray:
        """Receive exactly ``n`` bytes into one buffer the caller owns.

        ``recv_into`` fills it in place: a scan payload lands in its
        final buffer, with no chunk list and no join copy.
        """
        buffer = bytearray(n)
        view = memoryview(buffer)
        received = 0
        while received < n:
            got = self._sock.recv_into(view[received:])
            if not got:
                raise ConnectionError(
                    f"server closed the connection with {n - received} "
                    f"of {n} bytes unread"
                )
            received += got
        return buffer

    def request(
        self,
        op: str,
        fields: dict[str, object] | None = None,
        payload: bytes = b"",
        deadline_ms: float | None = None,
    ) -> tuple[dict[str, object], bytes]:
        """Send one request frame, return the (header, payload) response.

        A non-empty payload is a ``bytearray`` the caller owns, received
        in place, so :func:`~repro.server.protocol.values_from_bytes`
        wraps it without a second copy.

        ``deadline_ms`` overrides the client-wide deadline for this one
        request; the socket timeout is tightened to the deadline (plus a
        grace second for the response frame to cross the wire), so a
        deadline-budgeted caller — the shard router — never waits on a
        dead backend longer than the budget it handed out.

        Raises :class:`ServerError` on ``ok=False`` responses,
        :class:`ServerUnavailableError` when the connection died and the
        reconnect budget is spent, and :class:`ConnectionError` if the
        server hangs up mid-frame with no retries configured.
        """
        effective = (
            deadline_ms if deadline_ms is not None else self.deadline_ms
        )
        self._next_id += 1
        header: dict[str, object] = {"op": op, "id": self._next_id}
        if effective is not None:
            header["deadline_ms"] = effective
        if fields:
            header.update(fields)
        frame = bytes(protocol.encode_frame(header, payload))
        attempts = self._request_retries + 1
        for attempt in range(attempts):
            try:
                if effective is not None:
                    self._sock.settimeout(effective / 1000.0 + 1.0)
                try:
                    self._sock.sendall(frame)
                    response, resp_payload = protocol.read_frame(
                        self._read_exactly
                    )
                finally:
                    if effective is not None:
                        self._sock.settimeout(self._timeout_s)
                break
            except (ConnectionError, TimeoutError, OSError):
                # The connection is in an unknown framing state either
                # way; only a fresh one is usable.
                self._sock.close()
                if attempt + 1 == attempts:
                    raise
                self._sock = self._connect()
        if not response.get("ok"):
            code = response.get("error")
            if not isinstance(code, str) or code not in protocol.ERROR_CODES:
                code = protocol.ERR_INTERNAL
            raise ServerError(code, str(response.get("message", "")))
        return response, resp_payload

    # -- typed ops ----------------------------------------------------

    def ping(self) -> bool:
        response, _ = self.request("ping")
        return bool(response.get("pong"))

    def datasets(self) -> dict[str, object]:
        response, _ = self.request("datasets")
        datasets = response.get("datasets")
        return datasets if isinstance(datasets, dict) else {}

    def scan(
        self,
        dataset: str,
        column: str | None = None,
        low: float | None = None,
        high: float | None = None,
    ) -> tuple[np.ndarray, dict[str, object]]:
        """Fetch (range-filtered) column values; returns (values, fields)."""
        fields = _query_fields(dataset, column, low, high)
        response, payload = self.request("scan", fields)
        return protocol.values_from_bytes(payload), response

    def scan_columns(
        self, dataset: str, columns: list[str]
    ) -> tuple[dict[str, np.ndarray], dict[str, object]]:
        """Fetch a multi-column projection in one request.

        Sends the v4 ``columns`` header field; the response echoes the
        projected columns' ``schema`` and per-column ``counts``, which
        this helper uses to split the concatenated float64 payload back
        into one array per column.  Returns ``(name -> values,
        response fields)``.
        """
        response, payload = self.request(
            "scan", {"dataset": dataset, "columns": list(columns)}
        )
        counts = response.get("counts")
        if not isinstance(counts, list) or len(counts) != len(columns):
            raise protocol.ProtocolError(
                f"projection response 'counts' does not match the "
                f"{len(columns)} requested columns: {counts!r}"
            )
        values = protocol.values_from_bytes(payload)
        if int(sum(counts)) != int(values.size):
            raise protocol.ProtocolError(
                f"projection payload holds {values.size} values, "
                f"counts say {sum(counts)}"
            )
        out: dict[str, np.ndarray] = {}
        offset = 0
        for name, count in zip(columns, counts, strict=True):
            out[name] = values[offset : offset + int(count)]
            offset += int(count)
        return out, response

    def sum(
        self,
        dataset: str,
        column: str | None = None,
        low: float | None = None,
        high: float | None = None,
    ) -> tuple[float, dict[str, object]]:
        """Server-side sum; returns (total, response fields)."""
        response, _ = self.request(
            "sum", _query_fields(dataset, column, low, high)
        )
        return float(response["sum"]), response  # type: ignore[arg-type]

    def comp(
        self, dataset: str, column: str | None = None, codec: str = "alp"
    ) -> dict[str, object]:
        """Server-side compression-size probe under ``codec``."""
        fields = _query_fields(dataset, column, None, None)
        fields["codec"] = codec
        response, _ = self.request("comp", fields)
        return response

    def compress(
        self, values: np.ndarray
    ) -> tuple[CompressedRowGroups, dict[str, object]]:
        """Round-trip values through the server-side compressor."""
        response, payload = self.request(
            "compress", payload=protocol.values_to_bytes(values)
        )
        return protocol.column_from_bytes(payload), response

    def decompress(self, column: CompressedRowGroups) -> np.ndarray:
        """Server-side decompression of a compressed column."""
        _, payload = self.request(
            "decompress", payload=protocol.column_to_bytes(column)
        )
        return protocol.values_from_bytes(payload)


def _query_fields(
    dataset: str,
    column: str | None,
    low: float | None,
    high: float | None,
) -> dict[str, object]:
    fields: dict[str, object] = {"dataset": dataset}
    if column is not None:
        fields["column"] = column
    if low is not None:
        fields["low"] = low
    if high is not None:
        fields["high"] = high
    return fields
