"""The shard router: one ``ALPS`` endpoint over N partitioned backends.

A :class:`ShardRouter` is a :class:`~repro.server.service.ReproServer`
whose query ops are replaced with scatter-gather versions.  It speaks
the same framed protocol on both sides — clients need no changes (the
load generator and ``ServerClient`` work unmodified), and backends are
plain ``alp-repro serve`` processes that all register the same files
(shared-storage model).  Partitioning is purely serving-side: each
backend request carries the ``rowgroups: [start, stop)`` header field
scoping it to one partition, so each backend's decoded-vector cache
warms exactly the partitions the placement assigns it.

Request path, per query::

    resolve -> partitions (placement.build_shard_map, cached)
            -> scatter: one RPC per partition, replicas tried in ring
               preference order with a per-shard deadline budget
            -> gather: ordered merge (repro.shard.merge) -> one frame

Failure semantics (docs/SHARDING.md is the contract):

- A replica that is unreachable / times out / answers ``overloaded`` or
  ``deadline_exceeded`` triggers **failover** to the next replica in
  preference order (``shard.failovers``), with the remaining deadline
  budget split across the replicas still untried.
- A partition with *no* answering replica degrades to quarantine
  tallies (its rows → ``values_quarantined``) in a ``partial: true``
  response (``shard.partial_responses``) — never a failed request.
- ``bad_request`` / ``not_found`` / ``corrupt`` / ``too_large`` are the
  caller's or the data's fault and propagate immediately; retrying a
  different replica would return the same answer.
"""

from __future__ import annotations

import time
from concurrent.futures import Future, ThreadPoolExecutor
from dataclasses import dataclass, field as dataclass_field

from repro import obs
from repro.server import protocol
from repro.server.client import ServerClient, ServerError
from repro.server.ops import (
    OpError,
    OpResult,
    _columns_projection,
    _optional_str,
    _range_bounds,
    _require_str,
)
from repro.server.registry import DatasetRegistry
from repro.server.service import ReproServer, ServerConfig, ServerHandle
from repro.shard.merge import (
    PartResult,
    merge_scan,
    merge_scan_columns,
    merge_sum,
)
from repro.shard.placement import (
    HashRing,
    Partition,
    build_shard_map,
)
from repro.shard.pool import BackendPool

#: Error codes that are the request's (or the data's) fault: every
#: replica would answer identically, so failover must not mask them.
_NON_RETRYABLE = frozenset(
    {
        protocol.ERR_BAD_REQUEST,
        protocol.ERR_NOT_FOUND,
        protocol.ERR_TOO_LARGE,
        protocol.ERR_CORRUPT,
    }
)


@dataclass(frozen=True)
class RouterConfig:
    """Every routing knob in one place (mirrors ``ServerConfig``)."""

    #: Backend addresses, ``host:port`` each.
    backends: tuple[str, ...] = ()
    #: Replicas per partition (capped at the backend count).
    replication: int = 2
    #: Row-groups per partition: the scatter granularity.
    partition_rowgroups: int = 1
    #: Concurrent backend RPCs across all in-flight requests.
    fanout: int = 8
    #: Virtual nodes per backend on the consistent-hash ring.
    vnodes: int = 64
    #: Deadline headroom reserved for the router's own merge + framing.
    shard_margin_ms: float = 50.0
    #: Never hand a backend a budget below this (a too-small budget
    #: fails replicas that are merely warming up).
    min_shard_budget_ms: float = 100.0
    #: TCP connect timeout towards backends.
    connect_timeout_s: float = 5.0
    #: Startup dataset discovery retries per backend (backends may still
    #: be binding when the router starts — CI races on this).
    discovery_retries: int = 5
    #: The frontend (client-facing) server configuration.
    server: ServerConfig = dataclass_field(default_factory=ServerConfig)

    def __post_init__(self) -> None:
        if not self.backends:
            raise ValueError("a router needs at least one backend")
        if self.replication < 1:
            raise ValueError(
                f"replication must be >= 1, got {self.replication}"
            )


class ShardRouter:
    """Scatter-gather routing over a fixed backend set.

    Construction is eager and blocking: it connects to every backend,
    verifies they serve *identical* datasets, and builds the shard map.
    Serve it with :class:`RouterHandle` (threaded) or embed
    ``router.server`` in an event loop directly.
    """

    def __init__(self, config: RouterConfig) -> None:
        self.config = config
        self.pool = BackendPool(
            config.backends, connect_timeout_s=config.connect_timeout_s
        )
        self._describe = self._discover()
        self.ring = HashRing(list(config.backends), vnodes=config.vnodes)
        self.shard_map = build_shard_map(
            self._describe,
            self.ring,
            min(config.replication, len(config.backends)),
            config.partition_rowgroups,
        )
        #: dataset -> column -> rowgroup_rows, parsed once for routing.
        #: (build_shard_map above already validated these shapes.)
        self._columns: dict[str, dict[str, list[int]]] = {}
        for dataset, columns in self._describe.items():
            if not isinstance(columns, dict):
                raise ValueError(f"malformed describe for {dataset!r}")
            parsed: dict[str, list[int]] = {}
            for column, meta in columns.items():
                rows = (
                    meta.get("rowgroup_rows")
                    if isinstance(meta, dict)
                    else None
                )
                if not isinstance(rows, list):
                    raise ValueError(
                        f"malformed describe for {dataset!r}/{column!r}"
                    )
                parsed[column] = [int(r) for r in rows]
            self._columns[dataset] = parsed
        self._executor = ThreadPoolExecutor(
            max_workers=max(1, config.fanout),
            thread_name_prefix="repro-shard",
        )
        # The frontend: a stock ReproServer (framing, admission,
        # deadlines, drain) over an empty registry, with the query ops
        # swapped for scatter-gather versions.  compress/decompress
        # stay local — they never touch the registry.
        self.server = ReproServer(DatasetRegistry(), config.server)
        self.server.register_op("datasets", self._op_datasets)
        self.server.register_op("scan", self._op_scan)
        self.server.register_op("sum", self._op_sum)
        self.server.register_op("comp", self._op_comp)
        obs.gauge_set("shard.backends_healthy", len(config.backends))

    # -- startup ------------------------------------------------------

    def _discover(self) -> dict[str, object]:
        """Fetch and cross-check every backend's ``datasets`` describe."""
        describes: list[tuple[str, dict[str, object]]] = []
        for address in self.config.backends:
            host, _, port = address.rpartition(":")
            with ServerClient(
                host,
                int(port),
                timeout_s=self.config.connect_timeout_s,
                connect_retries=self.config.discovery_retries,
                retry_backoff_s=0.2,
            ) as client:
                describes.append((address, client.datasets()))
        first_address, canonical = describes[0]
        if not canonical:
            raise ValueError(
                f"backend {first_address} serves no datasets; register "
                f"the same files on every backend before routing"
            )
        for address, describe in describes[1:]:
            if describe != canonical:
                raise ValueError(
                    f"backend {address} serves different datasets than "
                    f"{first_address}; all backends must register "
                    f"identical files (shared-storage model)"
                )
        return canonical

    def close(self) -> None:
        """Release scatter workers and pooled backend connections."""
        self._executor.shutdown(wait=False)
        self.pool.close()

    # -- resolution ---------------------------------------------------

    def _resolve(
        self, header: dict[str, object]
    ) -> tuple[str, str]:
        """Resolve (dataset, column), mirroring the registry's rules."""
        dataset = _require_str(header, "dataset")
        column = _optional_str(header, "column")
        columns = self._columns.get(dataset)
        if columns is None:
            raise OpError(
                protocol.ERR_NOT_FOUND,
                f"unknown dataset {dataset!r}; "
                f"registered: {sorted(self._columns)}",
            )
        if column is None:
            if len(columns) == 1:
                return dataset, next(iter(columns))
            raise OpError(
                protocol.ERR_NOT_FOUND,
                f"dataset {dataset!r} has {len(columns)} columns; "
                f"specify one of {sorted(columns)}",
            )
        if column not in columns:
            raise OpError(
                protocol.ERR_NOT_FOUND,
                f"unknown column {column!r} of dataset {dataset!r}; "
                f"have {sorted(columns)}",
            )
        return dataset, column

    def _partitions(
        self, dataset: str, column: str
    ) -> "list[tuple[Partition, tuple[str, ...]]]":
        return self.shard_map[(dataset, column)]

    # -- scatter ------------------------------------------------------

    def _deadline(self, header: dict[str, object]) -> float:
        """The request's absolute deadline on the monotonic clock."""
        deadline_ms = header.get("deadline_ms")
        if not isinstance(deadline_ms, (int, float)) or isinstance(
            deadline_ms, bool
        ):
            deadline_ms = self.config.server.default_deadline_ms
        return time.monotonic() + float(deadline_ms) / 1000.0

    def _replica_order(self, replicas: "tuple[str, ...]") -> "list[str]":
        """Preference order with ejected backends demoted to last resort.

        Demoted, not dropped: if every replica is inside a cool-down the
        router still tries them (one may have just recovered) instead of
        silently degrading for the whole cool-down window.
        """
        available = [r for r in replicas if self.pool.available(r)]
        ejected = [r for r in replicas if not self.pool.available(r)]
        return available + ejected

    def _call_partition(
        self,
        partition: Partition,
        replicas: "tuple[str, ...]",
        op: str,
        fields: dict[str, object],
        deadline: float,
    ) -> PartResult:
        """One partition's RPC, with replica failover and budgeting."""
        order = self._replica_order(replicas)
        for index, address in enumerate(order):
            remaining_ms = (deadline - time.monotonic()) * 1000.0
            if remaining_ms <= 0:
                break
            tries_left = len(order) - index
            budget_ms = max(
                (remaining_ms - self.config.shard_margin_ms) / tries_left,
                self.config.min_shard_budget_ms,
            )
            budget_ms = min(budget_ms, remaining_ms)
            obs.counter_add("shard.scatter_rpcs")
            try:
                client = self.pool.checkout(address)
            except OSError:
                # Covers ServerUnavailableError: the backend cannot even
                # be dialled.
                self.pool.report_failure(address)
                if index + 1 < len(order):
                    obs.counter_add("shard.failovers")
                continue
            try:
                response, payload = client.request(
                    op, fields, deadline_ms=budget_ms
                )
            except ServerError as exc:
                # The backend answered — the connection is healthy and
                # reusable; only the verdict decides what happens next.
                self.pool.checkin(address, client)
                if exc.code in _NON_RETRYABLE:
                    raise OpError(exc.code, exc.message) from exc
                if index + 1 < len(order):
                    obs.counter_add("shard.failovers")
                continue
            except (ConnectionError, TimeoutError, OSError):
                # Includes a SIGKILLed backend mid-request: the framing
                # state of this connection is gone for good.
                self.pool.discard(client)
                self.pool.report_failure(address)
                if index + 1 < len(order):
                    obs.counter_add("shard.failovers")
                continue
            self.pool.checkin(address, client)
            self.pool.report_success(address)
            return PartResult(
                partition=partition, fields=response, payload=payload
            )
        obs.counter_add("shard.shards_missed")
        return PartResult(partition=partition, missing=True)

    def _scatter(
        self,
        placed: "list[tuple[Partition, tuple[str, ...]]]",
        op: str,
        base_fields: dict[str, object],
        deadline: float,
    ) -> "list[PartResult]":
        """Fan one request out across its partitions; gather in order."""
        with obs.span("shard.scatter"):
            futures: list[Future[PartResult]] = []
            for partition, replicas in placed:
                fields = dict(base_fields)
                fields["rowgroups"] = list(partition.rowgroups)
                futures.append(
                    self._executor.submit(
                        self._call_partition,
                        partition,
                        replicas,
                        op,
                        fields,
                        deadline,
                    )
                )
            parts = [future.result() for future in futures]
        if any(part.missing for part in parts):
            obs.counter_add("shard.partial_responses")
        return parts

    def _proxy(
        self,
        key: str,
        op: str,
        fields: dict[str, object],
        deadline: float,
        payload: bytes = b"",
    ) -> tuple[dict[str, object], bytes]:
        """Forward one whole request to a stable replica, with failover.

        Used for ops that cannot be partitioned (``comp``, and
        projections over columns with mismatched row-group layouts).
        Unlike a scatter partition there is no degraded shape for these,
        so exhausting every replica is a hard ``overloaded`` error.
        """
        replicas = self.ring.preference(
            key, min(self.config.replication, len(self.config.backends))
        )
        for index, address in enumerate(self._replica_order(replicas)):
            remaining_ms = (deadline - time.monotonic()) * 1000.0
            if remaining_ms <= 0:
                break
            obs.counter_add("shard.scatter_rpcs")
            try:
                client = self.pool.checkout(address)
            except OSError:
                self.pool.report_failure(address)
                obs.counter_add("shard.failovers")
                continue
            try:
                response, body = client.request(
                    op, fields, payload=payload, deadline_ms=remaining_ms
                )
            except ServerError as exc:
                self.pool.checkin(address, client)
                if exc.code in _NON_RETRYABLE:
                    raise OpError(exc.code, exc.message) from exc
                obs.counter_add("shard.failovers")
                continue
            except (ConnectionError, TimeoutError, OSError):
                self.pool.discard(client)
                self.pool.report_failure(address)
                obs.counter_add("shard.failovers")
                continue
            self.pool.checkin(address, client)
            self.pool.report_success(address)
            return response, body
        raise OpError(
            protocol.ERR_OVERLOADED,
            f"no replica of {key!r} answered within the deadline",
        )

    # -- op handlers (run on the frontend's worker threads) -----------

    def _op_datasets(
        self, header: dict[str, object], payload: bytes
    ) -> OpResult:
        return OpResult(fields={"datasets": self._describe})

    def _op_scan(
        self, header: dict[str, object], payload: bytes
    ) -> OpResult:
        deadline = self._deadline(header)
        names = _columns_projection(header)
        bounds = _range_bounds(header)
        if names is None:
            dataset, column = self._resolve(header)
            base: dict[str, object] = {
                "dataset": dataset, "column": column,
            }
            if bounds is not None:
                base["low"], base["high"] = bounds
            parts = self._scatter(
                self._partitions(dataset, column), "scan", base, deadline
            )
            return OpResult(*merge_scan(parts))
        if header.get("column") is not None:
            raise OpError(
                protocol.ERR_BAD_REQUEST,
                "'column' and 'columns' are mutually exclusive",
            )
        dataset = _require_str(header, "dataset")
        columns = self._columns.get(dataset)
        if columns is None:
            raise OpError(
                protocol.ERR_NOT_FOUND,
                f"unknown dataset {dataset!r}; "
                f"registered: {sorted(self._columns)}",
            )
        for name in names:
            if name not in columns:
                raise OpError(
                    protocol.ERR_NOT_FOUND,
                    f"unknown column {name!r} of dataset {dataset!r}; "
                    f"have {sorted(columns)}",
                )
        if bounds is not None and len(names) != 1:
            raise OpError(
                protocol.ERR_BAD_REQUEST,
                "range bounds apply to a single projected column",
            )
        base = {"dataset": dataset, "columns": list(names)}
        if bounds is not None:
            base["low"], base["high"] = bounds
        layouts = {tuple(columns[name]) for name in names}
        if len(layouts) != 1:
            # Columns with different row-group layouts cannot share one
            # rowgroups field; serve the projection whole from a stable
            # replica instead of scattering.
            response, body = self._proxy(
                f"{dataset}/*", "scan", base, deadline
            )
            return OpResult(
                fields={
                    k: v
                    for k, v in response.items()
                    if k not in ("ok", "id")
                },
                payload=body,
            )
        parts = self._scatter(
            self._partitions(dataset, names[0]), "scan", base, deadline
        )
        return OpResult(*merge_scan_columns(parts, len(names)))

    def _op_sum(
        self, header: dict[str, object], payload: bytes
    ) -> OpResult:
        deadline = self._deadline(header)
        dataset, column = self._resolve(header)
        bounds = _range_bounds(header)
        base: dict[str, object] = {"dataset": dataset, "column": column}
        if bounds is not None:
            base["low"], base["high"] = bounds
        parts = self._scatter(
            self._partitions(dataset, column), "sum", base, deadline
        )
        return OpResult(fields=merge_sum(parts))

    def _op_comp(
        self, header: dict[str, object], payload: bytes
    ) -> OpResult:
        deadline = self._deadline(header)
        dataset, column = self._resolve(header)
        fields: dict[str, object] = {"dataset": dataset, "column": column}
        codec = _optional_str(header, "codec")
        if codec is not None:
            fields["codec"] = codec
        response, _ = self._proxy(
            f"{dataset}/{column}", "comp", fields, deadline
        )
        return OpResult(
            fields={
                k: v for k, v in response.items() if k not in ("ok", "id")
            }
        )


class RouterHandle:
    """A router serving on a dedicated event-loop thread.

    The synchronous-caller mirror of
    :class:`~repro.server.service.ServerHandle`: construction blocks
    until backends are discovered and the frontend socket is bound;
    :meth:`shutdown` drains the frontend, then releases the scatter
    executor and the backend pool.
    """

    def __init__(self, config: RouterConfig) -> None:
        self.router = ShardRouter(config)
        self._handle = ServerHandle(server=self.router.server)

    @property
    def host(self) -> str:
        return self._handle.host

    @property
    def port(self) -> int:
        return self._handle.port

    def shutdown(self, timeout_s: float = 60.0) -> None:
        self._handle.shutdown(timeout_s=timeout_s)
        self.router.close()


def run_router_in_thread(config: RouterConfig) -> RouterHandle:
    """Start a router on a background thread (bound and discovered on
    return)."""
    return RouterHandle(config)
