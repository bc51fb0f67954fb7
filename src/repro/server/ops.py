"""Synchronous request handlers: the work the event loop never does.

Every op that decodes, compresses or touches storage is *blocking* work,
so the asyncio service dispatches these handlers to its worker thread
pool (``run_in_executor``) — the event loop only frames bytes and
schedules.  That split is enforced statically: reprolint RL6 flags
blocking calls inside ``async def`` bodies under ``repro/server/``.

Handlers receive the decoded request header and raw payload and return
an :class:`OpResult` (response header fields + response payload).
Anticipated failures raise :class:`OpError` with a protocol error code;
anything else becomes an ``internal`` error frame in the service layer.

The query ops go through the same engine the local benchmarks use
(:func:`repro.query.engine.sum_query` / :func:`range_sum_query` /
:func:`comp_query` over a :class:`~repro.query.sources.FileColumnSource`),
so served numbers and local numbers come from one code path — including
the encoded-domain fast paths.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from repro import api
from repro.query.engine import comp_query, range_sum_query, sum_query
from repro.server import protocol
from repro.server.registry import DatasetRegistry, ServedColumn
from repro.storage.errors import IntegrityError


class OpError(Exception):
    """An anticipated failure, mapped to a protocol error frame."""

    def __init__(self, code: str, message: str) -> None:
        if code not in protocol.ERROR_CODES:
            raise ValueError(f"unknown error code {code!r}")
        super().__init__(message)
        self.code = code
        self.message = message


@dataclass(frozen=True)
class OpResult:
    """One successful response: header fields plus its payload.

    ``payload`` is one buffer or an ordered list of parts that the
    service writes one after another (a scan's row-group arrays).  A
    part must stay unchanged until the response is written.
    """

    fields: dict[str, object] = field(default_factory=dict)
    payload: protocol.Payload = b""


#: An op handler: (request header, request payload) -> OpResult.
OpHandler = Callable[[dict[str, object], bytes], OpResult]


def _require_str(header: dict[str, object], key: str) -> str:
    value = header.get(key)
    if not isinstance(value, str) or not value:
        raise OpError(
            protocol.ERR_BAD_REQUEST,
            f"request field {key!r} must be a non-empty string",
        )
    return value


def _optional_str(header: dict[str, object], key: str) -> str | None:
    value = header.get(key)
    if value is None:
        return None
    if not isinstance(value, str):
        raise OpError(
            protocol.ERR_BAD_REQUEST,
            f"request field {key!r} must be a string",
        )
    return value


def _columns_projection(header: dict[str, object]) -> list[str] | None:
    """The optional ``columns`` projection field of a request header.

    ``None`` when absent — the caller must then answer exactly as the
    pre-projection protocol did, so old clients see byte-identical
    responses.
    """
    value = header.get("columns")
    if value is None:
        return None
    if (
        not isinstance(value, list)
        or not value
        or not all(isinstance(c, str) and c for c in value)
    ):
        raise OpError(
            protocol.ERR_BAD_REQUEST,
            "request field 'columns' must be a non-empty list of "
            "column names",
        )
    if len(set(value)) != len(value):
        raise OpError(
            protocol.ERR_BAD_REQUEST,
            f"duplicate names in 'columns': {value}",
        )
    return value


def _rowgroup_range(
    header: dict[str, object], served: ServedColumn
) -> tuple[int, int] | None:
    """The optional ``rowgroups`` partition field: ``[start, stop)``.

    The shard router scopes each backend request to one partition with
    this field; requests without it keep the whole-column semantics of
    the pre-sharding protocol.
    """
    value = header.get("rowgroups")
    if value is None:
        return None
    if (
        not isinstance(value, list)
        or len(value) != 2
        or not all(
            isinstance(v, int) and not isinstance(v, bool) for v in value
        )
    ):
        raise OpError(
            protocol.ERR_BAD_REQUEST,
            "request field 'rowgroups' must be a [start, stop) pair of "
            "row-group indexes",
        )
    start, stop = int(value[0]), int(value[1])
    count = served.reader.rowgroup_count
    if not (0 <= start < stop <= count):
        raise OpError(
            protocol.ERR_BAD_REQUEST,
            f"row-group range [{start}, {stop}) outside the column's "
            f"[0, {count})",
        )
    return start, stop


def _range_bounds(
    header: dict[str, object],
) -> tuple[float, float] | None:
    low, high = header.get("low"), header.get("high")
    if low is None and high is None:
        return None
    if low is None or high is None:
        raise OpError(
            protocol.ERR_BAD_REQUEST,
            "range queries need both 'low' and 'high'",
        )
    for name, value in (("low", low), ("high", high)):
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise OpError(
                protocol.ERR_BAD_REQUEST,
                f"request field {name!r} must be a number",
            )
    return float(low), float(high)


def _resolve(
    registry: DatasetRegistry, header: dict[str, object]
) -> ServedColumn:
    dataset = _require_str(header, "dataset")
    column = _optional_str(header, "column")
    try:
        return registry.column(dataset, column)
    except KeyError as exc:
        raise OpError(protocol.ERR_NOT_FOUND, str(exc.args[0])) from exc


def _quarantine_fields(served: ServedColumn) -> dict[str, object]:
    report = served.scan_report()
    return {
        "rowgroups_quarantined": report.rowgroups_quarantined,
        "values_quarantined": report.values_quarantined,
    }


def build_ops(
    registry: DatasetRegistry,
    options: api.CompressionOptions | None = None,
) -> dict[str, OpHandler]:
    """The op table of one server: name -> synchronous handler."""
    opts = options or api.CompressionOptions()

    def op_ping(header: dict[str, object], payload: bytes) -> OpResult:
        return OpResult(fields={"pong": True})

    def op_datasets(header: dict[str, object], payload: bytes) -> OpResult:
        return OpResult(fields={"datasets": registry.describe()})

    def op_scan(header: dict[str, object], payload: bytes) -> OpResult:
        names = _columns_projection(header)
        if names is None:
            # Pre-projection request shape: the response must stay
            # byte-identical for old clients — same fields, no schema
            # echo (tests/test_server_protocol.py pins this).
            served = _resolve(registry, header)
            bounds = _range_bounds(header)
            rowgroups = _rowgroup_range(header, served)
            parts, count = served.scan_payload(bounds, rowgroups)
            fields: dict[str, object] = {"count": count}
            fields.update(_quarantine_fields(served))
            return OpResult(fields=fields, payload=parts)
        if header.get("column") is not None:
            raise OpError(
                protocol.ERR_BAD_REQUEST,
                "'column' and 'columns' are mutually exclusive",
            )
        dataset = _require_str(header, "dataset")
        bounds = _range_bounds(header)
        if bounds is not None and len(names) != 1:
            raise OpError(
                protocol.ERR_BAD_REQUEST,
                "range bounds apply to a single projected column",
            )
        try:
            schema = registry.schema(dataset)
            projected = [registry.column(dataset, name) for name in names]
        except KeyError as exc:
            raise OpError(
                protocol.ERR_NOT_FOUND, str(exc.args[0])
            ) from exc
        rowgroups = _rowgroup_range(header, projected[0])
        blocks: list[np.ndarray] = []
        counts: list[int] = []
        for served in projected:
            column_parts, count = served.scan_payload(bounds, rowgroups)
            blocks.extend(column_parts)
            counts.append(count)
        reports = [served.scan_report() for served in projected]
        fields = {
            "count": sum(counts),
            "counts": counts,
            "schema": [schema.column(name).to_dict() for name in names],
            "rowgroups_quarantined": sum(
                r.rowgroups_quarantined for r in reports
            ),
            "values_quarantined": sum(
                r.values_quarantined for r in reports
            ),
        }
        return OpResult(fields=fields, payload=blocks)

    def op_sum(header: dict[str, object], payload: bytes) -> OpResult:
        served = _resolve(registry, header)
        bounds = _range_bounds(header)
        rowgroups = _rowgroup_range(header, served)
        # Both shapes run the engine's encoded-domain (late
        # materialization) path: integers are reduced in place of
        # doubles, and ranged sums skip non-qualifying vectors via zone
        # maps + FFOR headers without unpacking them.
        source = served.query_source(rowgroups)
        if bounds is None:
            total = float(sum_query(source))
            count = int(source.value_count)
        else:
            total, count = range_sum_query(source, *bounds)
        fields: dict[str, object] = {"sum": total, "count": count}
        fields.update(_quarantine_fields(served))
        return OpResult(fields=fields)

    def op_comp(header: dict[str, object], payload: bytes) -> OpResult:
        from repro.baselines.registry import list_codecs

        served = _resolve(registry, header)
        codec = _optional_str(header, "codec") or "alp"
        if codec not in ("uncompressed", *list_codecs()):
            raise OpError(
                protocol.ERR_BAD_REQUEST,
                f"unknown codec {codec!r}; known: "
                + ", ".join(list_codecs()),
            )
        values = served.all_values()
        bits = int(comp_query(codec, values))
        return OpResult(
            fields={
                "codec": codec,
                "compressed_bits": bits,
                "bits_per_value": bits / max(values.size, 1),
                "count": int(values.size),
            }
        )

    def op_compress(header: dict[str, object], payload: bytes) -> OpResult:
        try:
            values = protocol.values_from_bytes(payload)
        except protocol.ProtocolError as exc:
            raise OpError(protocol.ERR_BAD_REQUEST, str(exc)) from exc
        column = api.compress(values, opts)
        return OpResult(
            fields={
                "count": int(column.count),
                "bits_per_value": column.bits_per_value(),
                "compression_ratio": column.compression_ratio(),
            },
            payload=protocol.column_to_bytes(column),
        )

    def op_decompress(header: dict[str, object], payload: bytes) -> OpResult:
        try:
            column = protocol.column_from_bytes(payload)
        except protocol.ProtocolError as exc:
            raise OpError(protocol.ERR_BAD_REQUEST, str(exc)) from exc
        try:
            values = api.decompress(column)
        except IntegrityError as exc:
            raise OpError(protocol.ERR_CORRUPT, str(exc)) from exc
        return OpResult(
            fields={"count": int(values.size)},
            payload=protocol.values_to_bytes(values),
        )

    return {
        "ping": op_ping,
        "datasets": op_datasets,
        "scan": op_scan,
        "sum": op_sum,
        "comp": op_comp,
        "compress": op_compress,
        "decompress": op_decompress,
    }
