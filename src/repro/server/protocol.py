"""The framed wire protocol of :mod:`repro.server`.

One message — request or response — is a single *frame*::

    u32  magic   b"ALPS"
    u32  header length in bytes
    u64  payload length in bytes
    ...  header: UTF-8 JSON object
    ...  payload: raw bytes (may be empty)

The header carries the operation and its parameters (requests) or the
status and result metadata (responses); the payload carries bulk data —
little-endian float64 values for ``scan``/``decompress``, the column
wire encoding (below) for ``compress``.  Frames are strictly bounded:
headers above :data:`MAX_HEADER_BYTES` and payloads above
:data:`MAX_PAYLOAD_BYTES` are rejected before any allocation, so a
malformed or hostile peer cannot balloon the server.  An encoded
:class:`Frame` keeps the payload as the caller's buffers (a scan's
row-group arrays), so a sender writes them one after another and never
joins them.

Response headers always contain ``ok`` (bool).  Failures carry
``error`` — one of the :data:`ERROR_CODES` — plus a human-readable
``message``.  ``overloaded`` is the backpressure signal: the request
was *not* admitted and the client may retry later.

Column wire encoding (``compress`` responses / ``decompress`` request
payloads)::

    u32  row-group count
    u32  vector size
    u64  value count
    ...  serialized row-groups, back to back (storage serializer format)

which is the exact on-disk row-group layout of ``docs/FORMAT.md``
without the file header/footer — the server ships columns, not files.
"""

from __future__ import annotations

import json
import struct
from collections.abc import Sequence
from typing import Callable, TypeAlias

import numpy as np

from repro.core.compressor import CompressedRowGroups
from repro.storage.serializer import (
    deserialize_rowgroup,
    empty_stats,
    serialize_rowgroup,
)

#: Frame magic; rejects non-protocol peers on the first 4 bytes.
FRAME_MAGIC = b"ALPS"
#: ``magic | header_len | payload_len`` prefix.
_PREFIX = struct.Struct("<4sIQ")
PREFIX_LEN = _PREFIX.size

#: Upper bound on the JSON header of one frame.
MAX_HEADER_BYTES = 64 * 1024
#: Default upper bound on one frame's payload (servers may lower it).
MAX_PAYLOAD_BYTES = 1 << 30

#: Column wire encoding prefix: row-group count, vector size, value count.
_COLUMN_PREFIX = struct.Struct("<IIQ")

# Error codes a response header's ``error`` field may carry.
ERR_BAD_REQUEST = "bad_request"
ERR_NOT_FOUND = "not_found"
ERR_OVERLOADED = "overloaded"
ERR_DEADLINE = "deadline_exceeded"
ERR_TOO_LARGE = "too_large"
ERR_CORRUPT = "corrupt"
ERR_SHUTTING_DOWN = "shutting_down"
ERR_INTERNAL = "internal"

ERROR_CODES = frozenset(
    {
        ERR_BAD_REQUEST,
        ERR_NOT_FOUND,
        ERR_OVERLOADED,
        ERR_DEADLINE,
        ERR_TOO_LARGE,
        ERR_CORRUPT,
        ERR_SHUTTING_DOWN,
        ERR_INTERNAL,
    }
)


class ProtocolError(ValueError):
    """A frame that does not follow the wire format."""


#: One C-contiguous piece of a frame payload.  Value arrays are ``<f8``.
Part: TypeAlias = bytes | bytearray | memoryview | np.ndarray
#: A frame payload: one buffer, or its pieces in wire order.
Payload: TypeAlias = Part | Sequence[Part]


class Frame:
    """One encoded frame, unjoined: ``head`` then ``parts`` on the wire.

    ``head`` is the prefix plus the JSON header; ``parts`` are byte
    views of the caller's payload buffers, never copies of them.  A
    part must not change until the frame is written: asyncio's socket
    transport may keep a view of its unsent bytes (CPython 3.12+).
    ``len()`` is the frame's size in bytes; ``bytes()`` joins it.
    """

    __slots__ = ("head", "parts")

    def __init__(self, head: bytes, parts: tuple[memoryview, ...]) -> None:
        self.head = head
        self.parts = parts

    def __len__(self) -> int:
        return len(self.head) + sum(part.nbytes for part in self.parts)

    def __bytes__(self) -> bytes:
        return b"".join((self.head, *self.parts))


def encode_frame(header: dict[str, object], payload: Payload = b"") -> Frame:
    """Encode one frame (header dict + payload buffers), payload unjoined."""
    header_bytes = json.dumps(header, separators=(",", ":")).encode("utf-8")
    if len(header_bytes) > MAX_HEADER_BYTES:
        raise ProtocolError(
            f"frame header is {len(header_bytes)} bytes "
            f"(limit {MAX_HEADER_BYTES})"
        )
    if isinstance(payload, (bytes, bytearray, memoryview, np.ndarray)):
        payload = (payload,)
    # cast("B") also rejects a non-contiguous buffer; byte-format views
    # keep the transport's slicing (``view[sent:]``) in bytes.
    views = (memoryview(part).cast("B") for part in payload)
    parts = tuple(view for view in views if view.nbytes)
    payload_len = sum(part.nbytes for part in parts)
    prefix = _PREFIX.pack(FRAME_MAGIC, len(header_bytes), payload_len)
    return Frame(prefix + header_bytes, parts)


def parse_prefix(
    prefix: bytes, max_payload: int = MAX_PAYLOAD_BYTES
) -> tuple[int, int]:
    """Validate a frame prefix; returns (header_len, payload_len)."""
    if len(prefix) != PREFIX_LEN:
        raise ProtocolError(
            f"short frame prefix: {len(prefix)} of {PREFIX_LEN} bytes"
        )
    magic, header_len, payload_len = _PREFIX.unpack(prefix)
    if magic != FRAME_MAGIC:
        raise ProtocolError(f"bad frame magic {magic!r}")
    if header_len == 0 or header_len > MAX_HEADER_BYTES:
        raise ProtocolError(
            f"frame header length {header_len} outside (0, {MAX_HEADER_BYTES}]"
        )
    if payload_len > max_payload:
        raise ProtocolError(
            f"frame payload length {payload_len} exceeds limit {max_payload}"
        )
    return header_len, payload_len


def decode_header(header_bytes: bytes) -> dict[str, object]:
    """Parse a frame's JSON header; must be a JSON object."""
    try:
        header = json.loads(header_bytes.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ProtocolError(f"frame header is not JSON: {exc}") from exc
    if not isinstance(header, dict):
        raise ProtocolError("frame header must be a JSON object")
    return header


def read_frame(
    read_exactly: Callable[[int], bytes],
    max_payload: int = MAX_PAYLOAD_BYTES,
) -> tuple[dict[str, object], bytes]:
    """Read one frame via a blocking ``read_exactly(n)`` callable.

    This is the synchronous-side reader (client, tests); the asyncio
    server reads the same layout with ``StreamReader.readexactly``.
    """
    header_len, payload_len = parse_prefix(
        read_exactly(PREFIX_LEN), max_payload
    )
    header = decode_header(read_exactly(header_len))
    payload = read_exactly(payload_len) if payload_len else b""
    return header, payload


def error_frame(
    code: str, message: str, request_id: object = None
) -> Frame:
    """An ``ok=False`` response frame carrying an error code + message."""
    if code not in ERROR_CODES:
        raise ValueError(f"unknown error code {code!r}")
    header: dict[str, object] = {
        "ok": False,
        "error": code,
        "message": message,
    }
    if request_id is not None:
        header["id"] = request_id
    return encode_frame(header)


def ok_frame(
    fields: dict[str, object] | None = None,
    payload: Payload = b"",
    request_id: object = None,
) -> Frame:
    """An ``ok=True`` response frame with result fields and a payload."""
    header: dict[str, object] = {"ok": True}
    if fields:
        header.update(fields)
    if request_id is not None:
        header["id"] = request_id
    return encode_frame(header, payload)


# -- bulk payload encodings ----------------------------------------------


def values_to_bytes(values: np.ndarray) -> bytes:
    """Little-endian float64 bytes of a value payload."""
    return np.ascontiguousarray(values, dtype="<f8").tobytes()


def values_from_bytes(payload: bytes | bytearray) -> np.ndarray:
    """Decode a float64 payload (validates the length).

    The result is always writable: a writable buffer (a receive buffer
    the caller owns) is wrapped in place, a read-only one is copied.
    """
    if len(payload) % 8:
        raise ProtocolError(
            f"float64 payload length {len(payload)} is not a multiple of 8"
        )
    values = np.frombuffer(payload, dtype="<f8")
    return values if values.flags.writeable else values.copy()


def column_to_bytes(column: CompressedRowGroups) -> bytes:
    """Serialize a compressed column to the wire encoding."""
    parts = [
        _COLUMN_PREFIX.pack(
            len(column.rowgroups), column.vector_size, column.count
        )
    ]
    parts.extend(serialize_rowgroup(rg) for rg in column.rowgroups)
    return b"".join(parts)


def column_from_bytes(payload: bytes) -> CompressedRowGroups:
    """Decode the wire encoding back into a compressed column."""
    if len(payload) < _COLUMN_PREFIX.size:
        raise ProtocolError("column payload shorter than its prefix")
    n_rowgroups, vector_size, count = _COLUMN_PREFIX.unpack_from(payload, 0)
    offset = _COLUMN_PREFIX.size
    rowgroups = []
    try:
        for _ in range(n_rowgroups):
            rowgroup, consumed = deserialize_rowgroup(payload, offset)
            rowgroups.append(rowgroup)
            offset += consumed
    except (ValueError, IndexError, KeyError, struct.error) as exc:
        raise ProtocolError(
            f"column payload does not decode: {exc}"
        ) from exc
    if offset != len(payload):
        raise ProtocolError(
            f"column payload has {len(payload) - offset} trailing bytes"
        )
    decoded_count = sum(rg.count for rg in rowgroups)
    if decoded_count != count:
        raise ProtocolError(
            f"column payload count mismatch: prefix says {count}, "
            f"row-groups hold {decoded_count}"
        )
    return CompressedRowGroups(
        rowgroups=tuple(rowgroups),
        count=count,
        vector_size=vector_size,
        stats=empty_stats(),
    )
