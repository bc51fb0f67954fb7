"""Wire-format tests: frames, bounds, and the column wire encoding."""

from __future__ import annotations

import struct

import numpy as np
import pytest

from repro.core.compressor import compress, decompress
from repro.server import protocol


def _read_frame_from_bytes(frame, **kwargs):
    view = memoryview(bytes(frame))
    offset = 0

    def read_exactly(n: int) -> bytes:
        nonlocal offset
        chunk = bytes(view[offset : offset + n])
        offset += n
        return chunk

    return protocol.read_frame(read_exactly, **kwargs)


class TestFrames:
    def test_roundtrip(self):
        header = {"op": "scan", "dataset": "d", "id": 7}
        payload = b"\x01\x02\x03"
        got_header, got_payload = _read_frame_from_bytes(
            protocol.encode_frame(header, payload)
        )
        assert got_header == header
        assert got_payload == payload

    def test_empty_payload(self):
        frame = protocol.encode_frame({"op": "ping"})
        header, payload = _read_frame_from_bytes(frame)
        assert header == {"op": "ping"}
        assert payload == b""

    def test_bad_magic_rejected(self):
        frame = bytearray(bytes(protocol.encode_frame({"op": "ping"})))
        frame[:4] = b"XXXX"
        with pytest.raises(protocol.ProtocolError, match="magic"):
            _read_frame_from_bytes(bytes(frame))

    def test_oversized_header_rejected_on_encode(self):
        with pytest.raises(protocol.ProtocolError, match="header"):
            protocol.encode_frame({"blob": "x" * protocol.MAX_HEADER_BYTES})

    def test_oversized_payload_rejected_before_read(self):
        prefix = struct.Struct("<4sIQ").pack(
            protocol.FRAME_MAGIC, 10, protocol.MAX_PAYLOAD_BYTES + 1
        )
        with pytest.raises(protocol.ProtocolError, match="payload"):
            protocol.parse_prefix(prefix)

    def test_lowered_payload_bound_applies(self):
        frame = protocol.encode_frame({"op": "x"}, b"a" * 100)
        with pytest.raises(protocol.ProtocolError, match="payload"):
            _read_frame_from_bytes(frame, max_payload=50)

    def test_non_object_header_rejected(self):
        with pytest.raises(protocol.ProtocolError, match="object"):
            protocol.decode_header(b"[1, 2]")

    def test_non_json_header_rejected(self):
        with pytest.raises(protocol.ProtocolError, match="JSON"):
            protocol.decode_header(b"\xff\xfe")

    def test_error_frame_shape(self):
        frame = protocol.error_frame(
            protocol.ERR_OVERLOADED, "busy", request_id=3
        )
        header, payload = _read_frame_from_bytes(frame)
        assert header == {
            "ok": False,
            "error": "overloaded",
            "message": "busy",
            "id": 3,
        }
        assert payload == b""

    def test_error_frame_rejects_unknown_code(self):
        with pytest.raises(ValueError, match="unknown error code"):
            protocol.error_frame("nope", "x")

    def test_ok_frame_shape(self):
        frame = protocol.ok_frame({"count": 5}, b"pp", request_id=9)
        header, payload = _read_frame_from_bytes(frame)
        assert header == {"ok": True, "count": 5, "id": 9}
        assert payload == b"pp"


class TestValuePayloads:
    def test_roundtrip_bitexact(self):
        values = np.array(
            [0.1, -0.0, np.nan, np.inf, -np.inf, 1e300], dtype=np.float64
        )
        back = protocol.values_from_bytes(protocol.values_to_bytes(values))
        assert np.array_equal(back.view(np.uint64), values.view(np.uint64))

    def test_ragged_length_rejected(self):
        with pytest.raises(protocol.ProtocolError, match="multiple of 8"):
            protocol.values_from_bytes(b"\x00" * 11)

    def test_result_is_writable_copy(self):
        values = np.arange(4, dtype=np.float64)
        back = protocol.values_from_bytes(protocol.values_to_bytes(values))
        back[0] = 99.0  # must not raise: decoupled from the buffer


class TestColumnWire:
    def _column(self, n=10_000, seed=0):
        rng = np.random.default_rng(seed)
        values = np.round(rng.normal(50, 9, n), 2)
        return values, compress(values, vector_size=256)

    def test_roundtrip_bitexact(self):
        values, column = self._column()
        back = protocol.column_from_bytes(protocol.column_to_bytes(column))
        assert back.count == column.count
        assert back.vector_size == column.vector_size
        restored = decompress(back)
        assert np.array_equal(
            restored.view(np.uint64), values.view(np.uint64)
        )

    def test_trailing_bytes_rejected(self):
        _, column = self._column(2_000)
        wire = protocol.column_to_bytes(column) + b"\x00"
        with pytest.raises(protocol.ProtocolError, match="trailing"):
            protocol.column_from_bytes(wire)

    def test_truncated_rejected(self):
        _, column = self._column(2_000)
        wire = protocol.column_to_bytes(column)
        with pytest.raises(protocol.ProtocolError):
            protocol.column_from_bytes(wire[: len(wire) // 2])

    def test_count_mismatch_rejected(self):
        _, column = self._column(2_000)
        wire = bytearray(protocol.column_to_bytes(column))
        # Corrupt the value-count field of the column prefix.
        struct.pack_into("<Q", wire, 8, column.count + 1)
        with pytest.raises(protocol.ProtocolError, match="count mismatch"):
            protocol.column_from_bytes(bytes(wire))

    def test_short_prefix_rejected(self):
        with pytest.raises(protocol.ProtocolError, match="prefix"):
            protocol.column_from_bytes(b"\x01\x02")


class TestProjectionNegotiation:
    """Versioned negotiation of the v4 ``columns`` projection field.

    Old clients never send ``columns``; their requests must produce
    response frames *byte-identical* to the pre-projection protocol —
    same field set, same payload, no schema echo.  New clients opt in
    by sending ``columns`` and get the schema echo back.
    """

    @pytest.fixture()
    def ops_and_values(self, tmp_path):
        from repro import api
        from repro.server.ops import build_ops
        from repro.server.registry import DatasetRegistry

        rng = np.random.default_rng(11)
        n = 8_192
        ts = np.cumsum(rng.random(n))
        value = np.round(rng.normal(20, 5, n), 2)
        api.write_table(tmp_path / "t.alpc", {"ts": ts, "value": value})
        registry = DatasetRegistry()
        registry.register_file(tmp_path / "t.alpc", name="t")
        return build_ops(registry), {"ts": ts, "value": value}

    def test_old_header_answered_byte_identically(self, ops_and_values):
        ops, columns = ops_and_values
        result = ops["scan"](
            {"op": "scan", "dataset": "t", "column": "value"}, b""
        )
        # The exact pre-projection response frame, byte for byte.
        expected = protocol.ok_frame(
            {
                "count": len(columns["value"]),
                "rowgroups_quarantined": 0,
                "values_quarantined": 0,
            },
            protocol.values_to_bytes(columns["value"]),
            request_id=1,
        )
        got = protocol.ok_frame(result.fields, result.payload, request_id=1)
        assert bytes(got) == bytes(expected)
        assert len(got) == len(expected)
        assert "schema" not in result.fields

    def test_columns_header_gets_schema_echo(self, ops_and_values):
        ops, columns = ops_and_values
        result = ops["scan"](
            {"op": "scan", "dataset": "t", "columns": ["value", "ts"]}, b""
        )
        assert result.fields["schema"] == [
            {"name": "value", "type": "float64", "nullable": False},
            {"name": "ts", "type": "float64", "nullable": False},
        ]
        n = len(columns["ts"])
        assert result.fields["counts"] == [n, n]
        got = protocol.ok_frame(result.fields, result.payload, request_id=1)
        expected = protocol.ok_frame(
            result.fields,
            protocol.values_to_bytes(
                np.concatenate([columns["value"], columns["ts"]])
            ),
            request_id=1,
        )
        assert bytes(got) == bytes(expected)

    def test_column_and_columns_are_exclusive(self, ops_and_values):
        from repro.server.ops import OpError

        ops, _ = ops_and_values
        with pytest.raises(OpError) as err:
            ops["scan"](
                {
                    "op": "scan",
                    "dataset": "t",
                    "column": "value",
                    "columns": ["ts"],
                },
                b"",
            )
        assert err.value.code == protocol.ERR_BAD_REQUEST


class TestWireByteIdentity:
    """A served scan's raw bytes equal the joined single-buffer frame.

    The server writes a scan response as the frame head followed by the
    row-group arrays themselves; on the wire that must be exactly
    ``encode_frame(header, values_to_bytes(expected))`` for every scan
    shape, on a cold (decoding) and a warm (cached) request alike.
    """

    VECTOR_SIZE = 128
    ROWGROUP_VECTORS = 4
    RG = VECTOR_SIZE * ROWGROUP_VECTORS
    N = 8 * RG

    @pytest.fixture(scope="class")
    def server(self, tmp_path_factory):
        from repro import api
        from repro.server import (
            DatasetRegistry,
            DecodedVectorCache,
            ServerConfig,
            run_in_thread,
        )

        tmp = tmp_path_factory.mktemp("wire")
        rng = np.random.default_rng(5)
        columns = {
            "ts": np.cumsum(rng.random(self.N)),
            "value": np.round(rng.normal(20, 5, self.N), 2),
        }
        options = api.CompressionOptions(
            vector_size=self.VECTOR_SIZE,
            rowgroup_vectors=self.ROWGROUP_VECTORS,
        )
        api.write_table(tmp / "t.alpc", columns, options)
        # A one-column file with row-group 1 corrupted: served degraded.
        api.write(tmp / "dmg.alpc", columns["value"], options)
        with api.open(tmp / "dmg.alpc") as reader:
            offset = reader.metadata[1].offset
        data = bytearray((tmp / "dmg.alpc").read_bytes())
        data[offset] ^= 0x20
        (tmp / "dmg.alpc").write_bytes(bytes(data))

        registry = DatasetRegistry(cache=DecodedVectorCache(8 << 20))
        registry.register_path(tmp / "t.alpc", name="t")
        registry.register_path(tmp / "dmg.alpc", name="dmg")
        handle = run_in_thread(registry, ServerConfig(port=0, workers=2))
        try:
            yield handle.port, columns
        finally:
            handle.shutdown()

    @staticmethod
    def _raw_response(port, request):
        """One request over a bare socket: (raw frame bytes, header)."""
        import socket

        with socket.create_connection(("127.0.0.1", port), timeout=30) as sock:
            sock.sendall(bytes(protocol.encode_frame(request)))
            data = bytearray()

            def fill(n):
                while len(data) < n:
                    chunk = sock.recv(1 << 16)
                    if not chunk:
                        raise ConnectionError("server closed mid-frame")
                    data.extend(chunk)

            fill(protocol.PREFIX_LEN)
            header_len, payload_len = protocol.parse_prefix(
                bytes(data[: protocol.PREFIX_LEN])
            )
            fill(protocol.PREFIX_LEN + header_len + payload_len)
        header = protocol.decode_header(
            bytes(data[protocol.PREFIX_LEN : protocol.PREFIX_LEN + header_len])
        )
        return bytes(data), header

    def _expected(self, case, columns):
        value, rg = columns["value"], self.RG
        in_range = (value >= 18.0) & (value <= 22.0)
        return {
            "full": value,
            "ranged": value[in_range],
            "partition": value[2 * rg : 5 * rg],
            "partition-ranged": value[2 * rg : 5 * rg][
                in_range[2 * rg : 5 * rg]
            ],
            "empty": value[:0],
            "projection": np.concatenate([value, columns["ts"]]),
            "degraded": np.concatenate([value[:rg], value[2 * rg :]]),
        }[case]

    REQUESTS = {
        "full": {"dataset": "t", "column": "value"},
        "ranged": {"dataset": "t", "column": "value", "low": 18.0,
                   "high": 22.0},
        "partition": {"dataset": "t", "column": "value", "rowgroups": [2, 5]},
        "partition-ranged": {"dataset": "t", "column": "value",
                             "rowgroups": [2, 5], "low": 18.0, "high": 22.0},
        "empty": {"dataset": "t", "column": "value", "low": 1e6, "high": 2e6},
        "projection": {"dataset": "t", "columns": ["value", "ts"]},
        "degraded": {"dataset": "dmg"},
    }

    @pytest.mark.parametrize("case", sorted(REQUESTS))
    def test_raw_bytes_equal_joined_frame(self, server, case):
        port, columns = server
        expected = self._expected(case, columns)
        for request_id in (1, 2):  # cold (decode), then warm (cached)
            request = {"op": "scan", "id": request_id, **self.REQUESTS[case]}
            raw, header = self._raw_response(port, request)
            assert header["ok"] is True
            assert header["count"] == expected.size
            assert header["rowgroups_quarantined"] == int(case == "degraded")
            assert raw == bytes(
                protocol.encode_frame(
                    header, protocol.values_to_bytes(expected)
                )
            )
