"""End-to-end serving tests: ops, backpressure, deadlines, drain, degraded.

Everything runs against a real server on an ephemeral port
(``run_in_thread``), talked to with the real blocking client — the same
stack ``alp-repro serve`` / ``loadgen`` use.  Timing-sensitive semantics
(overload, drain, shutting-down) are made deterministic with an
Event-gated injected op rather than sleeps.
"""

from __future__ import annotations

import threading
import time

import numpy as np
import pytest

from repro import api, obs
from repro.server import (
    protocol,
)
from repro.server import (
    DatasetRegistry,
    DecodedVectorCache,
    ServerClient,
    ServerConfig,
    ServerError,
    run_in_thread,
)
from repro.server.loadgen import (
    LoadgenConfig,
    discover_targets,
    run_loadgen,
    write_loadgen_json,
)
from repro.server.ops import OpResult

VECTOR_SIZE = 128
ROWGROUP_VECTORS = 4
OPTIONS = api.CompressionOptions(
    vector_size=VECTOR_SIZE, rowgroup_vectors=ROWGROUP_VECTORS
)


def bitwise_equal(a, b):
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    return a.shape == b.shape and np.array_equal(
        a.view(np.uint64), b.view(np.uint64)
    )


def _values(n=20_000, seed=0):
    rng = np.random.default_rng(seed)
    return np.round(np.cumsum(rng.normal(0, 0.3, n)) + 30.0, 2)


@pytest.fixture
def served(tmp_path):
    """A running server over one column file plus its client factory."""
    values = _values()
    path = tmp_path / "temps.alpc"
    api.write(path, values, OPTIONS)
    cache = DecodedVectorCache(byte_budget=64 << 20)
    registry = DatasetRegistry(cache=cache)
    registry.register_path(path)
    handle = run_in_thread(
        registry, ServerConfig(port=0, workers=2, max_inflight=4)
    )
    try:
        yield handle, values, cache
    finally:
        handle.shutdown()


def _client(handle, **kwargs):
    return ServerClient("127.0.0.1", handle.port, **kwargs)


class TestOps:
    def test_ping_and_datasets(self, served):
        handle, _, _ = served
        with _client(handle) as client:
            assert client.ping()
            described = client.datasets()
            assert "temps" in described
            assert described["temps"]["temps"]["values"] == 20_000

    def test_scan_full_column_bitexact(self, served):
        handle, values, _ = served
        with _client(handle) as client:
            got, fields = client.scan("temps")
            assert bitwise_equal(got, values)
            assert fields["count"] == values.size
            assert fields["rowgroups_quarantined"] == 0

    def test_scan_range_filters_values(self, served):
        handle, values, _ = served
        low, high = 28.0, 31.0
        with _client(handle) as client:
            got, _ = client.scan("temps", low=low, high=high)
        expect = values[(values >= low) & (values <= high)]
        assert bitwise_equal(got, expect)

    def test_sum_matches_numpy(self, served):
        handle, values, _ = served
        with _client(handle) as client:
            total, fields = client.sum("temps")
            assert total == pytest.approx(float(values.sum()), rel=1e-12)
            assert fields["count"] == values.size
            ranged, _ = client.sum("temps", low=28.0, high=31.0)
        mask = (values >= 28.0) & (values <= 31.0)
        assert ranged == pytest.approx(float(values[mask].sum()), rel=1e-12)

    def test_comp_reports_bits(self, served):
        handle, values, _ = served
        with _client(handle) as client:
            response = client.comp("temps", codec="alp")
        assert response["codec"] == "alp"
        assert response["count"] == values.size
        assert 0 < response["bits_per_value"] < 64

    def test_compress_decompress_roundtrip(self, served):
        handle, values, _ = served
        with _client(handle) as client:
            column, fields = client.compress(values[:4096])
            assert fields["count"] == 4096
            back = client.decompress(column)
        assert bitwise_equal(back, values[:4096])

    def test_explicit_column_name(self, served):
        handle, values, _ = served
        with _client(handle) as client:
            got, _ = client.scan("temps", column="temps")
        assert bitwise_equal(got, values)


class TestErrors:
    def test_unknown_op(self, served):
        handle, _, _ = served
        with _client(handle) as client:
            with pytest.raises(ServerError) as err:
                client.request("nope")
        assert err.value.code == "bad_request"

    def test_unknown_dataset(self, served):
        handle, _, _ = served
        with _client(handle) as client:
            with pytest.raises(ServerError) as err:
                client.scan("missing")
        assert err.value.code == "not_found"

    def test_unknown_column(self, served):
        handle, _, _ = served
        with _client(handle) as client:
            with pytest.raises(ServerError) as err:
                client.scan("temps", column="other")
        assert err.value.code == "not_found"

    def test_half_open_range_rejected(self, served):
        handle, _, _ = served
        with _client(handle) as client:
            with pytest.raises(ServerError) as err:
                client.request("scan", {"dataset": "temps", "low": 1.0})
        assert err.value.code == "bad_request"

    def test_unknown_codec_rejected(self, served):
        handle, _, _ = served
        with _client(handle) as client:
            with pytest.raises(ServerError) as err:
                client.comp("temps", codec="middle-out")
        assert err.value.code == "bad_request"

    def test_malformed_decompress_payload(self, served):
        handle, _, _ = served
        with _client(handle) as client:
            with pytest.raises(ServerError) as err:
                client.request("decompress", payload=b"\x00" * 24)
        assert err.value.code == "bad_request"

    def test_bad_frame_answers_then_disconnects(self, served):
        handle, _, _ = served
        client = _client(handle)
        try:
            client._sock.sendall(b"XXXX" + b"\x00" * 12)
            header, _ = protocol.read_frame(client._read_exactly)
            assert header["ok"] is False
            assert header["error"] == "bad_request"
            # Framing is unrecoverable: the server hangs up afterwards.
            with pytest.raises(ConnectionError):
                protocol.read_frame(client._read_exactly)
        finally:
            client.close()


class TestDeadlines:
    def test_deadline_zero_expires(self, served):
        handle, _, _ = served
        with _client(handle) as client:
            with pytest.raises(ServerError) as err:
                client.request("ping", {"deadline_ms": 0})
        assert err.value.code == "deadline_exceeded"

    def test_client_default_deadline_applies(self, served):
        handle, _, _ = served
        with _client(handle, deadline_ms=0) as client:
            with pytest.raises(ServerError) as err:
                client.request("ping")
        assert err.value.code == "deadline_exceeded"

    def test_connection_survives_deadline(self, served):
        handle, _, _ = served
        with _client(handle) as client:
            with pytest.raises(ServerError):
                client.request("ping", {"deadline_ms": 0})
            assert client.ping()  # same connection keeps working


def _wait_until(predicate, timeout_s=10.0):
    deadline = time.monotonic() + timeout_s
    while not predicate():
        if time.monotonic() > deadline:
            raise AssertionError("condition not reached in time")
        time.sleep(0.005)


class _GatedOp:
    """An injected op that blocks until released — deterministic load."""

    def __init__(self, server):
        self.gate = threading.Event()
        server.register_op("block", self)

    def __call__(self, header, payload):
        if not self.gate.wait(timeout=30):
            raise RuntimeError("gated op leaked past its test")
        return OpResult(fields={"blocked": True})

    def fill(self, handle, count):
        """Occupy ``count`` admission slots; returns (threads, results)."""
        results: dict[int, object] = {}

        def fire(i):
            try:
                with ServerClient("127.0.0.1", handle.port) as client:
                    results[i], _ = client.request("block")
            except ServerError as exc:
                results[i] = exc.code

        threads = [
            threading.Thread(target=fire, args=(i,)) for i in range(count)
        ]
        for t in threads:
            t.start()
        # Admission happens at submit time, before a worker thread is
        # free, so poll the inflight gauge rather than op starts.
        _wait_until(lambda: handle.server.inflight >= count)
        return threads, results


class TestBackpressure:
    def test_overloaded_frame_when_full(self, served):
        handle, _, _ = served
        gated = _GatedOp(handle.server)
        threads, results = gated.fill(handle, 4)  # max_inflight=4
        try:
            with _client(handle) as client:
                with pytest.raises(ServerError) as err:
                    client.ping()
            assert err.value.code == "overloaded"
            assert err.value.is_overloaded
        finally:
            gated.gate.set()
            for t in threads:
                t.join(timeout=10)
        # Every admitted request still completed successfully.
        assert all(
            isinstance(r, dict) and r.get("blocked") for r in results.values()
        )

    def test_capacity_recovers_after_release(self, served):
        handle, _, _ = served
        gated = _GatedOp(handle.server)
        threads, _ = gated.fill(handle, 4)
        gated.gate.set()
        for t in threads:
            t.join(timeout=10)
        with _client(handle) as client:
            assert client.ping()


class TestGracefulShutdown:
    def test_drain_completes_inflight(self, tmp_path):
        values = _values(4_000)
        path = tmp_path / "v.alpc"
        api.write(path, values, OPTIONS)
        registry = DatasetRegistry()
        registry.register_path(path)
        handle = run_in_thread(
            registry, ServerConfig(port=0, workers=2, max_inflight=4)
        )
        gated = _GatedOp(handle.server)
        threads, results = gated.fill(handle, 2)
        shut = threading.Thread(target=handle.shutdown)
        shut.start()
        try:
            # Shutdown must be draining, not done: both ops still gated.
            shut.join(timeout=0.5)
            assert shut.is_alive()
        finally:
            gated.gate.set()
        for t in threads:
            t.join(timeout=10)
        shut.join(timeout=10)
        assert not shut.is_alive()
        # No dropped requests: both responses arrived after the drain.
        assert all(
            isinstance(r, dict) and r.get("blocked") for r in results.values()
        )

    def test_new_requests_rejected_while_draining(self, tmp_path):
        values = _values(4_000)
        path = tmp_path / "v.alpc"
        api.write(path, values, OPTIONS)
        registry = DatasetRegistry()
        registry.register_path(path)
        handle = run_in_thread(
            registry, ServerConfig(port=0, workers=2, max_inflight=4)
        )
        gated = _GatedOp(handle.server)
        threads, _ = gated.fill(handle, 1)
        # An idle connection opened before the drain starts.  One ping
        # first: a connect alone may still sit in the accept backlog
        # when the listener closes, never reaching a handler.
        bystander = ServerClient("127.0.0.1", handle.port)
        assert bystander.ping()
        shut = threading.Thread(target=handle.shutdown)
        shut.start()
        try:
            shut.join(timeout=0.5)
            assert shut.is_alive()
            with pytest.raises(ServerError) as err:
                bystander.ping()
            assert err.value.code == "shutting_down"
        finally:
            gated.gate.set()
            bystander.close()
        for t in threads:
            t.join(timeout=10)
        shut.join(timeout=10)


class TestDegradedServing:
    def test_corrupt_rowgroup_quarantined_not_fatal(self, tmp_path):
        values = _values(VECTOR_SIZE * ROWGROUP_VECTORS * 4)
        path = tmp_path / "c.alpc"
        api.write(path, values, OPTIONS)
        with api.open(path) as reader:
            meta = reader.metadata[1]
            rows = reader.rowgroup_rows(1)
        data = bytearray(path.read_bytes())
        data[meta.offset] ^= 0x20
        path.write_bytes(bytes(data))

        registry = DatasetRegistry(degraded=True)
        registry.register_path(path, name="dmg")
        handle = run_in_thread(registry, ServerConfig(port=0, workers=2))
        try:
            with _client(handle) as client:
                got, fields = client.scan("dmg")
            assert fields["rowgroups_quarantined"] == 1
            assert fields["values_quarantined"] == rows
            rg = VECTOR_SIZE * ROWGROUP_VECTORS
            expect = np.concatenate([values[:rg], values[2 * rg :]])
            assert bitwise_equal(got, expect)
        finally:
            handle.shutdown()


class TestCacheWarmth:
    def test_second_scan_hits_cache(self, served):
        handle, values, cache = served
        with _client(handle) as client:
            client.scan("temps")
            cold = cache.stats()
            client.scan("temps")
            warm = cache.stats()
        assert cold.misses > 0
        assert warm.misses == cold.misses
        assert warm.hits >= cold.misses


class TestObsCounters:
    def test_request_counters_recorded(self, served):
        handle, _, _ = served
        obs.enable()
        obs.reset()
        try:
            with _client(handle) as client:
                client.ping()
                client.scan("temps")
                with pytest.raises(ServerError):
                    client.request("ping", {"deadline_ms": 0})
            # The expired request's worker slot is released slightly
            # after its deadline frame; wait before reading the gauge.
            _wait_until(lambda: handle.server.inflight == 0)
            snap = obs.snapshot()
            counters = snap["counters"]
            assert counters["server.requests"] == 3
            assert counters["server.deadline_exceeded"] == 1
            assert counters["server.bytes_out"] > 0
            assert snap["gauges"]["server.inflight"] == 0
        finally:
            obs.disable()
            obs.reset()


class TestLoadgen:
    def test_closed_loop_run_clean(self, served, tmp_path):
        handle, _, _ = served
        config = LoadgenConfig(
            port=handle.port, clients=3, requests_per_client=8
        )
        targets = discover_targets(config)
        assert targets == [("temps", "temps")]
        result = run_loadgen(config, targets)
        assert result.requests == 24
        assert result.error_count == 0
        summary = result.summary()
        assert summary["latency_p50_ms"] <= summary["latency_p99_ms"]
        assert summary["requests_per_s"] > 0

        out = tmp_path / "BENCH_loadgen.json"
        write_loadgen_json(out, config, result)
        from repro.bench.records import read_bench_json

        document, records = read_bench_json(out)
        assert document["config"]["mode"] == "loadgen"
        assert records[0].key == ("served", "loadgen")
        assert records[0].counters["requests"] == 24

    def test_warm_cache_speeds_up_scans(self, served):
        # Acceptance: a warm-cache loadgen pass must beat the cold pass
        # on scan throughput.  Wall-clock comparisons flake under CI
        # noise, so compare decode work instead: the cold pass decodes
        # row-groups, the warm pass serves them from cache.
        handle, _, cache = served
        config = LoadgenConfig(
            port=handle.port,
            clients=2,
            requests_per_client=6,
            ops=("scan",),
        )
        before = cache.stats()
        run_loadgen(config)
        cold = cache.stats()
        run_loadgen(config)
        warm = cache.stats()
        assert cold.misses > before.misses  # cold pass paid decodes
        assert warm.misses == cold.misses  # warm pass paid none
        assert warm.hits > cold.hits

    def test_config_validation(self):
        with pytest.raises(ValueError):
            LoadgenConfig(clients=0)
        with pytest.raises(ValueError):
            LoadgenConfig(ops=("scan", "explode"))


class TestServerConfigValidation:
    def test_bad_workers(self):
        with pytest.raises(ValueError):
            ServerConfig(workers=0)

    def test_bad_max_inflight(self):
        with pytest.raises(ValueError):
            ServerConfig(max_inflight=0)
