"""Tests for the observability layer (repro.obs)."""

import json
import threading
import time

import numpy as np
import pytest

from repro import obs
from repro.core.compressor import compress, decompress


@pytest.fixture(autouse=True)
def _clean_obs():
    """Every test starts and ends with metrics off and empty."""
    obs.disable()
    obs.reset()
    yield
    obs.disable()
    obs.reset()


class TestDisabledNoOp:
    def test_disabled_by_default(self):
        assert not obs.enabled()

    def test_disabled_span_is_shared_singleton(self):
        # The disabled path must not allocate per call.
        assert obs.span("a") is obs.span("b")

    def test_disabled_records_nothing(self):
        with obs.span("stage"):
            obs.counter_add("events", 3)
            obs.gauge_set("level", 1.5)
        snap = obs.snapshot()
        assert snap["counters"] == {}
        assert snap["gauges"] == {}
        assert snap["spans"] == {}
        assert snap["enabled"] is False

    def test_pipeline_records_nothing_when_disabled(self):
        values = np.linspace(0.0, 1.0, 2048)
        decompress(compress(values))
        snap = obs.snapshot()
        assert snap["counters"] == {}
        assert snap["spans"] == {}


class TestCountersAndGauges:
    def test_counter_accumulates(self):
        obs.enable()
        obs.counter_add("c")
        obs.counter_add("c", 4)
        assert obs.snapshot()["counters"]["c"] == 5

    def test_gauge_last_write_wins(self):
        obs.enable()
        obs.gauge_set("g", 1.0)
        obs.gauge_set("g", 2.5)
        assert obs.snapshot()["gauges"]["g"] == 2.5


class TestSpans:
    def test_span_records_count_and_time(self):
        obs.enable()
        for _ in range(3):
            with obs.span("work"):
                time.sleep(0.001)
        stat = obs.snapshot()["spans"]["work"]
        assert stat["count"] == 3
        assert stat["total_s"] >= 0.003
        assert 0 < stat["min_s"] <= stat["max_s"] <= stat["total_s"]
        assert stat["mean_s"] == pytest.approx(stat["total_s"] / 3)

    def test_nested_spans_build_paths(self):
        obs.enable()
        with obs.span("outer"):
            with obs.span("inner"):
                pass
            with obs.span("inner"):
                pass
        spans = obs.snapshot()["spans"]
        assert spans["outer"]["count"] == 1
        assert spans["outer/inner"]["count"] == 2
        assert "inner" not in spans

    def test_span_survives_exception(self):
        obs.enable()
        with pytest.raises(RuntimeError):
            with obs.span("failing"):
                raise RuntimeError("boom")
        assert obs.snapshot()["spans"]["failing"]["count"] == 1
        # The stack unwound: a new top-level span is not nested.
        with obs.span("after"):
            pass
        assert "after" in obs.snapshot()["spans"]

    def test_thread_local_nesting(self):
        obs.enable()
        done = threading.Event()

        def worker():
            with obs.span("worker"):
                done.wait(1.0)

        with obs.span("main"):
            t = threading.Thread(target=worker)
            t.start()
            done.set()
            t.join()
        spans = obs.snapshot()["spans"]
        # The worker's span must not nest under the main thread's.
        assert "worker" in spans
        assert "main/worker" not in spans


class TestSnapshotReset:
    def test_snapshot_json_round_trip(self):
        obs.enable()
        obs.counter_add("c", 2)
        with obs.span("s"):
            pass
        parsed = json.loads(obs.snapshot_json())
        assert parsed == obs.snapshot()
        assert set(parsed) == {"enabled", "counters", "gauges", "spans"}

    def test_reset_clears_values_not_flag(self):
        obs.enable()
        obs.counter_add("c")
        obs.reset()
        snap = obs.snapshot()
        assert snap["counters"] == {}
        assert snap["enabled"] is True
        assert obs.enabled()

    def test_disable_keeps_recorded_values(self):
        obs.enable()
        obs.counter_add("c")
        obs.disable()
        assert obs.snapshot()["counters"]["c"] == 1


class TestPipelineInstrumentation:
    def test_compress_decompress_spans_and_counters(self):
        obs.enable()
        values = np.round(np.linspace(-50.0, 50.0, 4096), 2)
        restored = decompress(compress(values))
        assert np.array_equal(restored, values)
        snap = obs.snapshot()
        spans = snap["spans"]
        counters = snap["counters"]
        assert spans["compressor.compress"]["count"] == 1
        assert (
            spans["compressor.compress/compressor.rowgroup"]["count"] >= 1
        )
        assert counters["compressor.values"] == values.size
        assert counters["compressor.values_decoded"] == values.size
        # Layer coverage: sampler, alp, ffor and bitpack all reported.
        layers = {name.split(".")[0] for name in counters}
        assert {"compressor", "sampler", "alp", "ffor", "bitpack"} <= layers

    def test_compress_on_two_threads_nests_per_thread(self):
        # Server workers compress concurrently: each thread's row-group
        # spans must nest under its own compress span, never the other's.
        obs.enable()
        rng = np.random.default_rng(7)
        values = np.round(rng.normal(0.0, 10.0, 1024 * 250), 3)
        start = threading.Barrier(2, timeout=30)
        columns = []

        def worker():
            start.wait()
            columns.append(compress(values))

        threads = [threading.Thread(target=worker) for _ in range(2)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
            assert not t.is_alive()
        assert len(columns) == 2
        for column in columns:
            assert np.array_equal(decompress(column), values)
        snap = obs.snapshot()
        spans = snap["spans"]
        assert spans["compressor.compress"]["count"] == 2
        assert spans["compressor.compress/compressor.rowgroup"]["count"] == 6
        assert not [
            name
            for name in spans
            if name.startswith("compressor.compress/compressor.compress")
        ]
        assert snap["counters"]["compressor.rowgroups"] == 6
