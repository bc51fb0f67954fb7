"""Tests for the BENCH_*.json records, harness emitter and CI gate."""

import json
from pathlib import Path

import pytest

from repro.bench.gate import compare_records, main, run_gate
from repro.bench.records import (
    DOCUMENT_KIND,
    SCHEMA_VERSION,
    BenchRecord,
    build_document,
    read_bench_json,
    validate_document,
    write_bench_json,
)


def make_record(**overrides) -> BenchRecord:
    base = dict(
        dataset="City-Temp",
        codec="alp",
        n=4096,
        bits_per_value=10.5,
        compression_ratio=64.0 / 10.5,
        compress_mbps=300.0,
        decompress_mbps=2000.0,
        compress_rel=0.03,
        decompress_rel=0.2,
        spans={"compressor.compress": {"count": 1, "total_s": 0.01}},
        counters={"compressor.values": 4096},
    )
    base.update(overrides)
    return BenchRecord(**base)


class TestBenchRecord:
    def test_dict_round_trip(self):
        record = make_record()
        assert BenchRecord.from_dict(record.to_dict()) == record

    def test_key(self):
        assert make_record().key == ("City-Temp", "alp")


class TestValidateDocument:
    def test_valid_document_passes(self):
        document = build_document([make_record()], {"n": 4096}, 9000.0)
        assert validate_document(document) == []
        assert document["kind"] == DOCUMENT_KIND
        assert document["schema_version"] == SCHEMA_VERSION

    def test_not_an_object(self):
        assert validate_document([1, 2]) == ["document is not a JSON object"]

    def test_bad_kind_and_version(self):
        document = build_document([make_record()], {}, 9000.0)
        document["kind"] = "other"
        document["schema_version"] = 99
        problems = validate_document(document)
        assert any("kind" in p for p in problems)
        assert any("schema_version" in p for p in problems)

    def test_bad_calibration(self):
        document = build_document([make_record()], {}, 9000.0)
        document["calibration_mbps"] = 0
        assert any("calibration" in p for p in validate_document(document))

    def test_empty_records(self):
        document = build_document([], {}, 9000.0)
        assert any("records" in p for p in validate_document(document))

    def test_nonfinite_numeric_field(self):
        document = build_document([make_record()], {}, 9000.0)
        document["records"][0]["bits_per_value"] = float("nan")
        assert any(
            "bits_per_value" in p for p in validate_document(document)
        )

    def test_negative_numeric_field(self):
        document = build_document([make_record()], {}, 9000.0)
        document["records"][0]["compress_rel"] = -0.1
        assert any("compress_rel" in p for p in validate_document(document))

    def test_duplicate_key(self):
        document = build_document(
            [make_record(), make_record()], {}, 9000.0
        )
        assert any("duplicates" in p for p in validate_document(document))

    def test_bounds_validated(self):
        good = {
            "latency_p99_ms": {"worse": "higher", "tolerance": 0.5},
            "query.sum_speedup_vs_decode": {"min": 2.0},
            "decompress_mbps": {"min": 2.0, "of": ["served", "loadgen"]},
        }
        document = build_document([make_record(bounds=good)], {}, 9000.0)
        assert validate_document(document) == []
        for bad in (
            [],
            {"x": {"worse": "sideways", "tolerance": 0.5}},
            {"x": {"worse": "higher", "tolerance": -1}},
            {"x": {"min": "2"}},
            {"x": {"min": 2.0, "of": "served/loadgen"}},
            {"x": {"max": 2.0}},
        ):
            document["records"][0]["bounds"] = bad
            assert any("bounds" in p for p in validate_document(document))


class TestWriteRead:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "BENCH_test.json"
        written = write_bench_json(path, [make_record()], {"n": 4096}, 9000.0)
        document, records = read_bench_json(path)
        assert document == written
        assert records == [make_record()]

    def test_write_refuses_invalid(self, tmp_path):
        bad = make_record(bits_per_value=float("inf"))
        with pytest.raises(ValueError):
            write_bench_json(tmp_path / "x.json", [bad], {}, 9000.0)

    def test_read_refuses_invalid(self, tmp_path):
        path = tmp_path / "x.json"
        path.write_text(json.dumps({"kind": "wrong"}))
        with pytest.raises(ValueError):
            read_bench_json(path)


def checks_by_metric(current, baseline, run=None):
    checks, problems = compare_records(current, baseline, run)
    assert problems == []
    return {c.metric: c for c in checks}


def loadgen_record(codec="loadgen", **overrides) -> BenchRecord:
    """A serving record shaped like ``write_loadgen_json`` output."""
    base = dict(
        dataset="served",
        codec=codec,
        n=100,
        bits_per_value=0.0,
        compression_ratio=0.0,
        compress_mbps=0.0,
        decompress_mbps=100.0,
        compress_rel=0.0,
        decompress_rel=0.1,
        counters={"latency_p99_ms": 40.0, "error_count": 0},
        large_allocs=3,
    )
    base.update(overrides)
    return BenchRecord(**base)


#: The serve-smoke bounds of the cold-loadgen baseline.
SERVE_BOUNDS = {
    "latency_p99_ms": {"worse": "higher", "tolerance": 0.5},
    "large_allocs": {"worse": "higher", "tolerance": 0},
}


class TestGate:
    def test_identical_records_pass(self):
        record = make_record()
        checks, problems = compare_records(record, record)
        assert [c.metric for c in checks] == [
            "bits_per_value",
            "compress_rel",
            "decompress_rel",
        ]
        assert problems == []
        assert not any(c.failed for c in checks)

    def test_ratio_regression_fails(self):
        baseline = make_record()
        current = make_record(bits_per_value=10.5 * 1.05)
        checks = checks_by_metric(current, baseline)
        assert checks["bits_per_value"].failed

    def test_ratio_improvement_passes(self):
        baseline = make_record()
        current = make_record(bits_per_value=8.0)
        checks = checks_by_metric(current, baseline)
        assert not checks["bits_per_value"].failed

    def test_throughput_regression_fails(self):
        baseline = make_record()
        current = make_record(decompress_rel=0.2 * 0.5)
        checks = checks_by_metric(current, baseline)
        assert checks["decompress_rel"].failed
        assert not checks["compress_rel"].failed

    def test_throughput_within_tolerance_passes(self):
        baseline = make_record()
        current = make_record(compress_rel=0.03 * 0.8)
        checks = checks_by_metric(current, baseline)
        assert not checks["compress_rel"].failed

    def test_default_bounds_edges(self):
        # bits_per_value may grow 2%; *_rel may drop until the baseline
        # is 25% above the current value.
        baseline = make_record()
        ok = make_record(bits_per_value=10.5 * 1.019, compress_rel=0.0241)
        bad = make_record(bits_per_value=10.5 * 1.021, compress_rel=0.0239)
        for current, failed in ((ok, False), (bad, True)):
            checks = checks_by_metric(current, baseline)
            assert checks["bits_per_value"].failed is failed
            assert checks["compress_rel"].failed is failed

    @pytest.mark.parametrize("factor, failed", [(1.49, False), (1.51, True)])
    def test_relative_bound_p99(self, factor, failed):
        baseline = loadgen_record(bounds=SERVE_BOUNDS)
        current = loadgen_record(counters={"latency_p99_ms": 40.0 * factor})
        check = checks_by_metric(current, baseline)["latency_p99_ms"]
        assert check.failed is failed

    @pytest.mark.parametrize(
        "allocs, failed", [(3, False), (2, False), (4, True)]
    )
    def test_large_allocs_may_not_grow(self, allocs, failed):
        baseline = loadgen_record(bounds=SERVE_BOUNDS)
        current = loadgen_record(large_allocs=allocs)
        check = checks_by_metric(current, baseline)["large_allocs"]
        assert check.failed is failed

    @pytest.mark.parametrize("speedup, failed", [(2.01, False), (1.99, True)])
    def test_absolute_floor(self, speedup, failed):
        name = "query.sum_speedup_vs_decode"
        baseline = make_record(
            counters={name: 3.0}, bounds={name: {"min": 2.0}}
        )
        current = make_record(counters={name: speedup})
        assert checks_by_metric(current, baseline)[name].failed is failed

    def test_unbounded_speedup_counter_is_a_problem(self):
        record = make_record(counters={"query.cmp_speedup_vs_decode": 3.0})
        _, problems = compare_records(record, record)
        assert problems == [
            "City-Temp alp: baseline leaves "
            "query.cmp_speedup_vs_decode unbounded"
        ]

    @pytest.mark.parametrize("ratio, failed", [(2.1, False), (1.9, True)])
    def test_ratio_to_another_record(self, ratio, failed):
        single = loadgen_record()
        bounds = {"decompress_mbps": {"min": 2.0, "of": ["served", "loadgen"]}}
        baseline = loadgen_record("shard_loadgen", bounds=bounds)
        routed = loadgen_record("shard_loadgen", decompress_mbps=100.0 * ratio)
        run = {single.key: single, routed.key: routed}
        check = checks_by_metric(routed, baseline, run)["decompress_mbps"]
        assert check.failed is failed

    def test_ratio_reference_missing_is_a_problem(self):
        bounds = {"decompress_mbps": {"min": 2.0, "of": ["served", "loadgen"]}}
        baseline = loadgen_record("shard_loadgen", bounds=bounds)
        checks, problems = compare_records(
            loadgen_record("shard_loadgen"), baseline
        )
        assert "decompress_mbps" not in [c.metric for c in checks]
        assert len(problems) == 1 and "served loadgen" in problems[0]

    @pytest.mark.parametrize("side", ["current", "baseline"])
    def test_bounded_field_missing_is_a_problem(self, side):
        current = loadgen_record()
        baseline = loadgen_record(bounds=SERVE_BOUNDS)
        if side == "current":
            current = loadgen_record(large_allocs=None)
        else:
            baseline = loadgen_record(large_allocs=None, bounds=SERVE_BOUNDS)
        checks, problems = compare_records(current, baseline)
        assert problems == [
            f"served loadgen: large_allocs missing from {side} record"
        ]
        assert "large_allocs" not in [c.metric for c in checks]

    def _write(self, path, records):
        write_bench_json(path, records, {"n": 4096}, 9000.0)
        return str(path)

    def test_run_gate_missing_record_is_fatal(self, tmp_path):
        baseline = self._write(
            tmp_path / "base.json",
            [make_record(), make_record(dataset="Stocks-DE")],
        )
        current = self._write(tmp_path / "cur.json", [make_record()])
        checks, problems = run_gate([current], baseline)
        assert len(problems) == 1
        assert "Stocks-DE" in problems[0]

    def test_run_gate_new_record_passes(self, tmp_path):
        baseline = self._write(tmp_path / "base.json", [make_record()])
        current = self._write(
            tmp_path / "cur.json",
            [make_record(), make_record(dataset="Gov/10")],
        )
        checks, problems = run_gate([current], baseline)
        assert problems == []
        assert len(checks) == 3  # only the shared record is compared
        assert not any(c.failed for c in checks)

    def test_run_gate_merges_current_documents(self, tmp_path):
        bounds = {"decompress_mbps": {"min": 2.0, "of": ["served", "loadgen"]}}
        baseline = self._write(
            tmp_path / "base.json",
            [loadgen_record("shard_loadgen", bounds=bounds)],
        )
        routed = self._write(
            tmp_path / "routed.json",
            [loadgen_record("shard_loadgen", decompress_mbps=150.0)],
        )
        single = self._write(tmp_path / "single.json", [loadgen_record()])
        checks, problems = run_gate([routed, single], baseline)
        assert problems == []
        assert {c.metric: c.failed for c in checks}["decompress_mbps"]

    def test_run_gate_duplicate_key_across_documents(self, tmp_path):
        baseline = self._write(tmp_path / "base.json", [make_record()])
        first = self._write(tmp_path / "a.json", [make_record()])
        second = self._write(tmp_path / "b.json", [make_record()])
        _, problems = run_gate([first, second], baseline)
        assert problems == [
            "record ('City-Temp', 'alp') appears in more than one "
            "current document"
        ]

    def test_main_exit_codes(self, tmp_path, capsys):
        baseline = self._write(tmp_path / "base.json", [make_record()])
        worse = self._write(
            tmp_path / "cur.json", [make_record(bits_per_value=11.0)]
        )
        assert main([baseline, baseline]) == 0
        assert main([worse, baseline]) == 1
        assert "tolerance 2%" in capsys.readouterr().out


BASELINES = sorted(
    (Path(__file__).parent.parent / "benchmarks" / "baselines").glob(
        "BENCH_*.json"
    )
)


class TestCheckedInBaselines:
    def test_baselines_found(self):
        assert len(BASELINES) >= 4

    @pytest.mark.parametrize("path", BASELINES, ids=lambda p: p.name)
    def test_baseline_gates_clean_against_itself(self, path):
        checks, problems = run_gate([str(path)], str(path))
        assert problems == []
        assert checks and not any(c.failed for c in checks)


class TestTiming:
    def test_median_stat_resists_lucky_outlier(self):
        from repro.bench.harness import time_callable

        fake = iter([0.001, 0.010, 0.010, 0.010, 0.010])

        class Clock:
            now = 0.0

        def fn():
            Clock.now += next(fake)

        import repro.bench.harness as harness

        real = harness.time.perf_counter
        harness.time.perf_counter = lambda: Clock.now
        try:
            result = time_callable(fn, 100, repeats=5, warmup=0, stat="median")
        finally:
            harness.time.perf_counter = real
        # One anomalously fast sample must not define the result.
        assert result.seconds == pytest.approx(0.010)

    def test_invalid_stat_rejected(self):
        from repro.bench.harness import time_callable

        with pytest.raises(ValueError):
            time_callable(lambda: None, 1, stat="mean")


class TestSmokeSchema:
    def test_structured_bench_emits_valid_document(self, tmp_path):
        from repro.bench.harness import run_structured_bench

        path = tmp_path / "BENCH_mini.json"
        document, records = run_structured_bench(
            ["City-Temp"], ["alp"], n=4096, repeats=1, out_path=path
        )
        assert validate_document(document) == []
        assert len(records) == 1
        record = records[0]
        assert record.bits_per_value > 0
        assert record.compress_rel > 0
        assert record.decompress_rel > 0
        # Per-stage breakdown is embedded in the record.
        assert "compressor.compress" in record.spans
        assert any(
            name.startswith("compressor.") for name in record.counters
        )
        # And the file round-trips through the validating reader.
        loaded_document, loaded_records = read_bench_json(path)
        assert loaded_records == records


class TestKernelRecords:
    def test_kernel_records_conform_to_schema(self):
        from repro.bench.harness import calibration_mbps
        from repro.bench.kernels import KERNEL_WIDTHS, kernel_bench_records
        from repro.bench.records import build_document

        records = kernel_bench_records(repeats=1)
        # One pack + one ffor record per width, plus the ALP vector
        # record, the two encoded-query records (q-sum, q-cmp), the
        # zone-map table-scan record (q-table), the cold-read I/O
        # record (kernels/io) and the CRC32C record (kernels/crc32c).
        assert len(records) == 2 * len(KERNEL_WIDTHS) + 6
        by_dataset = {r.dataset: r for r in records}
        for name, counter in (
            ("kernels/q-sum", "query.sum_speedup_vs_decode"),
            ("kernels/q-cmp", "query.cmp_speedup_vs_decode"),
            ("kernels/q-table", "table.scan_speedup_vs_decode"),
            ("kernels/crc32c", "crc.speedup_vs_reference"),
        ):
            assert by_dataset[name].counters[counter] > 0
        document = build_document(
            records,
            config={"kernels": True},
            calibration_mbps=calibration_mbps(repeats=1),
        )
        assert validate_document(document) == []
        pack_records = [r for r in records if r.codec == "pack"]
        assert {r.bits_per_value for r in pack_records} == set(
            float(w) for w in KERNEL_WIDTHS
        )
        for record in pack_records:
            assert record.counters["pack.speedup_vs_bitmatrix"] > 0
