"""Tests of the end-to-end benchmark (not part of tier-1).

    PYTHONPATH=src python -m pytest benchmarks/e2e -q

One ``--smoke --trace 1`` run of all four workloads (~1/20 of the data)
feeds the metric checks; the rest are in-process and small.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import compare  # noqa: E402
import run  # noqa: E402
from tracing import Tracer, self_times  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.fixture(scope="module")
def smoke(tmp_path_factory: pytest.TempPathFactory) -> tuple[dict, dict]:
    """(last stdout line, --out result) of a traced smoke run."""
    out = tmp_path_factory.mktemp("e2e") / "smoke.json"
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--smoke", "--seconds", "1",
         "--trace", "1", "--out", str(out)],
        cwd=ROOT, capture_output=True, text=True, timeout=300, check=False,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1]), json.loads(
        out.read_text()
    )


def test_every_listed_metric_is_emitted_with_its_unit(smoke):
    last, result = smoke
    assert last["correct"] and last["failed"] == 0 and last["attempted"] > 0
    for workload in SPEC["workloads"]:
        record = result["workloads"][workload["name"]]
        assert record["failed_frac"] == 0
        for metric in SPEC["end_to_end"]:
            emitted = record["metrics"][metric["name"]]
            assert emitted["unit"] == metric["unit"]
            assert emitted["value"] > 0, metric["name"]
        for metric in SPEC["per_layer"]:
            emitted = record["layers"][metric["name"]]
            assert emitted["unit"] == metric["unit"]
            assert np.isfinite(emitted["value"]), metric["name"]
            suffixed = last["metrics"][f"{metric['name']}@{workload['name']}"]
            assert suffixed == emitted
    assert set(result["environment"]) >= {
        "python", "numpy", "nproc", "git_sha", "seed",
    }


def test_layers_the_workloads_exercise_report_work(smoke):
    _, result = smoke
    layers = {name: r["layers"] for name, r in result["workloads"].items()}
    assert layers["ingest"]["sampler.self_s"]["value"] > 0
    assert layers["ingest"]["tablefile.bytes_written"]["value"] > 0
    assert layers["analytics"]["alp.sum_self_s"]["value"] > 0
    assert layers["serve-hot"]["cache.hit_rate"]["value"] == 1.0
    assert layers["serve-cold"]["cache.hit_rate"]["value"] < 0.5
    assert layers["serve-cold"]["protocol.bytes_out"]["value"] > 0


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_a_corrupted_oracle_counts_failures(name, tmp_path):
    record, _ = run.run_workload(
        name, seed=5, seconds=0.3, trace=False, smoke=True,
        workdir=tmp_path, corrupt_oracle=True,
    )
    assert record["failed"] > 0
    assert not record["correct"]


def test_self_time_subtracts_the_union_of_child_intervals():
    # root [0,100]: children a [10,40] and b [30,60] overlap (union 50),
    # c [90,120] is clipped to the root's end (10); a has a child [15,20].
    start = np.array([0, 10, 30, 15, 90])
    end = np.array([100, 40, 60, 20, 120])
    parent = np.array([-1, 0, 0, 1, 0])
    assert self_times(start, end, parent).tolist() == [40, 25, 30, 5, 30]


def test_wrappers_rebind_every_holder_and_uninstall_restores():
    from repro import api
    from repro.core import alp, compressor

    original = alp.alp_decode_vector
    tracer = Tracer().install()
    try:
        assert alp.alp_decode_vector is not original
        assert compressor.alp_decode_vector is alp.alp_decode_vector
        values = np.round(np.random.default_rng(0).normal(20, 5, 5000), 2)
        api.decompress(api.compress(values))
    finally:
        tracer.uninstall()
    assert alp.alp_decode_vector is original
    assert compressor.alp_decode_vector is original
    rows = tracer.spans().by_name()
    assert rows["alp.decode"]["calls"] == 5
    assert rows["compressor.decode"]["self_s"] <= (
        rows["compressor.decode"]["total_s"]
    )
    assert tracer.counts()["alp.vectors_decoded"] == 5


def test_compare_marks_unresolved_worse_and_ok():
    assert compare.verdict([10.0] * 3, [10.2] * 3, 0.1, "higher")[0] == "ok"
    assert compare.verdict([10.0] * 3, [8.0] * 3, 0.1, "higher")[0] == "worse"
    assert compare.verdict([10.0] * 3, [8.0] * 3, 0.1, "lower")[0] == "better"
    noisy = [5.0, 10.0, 15.0, 20.0]
    assert compare.verdict(noisy, [10.0] * 4, 0.1, "lower")[0] == "unresolved"
