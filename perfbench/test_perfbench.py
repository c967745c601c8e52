"""Self-tests of the benchmark: ``python -m pytest perfbench`` from the root.

Each workload runs with a tiny op count, untraced and traced, and must
print exactly its metric names with their units.  Tampering with a
reference must raise the failed-op count, the benchmark must refuse
to run where the program's sources are missing, and it must leave no
resource tracker process behind, even when a run fails.
"""

import json
import math
import os
import shutil
import subprocess
import sys

import pytest

import run

WORKLOADS = ("cli-cold", "plant-serial", "plant-process", "ingest")


@pytest.fixture
def few_ops(monkeypatch):
    monkeypatch.setattr(run, "MIN_OPS", 2)
    monkeypatch.setattr(run, "WHOLE_ROTATIONS", False)


def _check_shape(result, units):
    assert set(result) == {"info", "correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0
    assert result["attempted"] >= 2
    assert {k: m["unit"] for k, m in result["metrics"].items()} == units
    for metric in result["metrics"].values():
        assert math.isfinite(metric["value"])


@pytest.mark.parametrize("workload", WORKLOADS)
def test_untraced_run_prints_every_end_to_end_metric(workload, few_ops):
    result = run.measure(workload, seed=3, seconds=0, trace=False)
    _check_shape(result, run.END_TO_END)
    for key in ("setup_s", "op_p50_s", "jobs_per_s", "peak_rss_mb"):
        assert result["metrics"][key]["value"] > 0


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_run_prints_every_per_layer_metric(workload, few_ops):
    result = run.measure(workload, seed=3, seconds=0, trace=True)
    _check_shape(result, run.PER_LAYER)
    metrics = {k: m["value"] for k, m in result["metrics"].items()}
    assert metrics["detectors.calls"] > 0
    assert metrics["detectors.busy_s"] > 0
    assert metrics["io.report_bytes"] > 0
    # the layers' self times cover the op's wall time
    assert abs(metrics["trace.unattributed_s"]) < 0.05 * metrics["trace.op_wall_s"]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_tampered_reference_counts_as_failed_ops(workload, monkeypatch):
    # ingest checks at the end of an 18-arrival replay cycle
    monkeypatch.setattr(run, "MIN_OPS", 18 if workload == "ingest" else 2)
    monkeypatch.setattr(run, "WHOLE_ROTATIONS", False)

    def tamper(wl):
        wl.refs[:] = [ref + " " for ref in wl.refs]

    result = run.measure(workload, seed=3, seconds=0, trace=False, tamper=tamper)
    assert result["correct"] is False
    assert result["failed"] > 0


def test_tail_needs_ten_ops_beyond_it():
    assert run.tail([1.0] * 19) is None
    assert run.tail([float(i) for i in range(20)])[0] == 50
    pct, value, beyond = run.tail([float(i) for i in range(200)])
    assert (pct, beyond) == (95, 10) and value == 189.0


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(run.HERE, tmp_path / "perfbench")
    shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), tmp_path)
    command = json.loads((tmp_path / "BENCHMARK.json").read_text())["command"]
    command = [sys.executable if part == "python3" else part for part in command]
    proc = subprocess.run(
        command + ["--workload", "plant-serial", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


def test_benchmark_json_declares_the_printed_metrics():
    with open(os.path.join(run.ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        doc = json.load(fh)
    assert {m["name"]: m["unit"] for m in doc["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in doc["per_layer"]} == run.PER_LAYER
    assert [w["name"] for w in doc["workloads"]] == list(WORKLOADS)


def test_a_layer_that_is_gone_is_reported_absent(monkeypatch):
    run.import_program()
    import layers
    from repro.io import reports_to_json

    timed = tuple(
        (layer, module, "no_such_function" if layer == "io.export" else path)
        for layer, module, path in layers.TIMED
    )
    monkeypatch.setattr(layers, "TIMED", timed)
    ledger = layers.Ledger()
    with ledger.installed():
        reports_to_json([])
    raw = ledger.take()
    assert "io.export.s" not in raw and "io.report_bytes" not in raw
    record = layers.op_record(raw)
    assert "io.export_s" not in record and "io.report_bytes" not in record
    assert "detectors.calls" in record


def test_main_reaps_the_resource_tracker_on_every_way_out(monkeypatch):
    from multiprocessing import resource_tracker

    def failing_run(*args):
        resource_tracker.ensure_running()
        failing_run.tracker = resource_tracker._resource_tracker._pid
        raise RuntimeError("the run failed")

    monkeypatch.setattr(run, "measure", failing_run)
    with pytest.raises(RuntimeError):
        run.main(["--workload", "ingest", "--seed", "1", "--seconds", "0"])
    with pytest.raises(ProcessLookupError):
        os.kill(failing_run.tracker, 0)
