"""Tests of the benchmark itself.

    python3 -m pytest perfbench
"""

import json
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import meter  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def bench(*args, cwd=ROOT):
    return subprocess.run([sys.executable, "perfbench/run.py", *args],
                          cwd=cwd, capture_output=True, text=True, timeout=600)


def result_of(proc):
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def units(result):
    return {name: metric["unit"] for name, metric in result["metrics"].items()}


def test_declared_metrics_match_benchmark_json():
    assert {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]} == run.PER_LAYER
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(workloads.WORKLOADS)


@pytest.mark.parametrize("workload", list(workloads.WORKLOADS))
def test_second_seed_runs_clean(workload):
    result = result_of(bench("--workload", workload, "--seed", "2",
                             "--seconds", "1", "--trace", "0"))
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= len(workloads.cells(workload, 2))
    assert units(result) == run.END_TO_END
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_traced_run_prints_every_layer_metric():
    proc = bench("--workload", "consensus-fanout", "--seed", "2",
                 "--seconds", "1", "--trace", "1")
    result = result_of(proc)
    assert result["correct"] and result["failed"] == 0
    assert units(result) == run.PER_LAYER
    # Entry points a later commit removes are listed, not a failure.
    probe = tracer.Tracer()
    probe.install()
    probe.uninstall()
    assert result["metrics"]["trace.absent"]["value"] == len(probe.absent)
    absent = sorted(metric for metric, sources in run.LAYER_SOURCES.items()
                    if not any(s in probe.installed for s in sources))
    listed = [line.split(": ", 1)[1].split(", ")
              for line in proc.stdout.splitlines()
              if line.startswith("absent (reported as 0): ")]
    assert listed == ([absent] if absent else [])
    assert 0 < result["metrics"]["algorithms.busy_ratio"]["value"] < 1
    untraced = [float(line.split()[2]) for line in proc.stdout.splitlines()
                if line.startswith("untraced Engine.run ")]
    assert len(untraced) == 1
    assert result["metrics"]["engine.self_s"]["value"] < untraced[0]


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench("--workload", "dht-trace", "--seed", "1", "--seconds", "1",
                 "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout


def test_missing_entry_point_is_reported_absent(monkeypatch):
    from roundsim import network, runlog
    enqueue = network.Network.enqueue
    monkeypatch.delattr(runlog.RunLogger, "merge_node_buffer")
    t = tracer.Tracer()
    t.install()
    try:
        assert "roundsim.runlog:RunLogger.merge_node_buffer" in t.absent
        assert "runlog.merge" not in t.installed
        assert "runlog.append" in t.installed
        assert network.Network.enqueue is not enqueue
    finally:
        t.uninstall()
    assert network.Network.enqueue is enqueue
    assert not hasattr(runlog.RunLogger, "merge_node_buffer")


def test_checks_catch_a_wrong_hop_count():
    from roundsim import config, engine
    from roundsim.algorithms import dht
    obj = {"algorithm": "chord", "topology": {"kind": "ring", "nodes": 16},
           "delay": {"kind": "deterministic", "value": 1},
           "roundsPerComputation": 30,
           "algorithmParams": {"queriesPerRound": 2}}
    doc = engine.Engine(config.parse_obj(obj)).run()
    reduced = dht.mean_hops(doc)
    assert checks.check_cell(obj, doc, reduced) == []
    lookup = next(r for r in doc.payloads("queryResolved") if r["hops"] > 0)
    lookup["hops"] -= 1
    assert checks.check_cell(obj, doc, reduced)


def test_checks_catch_a_wrong_latency():
    from roundsim import config, engine
    from roundsim.algorithms import consensus
    obj = {"algorithm": "pbft", "topology": {"kind": "complete", "nodes": 4},
           "delay": {"kind": "deterministic", "value": 2},
           "roundsPerComputation": 30}
    doc = engine.Engine(config.parse_obj(obj)).run()
    reduced = consensus.mean_latency(doc)
    assert checks.check_cell(obj, doc, reduced) == []
    doc.records("latency")[0].payload["end"] += 1
    assert checks.check_cell(obj, doc, reduced)


def test_meter_converts_windows_by_probe_speed():
    cpus = os.sched_getaffinity(0)
    try:
        host = meter.Meter()
        with host:
            start = time.perf_counter()
            while time.perf_counter() - start < 0.3:
                sum(range(1000))
            end = time.perf_counter()
        assert os.sched_getaffinity(0) == {host.cpu}
    finally:
        os.sched_setaffinity(0, cpus)
    inside = [(s, e) for s, e in host.samples if s >= start and e <= end]
    assert len(inside) >= 10  # the probe took turns with the busy loop
    speed = sum(meter.REFERENCE_KERNEL_S / (e - s) for s, e in inside) / len(inside)
    converted = host.seconds(start, end)
    assert 0 < converted < (end - start) * speed * 1.5
    # Probe kernels inside the window are not counted as the window's work.
    busy = end - start - sum(e - s for s, e in inside)
    assert converted < busy * max(meter.REFERENCE_KERNEL_S / (e - s)
                                  for s, e in host.samples)
