"""Smoke test of the benchmark at tiny sizes: every workload's oracles run
and pass on one round of tasks, and both kinds of run emit every metric
named in BENCHMARK.json with its unit."""

import json
import os
import shutil
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
BENCH = os.path.join(ROOT, "bench")
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, BENCH)

import workloads  # noqa: E402
from run import END_TO_END, PER_LAYER  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
    SPEC = json.load(fh)


def bench(*args, cwd=ROOT):
    return subprocess.run([sys.executable, "bench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=600)


def test_benchmark_json_matches_run_py():
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == END_TO_END
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == PER_LAYER
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_every_oracle_runs(name, tmp_path, monkeypatch):
    monkeypatch.chdir(ROOT)
    wl = workloads.WORKLOADS[name](7, 0.1, str(tmp_path))
    stream = wl.tasks()
    for _ in range(len(wl.slots)):
        task = next(stream)
        assert task.check(task.run()) == [], task.kind


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_every_metric_emitted(name, trace):
    proc = bench("--workload", name, "--seed", "7", "--seconds", "0.2", "--trace", str(trace),
                 "--scale", "0.1")
    assert proc.returncode == 0, proc.stderr
    doc = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(doc) == {"correct", "attempted", "failed", "metrics"}
    assert doc["correct"] and doc["failed"] == 0 and doc["attempted"] >= 1, proc.stderr
    assert {k: v["unit"] for k, v in doc["metrics"].items()} == (PER_LAYER if trace else END_TO_END)
    assert all(isinstance(v["value"], (int, float)) for v in doc["metrics"].values())


def test_refuses_without_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = bench("--workload", "raster", "--seed", "1", "--seconds", "1", "--trace", "0",
                 cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""
