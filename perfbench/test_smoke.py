"""Tiny-size smoke test of the benchmark: every workload runs in both modes,
its outputs check out against the oracle, it prints exactly the metrics
BENCHMARK.json declares, traced counts repeat for the same seed, and it fails
cleanly where the engine sources are missing."""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest
from workloads import WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

with open(os.path.join(ROOT, "BENCHMARK.json")) as _fh:
    SPEC = json.load(_fh)


def bench(root: str, workload: str, trace: int, seed: int = 3):
    cmd = [sys.executable, os.path.join(root, "perfbench", "run.py"),
           "--workload", workload, "--seed", str(seed), "--seconds", "0.2",
           "--trace", str(trace), "--scale", "0.05"]
    return subprocess.run(cmd, cwd=root, capture_output=True, text=True,
                          timeout=120)


def result(proc) -> dict:
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout.splitlines()[-1])
    assert set(out) == {"correct", "attempted", "failed", "metrics"}
    assert out["correct"] is True and out["failed"] == 0
    assert out["attempted"] >= 1
    return out


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_timed_run_reports_end_to_end_metrics(workload):
    out = result(bench(ROOT, workload, 0))
    declared = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {n: v["unit"] for n, v in out["metrics"].items()} == declared
    assert all(v["value"] > 0 for v in out["metrics"].values())


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_traced_counts_repeat_for_a_seed(workload):
    first, second = (result(bench(ROOT, workload, 1)) for _ in range(2))
    declared = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert {n: v["unit"] for n, v in first["metrics"].items()} == declared
    counts = [n for n, unit in declared.items()
              if unit != "s" and n != "cursor.bytes_per_result"]
    for name in counts:
        assert first["metrics"][name] == second["metrics"][name], name


def test_fails_without_engine_sources(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench(str(tmp_path), "union_ties", 0)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


def test_benchmark_json_follows_its_schema():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}
    assert 2 <= len(SPEC["workloads"]) <= 8
    assert {w["name"] for w in SPEC["workloads"]} <= set(WORKLOADS)
    assert all(set(w) == {"name", "why"} and len(w["why"]) <= 200
               for w in SPEC["workloads"])
    for m in SPEC["end_to_end"]:
        assert set(m) == {"name", "unit", "better", "bound"}
        assert 0 < m["bound"] <= 0.25
    assert {"name": "setup_s", "unit": "s", "better": "lower",
            "bound": max(m["bound"] for m in SPEC["end_to_end"])} in SPEC["end_to_end"]
    assert all(set(m) == {"name", "unit", "better"} for m in SPEC["per_layer"])
    names = [m["name"] for key in ("workloads", "end_to_end", "per_layer")
             for m in SPEC[key]]
    assert len(names) == len(set(names))
