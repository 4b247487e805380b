"""The benchmark's own tests (tiny inputs; about a minute in all).

    python3 -m pytest perfbench/test_perfbench.py -q
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def run(workload, *, seed=1, trace=0, env=None, cwd=ROOT):
    cmd = [sys.executable, str(HERE / "run.py") if cwd == ROOT else "perfbench/run.py",
           "--workload", workload, "--seed", str(seed), "--seconds", "1",
           "--trace", str(trace), "--size", "tiny"]
    proc = subprocess.run(cmd, cwd=cwd, capture_output=True, text=True,
                          timeout=300, env={**os.environ, **(env or {})})
    lines = proc.stdout.strip().splitlines()
    report = next((json.loads(line.split(" ", 1)[1]) for line in lines
                   if line.startswith("perfbench-report ")), None)
    result = json.loads(lines[-1]) if lines and lines[-1].startswith("{") else None
    return proc, report, result


def expected_units(kind):
    return {m["name"]: m["unit"] for m in SPEC[kind]}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_workload_reports_every_end_to_end_metric(workload):
    proc, report, result = run(workload)
    assert proc.returncode == 0, proc.stderr
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    units = {k: v["unit"] for k, v in result["metrics"].items()}
    assert units == expected_units("end_to_end")
    assert all(v["value"] > 0 for v in result["metrics"].values())
    assert report["stamp"]["kernel_mode"] in ("compiled", "numpy")
    assert len(report["digest"]) == 64


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_run_reports_every_layer_and_repeats_the_work(workload):
    proc, report, result = run(workload, trace=1)
    assert proc.returncode == 0, proc.stderr
    assert result["correct"] is True
    units = {k: v["unit"] for k, v in result["metrics"].items()}
    assert units == expected_units("per_layer")
    assert report["traced_digest"] == report["digest"]


def test_same_seed_same_digest_other_seed_other_digest():
    digests = [run("offline-plan", seed=s)[1]["digest"] for s in (3, 3, 4)]
    assert digests[0] == digests[1]
    assert digests[0] != digests[2]


def test_numpy_kernel_mode_is_stamped():
    proc, report, _ = run("online-replan", env={"REPRO_DISABLE_CKERNEL": "1"})
    assert proc.returncode == 0, proc.stderr
    assert report["stamp"]["kernel_mode"] == "numpy"


def test_no_timing_wrapper_survives_a_trace():
    sys.path.insert(0, str(HERE))
    sys.path.insert(0, str(ROOT / "src"))
    from layers import LAYER_TARGETS, LayerTrace, surviving_wrappers

    assert surviving_wrappers() == []
    with LayerTrace():
        assert len(surviving_wrappers()) == len(LAYER_TARGETS)
    assert surviving_wrappers() == []


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc, _report, result = run("offline-plan", cwd=tmp_path)
    assert proc.returncode != 0
    assert result is None
