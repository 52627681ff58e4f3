"""Harness tests on the A2 cone (8 rays); they finish in seconds.

    python3 -m pytest perfbench

Each run.py test runs it in a subprocess from a checkout-shaped directory,
the way the benchmark is meant to be started. The last test runs the
reference sampler on its own.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
SPEC = json.loads((REPO / "BENCHMARK.json").read_text())


def _run(root, *args):
    cmd = [sys.executable, "perfbench/run.py", "--workload", "a2_cone", "--seed", "3",
           "--seconds", "1", *args]
    return subprocess.run(cmd, cwd=root, capture_output=True, text=True, timeout=120)


def _result(proc):
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _checkout(tmp_path, with_sources=True):
    """A copy of the files the benchmark runs from, free to corrupt."""
    shutil.copy(REPO / "BENCHMARK.json", tmp_path)
    shutil.copytree(REPO / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    if with_sources:
        shutil.copytree(REPO / "src", tmp_path / "src",
                        ignore=shutil.ignore_patterns("__pycache__"))
    return tmp_path


def test_smoke_end_to_end(tmp_path):
    proc = _run(_checkout(tmp_path))
    assert proc.returncode == 0, proc.stderr
    result = _result(proc)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 2
    assert list(result["metrics"]) == [m["name"] for m in SPEC["end_to_end"]]
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_smoke_traced(tmp_path):
    proc = _run(_checkout(tmp_path), "--trace", "1")
    assert proc.returncode == 0, proc.stderr
    metrics = _result(proc)["metrics"]
    assert list(metrics) == [m["name"] for m in SPEC["per_layer"]]
    assert metrics["cone.extremal_rays.calls"]["value"] == 1
    assert metrics["cone.rays"]["value"] == 8
    assert metrics["faces.facets"]["value"] == 12
    assert metrics["rays.hrep_rows"]["value"] == 18
    assert metrics["cone.extremal_rays.self_s"]["value"] > 0


def test_corrupted_expectation_is_a_failure(tmp_path):
    root = _checkout(tmp_path)
    path = root / "perfbench" / "expected.json"
    expected = json.loads(path.read_text())
    expected["A2_cone"]["digest"] = "0" * 64
    path.write_text(json.dumps(expected))
    proc = _run(root)
    assert proc.returncode == 1
    result = _result(proc)
    assert result["correct"] is False
    assert result["failed"] >= 1
    assert result["failed"] < result["attempted"]
    assert "A2 ray digest" in proc.stdout


def test_refuses_to_run_without_sources(tmp_path):
    proc = _run(_checkout(tmp_path, with_sources=False))
    assert proc.returncode != 0
    assert not proc.stdout.strip()


def test_reference_sampler_stops_when_its_input_closes():
    proc = subprocess.run([sys.executable, "perfbench/reference.py"], cwd=REPO,
                          stdin=subprocess.DEVNULL, capture_output=True, text=True, timeout=30)
    assert proc.returncode == 0, proc.stderr
    ready, result = proc.stdout.splitlines()
    cpu, passes = json.loads(result)
    assert ready == "ready" and passes >= 1 and cpu > 0
