"""Self-test of the benchmark: PYTHONPATH=src python3 -m pytest perfbench/test_bench.py

Runs every workload at minimum size with tracing off and on, and checks
that both give the same accuracy figures (the wrappers must not perturb
results), that every declared metric is reported, and that the command
fails cleanly where there is no source tree.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402

SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


@pytest.fixture(scope="module", autouse=True)
def source():
    run.prepare()


def _names(kind):
    return {m["name"] for m in SPEC[kind]}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_workload_at_minimum_size(workload):
    plain, record = run.run(workload, seed=3, seconds=0, trace=False, small=True)
    assert plain["correct"], record["messages"]
    assert plain["attempted"] >= 1 and plain["failed"] == 0
    assert set(plain["metrics"]) == _names("end_to_end")
    assert all(m["value"] > 0 for m in plain["metrics"].values())

    traced, traced_record = run.run(workload, seed=3, seconds=0, trace=True, small=True)
    assert traced["correct"], traced_record["messages"]
    assert set(traced["metrics"]) == _names("per_layer")
    assert traced_record["acc_traced"] == record["acc"]
    assert traced_record["acc"] == record["acc"]


def test_accuracy_depends_on_the_seed_only():
    _, first = run.run("high-order", seed=5, seconds=0, trace=False, small=True)
    _, again = run.run("high-order", seed=5, seconds=0, trace=False, small=True)
    _, other = run.run("high-order", seed=6, seconds=0, trace=False, small=True)
    assert first["acc"] == again["acc"]
    assert first["acc"] != other["acc"]


def test_fails_without_source_tree(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / HERE.name,
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, *SPEC["command"][1:], "--workload", WORKLOADS[0],
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert proc.returncode != 0
    assert "{" not in proc.stdout


def test_spec_keeps_to_its_limits():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}
    assert len(json.dumps(SPEC)) < 64 * 1024
    assert 2 <= len(SPEC["workloads"]) <= 8
    assert all(len(w["why"]) <= 200 and "\n" not in w["why"] for w in SPEC["workloads"])
    assert all(m["bound"] <= 0.25 for m in SPEC["end_to_end"])
    setup = next(m for m in SPEC["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in SPEC["end_to_end"])
