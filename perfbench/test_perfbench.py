"""Self-test of the benchmark: `python3 -m pytest perfbench` from the root.

Runs one cycle of every workload, untraced and traced, and checks the output
contract and that the traced work counts repeat exactly for one seed.
"""

import json
import os
import re
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import run  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
    BENCHMARK = json.load(fh)
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
EXACT = (".calls", ".yielded", ".admitted", "Element.new")


def bench(workload, trace, seed=5, cwd=ROOT):
    # --seconds 0: one pass over one cycle, or one untraced/traced pair of it
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "0", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=600,
    )
    return proc


def last_json(proc):
    assert proc.returncode == 0, proc.stdout + proc.stderr
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(out) == {"correct", "attempted", "failed", "metrics"}
    assert out["correct"] is True and out["failed"] == 0 and out["attempted"] >= 1
    return out["metrics"]


def test_benchmark_json_matches_the_workloads_and_metrics():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(run.WORKLOADS)
    assert [m[0] for m in run.PER_LAYER] + ["trace.overhead"] == [
        m["name"] for m in BENCHMARK["per_layer"]
    ]
    for m in BENCHMARK["end_to_end"] + BENCHMARK["per_layer"]:
        assert NAME.match(m["name"]) and UNIT.match(m["unit"])


@pytest.mark.parametrize("workload", list(run.WORKLOADS))
def test_untraced_run_prints_every_end_to_end_metric(workload):
    metrics = last_json(bench(workload, 0))
    expected = {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]}
    assert {k: v["unit"] for k, v in metrics.items()} == expected
    assert all(v["value"] > 0 for v in metrics.values())


@pytest.mark.parametrize("workload", list(run.WORKLOADS))
def test_traced_counts_repeat_exactly(workload):
    first = last_json(bench(workload, 1))
    second = last_json(bench(workload, 1))
    expected = {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]}
    assert {k: v["unit"] for k, v in first.items()} == expected
    exact = [k for k in first if k.endswith(EXACT)]
    assert exact
    assert {k: first[k]["value"] for k in exact} == {k: second[k]["value"] for k in exact}
    assert any(first[k]["value"] > 0 for k in exact)


def test_refuses_to_run_without_the_library(tmp_path):
    # a directory with only BENCHMARK.json and the benchmark's own files
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "cli-cold", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert proc.returncode != 0
    assert not proc.stdout.strip()
