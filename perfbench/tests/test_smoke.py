"""Smoke test of the benchmark harness at tiny dataset sizes.

    python3 -m pytest -q perfbench/tests
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)

import layers  # noqa: E402
import run  # noqa: E402


def _spec():
    with open(os.path.join(ROOT, "BENCHMARK.json"), "r", encoding="utf-8") as fh:
        return json.load(fh)


def _bench(*args, cwd=ROOT, script=os.path.join(BENCH, "run.py")):
    return subprocess.run([sys.executable, script, *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


def test_spec_matches_harness():
    spec = _spec()
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == \
        {k: unit for k, (unit, _) in layers.LAYER_METRICS.items()}


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", list(run.WORKLOADS))
def test_every_metric_reported_with_its_unit(workload, trace):
    proc = _bench("--workload", workload, "--seed", "1", "--seconds", "0",
                  "--trace", str(trace), "--scale", "0.05")
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    record = json.loads(lines[-2])["record"]
    assert result["correct"], record["problems"]
    assert result["failed"] == 0 and result["attempted"] >= run.MIN_JOBS
    assert len(record["output_digest"]) == 1
    want = _spec()["per_layer" if trace else "end_to_end"]
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    assert got == {m["name"]: m["unit"] for m in want}
    for name in got:
        assert isinstance(result["metrics"][name]["value"], (int, float))
        if not trace:
            assert result["metrics"][name]["value"] > 0, name


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _bench("--workload", "fuse_2k", "--seed", "0", "--seconds", "1",
                  "--trace", "0", cwd=tmp_path,
                  script=str(tmp_path / "perfbench" / "run.py"))
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def test_self_time_subtracts_children_and_checks():
    payload = {"spans": [
        ["solver_ip.solve", 0.0, 10.0, -1],
        ["kernels.bnb_search", 1.0, 5.0, 0],
        ["bench.check", 5.0, 6.0, 0],
        ["bench.check", 10.0, 12.0, -1],
    ], "counts": {"kernels.bnb_nodes": 4}, "problems": [], "import_s": 1.0}
    net, self_time, top, checks = layers.span_times(payload)
    assert net["solver_ip.solve"] == 9.0
    assert self_time["solver_ip.solve"] == 5.0
    assert (top, checks) == (12.0, 3.0)
    row = layers.job_layers(payload, wall=14.0)
    assert row["kernels.us_per_node"] == 1e6
    assert row["cli.other_s"] == 1.0
