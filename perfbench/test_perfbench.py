"""Smoke tests of the benchmark itself.

Each test runs ``perfbench/run.py`` in a child process with ``--smoke`` (a
few requests per workload), so the package modules the benchmark re-imports
and wraps never mix with the ones this pytest process imported.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

# Runs the benchmark with the witness of the first measured uniform trial
# recolored (warm-up trials are not checked).
CORRUPT_FIRST_WITNESS = """
import sys
sys.path.insert(0, "perfbench")
import run, workloads
real_execute, real_loop = workloads.Uniform.execute, run.run_loop
def execute(self, req):
    c, w, verified = real_execute(self, req)
    if getattr(self, "corrupt_next", False):
        self.corrupt_next = False
        w = type(w)("blue" if w.color == "red" else "red", w.shape, w.structure)
    return c, w, verified
def run_loop(wl, *args, **kwargs):
    wl.corrupt_next = True
    return real_loop(wl, *args, **kwargs)
workloads.Uniform.execute, run.run_loop = execute, run_loop
sys.exit(run.main(sys.argv[1:]))
"""


def bench(*args, code=None, cwd=ROOT):
    prog = ["-c", code] if code else ["perfbench/run.py"]
    proc = subprocess.run(
        [sys.executable, *prog, *args], cwd=cwd, capture_output=True, text=True, timeout=120
    )
    return proc


def result_of(proc):
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def smoke_args(workload, trace):
    return ["--workload", workload, "--seed", "3", "--seconds", "1", "--trace", str(trace), "--smoke"]


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_smoke_emits_every_declared_metric_with_its_unit(workload, trace):
    res = result_of(bench(*smoke_args(workload, trace)))
    assert set(res) == {"correct", "attempted", "failed", "metrics"}
    assert res["correct"] and res["failed"] == 0 and res["attempted"] >= 1
    declared = {m["name"]: m["unit"] for m in SPEC["per_layer" if trace else "end_to_end"]}
    assert {k: v["unit"] for k, v in res["metrics"].items()} == declared
    assert all(isinstance(v["value"], (int, float)) for v in res["metrics"].values())


def test_corrupted_witness_is_counted_as_failed():
    res = result_of(bench(*smoke_args("uniform", 0), code=CORRUPT_FIRST_WITNESS))
    assert not res["correct"]
    assert res["failed"] == 1
    ok_ratio = res["metrics"]["ok_ratio"]["value"]
    assert ok_ratio == pytest.approx(1 - 1 / res["attempted"])


def test_refuses_to_run_without_the_package_source(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench(*smoke_args("uniform", 0), cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
