"""Smoke test of the benchmark itself, at the tiny input size.

    python3 perfbench/smoke.py          (or: python3 -m pytest perfbench/smoke.py)

Runs every workload traced and untraced, checks that every metric of
BENCHMARK.json is printed with its unit, that a wrong reference value is
counted as a failed operation, that seed 0 regenerates the committed
inputs byte for byte, and that the benchmark refuses to run without the
varwave sources.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SCRATCH = os.path.join(ROOT, ".perfbench_out", "smoke")

with open(os.path.join(ROOT, "BENCHMARK.json")) as _fh:
    BENCH = json.load(_fh)
WORKLOADS = [w["name"] for w in BENCH["workloads"]]


def _run(workload, trace, *extra, cwd=ROOT):
    proc = subprocess.run(
        [sys.executable, os.path.join(cwd, "perfbench", "run.py"),
         "--workload", workload, "--seed", "0", "--seconds", "0.2",
         "--trace", str(trace), "--size", "tiny", *extra],
        capture_output=True, text=True, cwd=cwd, timeout=170)
    return proc


def _result(proc):
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    return result


def test_every_metric_printed():
    for workload in WORKLOADS:
        for trace, wanted in ((0, BENCH["end_to_end"]),
                              (1, BENCH["per_layer"])):
            result = _result(_run(workload, trace))
            assert result["correct"], (workload, trace)
            assert result["failed"] == 0 and result["attempted"] >= 1
            got = {name: m["unit"] for name, m in result["metrics"].items()}
            assert got == {m["name"]: m["unit"] for m in wanted}, workload
            for name, m in result["metrics"].items():
                assert isinstance(m["value"], (int, float)), name


def test_wrong_reference_counts_as_failure():
    os.makedirs(SCRATCH, exist_ok=True)
    with open(os.path.join(HERE, "reference.json")) as fh:
        ref = json.load(fh)
    ref["picard_long"]["tiny"]["solution_err"]["value"] *= 10.0
    path = os.path.join(SCRATCH, "wrong_reference.json")
    with open(path, "w") as fh:
        json.dump(ref, fh)
    result = _result(_run("picard_long", 0, "--reference", path))
    assert not result["correct"]
    assert result["failed"] == result["attempted"] >= 1


def test_seed_zero_reproduces_committed_inputs():
    sys.path[:0] = [os.path.join(ROOT, "src"), HERE]
    import workloads
    for size in ("full", "tiny"):
        for wl in workloads.WORKLOADS.values():
            dest = os.path.join(SCRATCH, "inputs", size)
            for name, path in workloads.generate(wl, 0, size, dest).items():
                committed = os.path.join(HERE, "inputs", size, name + ".json")
                with open(path, "rb") as a, open(committed, "rb") as b:
                    assert a.read() == b.read(), (size, name)


def test_refuses_without_sources():
    bare = os.path.join(SCRATCH, "bare")
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    proc = _run(WORKLOADS[0], 0, cwd=bare)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


if __name__ == "__main__":
    for name, fn in list(globals().items()):
        if name.startswith("test_"):
            fn()
            print("ok", name)
