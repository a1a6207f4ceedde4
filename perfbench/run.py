"""varwave benchmark: one workload, one seed, one measured run.

    python3 perfbench/run.py --workload slow_sweep --seed 0 --seconds 10 --trace 0

Run it from the root of a checkout; it imports varwave from `src/` there and
writes everything under `.perfbench_out/`.  One process runs one operation
at a time (a closed loop with one client) and BLAS pools are pinned to one
thread.  Iterations repeat until the next one would end past --seconds
(at least one runs).

--trace 0 prints the end-to-end metrics of BENCHMARK.json; --trace 1
alternates untraced and traced iterations and prints the per-layer metrics.
Either way the last stdout line is one JSON object
{"correct", "attempted", "failed", "metrics"}; an operation fails when its
exit code or an output check is wrong, and `failed / attempted` is the
failure ratio.  Provenance (nproc, versions, seed, SHA-256 of every
artifact) goes to `.perfbench_out/<run>/result.json`, spans to `spans.npz`.
"""

from __future__ import annotations

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import gc
import json
import math
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
SETUP_REPEATS = 3
MIN_COVERAGE = 0.9

# a fresh interpreter's import of the CLI plus the load of the first input
_SETUP_CHILD = """
import json, sys, time
t0 = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import varwave.cli
from varwave.config import load_config
with open(sys.argv[2]) as fh:
    doc = json.load(fh)
if "solver" in doc:
    load_config(sys.argv[2])
print(repr(time.perf_counter() - t0))
"""


def _parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--size", choices=("full", "tiny"), default="full",
                    help="input size; tiny is for the smoke test")
    ap.add_argument("--reference", help="reference values (default: "
                    "perfbench/reference.json)")
    return ap.parse_args(argv)


def _setup_times(path: str):
    env = dict(os.environ, PYTHONPATH="")
    times = []
    for _ in range(SETUP_REPEATS):
        out = subprocess.run([sys.executable, "-c", _SETUP_CHILD, SRC, path],
                             capture_output=True, text=True, check=True,
                             timeout=120, env=env, cwd=ROOT)
        times.append(float(out.stdout.strip().splitlines()[-1]))
    return times


class Runner:
    """Runs iterations of one workload and keeps their outcomes."""

    def __init__(self, wl, paths, out_root, reference):
        self.wl, self.paths, self.out_root = wl, paths, out_root
        self.reference = reference
        self.attempted = self.failed = 0
        self.messages = []
        self.digests = None
        self.solution_err = None
        self.artifact_bytes = {}

    def iteration(self, k: int, store=None) -> float:
        from workloads import Outcome, sha256_tree
        gc.collect()
        outcomes, elapsed = {}, 0.0
        for op in self.wl.ops:
            out_dir = os.path.join(self.out_root, "iter%d" % k, op.name)
            os.makedirs(out_dir)
            if store is not None:
                store.current_iteration = k
                span = store.open("op." + op.name)
            t0 = time.perf_counter()
            try:
                outcome = op.run(self.paths, out_dir)
            except Exception as exc:  # counted as a failed operation
                outcome = Outcome(-1, {"error": repr(exc)})
            elapsed += time.perf_counter() - t0
            if store is not None:
                store.close(span)
            outcome.values["out_dir"] = out_dir
            outcomes[op.name] = outcome

        err, fails = self.wl.check(self.paths, outcomes, self.reference)
        digests = {}
        for op in self.wl.ops:
            out_dir = outcomes[op.name].values["out_dir"]
            digests[op.name] = {**sha256_tree(out_dir),
                                **outcomes[op.name].digest}
            if "error" in outcomes[op.name].values:
                fails[op.name].append(outcomes[op.name].values["error"])
        self.artifact_bytes[k] = sum(
            os.path.getsize(os.path.join(o.values["out_dir"], name))
            for o in outcomes.values()
            for name in os.listdir(o.values["out_dir"]))
        if self.digests is None:
            self.digests, self.solution_err = digests, err
        else:
            for op in self.wl.ops:
                if digests[op.name] != self.digests[op.name]:
                    fails[op.name].append("outputs differ from iteration 0")
            shutil.rmtree(os.path.join(self.out_root, "iter%d" % k))
        for op in self.wl.ops:
            self.attempted += 1
            if fails[op.name]:
                self.failed += 1
                self.messages.append("iteration %d, %s: %s" % (
                    k, op.name, "; ".join(fails[op.name])))
        return elapsed


def _repeat(runner, deadline, tracer=None):
    """Iterations until the next would end past the deadline (at least 1).

    With a tracer, iterations alternate untraced and traced, starting
    untraced, and at least one of each runs; returns (untraced, traced).
    """
    untraced, traced = [], []
    while True:
        k = len(untraced) + len(traced)
        if tracer is not None and k % 2:
            tracer.install()
            try:
                traced.append(runner.iteration(k, tracer.store))
            finally:
                tracer.uninstall()
        else:
            untraced.append(runner.iteration(k))
        done = tracer is None or traced
        if done and time.perf_counter() + max(untraced + traced) > deadline:
            return untraced, traced


def _layer_metrics(spans, tracer, untraced, traced, runner):
    """Per-iteration layer figures, each the median over traced iterations."""
    import numpy as np
    from tracing import self_times

    names = spans["names"][spans["name_id"]]
    self_t = self_times(spans)
    dur = spans["end"] - spans["start"]
    per_iter = []
    for k in np.unique(spans["iteration"]).tolist():
        sel = spans["iteration"] == k
        agg = {"calls": {}, "points": {}, "self_s": {}, "s": {}}
        for name in np.unique(names[sel]):
            m = sel & (names == name)
            agg["calls"][name] = int(np.count_nonzero(m))
            agg["points"][name] = int(np.sum(spans["points"][m]))
            agg["self_s"][name] = float(np.sum(self_t[m]))
            agg["s"][name] = float(np.sum(dur[m]))
        notes = tracer.notes[k]
        ops = sel & np.char.startswith(names, "op.")
        op_time = float(np.sum(dur[ops]))
        transports = agg["calls"].get("quasilinear.transport_step", 0)
        windows = notes["quasilinear.windows"]
        derived = {
            "quasilinear.sweeps_per_window":
                notes["quasilinear.sweeps"] / windows if windows else 0.0,
            "quasilinear.halvings": notes["quasilinear.halvings"],
            "quasilinear.accepted_step_ratio":
                notes["quasilinear.accepted_steps"] / transports
                if transports else 0.0,
            "semilinear.windows": notes["semilinear.windows"],
            "semilinear.picard_iters": notes["semilinear.picard_iters"],
            "semilinear.window_over_certified":
                notes["semilinear.window_over_certified"],
            "hunter_saxton.steps": notes["hunter_saxton.steps"],
            "cli.artifact_bytes": runner.artifact_bytes[k],
            "trace.span_coverage":
                1.0 - float(np.sum(self_t[ops])) / op_time,
            "trace.overhead_s":
                statistics.median(traced) - statistics.median(untraced),
        }
        per_iter.append((agg, derived))

    def value(metric):
        vals = []
        for agg, derived in per_iter:
            if metric in derived:
                vals.append(derived[metric])
            else:
                span, kind = metric.rsplit(".", 1)
                vals.append(agg[kind].get(span, 0))
        return statistics.median(vals)

    return value


def main(argv=None) -> int:
    args = _parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "varwave", "__init__.py")):
        print(f"no varwave sources under {SRC}", file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    sys.path[:0] = [SRC, HERE]
    import numpy as np
    import scipy
    import varwave
    import workloads
    if os.path.dirname(os.path.dirname(os.path.abspath(varwave.__file__))) \
            != SRC:
        print(f"varwave imported from {varwave.__file__}, not {SRC}",
              file=sys.stderr)
        return 2
    if args.workload not in workloads.WORKLOADS:
        print(f"unknown workload {args.workload!r}; choose from "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    wl = workloads.WORKLOADS[args.workload]
    reference = workloads.load_reference(args.reference or
                                         workloads.REFERENCE)
    reference = reference[wl.name][args.size]

    run_name = "%s-seed%d-trace%d-%s" % (wl.name, args.seed, args.trace,
                                          args.size)
    out_root = os.path.join(ROOT, ".perfbench_out", run_name)
    shutil.rmtree(out_root, ignore_errors=True)
    paths = workloads.generate(wl, args.seed, args.size,
                               os.path.join(out_root, "inputs"))
    setups = _setup_times(paths[wl.inputs[0]])

    runner = Runner(wl, paths, out_root, reference)
    deadline = time.perf_counter() + args.seconds
    tracer = None
    if args.trace:
        from tracing import SpanStore, Tracer
        tracer = Tracer(SpanStore())
    untraced, traced = _repeat(runner, deadline, tracer)
    times = traced if args.trace else untraced

    correct = runner.failed == 0
    if args.trace:
        spans = tracer.store.arrays()
        value = _layer_metrics(spans, tracer, untraced, traced, runner)
        measured = {m["name"]: value(m["name"]) for m in bench["per_layer"]}
        coverage = measured["trace.span_coverage"]
        if coverage < MIN_COVERAGE:
            correct = False
            runner.messages.append(
                f"named spans cover {coverage:.3f} of the traced wall time, "
                f"below {MIN_COVERAGE}")
        wanted = bench["per_layer"]
    else:
        measured = {
            "wall_s": statistics.median(times),
            "setup_s": statistics.median(setups),
            "peak_rss_mb":
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "solution_err": runner.solution_err,
        }
        wanted = bench["end_to_end"]
    # a failed check can leave a figure undefined: print null, not NaN
    metrics = {m["name"]: {"value": measured[m["name"]]
                           if math.isfinite(measured[m["name"]]) else None,
                           "unit": m["unit"]}
               for m in wanted}

    provenance = {
        "workload": wl.name, "seed": args.seed, "size": args.size,
        "trace": args.trace, "seconds": args.seconds,
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "platform": platform.platform(),
        "versions": {"python": platform.python_version(),
                     "numpy": np.__version__, "scipy": scipy.__version__,
                     "varwave": varwave.__version__},
        "inputs": {name: workloads.sha256_file(path)
                   for name, path in paths.items()},
        "artifacts": runner.digests,
        "iteration_s": times,
        "setup_samples_s": setups,
        "messages": runner.messages,
        "metrics": metrics,
    }
    if args.trace:
        provenance["untraced_iteration_s"] = untraced
        tracer.store.save(os.path.join(out_root, "spans.npz"))
    with open(os.path.join(out_root, "result.json"), "w") as fh:
        json.dump(provenance, fh, indent=2, sort_keys=True, default=float)

    for msg in runner.messages:
        print("FAIL " + msg)
    print(f"{wl.name} seed {args.seed} trace {args.trace}: "
          f"{len(times)} iterations, median {statistics.median(times):.3f} s "
          f"per iteration, {len(setups)} set-ups; details in "
          f"{os.path.relpath(out_root, ROOT)}/result.json")
    for name, m in metrics.items():
        print(f"  {name:45s} {m['value']} {m['unit']}")
    print(json.dumps({"correct": correct, "attempted": runner.attempted,
                      "failed": runner.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
