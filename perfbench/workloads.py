"""Workload inputs, operations and output checks of the varwave benchmark.

A workload is a list of operations; one iteration runs each of them once,
in order.  Inputs are the committed files under `inputs/<size>/`: seed 0
uses them unchanged (the generated file is byte-identical to the committed
one), any other seed shifts every profile centre by up to JITTER of its
width and scales every width by a factor within 1 +- JITTER.  The program
sees only the generated files.

An operation returns its exit code and the values its checks need; the
checks compare them with `reference.json` (seed-0 values and tolerances).
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import os
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Tuple

import numpy as np

from varwave import cli, diagnostics, fields, potentials, profiles, semilinear

HERE = os.path.dirname(os.path.abspath(__file__))
INPUTS = os.path.join(HERE, "inputs")
REFERENCE = os.path.join(HERE, "reference.json")
JITTER = 0.02
EPSILONS = "0.2,0.1,0.05"

# profile (centre, width) keys the seed jitters
_PROFILE_KEYS = (("center", "width"), ("rho_center", "rho_width"))


@dataclass
class Outcome:
    exit_code: int
    values: Dict = field(default_factory=dict)
    digest: Dict[str, str] = field(default_factory=dict)


@dataclass
class Op:
    name: str
    run: Callable[[Dict[str, str], str], Outcome]
    expected_exit: int = 0


@dataclass
class Workload:
    name: str
    inputs: Tuple[str, ...]
    ops: Tuple[Op, ...]
    # (inputs, outcomes by op, reference) -> (solution_err, failures by op)
    check: Callable[[Dict[str, str], Dict[str, Outcome], Dict],
                    Tuple[float, Dict[str, List[str]]]]


def canonical(doc) -> str:
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def generate(workload: "Workload", seed: int, size: str,
             dest: str) -> Dict[str, str]:
    """Write the workload's inputs for `seed` under dest; return the paths."""
    rng = np.random.default_rng(seed)
    shift = rng.uniform(-JITTER, JITTER)
    scale = 1.0 + rng.uniform(-JITTER, JITTER)
    os.makedirs(dest, exist_ok=True)
    paths = {}
    for name in workload.inputs:
        with open(os.path.join(INPUTS, size, name + ".json")) as fh:
            doc = json.load(fh)
        if seed != 0:
            init = doc.get("initial_data", doc)
            for c_key, w_key in _PROFILE_KEYS:
                if w_key in init:
                    init[c_key] += shift * init[w_key]
                    init[w_key] *= scale
        paths[name] = os.path.join(dest, name + ".json")
        with open(paths[name], "w") as fh:
            fh.write(canonical(doc))
    return paths


def sha256_file(path: str) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def sha256_tree(out_dir: str) -> Dict[str, str]:
    return {name: sha256_file(os.path.join(out_dir, name))
            for name in sorted(os.listdir(out_dir))}


def _cli(subcommand: str, config: str, out_dir: str, *extra: str) -> Outcome:
    code = cli.main([subcommand, "--config", config, "--out", out_dir,
                     "--quiet", *extra])
    return Outcome(code)


def _within(value: float, ref: Dict) -> bool:
    return abs(value - ref["value"]) <= ref["rel_tol"] * abs(ref["value"])


def _ref_message(label: str, value: float, ref: Dict) -> str:
    return (f"{label} {value:.6g} is not within {ref['rel_tol']:g} "
            f"(relative) of the seed-0 reference {ref['value']:.6g}")


def _exit_failures(ops, outcomes) -> Dict[str, List[str]]:
    return {op.name: ([] if outcomes[op.name].exit_code == op.expected_exit
                      else [f"exit code {outcomes[op.name].exit_code}, "
                            f"expected {op.expected_exit}"])
            for op in ops}


def _energy_drift(totals: np.ndarray) -> float:
    return float(np.max(np.abs(totals - totals[0])) / totals[0])


# ---------------------------------------------------------------------------
# slow_sweep: run-asymptotic on the criterion-10 inputs


def _sweep(paths, out_dir):
    return _cli("run-asymptotic", paths["slow_sweep"], out_dir,
                "--epsilon-sweep", EPSILONS)


def _check_sweep(paths, outcomes, ref):
    fails = _exit_failures(SLOW_SWEEP.ops, outcomes)
    if fails["sweep"]:
        return math.nan, fails
    with open(os.path.join(outcomes["sweep"].values["out_dir"],
                           "study.json")) as fh:
        study = json.load(fh)
    errors, order = study["errors"], study["fitted_order"]
    if any(e is None for e in errors):
        fails["sweep"].append(f"a sub-run failed: errors {errors}")
        return math.nan, fails
    if not all(a > b for a, b in zip(errors, errors[1:])):
        fails["sweep"].append(f"errors do not decrease: {errors}")
    if order is None or order < ref["min_fitted_order"]:
        fails["sweep"].append(f"fitted order {order} below "
                              f"{ref['min_fitted_order']}")
    err = errors[-1]
    if not _within(err, ref["solution_err"]):
        fails["sweep"].append(_ref_message("error at the smallest epsilon",
                                           err, ref["solution_err"]))
    return err, fails


SLOW_SWEEP = Workload("slow_sweep", ("slow_sweep",),
                      (Op("sweep", _sweep),), _check_sweep)


# ---------------------------------------------------------------------------
# semilinear_certified: run-semilinear with the certified window


def _semilinear(paths, out_dir):
    return _cli("run-semilinear", paths["semilinear_certified"], out_dir)


def _check_semilinear(paths, outcomes, ref):
    fails = _exit_failures(SEMILINEAR_CERTIFIED.ops, outcomes)
    if fails["run"]:
        return math.nan, fails
    out_dir = outcomes["run"].values["out_dir"]
    with open(os.path.join(out_dir, "energy.csv")) as fh:
        totals = np.array([float(row["total_E"])
                           for row in csv.DictReader(fh)])
    snaps = [n for n in os.listdir(out_dir) if n.startswith("snapshot_")]
    with open(paths["semilinear_certified"]) as fh:
        wanted = len(json.load(fh)["outputs"]["snapshot_times"])
    if len(snaps) != wanted:
        fails["run"].append(f"{len(snaps)} snapshots written, "
                            f"expected {wanted}")
    drift = _energy_drift(totals)
    if not _within(drift, ref["solution_err"]):
        fails["run"].append(_ref_message("energy drift", drift,
                                         ref["solution_err"]))
    return drift, fails


SEMILINEAR_CERTIFIED = Workload(
    "semilinear_certified", ("semilinear_certified",),
    (Op("run", _semilinear),), _check_semilinear)


# ---------------------------------------------------------------------------
# picard_long: picard_solve called directly with a user-set window


def _picard(paths, out_dir):
    with open(paths["picard_long"]) as fh:
        a = json.load(fh)
    p = potentials.reference_potential()
    g = fields.Grid1D(a["x_min"], a["x_max"], a["n"])
    zeta = profiles.gaussian(a["amplitude"], a["center"],
                             a["width"])(g.nodes).astype(complex)
    f0 = fields.ComplexField(g, zeta, np.zeros(g.n, dtype=complex))
    c = a["c"]
    zx = np.gradient(zeta, g.dx, edge_order=2)
    E0 = float(fields.integrate(g, diagnostics.energy_density_complex(
        zeta, f0.zeta_t, zx, p, c)[0]))
    # the certificate a user would compare the chosen window against
    semilinear.contraction_window(p, E0, c=c)
    cfg = semilinear.SemilinearConfig(c=c, dt=g.dx / c,
                                      T_window=a["T_window"])
    res = semilinear.picard_solve(f0, p, cfg, a["t_final"])
    end = res.field
    digest = hashlib.sha256(end.zeta.tobytes() + end.zeta_t.tobytes())
    return Outcome(0, {"result": res}, {"final_state": digest.hexdigest()})


def _check_picard(paths, outcomes, ref):
    fails = _exit_failures(PICARD_LONG.ops, outcomes)
    if fails["solve"]:
        return math.nan, fails
    res = outcomes["solve"].values["result"]
    with open(paths["picard_long"]) as fh:
        a = json.load(fh)
    windows = math.ceil(a["t_final"] / a["T_window"] - 1e-9)
    if not res.trace.converged or len(res.trace.diff_norms) != windows:
        fails["solve"].append(f"{len(res.trace.diff_norms)} windows, "
                              f"expected {windows} converged ones")
    drift = _energy_drift(np.array([r.total_E for r in res.energy_reports]))
    if not _within(drift, ref["solution_err"]):
        fails["solve"].append(_ref_message("energy drift", drift,
                                           ref["solution_err"]))
    return drift, fails


PICARD_LONG = Workload("picard_long", ("picard_long",),
                       (Op("solve", _picard),), _check_picard)


# ---------------------------------------------------------------------------
# markers: run-hs2 with a density floor (survives) and without (breaks)


def _floor(paths, out_dir):
    return _cli("run-hs2", paths["markers_floor"], out_dir)


def _break(paths, out_dir):
    return _cli("run-hs2", paths["markers_break"], out_dir)


def _breaking_time(init: Dict) -> float:
    """Exact breaking time 2 / max(-u0') of the rho = 0 Gaussian."""
    steepest = math.sqrt(2.0) * math.exp(-0.5) * init["amplitude"]
    return 2.0 * init["width"] / steepest


def _check_markers(paths, outcomes, ref):
    fails = _exit_failures(MARKERS.ops, outcomes)
    if not fails["break"]:
        with open(os.path.join(outcomes["break"].values["out_dir"],
                               "blowup.json")) as fh:
            t_star = json.load(fh)["t_star"]
        with open(paths["markers_break"]) as fh:
            t_exact = _breaking_time(json.load(fh)["initial_data"])
        if abs(t_star - t_exact) > ref["t_star_rel_tol"] * t_exact:
            fails["break"].append(
                f"t_star {t_star:.6g} is not within "
                f"{ref['t_star_rel_tol']:g} of {t_exact:.6g}")
    if fails["floor"]:
        return math.nan, fails
    traj = np.loadtxt(os.path.join(outcomes["floor"].values["out_dir"],
                                   "trajectory.csv"),
                      delimiter=",", skiprows=1)
    times = traj[:, 0]
    first, last = traj[times == times[0]], traj[times == times[-1]]
    inv0 = (first[:, 4] ** 2 + first[:, 5] ** 2) * first[:, 6]
    inv1 = (last[:, 4] ** 2 + last[:, 5] ** 2) * last[:, 6]
    # the mean over markers: the largest single drift is one roundoff
    # event and swings by 2.5x between neighbouring inputs
    drift = float(np.mean(np.abs(inv1 - inv0) / np.abs(inv0)))
    if not _within(drift, ref["solution_err"]):
        fails["floor"].append(_ref_message("invariant drift", drift,
                                           ref["solution_err"]))
    return drift, fails


MARKERS = Workload("markers", ("markers_floor", "markers_break"),
                   (Op("floor", _floor), Op("break", _break, 5)),
                   _check_markers)


WORKLOADS = {w.name: w for w in (SLOW_SWEEP, SEMILINEAR_CERTIFIED,
                                 PICARD_LONG, MARKERS)}


def load_reference(path: str) -> Dict:
    with open(path) as fh:
        return json.load(fh)
