"""Command line front end: configured runs with on-disk artifacts.

Every subcommand reads one JSON config (strict keys, documented defaults),
writes its outputs under a chosen directory, and exits with a code that
names the failure class:

    0  success (for validate-potential: the potential passed)
    1  validate-potential: the potential was rejected
    2  configuration problem (bad file, bad key, inconsistent numbers)
    3  state degeneracy (order parameter hit 0 or 1)
    4  iteration failure (window would not contract, or a certified
       bound was violated mid-run)
    5  wave breaking (marker Jacobian collapsed)
    6  domain escape (characteristic or sample left the grid)

Artifacts never embed timestamps or machine identity beyond library
versions, so a rerun of the same config produces byte-identical files.
"""

from __future__ import annotations

import argparse
import itertools
import json
import math
import os
import sys
from typing import Dict, List, Optional

import numpy as np

from .config import (RunConfig, build_grid, build_potential, build_wave_speed,
                     load_config)
from .errors import (AprioriViolationError, ConfigError, DegeneracyError,
                     DomainError, NonContractionError, StateEscapeError,
                     VarwaveError, WavebreakingError)
from .diagnostics import energy_density_complex, fit_order, write_energy_csv
from .fields import (ComplexField, integrate, read_snapshot_csv,
                     write_csv_rows, write_snapshot_csv)
from .potentials import apriori_constants, ensure_valid, validate_potential
from .profiles import constant, make_profile, zero
from .semilinear import SemilinearConfig, contraction_window, picard_solve
from .quasilinear import (PolarState, QuasilinearConfig, advance,
                          read_polar_snapshot_csv, write_polar_snapshot_csv)
from .hunter_saxton import make_markers, evolve_markers
from .asymptotic import convergence_study

# Failure class -> process exit code.  Subclasses are matched first, so the
# order below is the resolution order, not just documentation.
_EXIT_BY_ERROR = (
    (AprioriViolationError, 4),
    (NonContractionError, 4),
    (StateEscapeError, 3),
    (DegeneracyError, 3),
    (WavebreakingError, 5),
    (DomainError, 6),
    (ConfigError, 2),
    (VarwaveError, 2),
)

HS_TRAJECTORY_HEADER = "t,xi,x,u,alpha,rho,J"


def _exit_code(exc: VarwaveError) -> int:
    for cls, code in _EXIT_BY_ERROR:
        if isinstance(exc, cls):
            return code
    return 2


def _canonical(obj) -> str:
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


def _write_text(out_dir: str, name: str, text: str):
    with open(os.path.join(out_dir, name), "w") as fh:
        fh.write(text)


def _versions() -> Dict[str, str]:
    import scipy
    from . import __version__
    return {
        "varwave": __version__,
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "python": "%d.%d.%d" % sys.version_info[:3],
    }


def _write_manifest(out_dir: str, cfg: RunConfig,
                    achieved_T: Optional[float], artifacts: List[str]):
    _write_text(out_dir, "manifest.json", _canonical({
        "config": cfg.to_dict(),
        "versions": _versions(),
        "achieved_T": achieved_T,
        "artifacts": sorted(artifacts),
    }))


def _resolve_out_dir(cfg: RunConfig, args) -> str:
    out = args.out if args.out is not None else cfg.outputs["out_dir"]
    os.makedirs(out, exist_ok=True)
    return out


def _profile_from(init: Dict, keys=("family", "amplitude", "center",
                                    "width", "k")):
    spec = {key: init[key] for key in keys if key in init}
    return make_profile(spec)


def _rho_profile_from(init: Dict):
    """Density profile for marker and slow-scale runs.

    A rho_* family mirrors the displacement keys; a bare rho_value means a
    constant; nothing at all means rho = 0.
    """
    fam = init.get("rho_family")
    if fam == "constant" or (fam is None and "rho_value" in init):
        return constant(init.get("rho_value", 0.0))
    if fam is None:
        return zero()
    return _profile_from({key[4:]: val for key, val in init.items()
                          if key.startswith("rho_")})


def _snapshot_keeper(cfg: RunConfig, dt: float, steps: int):
    """Check the snapshot times against a run of `steps` steps of size dt;
    return a solver observer keeping the states at those levels and the
    list they land in, in configured order, as the run goes."""
    times = cfg.outputs["snapshot_times"]
    levels = [int(round(t / dt)) for t in times]
    for t, lev in zip(times, levels):
        if abs(t - lev * dt) > 1e-9 * max(1.0, abs(t)) or not 0 <= lev <= steps:
            raise ConfigError(
                f"snapshot time {t} is not an integer number of steps "
                f"(dt = {dt}) inside the run")
    snapshots = [None] * len(levels)
    frames = itertools.count()

    def observer(st):
        lev = next(frames)
        for idx, wanted in enumerate(levels):
            if wanted == lev:
                snapshots[idx] = st

    return observer, snapshots


def _write_solver_run(cfg: RunConfig, args, result, snapshots,
                      write_snapshot, achieved_T: float):
    """energy.csv (every energy_every-th report and the last), the kept
    snapshots, and the manifest."""
    out = _resolve_out_dir(cfg, args)
    artifacts = ["energy.csv", "manifest.json"]
    reports = result.energy_reports
    kept = reports[::cfg.outputs["energy_every"]]
    if reports and reports[-1] is not kept[-1]:
        kept.append(reports[-1])
    write_energy_csv(os.path.join(out, "energy.csv"), kept)
    for idx, st in enumerate(snapshots):
        name = "snapshot_%04d.csv" % idx
        write_snapshot(os.path.join(out, name), st)
        artifacts.append(name)
    _write_manifest(out, cfg, achieved_T, artifacts)


# ---------------------------------------------------------------------------
# subcommands


def _cmd_validate_potential(cfg: RunConfig, args) -> int:
    p = build_potential(cfg)
    report = validate_potential(p)
    doc = {
        "name": report.name,
        "valid": report.valid,
        "clauses": {key: {"passed": cl.passed, "detail": cl.detail}
                    for key, cl in report.clauses.items()},
    }
    if not args.quiet:
        sys.stdout.write(_canonical(doc))
    if args.out is not None:
        out = _resolve_out_dir(cfg, args)
        _write_text(out, "validation.json", _canonical(doc))
        _write_manifest(out, cfg, None, ["validation.json"])
    return 0 if report.valid else 1


def _cmd_run_semilinear(cfg: RunConfig, args) -> int:
    p = ensure_valid(build_potential(cfg))
    K1, K3 = cfg.wave_speed["K1"], cfg.wave_speed["K3"]
    if abs(K1 - K3) > 1e-14:
        raise ConfigError("the complex-field solver needs a constant speed: "
                          f"wave_speed.K1 = {K1} must equal wave_speed.K3 = {K3}")
    c = math.sqrt(K1)
    grid = build_grid(cfg)

    init = cfg.initial_data
    base = complex(init.get("base", 0.0))
    if init.get("family") == "file":
        f0 = read_snapshot_csv(init["path"], far_field=base)
        grid = f0.grid
    else:
        prof = _profile_from(init)
        zeta = base + prof(grid.nodes).astype(complex)
        f0 = ComplexField(grid, zeta, np.zeros(grid.n, dtype=complex),
                          far_field=base)

    dt = grid.dx / c
    if "dt" in cfg.time and abs(cfg.time["dt"] - dt) > 1e-12 * dt:
        raise ConfigError(f"time.dt = {cfg.time['dt']} breaks the alignment "
                          f"dt = dx/c = {dt!r} this solver is exact on")
    t_final = cfg.time["t_final"]

    zx = np.gradient(f0.zeta, grid.dx, edge_order=2)
    E0 = float(integrate(grid, energy_density_complex(
        f0.zeta, f0.zeta_t, zx, p, c)[0]))
    try:
        T_window = min(contraction_window(p, E0, c=c), t_final)
    except ConfigError:
        T_window = t_final
    if not math.isfinite(T_window):
        T_window = t_final
    try:
        apriori = apriori_constants(p, E0, c=c)
    except ConfigError:
        apriori = None

    scfg = SemilinearConfig(c=c, dt=dt, T_window=T_window)
    observer, snapshots = _snapshot_keeper(cfg, dt, int(round(t_final / dt)))
    result = picard_solve(f0, p, scfg, t_final, apriori=apriori,
                          observer=observer)
    _write_solver_run(cfg, args, result, snapshots, write_snapshot_csv,
                      t_final)
    if not args.quiet:
        print(f"semilinear run reached t = {t_final:g} "
              f"({result.trace.iterate_count} contraction iterations)")
    return 0


def _cmd_run_quasilinear(cfg: RunConfig, args) -> int:
    p = ensure_valid(build_potential(cfg))
    ws = build_wave_speed(cfg)
    grid = build_grid(cfg)
    t_final = cfg.time["t_final"]

    init = cfg.initial_data
    if init.get("family") == "file":
        state = read_polar_snapshot_csv(init["path"])
        grid = state.grid
    else:
        psi_base = init.get("psi_base", math.pi / 4)
        s_base = init.get("s_base", 0.5)
        psi = np.full(grid.n, psi_base)
        s = np.full(grid.n, s_base)
        # family, center and width always hold a value (given or default)
        if init.get("psi_amplitude"):
            psi = psi + _profile_from(
                {**init, "amplitude": init["psi_amplitude"]})(grid.nodes)
        if init.get("s_amplitude"):
            s = s + _profile_from(
                {**init, "amplitude": init["s_amplitude"],
                 "center": init.get("s_center", init["center"]),
                 "width": init.get("s_width", init["width"])},
                keys=("family", "amplitude", "center", "width"))(grid.nodes)
        state = PolarState.from_primitives(grid, psi, s, np.zeros(grid.n),
                                           np.zeros(grid.n), ws,
                                           far_field=(psi_base, s_base))

    c_max = float(np.max(ws.c(state.psi)))
    dt = cfg.time.get("dt", cfg.time.get("cfl", 0.8) * grid.dx / c_max)
    steps = max(1, int(round(t_final / dt)))
    dt = t_final / steps

    qcfg = QuasilinearConfig(dt=dt, T_local=min(t_final, max(dt, 0.25)))
    observer, snapshots = _snapshot_keeper(cfg, dt, steps)
    result = advance(state, p, ws, qcfg, t_final, observer=observer)
    _write_solver_run(cfg, args, result, snapshots, write_polar_snapshot_csv,
                      result.achieved_T)
    if not args.quiet:
        print(f"quasilinear run reached t = {result.achieved_T:g} "
              f"of {t_final:g}")
    return 0


def _cmd_run_hs2(cfg: RunConfig, args) -> int:
    init = cfg.initial_data
    u0 = _profile_from(init)
    rho0 = _rho_profile_from(init)
    grid_cfg = cfg.grid
    markers = make_markers((grid_cfg["x_min"], grid_cfg["x_max"]),
                           grid_cfg["n"], u0, rho0, du0=u0.derivative)
    t_final = cfg.time["t_final"]
    dt = cfg.time.get("dt", 1e-3)
    steps = max(1, int(round(t_final / dt)))
    dt = t_final / steps

    out = _resolve_out_dir(cfg, args)
    every = cfg.outputs["energy_every"]
    frames = itertools.count()

    with open(os.path.join(out, "trajectory.csv"), "w") as fh:
        fh.write(HS_TRAJECTORY_HEADER + "\n")

        def observer(st):
            if next(frames) % every and abs(st.time - t_final) > 1e-12:
                return
            write_csv_rows(fh, (st.time, st.xi, st.x, st.u, st.alpha,
                                st.rho, st.J))

        result = evolve_markers(markers, t_final, dt, observer=observer)

    blow = {
        "broke": result.broke,
        "t_star": result.t_star,
        "marker_index": result.marker_index,
    }
    artifacts = ["trajectory.csv", "blowup.json", "manifest.json"]
    _write_text(out, "blowup.json", _canonical(blow))
    _write_manifest(out, cfg, result.state.time, artifacts)
    if result.broke:
        if not args.quiet:
            print("wave breaking at t = %.6g (marker %d)"
                  % (result.t_star, result.marker_index), file=sys.stderr)
        return 5
    if not args.quiet:
        print(f"marker run reached t = {result.state.time:g}, "
              f"sup|alpha| = {result.sup_alpha:.6g}")
    return 0


def _cmd_run_asymptotic(cfg: RunConfig, args) -> int:
    if cfg.potential["name"] != "flat4":
        raise ConfigError("slow-scale runs need the flat4 potential "
                          f"(got potential.name = {cfg.potential['name']!r}); "
                          "its well must be flat to third order at the "
                          "background order parameter")
    ws = build_wave_speed(cfg)
    init = cfg.initial_data
    psi0 = init.get("psi_base", math.pi / 4)
    s0 = float(cfg.potential.get("params", {}).get("s0", 0.5))
    p = ensure_valid(build_potential(cfg))

    u0 = _profile_from(init)
    rho0 = _rho_profile_from(init)

    if args.epsilon_sweep is not None:
        try:
            epsilons = [float(tok) for tok in args.epsilon_sweep.split(",")]
        except ValueError:
            raise ConfigError(
                f"--epsilon-sweep must be comma-separated floats, "
                f"got {args.epsilon_sweep!r}")
        if len(epsilons) < 2:
            raise ConfigError("--epsilon-sweep needs at least two values")
        for eps in epsilons:
            if not 0.0 < eps < 1.0:
                raise ConfigError(f"epsilon {eps} outside (0, 1)")
    else:
        epsilons = [0.2, 0.1, 0.05]

    grid_cfg = cfg.grid
    dx = (grid_cfg["x_max"] - grid_cfg["x_min"]) / (grid_cfg["n"] - 1)
    study = convergence_study(
        p, ws, psi0, s0, u0, rho0, epsilons, cfg.time["t_final"],
        du0=u0.derivative,
        y_span=(grid_cfg["x_min"], grid_cfg["x_max"]),
        y_eval=(grid_cfg["x_min"] + 1.0, grid_cfg["x_max"] - 1.0),
        dx=dx,
        marker_dt=cfg.time.get("dt", 1e-3))

    out = _resolve_out_dir(cfg, args)
    artifacts = ["study.json", "manifest.json"]
    _write_text(out, "study.json", _canonical(study))
    _write_manifest(out, cfg, cfg.time["t_final"], artifacts)
    if not args.quiet:
        order = study["fitted_order"]
        shown = "none" if order is None else "%.3f" % order
        print(f"slow-scale sweep over epsilons {study['epsilons']} "
              f"fitted order {shown}")
    return 0


def _cmd_fit_order(args) -> int:
    if args.config is None:
        raise ConfigError("fit-order needs --config pointing at a JSON file "
                          'of the form {"pairs": [[h, err], ...]}')
    try:
        with open(args.config) as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config: {exc}")
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config parse error at line {exc.lineno}, "
                          f"column {exc.colno}: {exc.msg}")
    if not isinstance(doc, dict):
        raise ConfigError("fit-order config must be a JSON object")
    for key in doc:
        if key != "pairs":
            raise ConfigError(f"unknown key {key}")
    pairs = doc.get("pairs")
    if not isinstance(pairs, list):
        raise ConfigError("pairs must be a list of [h, err] pairs")
    order = fit_order(pairs)
    result = {"fitted_order": order, "pairs": pairs}
    if not args.quiet:
        sys.stdout.write(_canonical(result))
    if args.out is not None:
        os.makedirs(args.out, exist_ok=True)
        _write_text(args.out, "fit.json", _canonical(result))
    return 0


# ---------------------------------------------------------------------------
# argument plumbing

_RUNNERS = {
    "validate-potential": _cmd_validate_potential,
    "run-semilinear": _cmd_run_semilinear,
    "run-quasilinear": _cmd_run_quasilinear,
    "run-hs2": _cmd_run_hs2,
    "run-asymptotic": _cmd_run_asymptotic,
}

_SOLVER_FOR = {
    "validate-potential": "validate-potential",
    "run-semilinear": "semilinear",
    "run-quasilinear": "quasilinear",
    "run-hs2": "hs2",
    "run-asymptotic": "asymptotic",
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="varwave",
        description="configured solver runs for the variational wave suite")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in list(_RUNNERS) + ["fit-order"]:
        cmd = sub.add_parser(name)
        cmd.add_argument("--config", metavar="PATH",
                         help="JSON run configuration")
        cmd.add_argument("--out", metavar="DIR",
                         help="output directory (overrides outputs.out_dir)")
        cmd.add_argument("--quiet", action="store_true",
                         help="suppress progress lines")
        if name == "run-asymptotic":
            cmd.add_argument("--epsilon-sweep", metavar="A,B,C",
                             help="comma-separated epsilon values")
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    if not hasattr(args, "epsilon_sweep"):
        args.epsilon_sweep = None
    try:
        if args.command == "fit-order":
            return _cmd_fit_order(args)
        if args.config is None:
            raise ConfigError(f"{args.command} needs --config PATH")
        cfg = load_config(args.config)
        expected = _SOLVER_FOR[args.command]
        if cfg.solver != expected:
            raise ConfigError(f"config names solver {cfg.solver!r} but the "
                              f"subcommand expects {expected!r}")
        return _RUNNERS[args.command](cfg, args)
    except VarwaveError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return _exit_code(exc)


if __name__ == "__main__":
    raise SystemExit(main())
