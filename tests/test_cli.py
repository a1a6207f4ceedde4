"""End-to-end command line runs: exit codes, artifacts, determinism."""

import io
import json
import math

import numpy as np
import pytest

from varwave import constant, evolve_markers, gaussian, make_markers
from varwave.cli import main


def _write_config(tmp_path, doc, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc, indent=2) + "\n")
    return str(path)


def _read_json(path):
    with open(path) as fh:
        return json.load(fh)


# --- validate-potential ------------------------------------------------------


def test_validate_reference_passes(tmp_path, capsys):
    cfg = _write_config(tmp_path, {"solver": "validate-potential"})
    rc = main(["validate-potential", "--config", cfg])
    assert rc == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["name"] == "reference"
    assert doc["valid"] is True
    assert doc["clauses"] and all(cl["passed"] for cl in doc["clauses"].values())


def test_validate_quadratic_rejected_naming_divergence(tmp_path, capsys):
    cfg = _write_config(tmp_path, {"solver": "validate-potential",
                                   "potential": {"name": "quadratic"}})
    out = tmp_path / "report"
    rc = main(["validate-potential", "--config", cfg, "--out", str(out)])
    assert rc == 1
    doc = json.loads(capsys.readouterr().out)
    assert doc["valid"] is False
    failed = [k for k, cl in doc["clauses"].items() if not cl["passed"]]
    assert any("diverg" in k for k in failed)
    on_disk = _read_json(out / "validation.json")
    assert on_disk == doc
    manifest = _read_json(out / "manifest.json")
    assert manifest["artifacts"] == ["validation.json"]
    assert manifest["config"]["solver"] == "validate-potential"


# --- error paths -------------------------------------------------------------


def test_bad_config_value_exits_2_with_error_line(tmp_path, capsys):
    cfg = _write_config(tmp_path, {"solver": "semilinear",
                                   "wave_speed": {"K1": -1.0, "K3": 1.0}})
    rc = main(["run-semilinear", "--config", cfg])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("error:")
    assert "wave_speed.K1" in err


@pytest.mark.parametrize("n", [1e30, 2**20 + 2], ids=["1e30", "2^20+2"])
def test_oversized_grid_exits_2_before_writing(tmp_path, capsys, n):
    out = tmp_path / "o"
    cfg = _write_config(tmp_path, {"solver": "hs2", "grid": {"n": n},
                                   "outputs": {"out_dir": str(out)}})
    assert main(["run-hs2", "--config", cfg, "--quiet"]) == 2
    assert "grid.n must lie in" in capsys.readouterr().err
    assert not out.exists()


def test_unknown_config_key_exits_2(tmp_path, capsys):
    cfg = _write_config(tmp_path, {"solver": "semilinear",
                                   "grid": {"dx": 0.1}})
    assert main(["run-semilinear", "--config", cfg]) == 2
    assert "grid.dx" in capsys.readouterr().err


@pytest.mark.parametrize("command, expected", [
    ("validate-potential", "validate-potential"),
    ("run-semilinear", "semilinear"), ("run-quasilinear", "quasilinear"),
    ("run-hs2", "hs2"), ("run-asymptotic", "asymptotic")])
def test_solver_subcommand_mismatch_exits_2(tmp_path, capsys, command,
                                            expected):
    other = "semilinear" if expected == "hs2" else "hs2"
    cfg = _write_config(tmp_path, {"solver": other})
    assert main([command, "--config", cfg]) == 2
    assert f"subcommand expects {expected!r}" in capsys.readouterr().err


@pytest.mark.parametrize("command, solver", [
    ("run-semilinear", "semilinear"), ("run-hs2", "hs2")])
def test_cfl_outside_quasilinear_exits_2_before_writing(tmp_path, capsys,
                                                        command, solver):
    out = tmp_path / "o"
    cfg = _write_config(tmp_path, {"solver": solver,
                                   "time": {"t_final": 0.1, "cfl": 0.3},
                                   "outputs": {"out_dir": str(out)}})
    assert main([command, "--config", cfg, "--quiet"]) == 2
    assert "time.cfl" in capsys.readouterr().err
    assert not out.exists()


def test_missing_config_argument_exits_2(capsys):
    assert main(["run-hs2"]) == 2
    assert "--config" in capsys.readouterr().err


def test_anisotropic_speed_rejected_for_semilinear(tmp_path, capsys):
    cfg = _write_config(tmp_path, {"solver": "semilinear",
                                   "wave_speed": {"K1": 2.0, "K3": 1.0}})
    assert main(["run-semilinear", "--config", cfg]) == 2
    assert "constant speed" in capsys.readouterr().err


def test_misaligned_snapshot_time_exits_2(tmp_path, capsys):
    cfg = _write_config(tmp_path, {
        "solver": "semilinear",
        "grid": {"x_min": -8.0, "x_max": 8.0, "n": 65},
        "time": {"t_final": 0.5},
        "initial_data": {"family": "gaussian", "amplitude": 0.01},
        "outputs": {"snapshot_times": [0.3], "out_dir": str(tmp_path / "o")},
    })
    assert main(["run-semilinear", "--config", cfg, "--quiet"]) == 2
    assert "snapshot time" in capsys.readouterr().err
    # refused before the solver starts: no energy.csv without a manifest
    assert not (tmp_path / "o" / "energy.csv").exists()


def _small_run_doc(solver, out_dir, **outputs):
    """A 65-node run of two steps (semilinear) or one step (quasilinear)."""
    doc = {
        "solver": solver,
        "grid": {"x_min": -8.0, "x_max": 8.0, "n": 65},
        "time": {"t_final": 0.5 if solver == "semilinear" else 0.1},
        "initial_data": {"family": "gaussian"},
        "outputs": {"out_dir": out_dir, **outputs},
    }
    if solver == "quasilinear":
        doc["potential"] = {"name": "flat4", "params": {"s0": 0.5}}
        doc["initial_data"]["psi_amplitude"] = 0.05
    return doc


@pytest.mark.parametrize("solver, snapshot", [
    ("semilinear", 0.75), ("quasilinear", 0.05), ("quasilinear", 0.2),
], ids=["semilinear-past_end", "quasilinear-misaligned",
        "quasilinear-past_end"])
def test_bad_snapshot_time_exits_2_before_writing(tmp_path, capsys, solver,
                                                  snapshot):
    out = tmp_path / "o"
    cfg = _write_config(tmp_path, _small_run_doc(
        solver, str(out), snapshot_times=[0.0, snapshot]))
    assert main(["run-" + solver, "--config", cfg, "--quiet"]) == 2
    assert "snapshot time" in capsys.readouterr().err
    assert not (out / "energy.csv").exists()


@pytest.mark.parametrize("solver", ["semilinear", "quasilinear"])
def test_snapshot_time_beyond_a_float_step_count_exits_2(tmp_path, capsys,
                                                        solver):
    # 1e308 / dt overflows: counted by step_count, not rounded on its own
    out = tmp_path / "o"
    cfg = _write_config(tmp_path, _small_run_doc(
        solver, str(out), snapshot_times=[0.0, 1e308]))
    assert main(["run-" + solver, "--config", cfg, "--quiet"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and len(err.splitlines()) == 1
    assert "snapshot time" in err and "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("bad_cell", [None, "abc", "nan"],
                         ids=["missing", "non_numeric", "non_finite"])
@pytest.mark.parametrize("solver", ["semilinear", "quasilinear"])
def test_unreadable_initial_file_exits_2(tmp_path, capsys, solver, bad_cell):
    # a valid 65-node snapshot of the solver's format, one cell made bad
    path = tmp_path / "init.csv"
    if bad_cell is not None:
        cells = (["0.0"] * 4 if solver == "semilinear"
                 else ["0.785", "0.5", "0.0", "0.0", "0.0", "0.0"])
        rows = [[repr(float(x))] + cells for x in np.linspace(-8.0, 8.0, 65)]
        rows[32][2] = bad_cell
        path.write_text("header\n" + "".join(",".join(r) + "\n"
                                             for r in rows))
    doc = _small_run_doc(solver, str(tmp_path / "o"))
    doc["initial_data"] = {"family": "file", "path": str(path)}
    cfg = _write_config(tmp_path, doc)
    assert main(["run-" + solver, "--config", cfg, "--quiet"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: cannot read")
    assert str(path) in err


@pytest.mark.parametrize("solver, key, value", [
    ("hs2", "amplitude", "abc"),
    ("hs2", "rho_value", [1.0]),
    ("quasilinear", "psi_base", "x"),
    ("semilinear", "amplitude", "1.5"),
    ("semilinear", "family", 3),
], ids=["hs2-text_amplitude", "hs2-list_rho_value", "quasilinear-text_psi_base",
        "semilinear-numeric_text", "semilinear-numeric_family"])
def test_bad_initial_data_value_exits_2(tmp_path, capsys, solver, key, value):
    out = tmp_path / "o"
    doc = {"solver": solver, "initial_data": {key: value},
           "outputs": {"out_dir": str(out)}}
    if solver == "quasilinear":
        doc["potential"] = {"name": "flat4"}
    cfg = _write_config(tmp_path, doc)
    assert main(["run-" + solver, "--config", cfg, "--quiet"]) == 2
    assert f"initial_data.{key} must be" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("token", ["NaN", "Infinity"])
@pytest.mark.parametrize("solver", ["hs2", "quasilinear"])
def test_non_finite_config_number_exits_2(tmp_path, capsys, solver, token):
    path = tmp_path / "cfg.json"
    out = tmp_path / "o"
    path.write_text('{"solver": "%s", "time": {"t_final": %s}, '
                    '"outputs": {"out_dir": %s}}\n'
                    % (solver, token, json.dumps(str(out))))
    assert main(["run-" + solver, "--config", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:")
    assert "time.t_final must be a finite number" in err
    assert not out.exists()


@pytest.mark.parametrize("solver", ["hs2", "quasilinear", "asymptotic"])
def test_step_count_beyond_a_float_exits_2(tmp_path, capsys, solver):
    # both numbers are finite, but t_final / dt overflows to inf: the step
    # count is refused as configuration before any run starts
    out = tmp_path / "o"
    doc = _asymptotic_doc() if solver == "asymptotic" else {"solver": solver}
    if solver == "quasilinear":
        doc["potential"] = {"name": "flat4"}
    doc["time"] = {"t_final": 1e300, "dt": 1e-10}
    doc["outputs"] = {"out_dir": str(out)}
    cfg = _write_config(tmp_path, doc)
    assert main(["run-" + solver, "--config", cfg, "--quiet"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and len(err.splitlines()) == 1
    assert "must be finite" in err and "Traceback" not in err
    assert not (out / "trajectory.csv").exists()


@pytest.mark.parametrize("token", ["NaN", "Infinity"])
def test_non_finite_snapshot_time_exits_2(tmp_path, capsys, token):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({
        "solver": "quasilinear",
        "potential": {"name": "flat4", "params": {"s0": 0.5}},
        "grid": {"x_min": -8.0, "x_max": 8.0, "n": 65},
        "time": {"t_final": 0.1, "cfl": 0.8},
        "outputs": {"snapshot_times": [0.0, "SNAP"],
                    "out_dir": str(tmp_path / "o")},
    }).replace('"SNAP"', token))
    assert main(["run-quasilinear", "--config", str(path), "--quiet"]) == 2
    assert "outputs.snapshot_times" in capsys.readouterr().err


# --- semilinear and quasilinear runs ----------------------------------------


def test_semilinear_run_writes_artifacts(tmp_path):
    out = tmp_path / "run"
    cfg = _write_config(tmp_path, {
        "solver": "semilinear",
        "grid": {"x_min": -8.0, "x_max": 8.0, "n": 65},
        "time": {"t_final": 0.5},
        "initial_data": {"family": "gaussian", "amplitude": 0.02,
                         "width": 1.0},
        "outputs": {"snapshot_times": [0.25, 0.5], "energy_every": 1},
    })
    rc = main(["run-semilinear", "--config", cfg, "--out", str(out),
               "--quiet"])
    assert rc == 0
    energy = (out / "energy.csv").read_text().splitlines()
    assert energy[0] == ("t,total_E,total_F,residual_E,residual_F,"
                         "sup_state,apriori_violated")
    assert len(energy) >= 3
    assert (out / "snapshot_0000.csv").exists()
    assert (out / "snapshot_0001.csv").exists()
    manifest = _read_json(out / "manifest.json")
    assert manifest["achieved_T"] == 0.5
    assert "energy.csv" in manifest["artifacts"]
    assert set(manifest["versions"]) == {"varwave", "numpy", "scipy",
                                         "python"}


def _semilinear_run(tmp_path, amplitude, *flags, t_final=0.5):
    """run-semilinear to t_final on 65 nodes (dt = 0.25); returns (exit
    code, out dir)."""
    out = tmp_path / ("run" + "".join(flags))
    cfg = _write_config(tmp_path, {
        "solver": "semilinear",
        "grid": {"x_min": -8.0, "x_max": 8.0, "n": 65},
        "time": {"t_final": t_final},
        "initial_data": {"family": "gaussian", "amplitude": amplitude,
                         "width": 0.6},
    })
    return main(["run-semilinear", "--config", cfg, "--out", str(out),
                 *flags]), out


def _warnings(capsys):
    return [ln for ln in capsys.readouterr().err.splitlines()
            if ln.startswith("warning:")]


def test_semilinear_run_reports_a_missing_contraction_certificate(
        tmp_path, capsys):
    # zero data have zero energy, so no enlarged budget and no certificate
    rc, _ = _semilinear_run(tmp_path, 0.0)
    assert rc == 0
    lines = _warnings(capsys)
    assert sum("no finite contraction window" in ln for ln in lines) == 1
    assert any("one window of length t_final = 0.5" in ln for ln in lines)


def test_semilinear_run_reports_a_window_shorter_than_one_step(
        tmp_path, capsys):
    # the certified window of this amplitude is far below dt = dx = 0.25
    rc, out = _semilinear_run(tmp_path, 0.3)
    assert rc == 0
    assert [ln for ln in _warnings(capsys) if "shorter than one step" in ln
            and "dt = 0.25" in ln and "one-step windows" in ln] != []
    # --quiet silences the report and changes no artifact
    rc, quiet = _semilinear_run(tmp_path, 0.3, "--quiet")
    assert rc == 0 and capsys.readouterr().err == ""
    assert (quiet / "energy.csv").read_bytes() == (
        out / "energy.csv").read_bytes()


def test_semilinear_run_blames_no_certificate_for_a_short_t_final(
        tmp_path, capsys, monkeypatch):
    import varwave.cli as cli

    monkeypatch.setattr(cli, "contraction_window", lambda p, E, c: 10.0)
    rc, _ = _semilinear_run(tmp_path, 0.3, t_final=0.1)
    assert rc == 2
    assert _warnings(capsys) == []


def test_semilinear_run_reports_the_bound_monitor_off(tmp_path, capsys,
                                                      monkeypatch):
    import varwave.cli as cli

    def failing(p, E):
        raise cli.ConfigError("energy budget must be positive")

    monkeypatch.setattr(cli, "apriori_constants", failing)
    rc, _ = _semilinear_run(tmp_path, 0.02)
    assert rc == 0
    lines = _warnings(capsys)
    assert ("warning: no a priori bound (energy budget must be positive); "
            "the sup|zeta| monitor is off") in lines
    assert not any("no finite contraction window" in ln for ln in lines)


def test_quasilinear_run_writes_artifacts(tmp_path):
    out = tmp_path / "runq"
    cfg = _write_config(tmp_path, {
        "solver": "quasilinear",
        "potential": {"name": "flat4", "params": {"s0": 0.5}},
        "grid": {"x_min": -8.0, "x_max": 8.0, "n": 129},
        "wave_speed": {"K1": 2.0, "K3": 1.0},
        "time": {"t_final": 0.2, "cfl": 0.8},
        "initial_data": {"family": "gaussian", "psi_amplitude": 0.1,
                         "width": 1.0},
        "outputs": {"snapshot_times": [0.2], "energy_every": 2},
    })
    rc = main(["run-quasilinear", "--config", cfg, "--out", str(out),
               "--quiet"])
    assert rc == 0
    manifest = _read_json(out / "manifest.json")
    assert manifest["achieved_T"] == pytest.approx(0.2)
    snap = (out / "snapshot_0000.csv").read_text().splitlines()
    assert snap[0].startswith("x,")
    energy = (out / "energy.csv").read_text().splitlines()
    assert energy[0].startswith("t,")



def test_quasilinear_default_step_is_within_the_cfl_limit(tmp_path, capsys):
    # a bump that does not reach the largest speed sqrt(max(K1, K3)): the
    # default step is still 0.8 dx / c_max for that largest speed
    out = tmp_path / "runq"
    cfg = _write_config(tmp_path, {
        "solver": "quasilinear",
        "potential": {"name": "flat4", "params": {"s0": 0.5}},
        "grid": {"x_min": -8.0, "x_max": 8.0, "n": 257},
        "wave_speed": {"K1": 4.0, "K3": 1.0},
        "time": {"t_final": 0.2},
        "initial_data": {"family": "gaussian", "psi_amplitude": 0.2,
                         "width": 1.0},
        "outputs": {"energy_every": 1},
    })
    rc = main(["run-quasilinear", "--config", cfg, "--out", str(out),
               "--quiet"])
    assert rc == 0, capsys.readouterr().err
    rows = (out / "energy.csv").read_text().splitlines()[1:]
    t = [float(row.split(",")[0]) for row in rows]
    dx, c_max = 16.0 / 256, 2.0
    assert t[1] - t[0] <= 0.8 * dx / c_max
    assert t[-1] == pytest.approx(0.2)


@pytest.mark.parametrize("cfl, code", [(4.0, 0), (4.5, 2)])
def test_quasilinear_cfl_is_gated_by_the_foot_travel(tmp_path, capsys, cfl,
                                                     code):
    # time.cfl has no ceiling of its own: advance refuses a step whose feet
    # travel more than 4 cells, before any step and before anything is
    # written; t_final is 9 steps at cfl 4 and 8 at cfl 4.5, so fit_steps
    # takes the step asked for (dx = 1/8, c_max = 2)
    out = tmp_path / "runq"
    cfg = _write_config(tmp_path, {
        "solver": "quasilinear",
        "potential": {"name": "flat4", "params": {"s0": 0.5}},
        "grid": {"x_min": -8.0, "x_max": 8.0, "n": 129},
        "wave_speed": {"K1": 4.0, "K3": 1.0},
        "time": {"t_final": 2.25, "cfl": cfl},
        "initial_data": {"family": "gaussian", "psi_amplitude": 0.1,
                         "width": 1.0},
        "outputs": {"snapshot_times": [2.25], "out_dir": str(out)},
    })
    assert main(["run-quasilinear", "--config", cfg, "--quiet"]) == code
    err = capsys.readouterr().err
    if code == 0:
        rows = (out / "energy.csv").read_text().splitlines()[1:]
        assert len(rows) == 10 and (out / "snapshot_0000.csv").exists()
    else:
        assert err.startswith("error:") and len(err.splitlines()) == 1
        assert "cells per step" in err
        assert not out.exists()


def test_quasilinear_cfl_4_runs_past_whole_steps_by_rounding(tmp_path):
    # t_final is 9 steps of 0.25 and 1.25e-10 (dx = 1/8, c_max = 2): 9
    # steps, each no longer than the 4 cells asked for, pass the gate
    out = tmp_path / "runq"
    cfg = _write_config(tmp_path, {
        "solver": "quasilinear",
        "potential": {"name": "flat4", "params": {"s0": 0.5}},
        "grid": {"x_min": -8.0, "x_max": 8.0, "n": 129},
        "wave_speed": {"K1": 4.0, "K3": 1.0},
        "time": {"t_final": 2.250000000125, "cfl": 4.0},
        "initial_data": {"family": "gaussian", "psi_amplitude": 0.1,
                         "width": 1.0},
        "outputs": {"out_dir": str(out)},
    })
    assert main(["run-quasilinear", "--config", cfg, "--quiet"]) == 0
    assert len((out / "energy.csv").read_text().splitlines()) == 1 + 10


# --- marker runs -------------------------------------------------------------


def _hs2_breaking_doc(out_dir):
    return {
        "solver": "hs2",
        "grid": {"x_min": -8.0, "x_max": 8.0, "n": 2049},
        "time": {"t_final": 1.5, "dt": 0.001},
        "initial_data": {"family": "gaussian",
                         "amplitude": math.sqrt(2.0) * math.exp(0.5),
                         "width": 1.0},
        "outputs": {"energy_every": 250, "out_dir": out_dir},
    }


def test_hs2_breaking_run_exits_5_with_blowup_report(tmp_path, capsys):
    out = tmp_path / "brk"
    cfg = _write_config(tmp_path, _hs2_breaking_doc(str(out)))
    rc = main(["run-hs2", "--config", cfg])
    assert rc == 5
    assert "wave breaking" in capsys.readouterr().err
    blow = _read_json(out / "blowup.json")
    assert blow["broke"] is True
    # steepest initial slope is -2, so breaking sits at t = 2/2 = 1
    assert blow["t_star"] == pytest.approx(1.0, rel=0.01)
    assert isinstance(blow["marker_index"], int)
    traj = (out / "trajectory.csv").read_text().splitlines()
    assert traj[0] == "t,xi,x,u,alpha,rho,J"
    assert len(traj) > 2049  # at least the initial dump
    manifest = _read_json(out / "manifest.json")
    assert manifest["achieved_T"] < 1.5
    assert manifest["artifacts"] == ["blowup.json", "manifest.json",
                                     "trajectory.csv"]


def _hs2_short_breaking_doc(out_dir, dt, t_final):
    doc = _hs2_breaking_doc(out_dir)
    doc["grid"]["n"] = 257
    doc["time"] = {"t_final": t_final, "dt": dt}
    doc["outputs"]["energy_every"] = 1
    return doc


def test_hs2_step_never_exceeds_requested_dt(tmp_path, capsys):
    # sup|alpha| is about 2, so dt = 0.049 passes the dt * sup|alpha| <= 0.1
    # gate; t_final / dt = 2.4 rounded to the nearest count would run two
    # steps of 0.0588 and trip it
    out = tmp_path / "o"
    cfg = _write_config(tmp_path, _hs2_short_breaking_doc(str(out), 0.049,
                                                          0.1176))
    assert main(["run-hs2", "--config", cfg, "--quiet"]) == 0
    t = np.unique(np.loadtxt(out / "trajectory.csv", delimiter=",",
                             skiprows=1, usecols=0))
    assert len(t) == 4 and np.max(np.diff(t)) <= 0.049
    assert t[-1] == pytest.approx(0.1176)


def test_hs2_refused_step_exits_2_before_writing(tmp_path, capsys):
    out = tmp_path / "o"
    cfg = _write_config(tmp_path, _hs2_short_breaking_doc(str(out), 0.06,
                                                          0.12))
    assert main(["run-hs2", "--config", cfg, "--quiet"]) == 2
    assert "too large for initial slopes" in capsys.readouterr().err
    assert not out.exists()


def test_hs2_survival_run_exits_0(tmp_path, capsys):
    out = tmp_path / "ok"
    cfg = _write_config(tmp_path, {
        "solver": "hs2",
        "grid": {"x_min": -6.0, "x_max": 6.0, "n": 257},
        "time": {"t_final": 0.5, "dt": 0.005},
        "initial_data": {"family": "gaussian", "amplitude": 0.3,
                         "width": 1.0, "rho_value": 1.0},
        "outputs": {"energy_every": 20, "out_dir": str(out)},
    })
    rc = main(["run-hs2", "--config", cfg])
    assert rc == 0
    assert "sup|alpha|" in capsys.readouterr().out
    blow = _read_json(out / "blowup.json")
    assert blow["broke"] is False and blow["t_star"] is None


def test_hs2_reruns_are_byte_identical(tmp_path):
    doc = {
        "solver": "hs2",
        "grid": {"x_min": -6.0, "x_max": 6.0, "n": 129},
        "time": {"t_final": 0.2, "dt": 0.01},
        "initial_data": {"family": "gaussian", "amplitude": 0.4,
                         "width": 1.2, "rho_value": 0.5},
        "outputs": {"energy_every": 5, "out_dir": "unused"},
    }
    cfg = _write_config(tmp_path, doc)
    outs = []
    for sub in ("a", "b"):
        out = tmp_path / sub
        assert main(["run-hs2", "--config", cfg, "--out", str(out),
                     "--quiet"]) == 0
        outs.append(out)
    for name in ("trajectory.csv", "blowup.json", "manifest.json"):
        assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()


@pytest.mark.parametrize("rho_value, t_final, code", [(0.5, 0.23, 0),
                                                      (0.0, 2.0, 5)])
def test_hs2_trajectory_matches_per_row_writer(tmp_path, rho_value, t_final,
                                               code):
    doc = {
        "solver": "hs2",
        "grid": {"x_min": -6.0, "x_max": 6.0, "n": 129},
        "time": {"t_final": t_final, "dt": 0.01},
        "initial_data": {"family": "gaussian", "amplitude": 2.0,
                         "width": 1.2, "rho_value": rho_value},
        "outputs": {"energy_every": 7, "out_dir": "unused"},
    }
    out = tmp_path / "run"
    assert main(["run-hs2", "--config", _write_config(tmp_path, doc),
                 "--out", str(out), "--quiet"]) == code
    # the per-row observer the shared csv row writer replaced
    u0 = gaussian(2.0, 0.0, 1.2)
    markers = make_markers((-6.0, 6.0), 129, u0, constant(rho_value),
                           du0=u0.derivative)
    steps = max(1, int(round(t_final / 0.01)))
    fh = io.StringIO()
    fh.write("t,xi,x,u,alpha,rho,J\n")
    counter = {"k": 0}

    def observer(st):
        k = counter["k"]
        counter["k"] = k + 1
        if k % 7 and abs(st.time - t_final) > 1e-12:
            return
        for i in range(st.xi.shape[0]):
            fh.write("%.17g,%.17g,%.17g,%.17g,%.17g,%.17g,%.17g\n" % (
                st.time, st.xi[i], st.x[i], st.u[i], st.alpha[i],
                st.rho[i], st.J[i]))

    evolve_markers(markers, t_final, t_final / steps, observer=observer)
    assert counter["k"] > 7
    got = (out / "trajectory.csv").read_text().splitlines(keepends=True)
    want = fh.getvalue().splitlines(keepends=True)
    # name the first differing row rather than diffing thousands of rows
    first = next((i for i, (a, b) in enumerate(zip(got, want)) if a != b), None)
    assert first is None, (first, got[first], want[first])
    assert len(got) == len(want)


# --- slow-scale sweep --------------------------------------------------------


def _asymptotic_doc():
    return {
        "solver": "asymptotic",
        "potential": {"name": "flat4", "params": {"s0": 0.5}},
        "wave_speed": {"K1": 2.0, "K3": 1.0},
        "grid": {"x_min": -3.0, "x_max": 3.0, "n": 61},
        "time": {"t_final": 0.04, "dt": 0.002},
        "initial_data": {"family": "gaussian", "amplitude": 0.0,
                         "psi_base": 0.7853981633974483},
    }


def test_asymptotic_requires_flat_potential(tmp_path, capsys):
    doc = _asymptotic_doc()
    doc["potential"] = {"name": "reference"}
    cfg = _write_config(tmp_path, doc)
    assert main(["run-asymptotic", "--config", cfg]) == 2
    assert "flat4" in capsys.readouterr().err


def test_asymptotic_sweep_argument_is_validated(tmp_path, capsys):
    cfg = _write_config(tmp_path, _asymptotic_doc())
    assert main(["run-asymptotic", "--config", cfg,
                 "--epsilon-sweep", "0.2"]) == 2
    assert "at least two" in capsys.readouterr().err
    assert main(["run-asymptotic", "--config", cfg,
                 "--epsilon-sweep", "0.2,zebra"]) == 2
    assert "comma-separated" in capsys.readouterr().err
    assert main(["run-asymptotic", "--config", cfg,
                 "--epsilon-sweep", "0.2,1.5"]) == 2
    assert "outside" in capsys.readouterr().err


def test_asymptotic_sweep_over_the_step_cap_exits_2_before_writing(
        tmp_path, capsys):
    # epsilon = 1e-300 puts the fast time near 1e300, some 1e301 steps: the
    # sweep is refused before any run instead of marching them
    out = tmp_path / "study"
    cfg = _write_config(tmp_path, _asymptotic_doc())
    assert main(["run-asymptotic", "--config", cfg, "--out", str(out),
                 "--epsilon-sweep", "0.2,1e-300"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and len(err.splitlines()) == 1
    assert "epsilon = 1e-300" in err and "at most 1048576" in err
    assert not out.exists()


def test_asymptotic_run_writes_study(tmp_path, capsys):
    out = tmp_path / "study"
    cfg = _write_config(tmp_path, _asymptotic_doc())
    rc = main(["run-asymptotic", "--config", cfg, "--out", str(out),
               "--epsilon-sweep", "0.5,0.25"])
    assert rc == 0
    assert "fitted order" in capsys.readouterr().out
    study = _read_json(out / "study.json")
    assert study["gauge"] == "C(t)=0"
    assert study["epsilons"] == [0.5, 0.25]
    # zero-amplitude data: the reduction is exact, errors at round-off
    assert all(e == pytest.approx(0.0, abs=1e-10) for e in study["errors"])
    assert study["fitted_order"] is None
    assert _read_json(out / "manifest.json")["artifacts"] == [
        "manifest.json", "study.json"]


# --- fit-order ---------------------------------------------------------------


def test_fit_order_subcommand(tmp_path, capsys):
    path = tmp_path / "pairs.json"
    path.write_text(json.dumps(
        {"pairs": [[0.1, 1e-2], [0.05, 2.5e-3], [0.025, 6.25e-4]]}))
    rc = main(["fit-order", "--config", str(path), "--out",
               str(tmp_path / "fit")])
    assert rc == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["fitted_order"] == pytest.approx(2.0, abs=1e-12)
    assert _read_json(tmp_path / "fit" / "fit.json") == doc


# pairs a JSON document may hold that no (h, err) fit can use; the last two
# pairs of each case are good
@pytest.mark.parametrize("bad", [
    '["a", 1]', '[1]', '[0.1, 0.01, 7]', '[true, 0.01]', '[0.1, null]',
    '[NaN, 0.01]', '[0.1, Infinity]', '[-Infinity, 0.01]', '[0.1, 1e400]',
    '[1' + '0' * 400 + ', 0.01]', '{"h": 0.1, "err": 0.01}', '1',
], ids=["text", "one_element", "three_elements", "boolean", "null", "nan",
        "infinity", "minus_infinity", "overflow", "huge_int", "object",
        "number"])
def test_fit_order_hostile_pairs_exit_2(tmp_path, capsys, bad):
    path = tmp_path / "pairs.json"
    path.write_text('{"pairs": [%s, [0.05, 2.5e-3], [0.025, 6.25e-4]]}' % bad)
    out = tmp_path / "fit"
    assert main(["fit-order", "--config", str(path), "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert "error: order fit needs" in captured.err
    assert captured.out == "" and not (out / "fit.json").exists()


def test_fit_order_rejects_malformed_input(tmp_path, capsys):
    assert main(["fit-order"]) == 2
    assert "--config" in capsys.readouterr().err
    bad = tmp_path / "bad.json"
    bad.write_text('{"pairs": [[0.1, 1e-2]], "extra": 1}')
    assert main(["fit-order", "--config", str(bad)]) == 2
    assert "unknown key" in capsys.readouterr().err
