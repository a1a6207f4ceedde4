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


def test_unknown_config_key_exits_2(tmp_path, capsys):
    cfg = _write_config(tmp_path, {"solver": "semilinear",
                                   "grid": {"dx": 0.1}})
    assert main(["run-semilinear", "--config", cfg]) == 2
    assert "grid.dx" in capsys.readouterr().err


def test_solver_subcommand_mismatch_exits_2(tmp_path, capsys):
    cfg = _write_config(tmp_path, {"solver": "hs2"})
    assert main(["run-semilinear", "--config", cfg]) == 2
    assert "subcommand expects" in capsys.readouterr().err


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
    doc = {"solver": solver, "initial_data": {key: value}}
    if solver == "quasilinear":
        doc["potential"] = {"name": "flat4"}
    cfg = _write_config(tmp_path, doc)
    assert main(["run-" + solver, "--config", cfg, "--quiet"]) == 2
    assert f"initial_data.{key} must be" in capsys.readouterr().err


@pytest.mark.parametrize("token", ["NaN", "Infinity"])
@pytest.mark.parametrize("solver", ["hs2", "quasilinear"])
def test_non_finite_config_number_exits_2(tmp_path, capsys, solver, token):
    path = tmp_path / "cfg.json"
    path.write_text('{"solver": "%s", "time": {"t_final": %s}}\n'
                    % (solver, token))
    assert main(["run-" + solver, "--config", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:")
    assert "time.t_final must be a finite number" in err


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


def test_fit_order_rejects_malformed_input(tmp_path, capsys):
    assert main(["fit-order"]) == 2
    assert "--config" in capsys.readouterr().err
    bad = tmp_path / "bad.json"
    bad.write_text('{"pairs": [[0.1, 1e-2]], "extra": 1}')
    assert main(["fit-order", "--config", str(bad)]) == 2
    assert "unknown key" in capsys.readouterr().err
