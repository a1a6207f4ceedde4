"""Importing varwave loads numpy, not the heavy scipy subpackages; the marker
resampling loads scipy.interpolate on its first call."""

import json
import os
import subprocess
import sys
from pathlib import Path

_SRC = Path(__file__).resolve().parents[1] / "src"

# runs in a fresh interpreter: argv[1] is a scratch directory
_CHILD = """
import json, os, sys
import numpy as np
import varwave, varwave.cli
from varwave import cli

HEAVY = ("scipy.interpolate", "scipy.special", "scipy.linalg", "scipy.optimize")
tmp = sys.argv[1]

def run(sub, doc):
    path = os.path.join(tmp, sub + ".json")
    with open(path, "w") as fh:
        json.dump(doc, fh)
    return cli.main([sub, "--config", path, "--out",
                     os.path.join(tmp, sub), "--quiet"])

grid = {"n": 65, "x_min": -4.0, "x_max": 4.0}
gauss = {"family": "gaussian", "amplitude": 0.1, "center": 0.0, "width": 0.5}
codes = [
    run("run-hs2", {"solver": "hs2", "grid": grid,
                    "initial_data": dict(gauss, rho_value=1.0),
                    "time": {"dt": 0.01, "t_final": 0.05}}),
    run("run-semilinear", {"solver": "semilinear", "grid": grid,
                           "initial_data": gauss,
                           "wave_speed": {"K1": 1.0, "K3": 1.0},
                           "time": {"t_final": 0.5}}),
]
after_runs = sorted(m for m in HEAVY if m in sys.modules)

st = varwave.make_markers((-1.0, 1.0), 33, np.sin, np.ones_like, np.cos)
xq = np.linspace(-1.0, 1.0, 9)
u, rho = varwave.sample_eulerian(st, xq)
print(json.dumps({
    "codes": codes, "after_runs": after_runs,
    "after_sampling": sorted(m for m in HEAVY if m in sys.modules),
    "u_err": float(np.max(np.abs(u - np.sin(xq)))),
    "rho_err": float(np.max(np.abs(rho - 1.0))),
}))
"""


def test_cli_runs_leave_scipy_interpolate_unloaded(tmp_path):
    env = dict(os.environ, PYTHONPATH=str(_SRC))
    out = subprocess.run([sys.executable, "-c", _CHILD, str(tmp_path)],
                         capture_output=True, text=True, env=env,
                         cwd=str(tmp_path), timeout=120, check=True)
    doc = json.loads(out.stdout.strip().splitlines()[-1])
    assert doc["codes"] == [0, 0], out.stderr
    assert doc["after_runs"] == []
    assert "scipy.interpolate" in doc["after_sampling"]
    # at t = 0 the markers sit on their labels: u is pchip through sin,
    # rho the derivative of an exactly linear mass
    assert doc["u_err"] < 1e-4
    assert doc["rho_err"] < 1e-12
