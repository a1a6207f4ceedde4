"""Strict JSON run configurations for the command-line surface.

A run config is a single JSON object with the sections solver, potential,
wave_speed, grid, time, initial_data, outputs.  Loading is strict:
unknown keys anywhere are rejected with the offending path named, missing
values are filled from documented defaults, and numeric ranges are checked
up front so solvers never see malformed input.  Serialization
(canonical_json: sorted keys, fixed indentation, shortest round-trip
floats) is canonical, which makes canonical_json(load(x).to_dict())
byte-identical for canonicalized input and keeps manifests diffable.
"""

from __future__ import annotations

import json
import sys
from dataclasses import dataclass
from typing import Dict

from .errors import ConfigError
from .fields import Grid1D
from .potentials import (PotentialSpec, WaveSpeed, flat_point_potential,
                         quadratic_potential, reference_potential, wave_speed,
                         zero_potential)

__all__ = [
    "RunConfig",
    "load_config",
    "read_json",
    "parse_config",
    "canonical_json",
    "build_potential",
    "build_wave_speed",
    "build_grid",
    "SOLVERS",
]

SOLVERS = ("semilinear", "quasilinear", "hs2", "asymptotic",
           "validate-potential")

_POTENTIALS = ("reference", "flat4", "quadratic", "zero")

_TOP_KEYS = {"solver", "potential", "wave_speed", "grid", "time",
             "initial_data", "outputs"}
_SECTION_KEYS = {
    "potential": {"name", "params"},
    "potential.params": {"s0"},
    "wave_speed": {"K1", "K3"},
    "grid": {"x_min", "x_max", "n"},
    "time": {"t_final", "dt", "cfl"},
    "outputs": {"snapshot_times", "energy_every", "out_dir"},
}
_INITIAL_KEYS = {
    "semilinear": {"family", "amplitude", "center", "width", "k", "path",
                   "base"},
    "quasilinear": {"family", "psi_base", "s_base", "psi_amplitude",
                    "s_amplitude", "center", "width", "k", "s_center",
                    "s_width", "path"},
    "hs2": {"family", "amplitude", "center", "width", "k", "rho_family",
            "rho_value", "rho_amplitude", "rho_center", "rho_width"},
    "asymptotic": {"family", "amplitude", "center", "width", "k", "psi_base",
                   "rho_family", "rho_amplitude", "rho_center", "rho_width"},
    "validate-potential": {"family"},
}
# 256x the largest grid tests and benchmark run (4097); 16 MB per complex level
_MAX_GRID_N = 2**20 + 1
# the initial_data keys that hold strings; every other one holds a number
_INITIAL_STRINGS = {"family", "rho_family", "path"}

_DEFAULTS = {
    "potential": {"name": "reference", "params": {}},
    "wave_speed": {"K1": 1.0, "K3": 1.0},
    "grid": {"x_min": -8.0, "x_max": 8.0, "n": 1025},
    "time": {"t_final": 1.0},
    "initial_data": {"family": "gaussian", "amplitude": 0.1, "center": 0.0,
                     "width": 1.0},
    "outputs": {"snapshot_times": [], "energy_every": 1, "out_dir": "."},
}


@dataclass
class RunConfig:
    """Validated, default-filled run description."""

    solver: str
    potential: Dict
    wave_speed: Dict
    grid: Dict
    time: Dict
    initial_data: Dict
    outputs: Dict

    def to_dict(self) -> Dict:
        return {
            "solver": self.solver,
            "potential": self.potential,
            "wave_speed": self.wave_speed,
            "grid": self.grid,
            "time": self.time,
            "initial_data": self.initial_data,
            "outputs": self.outputs,
        }


def _reject_unknown(section: Dict, allowed, path: str):
    for key in section:
        if key not in allowed:
            raise ConfigError(f"unknown key {path}.{key}" if path
                              else f"unknown key {key}")


def _require_number(val, path: str, positive=False, integer=False):
    if isinstance(val, bool) or not isinstance(val, (int, float)):
        raise ConfigError(f"{path} must be a number")
    if not abs(val) <= sys.float_info.max:  # NaN, Infinity, or beyond a float
        raise ConfigError(f"{path} must be a finite number")
    if integer and int(val) != val:
        raise ConfigError(f"{path} must be an integer")
    if positive and val <= 0:
        raise ConfigError(f"{path} must be positive")
    return int(val) if integer else float(val)


def parse_config(doc: Dict) -> RunConfig:
    """Validate a parsed JSON object into a RunConfig (strict mode)."""
    if not isinstance(doc, dict):
        raise ConfigError("config must be a JSON object")
    _reject_unknown(doc, _TOP_KEYS, "")
    if "solver" not in doc:
        raise ConfigError("config needs a 'solver' key")
    solver = doc["solver"]
    if solver not in SOLVERS:
        raise ConfigError(f"solver must be one of {', '.join(SOLVERS)}; "
                          f"got '{solver}'")

    merged = {}
    for sect in ("potential", "wave_speed", "grid", "time", "outputs"):
        given = doc.get(sect, {})
        if not isinstance(given, dict):
            raise ConfigError(f"{sect} must be an object")
        merged[sect] = {**_DEFAULTS[sect], **given}

    # initial_data defaults are trimmed to the solver's vocabulary so that
    # strict-mode key checking only ever fires on user-supplied keys
    init_given = doc.get("initial_data", {})
    if not isinstance(init_given, dict):
        raise ConfigError("initial_data must be an object")
    allowed_init = _INITIAL_KEYS[solver]
    _reject_unknown(init_given, allowed_init, "initial_data")
    merged["initial_data"] = {
        **{k: v for k, v in _DEFAULTS["initial_data"].items()
           if k in allowed_init},
        **init_given,
    }

    pot = merged["potential"]
    _reject_unknown(pot, _SECTION_KEYS["potential"], "potential")
    if pot["name"] not in _POTENTIALS:
        raise ConfigError("potential.name must be one of "
                          f"{', '.join(_POTENTIALS)}; got '{pot['name']}'")
    params = pot.get("params", {})
    if not isinstance(params, dict):
        raise ConfigError("potential.params must be an object")
    _reject_unknown(params, _SECTION_KEYS["potential.params"],
                    "potential.params")
    if "s0" in params:
        s0 = _require_number(params["s0"], "potential.params.s0")
        if not (0.0 < s0 < 1.0):
            raise ConfigError("potential.params.s0 must lie in (0, 1)")
        params["s0"] = s0

    ws = merged["wave_speed"]
    _reject_unknown(ws, _SECTION_KEYS["wave_speed"], "wave_speed")
    ws["K1"] = _require_number(ws["K1"], "wave_speed.K1", positive=True)
    ws["K3"] = _require_number(ws["K3"], "wave_speed.K3", positive=True)

    grid = merged["grid"]
    _reject_unknown(grid, _SECTION_KEYS["grid"], "grid")
    grid["x_min"] = _require_number(grid["x_min"], "grid.x_min")
    grid["x_max"] = _require_number(grid["x_max"], "grid.x_max")
    grid["n"] = _require_number(grid["n"], "grid.n", positive=True,
                                integer=True)
    if grid["x_max"] <= grid["x_min"]:
        raise ConfigError("grid.x_max must exceed grid.x_min")
    if not 16 <= grid["n"] <= _MAX_GRID_N:
        raise ConfigError(f"grid.n must lie in [16, {_MAX_GRID_N}]")

    time = merged["time"]
    _reject_unknown(time, _SECTION_KEYS["time"], "time")
    time["t_final"] = _require_number(time["t_final"], "time.t_final",
                                      positive=True)
    if "dt" in time and "cfl" in time:
        raise ConfigError("time takes dt or cfl, not both")
    if "dt" in time:
        time["dt"] = _require_number(time["dt"], "time.dt", positive=True)
    if "cfl" in time:
        if solver != "quasilinear":
            raise ConfigError("time.cfl applies to quasilinear runs only")
        cfl = _require_number(time["cfl"], "time.cfl", positive=True)
        if cfl > 0.9:
            raise ConfigError("time.cfl must not exceed 0.9")
        time["cfl"] = cfl

    init = merged["initial_data"]
    for key, val in list(init.items()):
        if key not in _INITIAL_STRINGS:
            init[key] = _require_number(val, f"initial_data.{key}")
        elif not isinstance(val, str):
            raise ConfigError(f"initial_data.{key} must be a string")
    if (init.get("family") == "file" and "path" in allowed_init
            and "path" not in init):
        raise ConfigError("initial_data.family 'file' needs initial_data.path")

    outputs = merged["outputs"]
    _reject_unknown(outputs, _SECTION_KEYS["outputs"], "outputs")
    snaps = outputs["snapshot_times"]
    if not isinstance(snaps, list) or any(
            isinstance(t, bool) or not isinstance(t, (int, float))
            or not 0 <= t <= sys.float_info.max for t in snaps):
        raise ConfigError("outputs.snapshot_times must be a list of finite "
                          "nonnegative numbers")
    outputs["snapshot_times"] = [float(t) for t in snaps]
    outputs["energy_every"] = _require_number(
        outputs["energy_every"], "outputs.energy_every", positive=True,
        integer=True)
    if not isinstance(outputs["out_dir"], str):
        raise ConfigError("outputs.out_dir must be a string")

    return RunConfig(solver=solver, potential=pot, wave_speed=ws, grid=grid,
                     time=time, initial_data=init, outputs=outputs)


def read_json(path: str):
    """The JSON document in one config file; ConfigError if it cannot be
    read or parsed."""
    try:
        with open(path) as fh:
            text = fh.read()
    except OSError as exc:
        raise ConfigError(f"cannot read config: {exc}")
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config parse error at line {exc.lineno}, "
                          f"column {exc.colno}: {exc.msg}")


def load_config(path: str) -> RunConfig:
    """Read, parse, and validate one JSON config file."""
    return parse_config(read_json(path))


def canonical_json(doc) -> str:
    """Canonical JSON text of a document: sorted keys, two-space indent, a
    final newline.  Configs (`RunConfig.to_dict()`), manifests and reports
    all go through it, so stable documents give stable bytes."""
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"


def build_potential(cfg: RunConfig) -> PotentialSpec:
    name = cfg.potential["name"]
    params = cfg.potential.get("params", {})
    if name == "reference":
        return reference_potential()
    if name == "flat4":
        return flat_point_potential(params.get("s0", 0.5))
    if name == "quadratic":
        return quadratic_potential()
    return zero_potential()


def build_wave_speed(cfg: RunConfig) -> WaveSpeed:
    return wave_speed(cfg.wave_speed["K1"], cfg.wave_speed["K3"])


def build_grid(cfg: RunConfig) -> Grid1D:
    return Grid1D(cfg.grid["x_min"], cfg.grid["x_max"], cfg.grid["n"])
