"""Strict config parsing, defaults, and canonical serialization."""

import json

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from varwave import ConfigError, cli
from varwave.config import (_INITIAL_KEYS, SOLVERS, RunConfig, build_grid,
                            build_potential, build_wave_speed, dump_config,
                            load_config, parse_config)
from varwave.profiles import PROFILE_FAMILIES


def _minimal(solver="semilinear", **extra):
    doc = {"solver": solver}
    doc.update(extra)
    return doc


def test_minimal_config_gets_defaults():
    cfg = parse_config(_minimal())
    assert cfg.solver == "semilinear"
    assert cfg.potential["name"] == "reference"
    assert cfg.wave_speed == {"K1": 1.0, "K3": 1.0}
    assert cfg.grid == {"x_min": -8.0, "x_max": 8.0, "n": 1025}
    assert cfg.time["t_final"] == 1.0
    assert cfg.initial_data["family"] == "gaussian"
    assert cfg.outputs["energy_every"] == 1


def test_solver_required_and_validated():
    with pytest.raises(ConfigError, match="solver"):
        parse_config({})
    with pytest.raises(ConfigError, match="pseudospectral"):
        parse_config(_minimal(solver="pseudospectral"))


def test_unknown_keys_name_their_path():
    with pytest.raises(ConfigError, match=r"wave_speed\.K2"):
        parse_config(_minimal(wave_speed={"K2": 1.0}))
    with pytest.raises(ConfigError, match=r"grid\.dx"):
        parse_config(_minimal(grid={"dx": 0.1}))
    with pytest.raises(ConfigError, match="extra_section"):
        parse_config(_minimal(extra_section={}))
    with pytest.raises(ConfigError, match="seeds"):
        parse_config(_minimal(seeds=0))


def test_bad_values_name_their_path():
    with pytest.raises(ConfigError, match=r"wave_speed\.K1"):
        parse_config(_minimal(wave_speed={"K1": -1.0}))
    with pytest.raises(ConfigError, match=r"grid\.n"):
        parse_config(_minimal(grid={"n": 8.5}))
    with pytest.raises(ConfigError, match=r"time\.t_final"):
        parse_config(_minimal(time={"t_final": 0.0}))
    with pytest.raises(ConfigError, match=r"potential\.params\.s0"):
        parse_config(_minimal(potential={"name": "flat4",
                                         "params": {"s0": 1.5}}))


def test_dt_cfl_exclusive():
    parse_config(_minimal(time={"t_final": 1.0, "dt": 0.01}))
    parse_config(_minimal(time={"t_final": 1.0, "cfl": 0.5}))
    with pytest.raises(ConfigError, match="dt or cfl"):
        parse_config(_minimal(time={"t_final": 1.0, "dt": 0.01, "cfl": 0.5}))
    with pytest.raises(ConfigError, match="cfl"):
        parse_config(_minimal(time={"t_final": 1.0, "cfl": 0.95}))


def test_initial_data_vocabulary_is_per_solver():
    # rho_* keys belong to the marker solver, not the semilinear one
    parse_config(_minimal(solver="hs2", initial_data={"rho_value": 0.5}))
    with pytest.raises(ConfigError, match=r"initial_data\.rho_value"):
        parse_config(_minimal(solver="semilinear",
                              initial_data={"rho_value": 0.5}))
    # validate-potential accepts no profile parameters at all
    with pytest.raises(ConfigError, match=r"initial_data\.amplitude"):
        parse_config(_minimal(solver="validate-potential",
                              initial_data={"amplitude": 0.1}))


def test_initial_data_values_are_typed():
    cfg = parse_config(_minimal(solver="hs2", initial_data={
        "amplitude": 1, "rho_family": "gaussian", "rho_width": 2}))
    assert cfg.initial_data["amplitude"] == 1.0
    assert type(cfg.initial_data["amplitude"]) is float
    assert type(cfg.initial_data["rho_width"]) is float
    for key, bad in (("amplitude", "1.5"), ("width", None), ("k", [1.0]),
                     ("center", True), ("rho_value", float("nan")),
                     ("rho_amplitude", float("inf"))):
        with pytest.raises(ConfigError, match=rf"initial_data\.{key} must"):
            parse_config(_minimal(solver="hs2", initial_data={key: bad}))
    for key in ("family", "rho_family"):
        with pytest.raises(ConfigError,
                           match=rf"initial_data\.{key} must be a string"):
            parse_config(_minimal(solver="hs2", initial_data={key: 1}))
    with pytest.raises(ConfigError, match=r"initial_data\.path must"):
        parse_config(_minimal(initial_data={"family": "file", "path": 0}))
    with pytest.raises(ConfigError, match=r"needs initial_data\.path"):
        parse_config(_minimal(solver="quasilinear",
                              initial_data={"family": "file"}))


def test_snapshot_times_validated():
    parse_config(_minimal(outputs={"snapshot_times": [0.25, 0.5]}))
    with pytest.raises(ConfigError, match="snapshot_times"):
        parse_config(_minimal(outputs={"snapshot_times": [0.25, -0.5]}))
    with pytest.raises(ConfigError, match="snapshot_times"):
        parse_config(_minimal(outputs={"snapshot_times": 0.25}))


def test_dump_load_round_trip_is_byte_stable(tmp_path):
    doc = _minimal(
        potential={"name": "flat4", "params": {"s0": 0.5}},
        wave_speed={"K1": 2.0, "K3": 1.0},
        grid={"x_min": -10.0, "x_max": 10.0, "n": 513},
        time={"t_final": 0.5, "dt": 0.001},
        initial_data={"family": "gaussian", "amplitude": 0.05},
        outputs={"snapshot_times": [0.25], "energy_every": 10,
                 "out_dir": "run"},
    )
    cfg = parse_config(doc)
    text1 = dump_config(cfg)
    path = tmp_path / "cfg.json"
    path.write_text(text1)
    cfg2 = load_config(str(path))
    text2 = dump_config(cfg2)
    assert text1 == text2
    assert cfg2.to_dict() == cfg.to_dict()


def test_load_config_error_reporting(tmp_path):
    missing = tmp_path / "nope.json"
    with pytest.raises(ConfigError, match="cannot read"):
        load_config(str(missing))
    bad = tmp_path / "bad.json"
    bad.write_text('{"solver": "semilinear",}\n')
    with pytest.raises(ConfigError, match="line"):
        load_config(str(bad))


def test_builders_produce_working_objects():
    cfg = parse_config(_minimal(
        potential={"name": "flat4", "params": {"s0": 0.4}},
        wave_speed={"K1": 4.0, "K3": 4.0},
        grid={"x_min": -2.0, "x_max": 2.0, "n": 65},
    ))
    p = build_potential(cfg)
    assert p.flat_point == pytest.approx(0.4)
    ws = build_wave_speed(cfg)
    assert ws.c(0.3) == pytest.approx(2.0)
    g = build_grid(cfg)
    assert g.n == 65 and g.dx == pytest.approx(0.0625)


# --- fuzzing: hostile and schema-shaped JSON ---------------------------------

_JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats()
    | st.sampled_from([10 ** 400, -(10 ** 400)]) | st.text(max_size=6),
    lambda inner: (st.lists(inner, max_size=3)
                   | st.dictionaries(st.text(max_size=6), inner, max_size=3)),
    max_leaves=6)
_POSITIVE = st.floats(1e-3, 10.0)
_NAMES = st.sampled_from(sorted(PROFILE_FAMILIES) + ["file"])
_SCHEMA = {
    "potential": {"name": st.sampled_from(["reference", "flat4", "quadratic",
                                           "zero"]),
                  "params": st.fixed_dictionaries(
                      {}, optional={"s0": st.floats(0.01, 0.99)})},
    "wave_speed": {"K1": _POSITIVE, "K3": _POSITIVE},
    "grid": {"x_min": st.floats(-10.0, -1.0), "x_max": st.floats(1.0, 10.0),
             "n": st.integers(16, 4097)},
    "time": {"t_final": _POSITIVE, "dt": _POSITIVE,
             "cfl": st.floats(0.1, 0.9)},
    "outputs": {"snapshot_times": st.lists(st.floats(0.0, 10.0), max_size=3),
                "energy_every": st.integers(1, 50),
                "out_dir": st.text(max_size=6)},
}


def _initial_value(key):
    if key in ("family", "rho_family"):
        return _NAMES
    if key == "path":
        return st.text(max_size=6)
    return st.floats(-10.0, 10.0)


@st.composite
def _configs(draw):
    """A config in the schema's shape, with at most one hostile value
    (any JSON, an unknown key, or a whole section replaced)."""
    solver = draw(st.sampled_from(SOLVERS))
    schema = {**_SCHEMA, "initial_data": {
        key: _initial_value(key) for key in sorted(_INITIAL_KEYS[solver])}}
    doc = {"solver": solver}
    for name, keys in schema.items():
        if draw(st.booleans()):
            doc[name] = draw(st.fixed_dictionaries({}, optional=keys))
    if draw(st.booleans()):
        where = draw(st.sampled_from(sorted(doc)))
        if where == "solver" or draw(st.booleans()):
            doc[where] = draw(_JSON)
        else:
            doc[where][draw(st.sampled_from(sorted(schema[where])
                                            + ["bogus"]))] = draw(_JSON)
    return doc


@settings(max_examples=400, deadline=None)
@given(_configs() | _JSON)
@example({"solver": "hs2", "initial_data": {"family": ["gaussian"]}})
@example({"solver": "hs2", "initial_data": {"amplitude": "abc"}})
@example({"solver": "asymptotic", "initial_data": {"rho_family": "constant"}})
def test_config_parsing_raises_only_config_errors(doc):
    """parse_config returns a RunConfig or raises ConfigError, and the
    profile builders raise nothing but ConfigError on what it accepts."""
    try:
        cfg = parse_config(doc)
    except ConfigError:
        return
    assert isinstance(cfg, RunConfig)
    for build in (cli._profile_from, cli._rho_profile_from):
        try:
            build(cfg.initial_data)
        except ConfigError:
            pass
