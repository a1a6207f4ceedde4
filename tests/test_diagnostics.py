"""Energy densities, local conservation residuals, and order fitting."""

import math
from dataclasses import astuple
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from varwave import (ComplexField, ConfigError, EnergyReport, Grid1D,
                     PolarState, QuasilinearConfig, SemilinearConfig, advance,
                     apriori_constants, centered_derivative,
                     conservation_residuals, energy_density_complex,
                     energy_density_polar, fit_order, flat_point_potential,
                     integrate, picard_solve, reference_potential, wave_speed,
                     write_energy_csv, zero_potential)
from varwave.diagnostics import EnergyLog


def _grids(n=257, half=8.0):
    return Grid1D(-half, half, n)


# --- energy densities --------------------------------------------------------


def test_polar_equilibrium_has_zero_energy():
    g = _grids()
    p = reference_potential()
    ws = wave_speed(2.0, 1.0)
    z = np.zeros(g.n)
    E, F, c2F, EmW = energy_density_polar(np.full(g.n, 0.3), z, z, z, z, z, p, ws)
    # constant psi, s = 0: every density term vanishes (W0(0) = 0)
    assert np.max(np.abs(E)) == 0.0
    assert np.max(np.abs(F)) == 0.0
    assert np.max(np.abs(c2F)) == 0.0
    assert np.max(np.abs(EmW)) == 0.0


def test_polar_pure_kinetic_density():
    g = _grids()
    p = zero_potential()
    ws = wave_speed(1.0, 1.0)
    s = np.full(g.n, 0.5)
    phi = np.sin(g.nodes)
    z = np.zeros(g.n)
    E, F, _, _ = energy_density_polar(np.zeros(g.n), s, phi, z, z, z, p, ws)
    assert np.allclose(E, 0.5 * s**2 * phi**2, atol=1e-15)
    assert np.max(np.abs(F)) == 0.0


def test_complex_constant_state_zero_energy_with_flat_minimum():
    from varwave import flat_point_potential
    g = _grids()
    p = flat_point_potential(0.5)
    zeta = np.full(g.n, 0.5 * np.exp(0.4j))
    zero = np.zeros(g.n, dtype=complex)
    E, F, _, _ = energy_density_complex(zeta, zero, zero, p, 1.0)
    assert np.max(np.abs(E)) < 1e-15
    assert np.max(np.abs(F)) == 0.0


def test_complex_right_moving_wave_flux_sign():
    # zeta = h(x - c t): zeta_t = -c h', zeta_x = h', so
    # E = c^2 |h'|^2 (zero potential) and F = -c |h'|^2
    g = _grids(n=2001)
    c = 2.0
    p = zero_potential()
    hp = 0.3 * np.exp(-g.nodes**2) * (-2.0 * g.nodes)  # h = 0.3 exp(-x^2)
    E, F, c2F, EmW = energy_density_complex(
        np.zeros(g.n, complex), -c * hp.astype(complex), hp.astype(complex), p, c)
    assert np.allclose(E, c**2 * hp**2, atol=1e-15)
    assert np.allclose(F, -c * hp**2, atol=1e-15)
    assert np.allclose(c2F, -(c**3) * hp**2, atol=1e-14)
    assert np.allclose(EmW, E, atol=1e-15)


def test_polar_complex_agreement():
    # zeta = s e^{i psi} identifies the two density formulas when c is constant
    g = _grids(n=513)
    p = reference_potential()
    c = 1.5
    ws = wave_speed(c * c, c * c)

    s = 0.4 + 0.05 * np.exp(-g.nodes**2)
    psi = 0.3 * np.exp(-((g.nodes - 1.0) ** 2))
    v = 0.02 * np.exp(-g.nodes**2)
    phi = 0.03 * np.sin(g.nodes) * np.exp(-g.nodes**2)

    zeta = s * np.exp(1j * psi)
    zeta_t = (v + 1j * s * phi) * np.exp(1j * psi)
    zeta_x = centered_derivative(g, zeta)
    E_c, F_c, _, _ = energy_density_complex(zeta, zeta_t, zeta_x, p, c)

    s_x = centered_derivative(g, s)
    psi_x = centered_derivative(g, psi)
    omega = c * psi_x
    r = c * s_x
    E_p, F_p, _, _ = energy_density_polar(psi, s, phi, v, omega, r, p, ws)

    # identical up to the O(dx^2) of the numerically differentiated zeta_x
    assert np.max(np.abs(E_c - E_p)) < 5e-5
    assert np.max(np.abs(F_c - F_p)) < 5e-5


def test_polar_complex_agreement_refines_second_order():
    p = reference_potential()
    c = 1.0
    ws = wave_speed(1.0, 1.0)
    errs = []
    for n in (257, 513):
        g = _grids(n=n)
        s = 0.4 + 0.05 * np.exp(-g.nodes**2)
        psi = 0.3 * np.exp(-g.nodes**2)
        zeta = s * np.exp(1j * psi)
        zeta_x = centered_derivative(g, zeta)
        zero = np.zeros(g.n)
        E_c, _, _, _ = energy_density_complex(zeta, zero.astype(complex), zeta_x, p, c)
        omega = c * centered_derivative(g, psi)
        r = c * centered_derivative(g, s)
        E_p, _, _, _ = energy_density_polar(psi, s, zero, zero, omega, r, p, ws)
        errs.append(np.max(np.abs(E_c - E_p)))
    assert errs[0] / errs[1] == pytest.approx(4.0, rel=0.25)


# --- conservation residuals --------------------------------------------------


def _free_wave_triples(g, c, dt, t0=0.0):
    """Snapshot triple of an exact right-moving zero-potential wave."""
    p = zero_potential()
    h = lambda x: 0.2 * np.exp(-x**2)
    hp = lambda x: 0.2 * np.exp(-x**2) * (-2.0 * x)
    triples = {"E": [], "c2F": [], "F": [], "EmW": []}
    for k in (-1, 0, 1):
        t = t0 + k * dt
        zeta = h(g.nodes - c * t).astype(complex)
        zeta_t = -c * hp(g.nodes - c * t).astype(complex)
        zeta_x = hp(g.nodes - c * t).astype(complex)
        E, F, c2F, EmW = energy_density_complex(zeta, zeta_t, zeta_x, p, c)
        triples["E"].append(E)
        triples["c2F"].append(c2F)
        triples["F"].append(F)
        triples["EmW"].append(EmW)
    return triples


def test_residuals_vanish_with_refinement_on_exact_wave():
    c = 1.0
    res = []
    for n, dt in ((257, 1e-2), (513, 5e-3)):
        g = _grids(n=n)
        tr = _free_wave_triples(g, c, dt)
        rE, rF = conservation_residuals(g, tr["E"], tr["c2F"], tr["F"], tr["EmW"], dt)
        res.append((rE, rF))
    # halving dx and dt should cut both L1 residuals by about 4
    assert res[0][0] / res[1][0] == pytest.approx(4.0, rel=0.3)
    assert res[0][1] / res[1][1] == pytest.approx(4.0, rel=0.3)


def test_residuals_detect_broken_law():
    # feed a flux of the wrong sign: residual must be O(1), not small
    g = _grids(n=513)
    dt = 1e-2
    tr = _free_wave_triples(g, 1.0, dt)
    rE_good, _ = conservation_residuals(g, tr["E"], tr["c2F"], tr["F"], tr["EmW"], dt)
    bad_c2F = [-arr for arr in tr["c2F"]]
    rE_bad, _ = conservation_residuals(g, tr["E"], bad_c2F, tr["F"], tr["EmW"], dt)
    assert rE_bad > 100.0 * rE_good


def _gradient_residuals(grid, triple_E, triple_c2F, triple_F, triple_EmW, dt):
    """The residuals as first computed: np.gradient over whole lines, then
    the one-sided end values zeroed."""
    dE_dt = (triple_E[2] - triple_E[0]) / (2.0 * dt)
    dF_dt = (triple_F[2] - triple_F[0]) / (2.0 * dt)
    res = np.abs([dE_dt - np.gradient(triple_c2F[1], grid.dx, edge_order=2),
                  dF_dt - np.gradient(triple_EmW[1], grid.dx, edge_order=2)])
    res[:, [0, -1]] = 0.0
    return tuple(float(r) for r in integrate(grid, res))


def _assert_residuals_match_gradient_formula(grid, lines, dt):
    E, c2F, F, EmW = (tuple(t) for t in lines)
    assert (conservation_residuals(grid, E, c2F, F, EmW, dt)
            == _gradient_residuals(grid, E, c2F, F, EmW, dt))


@pytest.mark.parametrize("n", [3, 4, 5])
def test_residuals_equal_the_gradient_formula_on_short_lines(n):
    # Grid1D wants 16 nodes; the residuals read only n and dx, so shorter
    # lines, down to a single interior node, go in on a stand-in grid
    rng = np.random.default_rng(n)
    for _ in range(50):
        _assert_residuals_match_gradient_formula(
            SimpleNamespace(n=n, dx=float(rng.uniform(1e-3, 1.0))),
            rng.normal(size=(4, 3, n)), float(rng.uniform(1e-3, 1.0)))


@settings(max_examples=300, deadline=None)
@given(n=st.integers(3, 40), dt=st.floats(1e-4, 1.0),
       dx=st.floats(1e-3, 1.0), data=st.data())
def test_residuals_equal_the_gradient_formula_bit_for_bit(n, dt, dx, data):
    lines = data.draw(hnp.arrays(float, (4, 3, n),
                                 elements=st.floats(-1e3, 1e3)))
    _assert_residuals_match_gradient_formula(SimpleNamespace(n=n, dx=dx),
                                             lines, dt)


# --- fit_order ---------------------------------------------------------------


def test_fit_order_exact_powers():
    hs = [0.1, 0.05, 0.025, 0.0125]
    quad = [(h, 3.0 * h**2) for h in hs]
    lin = [(h, 0.7 * h) for h in hs]
    assert fit_order(quad) == pytest.approx(2.0, abs=1e-10)
    assert fit_order(lin) == pytest.approx(1.0, abs=1e-10)


def test_fit_order_input_validation():
    with pytest.raises(ConfigError):
        fit_order([(0.1, 1.0), (0.05, 0.5)])
    with pytest.raises(ConfigError):
        fit_order([(0.1, 1.0), (0.05, -0.5), (0.025, 0.2)])
    with pytest.raises(ConfigError):
        fit_order([(0.1, 1.0), (0.1, 0.5), (0.025, 0.2)])


def test_fit_order_accepts_unsorted_pairs():
    pairs = [(0.025, 2.0 * 0.025**3), (0.1, 2.0 * 0.1**3), (0.05, 2.0 * 0.05**3)]
    assert fit_order(pairs) == pytest.approx(3.0, abs=1e-10)


# --- energy log --------------------------------------------------------------


def _reference_reports(grid, dt, levels):
    """The rolling-triple recorder each solver used to carry: levels are
    (time, (E, F, c2F, EmW), sup, violated) in time order."""
    reports, buf = [], []
    for t, dens, sup, violated in levels:
        E, F, c2F, EmW = dens
        reports.append(EnergyReport(
            time=t, total_E=float(integrate(grid, E)),
            total_F=float(integrate(grid, F)),
            residual_E=math.nan, residual_F=math.nan,
            sup_state=sup, apriori_violated=violated))
        buf.append((E, F, c2F, EmW))
        if len(buf) > 3:
            buf.pop(0)
        if len(buf) == 3:
            b = buf
            rE, rF = conservation_residuals(
                grid, (b[0][0], b[1][0], b[2][0]), (b[0][2], b[1][2], b[2][2]),
                (b[0][1], b[1][1], b[2][1]), (b[0][3], b[1][3], b[2][3]), dt)
            reports[-2].residual_E = rE
            reports[-2].residual_F = rF
    return reports


def _table(reports):
    return np.array([astuple(r) for r in reports], dtype=float)


def _assert_same_reports(got, want):
    assert len(got) == len(want)
    assert [type(r.apriori_violated) for r in got] == [bool] * len(got)
    assert np.array_equal(_table(got), _table(want), equal_nan=True)


@pytest.mark.parametrize("levels", [1, 2, 3, 7])
def test_energy_log_matches_rolling_triple_reference(levels):
    g = _grids(n=65)
    rng = np.random.default_rng(levels)
    rows = [(0.1 * k, tuple(rng.normal(size=(4, g.n))), float(rng.uniform()),
             bool(k % 3 == 2)) for k in range(levels)]
    log = EnergyLog(g, 0.1)
    for t, dens, sup, violated in rows:
        log.record(t, dens, sup, violated)
    _assert_same_reports(log.reports, _reference_reports(g, 0.1, rows))
    # residuals are centered in time: none at the ends, all in between
    res = _table(log.reports)[:, 3:5]
    assert np.all(np.isnan(res[[0, -1]]))
    assert np.all(np.isfinite(res[1:-1]))


def test_semilinear_reports_match_reference_recorder():
    g = Grid1D(-8.0, 8.0, 129)
    p = reference_potential()
    zeta = (0.2 * np.exp(-g.nodes ** 2)).astype(complex)
    f0 = ComplexField(g, zeta, np.zeros(g.n, complex))
    cfg = SemilinearConfig(c=1.0, dt=g.dx, T_window=0.5)
    E0 = float(integrate(g, energy_density_complex(
        f0.zeta, f0.zeta_t, centered_derivative(g, f0.zeta), p, 1.0)[0]))
    apriori = apriori_constants(p, E0)
    bound = apriori.cE + 1e-6
    levels = []
    out = picard_solve(f0, p, cfg, 1.0, apriori=apriori, observer=levels.append)
    rows = []
    for f in levels:
        zx = np.gradient(f.zeta, g.dx, edge_order=2)
        sup = float(np.max(np.abs(f.zeta)))
        rows.append((f.time, energy_density_complex(f.zeta, f.zeta_t, zx, p, 1.0),
                     sup, sup > bound))
    _assert_same_reports(out.energy_reports, _reference_reports(g, cfg.dt, rows))


def test_quasilinear_reports_match_reference_recorder():
    g = Grid1D(-8.0, 8.0, 129)
    p = flat_point_potential(0.5)
    ws = wave_speed(2.0, 1.0)
    psi = math.pi / 4.0 + 0.1 * np.exp(-g.nodes ** 2)
    z = np.zeros(g.n)
    st = PolarState.from_primitives(g, psi, np.full(g.n, 0.5), z, z, ws,
                                    far_field=(math.pi / 4.0, 0.5))
    cfg = QuasilinearConfig(dt=0.8 * g.dx / ws.c_max)
    levels = []
    out = advance(st, p, ws, cfg, 12 * cfg.dt, observer=levels.append)
    rows = [(s.time, energy_density_polar(*s.U, p, ws),
             float(np.max(np.abs(s.U[2:]))), False) for s in levels]
    _assert_same_reports(out.energy_reports, _reference_reports(g, cfg.dt, rows))


def _reference_energy_csv(path, reports):
    """The per-row energy writer the shared csv writer replaced."""
    with open(path, "w") as fh:
        fh.write("t,total_E,total_F,residual_E,residual_F,sup_state,"
                 "apriori_violated\n")
        for r in reports:
            fh.write(f"{r.time:.17g},{r.total_E:.17g},{r.total_F:.17g},"
                     f"{r.residual_E:.17g},{r.residual_F:.17g},"
                     f"{r.sup_state:.17g},{int(r.apriori_violated)}\n")


def test_energy_csv_bytes_match_per_row_writer(tmp_path):
    g = _grids(n=65)
    rng = np.random.default_rng(5)
    log = EnergyLog(g, 1e-3)
    for k, t in enumerate((0.0, 1e-3, 2e-3, 3e-3, 1.0 / 3.0)):
        log.record(t, tuple(rng.normal(size=(4, g.n)) * 10.0 ** (4 * k - 8)),
                   [0.0, -0.0, 1e-300, 12345.678, math.inf][k], k == 3)
    reports = log.reports
    assert math.isnan(reports[0].residual_E) and reports[3].apriori_violated
    write_energy_csv(tmp_path / "new.csv", reports)
    _reference_energy_csv(tmp_path / "old.csv", reports)
    assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "old.csv").read_bytes()
    lines = (tmp_path / "new.csv").read_text().splitlines()
    assert lines[1].split(",")[3:5] == ["nan", "nan"]
    assert [ln[-1] for ln in lines[1:]] == ["0", "0", "0", "1", "0"]
