"""Variable-speed first-order solver: sources, characteristics, fixed point."""

import math

import numpy as np
import pytest
from scipy.integrate import solve_ivp

from varwave import (ConfigError, DegeneracyError, DomainError, Grid1D,
                     PolarState, QuasilinearConfig, StateEscapeError, advance,
                     centered_derivative, ensure_valid, fit_order,
                     fixpoint_solve, flat_point_potential, interpolate,
                     read_polar_snapshot_csv, reference_potential,
                     rhs_sources, trace_characteristics, transport_step,
                     wave_speed, write_polar_snapshot_csv, zero_potential)
from varwave.quasilinear import full_rhs, resolve_budgets


# --- rhs_sources -------------------------------------------------------------


def test_sources_vanish_at_flat_equilibrium():
    p = flat_point_potential(0.5)
    ws = wave_speed(2.0, 1.0)
    n = 32
    z = np.zeros(n)
    out = rhs_sources(p, ws, np.full(n, 0.7), np.full(n, 0.5), z, z, z, z)
    for arr in out:
        assert np.max(np.abs(arr)) == 0.0
    full = full_rhs(p, ws, np.full(n, 0.7), np.full(n, 0.5), z, z, z, z)
    assert all(np.max(np.abs(a)) == 0.0 for a in full)


def test_sources_isotropic_case_drops_speed_coupling():
    # constant c: every c'-proportional source must vanish identically
    p = reference_potential()
    ws = wave_speed(3.0, 3.0)
    rng = np.random.default_rng(5)
    n = 64
    psi, phi, v, omega, r = rng.normal(size=(5, n)) * 0.1
    s = 0.4 + 0.05 * rng.random(n)
    s_phi, s_v, s_omega, s_r = rhs_sources(p, ws, psi, s, phi, v, omega, r)
    assert np.allclose(s_omega, 0.0, atol=1e-16)
    assert np.allclose(s_r, 0.0, atol=1e-16)
    assert np.allclose(s_phi, -(2.0 / s) * (phi * v - omega * r), rtol=1e-12)
    assert np.allclose(s_v, s * (phi**2 - omega**2) - p.eval_1(s), rtol=1e-12)


def test_sources_guard_degenerate_order_parameter():
    p = reference_potential()
    ws = wave_speed(1.0, 1.0)
    z = np.zeros(4)
    with pytest.raises(DegeneracyError):
        rhs_sources(p, ws, z, np.array([0.5, 0.5, 1e-13, 0.5]), z, z, z, z)


def _manufactured(g):
    """Smooth overlapping fields with analytic gradients for the constraints."""
    x = g.nodes
    psi = 0.8 + 0.3 * np.exp(-(x**2))
    s = 0.5 + 0.1 * np.exp(-((x - 0.3) ** 2))
    phi = 0.2 * np.exp(-((x + 0.3) ** 2))
    v = 0.1 * np.sin(x) * np.exp(-(x**2))
    psi_x = 0.3 * np.exp(-(x**2)) * (-2.0 * x)
    s_x = 0.1 * np.exp(-((x - 0.3) ** 2)) * (-2.0 * (x - 0.3))
    return psi, s, phi, v, psi_x, s_x


def _energy_law_residual(g, p, ws, corrupt_phi_source=False):
    """E_t - (c^2 F)_x assembled from the implemented sources.

    With omega = c psi_x and r = c s_x the law holds pointwise for the true
    sources, so the residual is pure discretization error; corrupting the
    angle source leaves an O(1) defect.
    """
    psi, s, phi, v, psi_x, s_x = _manufactured(g)
    c = ws.c(psi)
    omega = c * psi_x
    r = c * s_x
    s_phi, s_v, s_omega, s_r = rhs_sources(p, ws, psi, s, phi, v, omega, r)
    if corrupt_phi_source:
        s_phi = s_phi + 2.0 * (ws.c_prime(psi) / c) * r * r / (s * s)
    cd = lambda f: centered_derivative(g, f)
    phi_t = c * cd(omega) + s_phi
    omega_t = c * cd(phi) + s_omega
    v_t = c * cd(r) + s_v
    r_t = c * cd(v) + s_r
    E_t = (s * v * (phi**2 + omega**2) + s**2 * (phi * phi_t + omega * omega_t)
           + v * v_t + r * r_t + p.eval_1(s) * v)
    flux = c * (s**2 * phi * omega + v * r)
    res = E_t - cd(flux)
    return float(np.max(np.abs(res[2:-2])))


def test_energy_law_closes_with_implemented_angle_source():
    p = reference_potential()
    ws = wave_speed(2.0, 1.0)
    res = [_energy_law_residual(Grid1D(-8.0, 8.0, n), p, ws)
           for n in (257, 513, 1025)]
    # pure discretization error: second-order decay
    assert res[0] / res[1] == pytest.approx(4.0, rel=0.3)
    assert res[1] / res[2] == pytest.approx(4.0, rel=0.3)


def test_energy_law_detects_wrong_angle_source_sign():
    p = reference_potential()
    ws = wave_speed(2.0, 1.0)
    bads, goods = [], []
    for n in (513, 1025):
        g = Grid1D(-8.0, 8.0, n)
        goods.append(_energy_law_residual(g, p, ws))
        bads.append(_energy_law_residual(g, p, ws, corrupt_phi_source=True))
    # the defect is an O(1) term: it survives the refinement that kills
    # the discretization residual
    assert bads[1] > 0.9 * bads[0]
    assert bads[1] > 50.0 * goods[1]


# --- trace_characteristics ---------------------------------------------------


def test_trace_constant_angle_is_exact():
    g = Grid1D(-8.0, 8.0, 257)
    ws = wave_speed(2.0, 1.0)
    psi_hat = np.full(g.n, math.pi / 4.0)
    c = ws.c(math.pi / 4.0)
    t, tau, dt = 0.5, 0.1, 0.05
    for branch in (1, -1):
        foot = trace_characteristics(g, psi_hat, ws, 1.0, t, tau, dt, branch)
        assert foot == pytest.approx(1.0 + branch * c * (t - tau), abs=1e-13)


def test_trace_matches_ode_solution_second_order():
    g = Grid1D(-8.0, 8.0, 513)
    ws = wave_speed(2.0, 1.0)
    psi_fn = lambda x: 0.4 * np.exp(-np.asarray(x) ** 2)
    psi_hat = psi_fn(g.nodes)
    t, x0 = 0.5, 1.0

    sol = solve_ivp(lambda sigma, y: ws.c(psi_fn(y)), (0.0, t), [x0],
                    rtol=1e-12, atol=1e-12)
    exact = float(sol.y[0, -1])
    errs = []
    for dt in (0.05, 0.025):
        foot = trace_characteristics(g, psi_hat, ws, x0, t, 0.0, dt, branch=1)
        errs.append(abs(foot - exact))
    assert errs[0] / errs[1] == pytest.approx(4.0, rel=0.4)


def test_trace_speed_bounds():
    g = Grid1D(-8.0, 8.0, 257)
    ws = wave_speed(2.0, 1.0)
    psi_hat = 0.5 * np.sin(g.nodes)
    t, dt = 0.4, 0.02
    c_max = math.sqrt(2.0)
    x0 = 0.7
    feet = {tau: trace_characteristics(g, psi_hat, ws, x0, t, tau, dt)
            for tau in (0.3, 0.2, 0.0)}
    assert abs(feet[0.2] - feet[0.3]) <= c_max * 0.1 + 1e-12
    plus = trace_characteristics(g, psi_hat, ws, x0, t, 0.0, dt, branch=1)
    minus = trace_characteristics(g, psi_hat, ws, x0, t, 0.0, dt, branch=-1)
    assert abs(plus - minus) <= 2.0 * c_max * t + 1e-12
    assert plus > x0 > minus  # backward '+' trace moves right


def test_trace_accepts_time_histories():
    g = Grid1D(-8.0, 8.0, 257)
    ws = wave_speed(2.0, 1.0)
    psi_hat = 0.3 * np.exp(-g.nodes ** 2)
    t, dt = 0.2, 0.02
    hist = np.tile(psi_hat, (11, 1))  # steady history == frozen field
    a = trace_characteristics(g, psi_hat, ws, 0.5, t, 0.0, dt)
    b = trace_characteristics(g, hist, ws, 0.5, t, 0.0, dt)
    assert a == pytest.approx(b, abs=1e-13)


def test_trace_input_validation():
    g = Grid1D(-8.0, 8.0, 257)
    ws = wave_speed(2.0, 1.0)
    psi_hat = np.zeros(g.n)
    with pytest.raises(ConfigError):
        trace_characteristics(g, psi_hat, ws, 0.0, 0.5, 0.1, 0.05, branch=2)
    with pytest.raises(ConfigError):
        trace_characteristics(g, psi_hat, ws, 0.0, 0.1, 0.5, 0.05)
    with pytest.raises(ConfigError, match="whole number"):
        trace_characteristics(g, psi_hat, ws, 0.0, 0.5, 0.0, 0.3)
    with pytest.raises(ConfigError, match="history"):
        trace_characteristics(g, np.tile(psi_hat, (3, 1)), ws, 0.0, 0.5, 0.0,
                              0.05)
    # a trace that leaves the grid has no angle to read
    with pytest.raises(DomainError):
        trace_characteristics(g, psi_hat, ws, 7.9, 0.5, 0.0, 0.05, branch=1)


# --- transport_step ----------------------------------------------------------


def _equilibrium_state(g, psi0=math.pi / 4.0, s0=0.5):
    z = np.zeros(g.n)
    return PolarState(g, np.full(g.n, psi0), np.full(g.n, s0), z.copy(),
                      z.copy(), z.copy(), z.copy())


def test_transport_pure_left_moving_packet():
    # phi = omega, v = r = 0, constant s at the flat point: the packet rides
    # the left-moving family with zero sources for one step
    g = Grid1D(-8.0, 8.0, 257)
    p = flat_point_potential(0.5)
    ws = wave_speed(4.0, 4.0)  # c = 2 everywhere
    packet = 0.1 * np.exp(-g.nodes ** 2)
    z = np.zeros(g.n)
    st = PolarState(g, np.full(g.n, 0.3), np.full(g.n, 0.5), packet.copy(),
                    z.copy(), packet.copy(), z.copy(),
                    far_field=(0.3, 0.5))
    dt = 0.4 * g.dx / 2.0
    out = transport_step(st, p, ws, dt)
    shifted = 0.1 * np.exp(-((g.nodes + 2.0 * dt) ** 2))
    assert np.max(np.abs(out.phi - shifted)) < 1e-6
    assert np.max(np.abs(out.omega - shifted)) < 1e-6
    assert np.max(np.abs(out.v)) < 1e-15
    assert np.max(np.abs(out.r)) < 1e-15
    assert np.max(np.abs(out.s - 0.5)) == 0.0


def test_transport_constant_forcing_single_step_exact():
    g = Grid1D(-8.0, 8.0, 257)
    p = flat_point_potential(0.5)
    ws = wave_speed(2.0, 1.0)
    st = _equilibrium_state(g)
    dt = 0.01
    f = 0.37

    def forcing(x, t):
        arr = np.full(np.shape(x), f)
        zero = np.zeros(np.shape(x))
        return arr, zero, zero, zero

    out = transport_step(st, p, ws, dt, forcing=forcing)
    assert np.max(np.abs(out.phi - f * dt)) < 1e-15
    assert np.max(np.abs(out.omega)) < 1e-15
    assert np.max(np.abs(out.psi - math.pi / 4.0)) == 0.0


def test_transport_degeneracy_and_escape_guards():
    g = Grid1D(-8.0, 8.0, 257)
    p = flat_point_potential(0.5)
    ws = wave_speed(1.0, 1.0)
    dt = 0.01
    st = _equilibrium_state(g)
    st.v = -(st.s - 1e-13) / dt  # drives s onto the floor in one step
    with pytest.raises(DegeneracyError):
        transport_step(st, p, ws, dt)
    st = _equilibrium_state(g)
    st.v = (1.0 - st.s) / dt  # drives s to 1 in one step
    with pytest.raises(StateEscapeError):
        transport_step(st, p, ws, dt)


def _reference_transport_step(state, p, ws, dt, frozen_mid=None,
                              frozen_end=None, forcing=None):
    """The per-field step: one interpolate call per field and query set."""
    g = state.grid
    mid = frozen_mid if frozen_mid is not None else state
    end = frozen_end if frozen_end is not None else state
    far = state.far
    x = g.nodes
    t_half = state.time + 0.5 * dt
    each = lambda fields, q: tuple(interpolate(g, f, q, fill=fv)
                                   for f, fv in zip(fields, far))

    c_end = ws.c(end.psi)
    half_m = x - 0.5 * dt * c_end
    half_p = x + 0.5 * dt * c_end
    c_mid_m = ws.c(interpolate(g, mid.psi, half_m, fill=far[0]))
    c_mid_p = ws.c(interpolate(g, mid.psi, half_p, fill=far[0]))
    foot_m = x - dt * c_mid_m
    foot_p = x + dt * c_mid_p

    dep = (state.psi, state.s, state.phi, state.v, state.omega, state.r)
    psi_m, s_m, phi_m, v_m, om_m, r_m = each(dep, foot_m)
    psi_p, s_p, phi_p, v_p, om_p, r_p = each(dep, foot_p)
    mid_fields = (mid.psi, mid.s, mid.phi, mid.v, mid.omega, mid.r)
    sphi_m, sv_m, som_m, sr_m = rhs_sources(p, ws, *each(mid_fields, half_m))
    sphi_p, sv_p, som_p, sr_p = rhs_sources(p, ws, *each(mid_fields, half_p))
    if forcing is not None:
        fphi_m, fv_m, fom_m, fr_m = forcing(half_m, t_half)
        fphi_p, fv_p, fom_p, fr_p = forcing(half_p, t_half)
        sphi_m, sv_m, som_m, sr_m = (sphi_m + fphi_m, sv_m + fv_m,
                                     som_m + fom_m, sr_m + fr_m)
        sphi_p, sv_p, som_p, sr_p = (sphi_p + fphi_p, sv_p + fv_p,
                                     som_p + fom_p, sr_p + fr_p)

    R1 = (phi_p + om_p) + dt * (sphi_p + som_p)
    R2 = (phi_m - om_m) + dt * (sphi_m - som_m)
    R3 = (v_p + r_p) + dt * (sv_p + sr_p)
    R4 = (v_m - r_m) + dt * (sv_m - sr_m)
    phi_half = 0.5 * (state.phi + end.phi) if frozen_end is not None else state.phi
    v_half = 0.5 * (state.v + end.v) if frozen_end is not None else state.v
    return (state.psi + dt * phi_half, state.s + dt * v_half,
            0.5 * (R1 + R2), 0.5 * (R3 + R4), 0.5 * (R1 - R2), 0.5 * (R3 - R4))


def _wavy_forcing(x, t):
    return (0.2 * np.sin(x + t), 0.1 * np.cos(x), 0.05 * np.sin(2.0 * x),
            -0.03 * np.cos(x - t))


@pytest.mark.parametrize("case", ["plain", "frozen", "far_field", "forcing"])
def test_transport_step_matches_per_field_reference(case):
    g = Grid1D(-8.0, 8.0, 257)
    p = reference_potential() if case == "plain" else flat_point_potential(0.5)
    ws = wave_speed(2.0, 1.0)
    dt = 0.8 * g.dx / ws.c_max
    st = _bump_state(g, ws, psi0=0.6, s0=0.5)
    st.phi = 0.05 * np.sin(g.nodes)
    st.v = 0.02 * np.cos(g.nodes)
    st.time = 0.3
    kw = {}
    if case == "frozen":
        kw = dict(frozen_mid=_bump_state(g, ws, a_psi=0.12, a_s=0.04),
                  frozen_end=_bump_state(g, ws, a_psi=0.08, a_s=0.06))
    elif case == "far_field":
        # data up to the edges and a far field apart from the edge values:
        # feet of the boundary nodes leave the grid and read the far field
        bump = 0.1 * np.exp(-(g.nodes - 7.5) ** 2)
        st = PolarState.from_primitives(g, 0.6 + bump, 0.5 + 0.5 * bump,
                                        bump, -bump, ws, time=0.3,
                                        far_field=(0.65, 0.52))
        assert np.any(g.nodes + dt * ws.c(st.psi) > g.x_max)
    elif case == "forcing":
        kw = dict(forcing=_wavy_forcing)
    out = transport_step(st, p, ws, dt, **kw)
    ref = _reference_transport_step(st, p, ws, dt, **kw)
    for name, want in zip(("psi", "s", "phi", "v", "omega", "r"), ref):
        assert np.array_equal(getattr(out, name), want), name
    assert out.time == st.time + dt and out.far_field == st.far_field


# --- fixpoint_solve / advance ------------------------------------------------


def _bump_state(g, ws, psi0=math.pi / 4.0, s0=0.5, a_psi=0.1, a_s=0.05):
    psi = psi0 + a_psi * np.exp(-g.nodes ** 2)
    s = s0 + a_s * np.exp(-g.nodes ** 2)
    z = np.zeros(g.n)
    return PolarState.from_primitives(g, psi, s, z, z, ws,
                                      far_field=(psi0, s0))


def test_fixpoint_equilibrium_converges_immediately():
    g = Grid1D(-8.0, 8.0, 257)
    p = flat_point_potential(0.5)
    ws = wave_speed(2.0, 1.0)
    st = _equilibrium_state(g)
    cfg = QuasilinearConfig.cfl(g, ws, 0.8, T_local=0.2)
    traj, covered, trace = fixpoint_solve(st, p, ws, cfg)
    assert trace.converged and len(trace.diff_norms) == 1
    assert covered == pytest.approx(trace.steps * cfg.dt)
    assert np.max(np.abs(traj[-1].psi - math.pi / 4.0)) < 1e-14
    assert np.max(np.abs(traj[-1].s - 0.5)) < 1e-14


def test_fixpoint_iterates_decay_geometrically():
    g = Grid1D(-8.0, 8.0, 257)
    p = flat_point_potential(0.5)
    ws = wave_speed(2.0, 1.0)
    st = _bump_state(g, ws)
    cfg = QuasilinearConfig.cfl(g, ws, 0.8, T_local=0.1, fixpoint_tol=1e-12)
    traj, covered, trace = fixpoint_solve(st, p, ws, cfg)
    assert trace.converged
    d = trace.diff_norms
    assert len(d) >= 3
    for a, b in zip(d[1:-1], d[2:]):
        if a > 1e-11:
            assert b / a <= 0.9


def test_fixpoint_rejects_data_over_budget():
    g = Grid1D(-8.0, 8.0, 257)
    p = flat_point_potential(0.5)
    ws = wave_speed(2.0, 1.0)
    st = _bump_state(g, ws)
    cfg = QuasilinearConfig.cfl(g, ws, 0.8, T_local=0.1, E_budget=1e-9)
    with pytest.raises(ConfigError, match="budget"):
        fixpoint_solve(st, p, ws, cfg)


def test_resolve_budgets_defaults_double_initial_values():
    g = Grid1D(-8.0, 8.0, 257)
    p = flat_point_potential(0.5)
    ws = wave_speed(2.0, 1.0)
    st = _bump_state(g, ws)
    cfg = QuasilinearConfig.cfl(g, ws, 0.8, T_local=0.1)
    from varwave.quasilinear import _total_energy
    E_prime, L_prime = resolve_budgets(st, p, ws, cfg)
    assert E_prime == pytest.approx(2.0 * _total_energy(st, p, ws), rel=1e-6)
    assert L_prime == pytest.approx(
        2.0 * max(st.w1_inf(), float(np.max(1.0 / st.s))), rel=1e-12)


def test_advance_preserves_equilibrium_and_reaches_t_final():
    g = Grid1D(-8.0, 8.0, 257)
    p = flat_point_potential(0.5)
    ws = wave_speed(2.0, 1.0)
    st = _bump_state(g, ws, a_psi=0.05, a_s=0.02)
    cfg = QuasilinearConfig.cfl(g, ws, 0.8, T_local=0.25)
    t_final = 16 * cfg.dt
    levels = []
    res = advance(st, p, ws, cfg, t_final, observer=levels.append)
    assert res.achieved_T == pytest.approx(t_final)
    assert res.state.time == pytest.approx(t_final)
    assert len(levels) == 17
    assert len(res.energy_reports) == len(res.w2_sup) == 17
    assert all(tr.converged for tr in res.traces)
    E = np.array([r.total_E for r in res.energy_reports])
    assert np.max(np.abs(E - E[0])) < 1e-3 * max(E[0], 1.0)


def test_advance_conservation_residuals_refine():
    p = flat_point_potential(0.5)
    ws = wave_speed(2.0, 1.0)
    pairs = []
    for n in (129, 257, 513):
        g = Grid1D(-8.0, 8.0, n)
        st = _bump_state(g, ws)
        cfg = QuasilinearConfig.cfl(g, ws, 0.8, T_local=0.5)
        steps = max(4, int(round(0.2 / cfg.dt)))
        res = advance(st, p, ws, cfg, steps * cfg.dt)
        rE = [rep.residual_E for rep in res.energy_reports
              if not math.isnan(rep.residual_E)]
        pairs.append((g.dx, max(rE)))
    assert pairs[0][1] > pairs[1][1] > pairs[2][1]
    assert fit_order(pairs) >= 0.8


def test_advance_entry_validation():
    g = Grid1D(-8.0, 8.0, 257)
    p = flat_point_potential(0.5)
    ws = wave_speed(2.0, 1.0)
    st = _bump_state(g, ws)
    with pytest.raises(ConfigError, match="dx"):
        advance(st, p, ws, QuasilinearConfig(dt=g.dx, T_local=0.2), 0.2)
    cfg = QuasilinearConfig.cfl(g, ws, 0.8, T_local=0.2)
    with pytest.raises(ConfigError, match="whole number"):
        advance(st, p, ws, cfg, 10.37 * cfg.dt)
    # reference potential has no interior equilibrium: s = 0.5 cannot be a
    # legitimate far field for it
    st_ref = _bump_state(g, ws)
    with pytest.raises(ConfigError, match="far-field"):
        advance(st_ref, reference_potential(), ws, cfg, 16 * cfg.dt)


# --- polar snapshots ---------------------------------------------------------


def test_polar_snapshot_round_trip(tmp_path):
    g = Grid1D(-4.0, 4.0, 65)
    ws = wave_speed(2.0, 1.0)
    st = _bump_state(g, ws)
    path = tmp_path / "polar.csv"
    write_polar_snapshot_csv(path, st)
    st2 = read_polar_snapshot_csv(path)
    assert np.array_equal(st2.U, st.U)
    # the per-node row format: x and the six fields, each as %.17g
    lines = path.read_text().splitlines()
    assert lines[0] == "x,psi,s,phi,v,omega,r"
    assert lines[1:] == [
        f"{g.nodes[i]:.17g},{st.psi[i]:.17g},{st.s[i]:.17g},{st.phi[i]:.17g},"
        f"{st.v[i]:.17g},{st.omega[i]:.17g},{st.r[i]:.17g}" for i in range(g.n)]


def _reference_polar_snapshot_csv(path, st):
    """The per-row polar snapshot writer the shared csv writer replaced."""
    with open(path, "w") as fh:
        fh.write("x,psi,s,phi,v,omega,r\n")
        for xi, row in zip(st.grid.nodes, st.U.T):
            fh.write(",".join(f"{val:.17g}" for val in (xi, *row)) + "\n")


def test_polar_snapshot_bytes_match_per_row_writer(tmp_path):
    g = Grid1D(-1.0 / 3.0, 7.0, 33)
    st = _bump_state(g, wave_speed(2.0, 1.0))
    rng = np.random.default_rng(4)
    st.U[2:] = rng.normal(size=(4, g.n)) * 10.0 ** rng.integers(-320, 300, (4, g.n))
    st.v[::4] = -0.0
    write_polar_snapshot_csv(tmp_path / "new.csv", st)
    _reference_polar_snapshot_csv(tmp_path / "old.csv", st)
    assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "old.csv").read_bytes()


def test_polar_state_fields_are_views_of_one_stack():
    g = Grid1D(-4.0, 4.0, 65)
    st = _bump_state(g, wave_speed(2.0, 1.0))
    assert st.U.shape == (6, g.n)
    for i, name in enumerate(("psi", "s", "phi", "v", "omega", "r")):
        assert np.shares_memory(getattr(st, name), st.U)
        assert np.array_equal(getattr(st, name), st.U[i])
    st.psi = np.linspace(0.0, 1.0, g.n)
    assert np.array_equal(st.U[0], np.linspace(0.0, 1.0, g.n))
    st.v = 0.25
    assert np.all(st.U[3] == 0.25)
    st.omega[3] = 9.0
    assert st.U[4, 3] == 9.0
    with pytest.raises(ConfigError, match="omega must have shape"):
        PolarState(g, *st.U[:4], np.zeros(3), st.r)


def test_polar_state_copy_is_independent():
    g = Grid1D(-4.0, 4.0, 65)
    st = _bump_state(g, wave_speed(2.0, 1.0))
    st.time = 0.7
    dup = st.copy()
    assert np.array_equal(dup.U, st.U) and not np.shares_memory(dup.U, st.U)
    assert (dup.time, dup.far_field) == (st.time, st.far_field)
    before = st.U.copy()
    dup.psi = 0.0
    dup.r[5] = 3.0
    dup.time = 1.0
    assert np.array_equal(st.U, before) and st.time == 0.7


def test_polar_snapshot_rejects_wrong_width(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("x,psi\n0.0,1.0\n0.5,1.0\n")
    with pytest.raises(ConfigError):
        read_polar_snapshot_csv(path)
