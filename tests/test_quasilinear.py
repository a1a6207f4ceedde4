"""Variable-speed first-order solver: sources, characteristics, fixed point."""

import math
from dataclasses import astuple

import numpy as np
import pytest

from varwave import (AprioriViolationError, ConfigError, DegeneracyError,
                     Grid1D, NonContractionError, PolarState,
                     QuasilinearConfig, StateEscapeError, advance,
                     centered_derivative, energy_density_polar, ensure_valid,
                     fit_order, flat_point_potential, integrate,
                     interpolate, read_polar_snapshot_csv,
                     reference_potential, rhs_sources, transport_step,
                     wave_speed, write_polar_snapshot_csv, zero_potential)
from varwave.diagnostics import EnergyLog
from varwave.fields import stencil
from varwave.quasilinear import resolve_budgets


# --- rhs_sources -------------------------------------------------------------


def _sources(p, ws, psi, s, phi, v, omega, r):
    """rhs_sources at the angle psi, its c'/c from WaveSpeed."""
    return rhs_sources(p, ws.speed_and_ratio(psi)[1], s, phi, v, omega, r)


def test_sources_vanish_at_flat_equilibrium():
    p = flat_point_potential(0.5)
    ws = wave_speed(2.0, 1.0)
    n = 32
    z = np.zeros(n)
    out = _sources(p, ws, np.full(n, 0.7), np.full(n, 0.5), z, z, z, z)
    for arr in out:
        assert np.max(np.abs(arr)) == 0.0


def test_sources_isotropic_case_drops_speed_coupling():
    # constant c: every c'-proportional source must vanish identically
    p = reference_potential()
    ws = wave_speed(3.0, 3.0)
    rng = np.random.default_rng(5)
    n = 64
    psi, phi, v, omega, r = rng.normal(size=(5, n)) * 0.1
    s = 0.4 + 0.05 * rng.random(n)
    s_phi, s_v, s_omega, s_r = _sources(p, ws, psi, s, phi, v, omega, r)
    assert np.allclose(s_omega, 0.0, atol=1e-16)
    assert np.allclose(s_r, 0.0, atol=1e-16)
    assert np.allclose(s_phi, -(2.0 / s) * (phi * v - omega * r), rtol=1e-12)
    assert np.allclose(s_v, s * (phi**2 - omega**2) - p.eval_1(s), rtol=1e-12)


def test_sources_guard_degenerate_order_parameter():
    p = reference_potential()
    ws = wave_speed(1.0, 1.0)
    z = np.zeros(4)
    with pytest.raises(DegeneracyError):
        _sources(p, ws, z, np.array([0.5, 0.5, 1e-13, 0.5]), z, z, z, z)


def _reference_rhs_sources(p, ws, psi, s, phi, v, omega, r):
    """The sources with c'/c taken as ws.c_prime(psi) / ws.c(psi)."""
    cp_over_c = ws.c_prime(psi) / ws.c(psi)
    return (-(2.0 / s) * (phi * v - omega * r) - cp_over_c * r * r / (s * s),
            s * (phi * phi - omega * omega) + cp_over_c * omega * r
            - p.eval_1(s),
            cp_over_c * phi * omega,
            cp_over_c * phi * r)


@pytest.mark.parametrize("K1, K3", [(2.0, 1.0), (1.0, 4.0), (3.0, 3.0)])
def test_sources_match_speed_derivative_form(K1, K3):
    p = flat_point_potential(0.5)
    ws = wave_speed(K1, K3)
    psi = np.linspace(0.0, 2.0 * math.pi, 4001)
    one = np.ones_like(psi)
    # with phi = omega = r = 1 the omega and r sources are c'/c itself
    got = _sources(p, ws, psi, 0.5 * one, one, 0.0 * one, one, one)
    want = _reference_rhs_sources(p, ws, psi, 0.5 * one, one, 0.0 * one, one,
                                  one)
    for a, b in zip(got[2:], want[2:]):
        assert np.all(np.abs(a - b) <= 1e-14 * np.abs(b))
    # general fields: every source within 1e-14 of its largest magnitude
    rng = np.random.default_rng(11)
    phi, v, omega, r = rng.normal(size=(4, psi.size)) * 0.3
    s = 0.3 + 0.4 * rng.random(psi.size)
    got = _sources(p, ws, psi, s, phi, v, omega, r)
    want = _reference_rhs_sources(p, ws, psi, s, phi, v, omega, r)
    for a, b in zip(got, want):
        assert np.max(np.abs(a - b)) <= 1e-14 * np.max(np.abs(b))


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
    s_phi, s_v, s_omega, s_r = _sources(p, ws, psi, s, phi, v, omega, r)
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
                              frozen_end=None):
    """The per-field step: one interpolate call per field and query set."""
    g = state.grid
    mid = frozen_mid if frozen_mid is not None else state
    end = frozen_end if frozen_end is not None else state
    far = state.far
    x = g.nodes
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
    sphi_m, sv_m, som_m, sr_m = _sources(p, ws, *each(mid_fields, half_m))
    sphi_p, sv_p, som_p, sr_p = _sources(p, ws, *each(mid_fields, half_p))

    R1 = (phi_p + om_p) + dt * (sphi_p + som_p)
    R2 = (phi_m - om_m) + dt * (sphi_m - som_m)
    R3 = (v_p + r_p) + dt * (sv_p + sr_p)
    R4 = (v_m - r_m) + dt * (sv_m - sr_m)
    phi_half = 0.5 * (state.phi + end.phi) if frozen_end is not None else state.phi
    v_half = 0.5 * (state.v + end.v) if frozen_end is not None else state.v
    return (state.psi + dt * phi_half, state.s + dt * v_half,
            0.5 * (R1 + R2), 0.5 * (R3 + R4), 0.5 * (R1 - R2), 0.5 * (R3 - R4))


def _edge_bump_state(g, ws, a_right, a_left, far_field):
    """Data up to both edges, with a far field apart from both edge values."""
    bump = (a_right * np.exp(-(g.nodes - 7.5) ** 2)
            + a_left * np.exp(-(g.nodes + 7.5) ** 2))
    return PolarState.from_primitives(g, 0.6 + bump, 0.5 + 0.5 * bump,
                                      bump, -bump, ws, time=0.3,
                                      far_field=far_field)


@pytest.mark.parametrize("case", ["plain", "frozen", "far_field",
                                  "frozen_both_edges", "non_dyadic_speed"])
def test_transport_step_matches_per_field_reference(case):
    g = Grid1D(-8.0, 8.0, 257)
    p = reference_potential() if case == "plain" else flat_point_potential(0.5)
    # elastic constants that are not powers of two: c^2 and c'/c are no
    # longer exact rescalings of sin^2 and cos^2
    ws = (wave_speed(1.7, 0.9) if case == "non_dyadic_speed"
          else wave_speed(2.0, 1.0))
    dt = 0.8 * g.dx / ws.c_max
    st = _bump_state(g, ws, psi0=0.6, s0=0.5)
    st.phi = 0.05 * np.sin(g.nodes)
    st.v = 0.02 * np.cos(g.nodes)
    st.time = 0.3
    kw = {}
    if case in ("frozen", "non_dyadic_speed"):
        kw = dict(frozen_mid=_bump_state(g, ws, a_psi=0.12, a_s=0.04),
                  frozen_end=_bump_state(g, ws, a_psi=0.08, a_s=0.06))
    elif case == "far_field":
        # data up to the edges and a far field apart from the edge values:
        # feet of the boundary nodes leave the grid and read the far field
        st = _edge_bump_state(g, ws, 0.1, 0.0, far_field=(0.65, 0.52))
        assert np.any(g.nodes + dt * ws.c(st.psi) > g.x_max)
    elif case == "frozen_both_edges":
        # frozen states as well as the departure state carry data at both
        # edges; the +c family's feet leave on the left and the -c family's
        # on the right in the same step, so both halves of the stacked
        # query read the far field, which is the departure state's and not
        # the one the frozen states carry
        st = _edge_bump_state(g, ws, 0.1, -0.08, far_field=(0.65, 0.52))
        kw = dict(frozen_mid=_edge_bump_state(g, ws, 0.12, -0.1, (0.6, 0.5)),
                  frozen_end=_edge_bump_state(g, ws, 0.09, -0.06, (0.6, 0.5)))
        c = ws.c(st.psi)
        assert np.any(g.nodes - dt * c < g.x_min - 0.5 * g.dx)
        assert np.any(g.nodes + dt * c > g.x_max + 0.5 * g.dx)
        for edge in (0, -1):
            assert abs(st.psi[edge] - 0.65) > 0.01
            assert abs(st.s[edge] - 0.52) > 0.01
    out = transport_step(st, p, ws, dt, **kw)
    ref = _reference_transport_step(st, p, ws, dt, **kw)
    for name, want in zip(("psi", "s", "phi", "v", "omega", "r"), ref):
        assert np.array_equal(getattr(out, name), want), name
    assert out.time == st.time + dt and out.far_field == st.far_field


# --- fixed point / advance --------------------------------------------------


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
    cfg = QuasilinearConfig(dt=0.8 * g.dx / ws.c_max)
    res = advance(st, p, ws, cfg, 7 * cfg.dt)
    # one trace per step, each converged on its first pass
    assert [len(t.diff_norms) for t in res.traces] == [1] * 7
    assert [t.time for t in res.traces] == [r.time for r in
                                            res.energy_reports[:-1]]
    assert res.achieved_T == pytest.approx(7 * cfg.dt)
    assert np.max(np.abs(res.state.psi - math.pi / 4.0)) < 1e-14
    assert np.max(np.abs(res.state.s - 0.5)) < 1e-14


def test_fixpoint_iterates_decay_geometrically():
    g = Grid1D(-8.0, 8.0, 257)
    p = flat_point_potential(0.5)
    ws = wave_speed(2.0, 1.0)
    st = _bump_state(g, ws)
    cfg = QuasilinearConfig(dt=0.8 * g.dx / ws.c_max, fixpoint_tol=1e-12)
    res = advance(st, p, ws, cfg, 7 * cfg.dt)
    assert len(res.traces) == 7
    assert max(len(t.diff_norms) for t in res.traces) >= 3
    # within each step the iteration contracts
    for t in res.traces:
        d = t.diff_norms
        assert all(isinstance(x, float) for x in d)
        for a, b in zip(d[:-1], d[1:]):
            if a > 1e-11:
                assert b / a <= 0.9


def _reference_window_sweep(U0, p, ws, cfg, steps):
    """The whole-window sweep the per-step fixed point replaced: each sweep
    reruns the window with coefficients frozen on the previous sweep's
    trajectory, from a constant guess, until the sup over levels of the
    W^{1,inf} change falls below cfg.fixpoint_tol."""
    import varwave.quasilinear as ql
    guess = [U0] + [PolarState(U0.grid, *U0.U, time=U0.time + j * cfg.dt,
                               far_field=U0.far_field)
                    for j in range(1, steps + 1)]
    diffs = []
    for _ in range(ql._FIXPOINT_MAX):
        traj = [U0]
        cur = U0
        for j in range(steps):
            mid = ql._average_state(guess[j], guess[j + 1])
            cur = ql.transport_step(cur, p, ws, cfg.dt, frozen_mid=mid,
                                    frozen_end=guess[j + 1])
            traj.append(cur)
        d = ql._w1_sup(U0.grid, np.array([a.U - b.U for a, b
                                          in zip(traj[1:], guess[1:])]))
        diffs.append(d)
        guess = traj
        if d < cfg.fixpoint_tol:
            return guess, diffs, True
    return guess, diffs, False


@pytest.mark.parametrize("n", [129, 257])
def test_per_step_fixed_point_matches_window_sweep(monkeypatch, n):
    # both solve the same fixed point; only the stopping rule differs
    import varwave.quasilinear as ql
    g = Grid1D(-8.0, 8.0, n)
    p = flat_point_potential(0.5)
    ws = wave_speed(2.0, 1.0)
    st = _bump_state(g, ws)
    cfg = QuasilinearConfig(dt=0.8 * g.dx / ws.c_max, fixpoint_tol=1e-10)
    calls = {"step": 0}
    step = ql.transport_step

    def counting(*args, **kw):
        calls["step"] += 1
        return step(*args, **kw)

    monkeypatch.setattr(ql, "transport_step", counting)
    new = advance(st, p, ws, cfg, 32 * cfg.dt)
    per_step_calls, calls["step"] = calls["step"], 0
    # the reference over 7-step windows, each swept whole
    old, left = st, 32
    while left:
        traj, _, converged = _reference_window_sweep(old, p, ws, cfg,
                                                     min(7, left))
        assert converged
        old, left = traj[-1], left - (len(traj) - 1)
    assert len(new.traces) == 32
    assert per_step_calls == sum(len(t.diff_norms) for t in new.traces)
    assert ql._w1_sup(g, new.state.U - old.U) < 100.0 * cfg.fixpoint_tol
    assert per_step_calls < calls["step"]


def _failing_run(monkeypatch):
    """A steep bump on a fine grid, with transport_step counted."""
    import varwave.quasilinear as ql
    g = Grid1D(-8.0, 8.0, 513)
    bump = np.exp(-(g.nodes / 0.5) ** 2)
    ws = wave_speed(2.0, 1.0)
    z = np.zeros(g.n)
    st = PolarState.from_primitives(g, math.pi / 4.0 + 0.5 * bump,
                                    0.5 + 0.1 * bump, z, z, ws,
                                    far_field=(math.pi / 4.0, 0.5))
    cfg = QuasilinearConfig(dt=0.8 * g.dx / ws.c_max, fixpoint_tol=1e-12)
    calls = {"step": 0}
    step = ql.transport_step

    def counting(*args, **kw):
        calls["step"] += 1
        return step(*args, **kw)

    monkeypatch.setattr(ql, "transport_step", counting)
    return st, flat_point_potential(0.5), ws, cfg, calls


def _assert_levels_of_a_plain_run(levels, st, p, ws, cfg):
    # each step depends only on the level before it: the levels observed
    # before the failure are those of an undisturbed run
    want = []
    res = advance(st, p, ws, cfg, (len(levels) - 1) * cfg.dt,
                  observer=want.append)
    assert [lv.time for lv in levels] == [lv.time for lv in want]
    assert all(np.array_equal(a.U, b.U) for a, b in zip(levels, want))
    return res


def test_advance_stops_before_the_step_that_fails_to_contract(monkeypatch):
    import varwave.quasilinear as ql
    st, p, ws, cfg, calls = _failing_run(monkeypatch)
    monkeypatch.setattr(ql, "_FIXPOINT_MAX", 7)
    levels = []
    with pytest.raises(NonContractionError) as err:
        advance(st, p, ws, cfg, 60 * cfg.dt, observer=levels.append)
    assert len(levels) == 4
    assert levels[-1].time == pytest.approx(0.053033, abs=1e-6)
    assert str(err.value).count("t = 0.053033") == 1
    # the failing step's seven passes, solved once
    assert len(err.value.diff_norms) == 7
    assert err.value.diff_norms[-1] >= cfg.fixpoint_tol
    failing_calls = calls["step"]
    monkeypatch.setattr(ql, "_FIXPOINT_MAX", 40)
    res = _assert_levels_of_a_plain_run(levels, st, p, ws, cfg)
    assert failing_calls == sum(len(t.diff_norms) for t in res.traces) + 7
    assert failing_calls == 28


def test_advance_stops_before_the_level_over_budget(monkeypatch):
    import varwave.quasilinear as ql
    st, p, ws, cfg, calls = _failing_run(monkeypatch)
    measure = ql._measure

    def drifting(lv, p, ws):
        dens, E, norm, grad_sup = measure(lv, p, ws)
        return dens, E, norm + 100.0 * lv.time, grad_sup

    def budgets(U0, p, ws, **kw):
        E_prime, L_prime = resolve_budgets(U0, p, ws, **kw)
        return E_prime, L_prime + 2050.0 * cfg.dt

    monkeypatch.setattr(ql, "_measure", drifting)
    monkeypatch.setattr(ql, "resolve_budgets", budgets)
    levels = []
    with pytest.raises(AprioriViolationError) as err:
        advance(st, p, ws, cfg, 60 * cfg.dt, observer=levels.append)
    assert len(levels) == 25
    assert err.value.time == levels[-1].time
    assert err.value.time == pytest.approx(0.424264, abs=1e-6)
    assert calls["step"] < 1443
    monkeypatch.setattr(ql, "_measure", measure)
    _assert_levels_of_a_plain_run(levels, st, p, ws, cfg)


def _bump_run(observer=None):
    """20 steps of the bump on a grid of 257 nodes."""
    g = Grid1D(-8.0, 8.0, 257)
    p = flat_point_potential(0.5)
    ws = wave_speed(2.0, 1.0)
    cfg = QuasilinearConfig(dt=0.8 * g.dx / ws.c_max)
    return advance(_bump_state(g, ws), p, ws, cfg, 20 * cfg.dt,
                   observer=observer)


@pytest.mark.parametrize("later", [1, 3, 7, 40])
def test_level_over_budget_is_never_hidden_by_a_later_step(monkeypatch,
                                                           later):
    # level 5 is over budget and solving level 5 + later would raise: the
    # run must report level 5 and solve nothing after it; 5 + 40 lies past
    # the end of the 20-step run, where no later step raises
    import varwave.quasilinear as ql
    g = Grid1D(-8.0, 8.0, 257)
    dt = 0.8 * g.dx / wave_speed(2.0, 1.0).c_max
    measure, step = ql._measure, ql.transport_step
    calls = {"step": 0, "level": 0}

    def tripping(lv, p, ws):
        dens, E, norm, grad_sup = measure(lv, p, ws)
        return dens, E, (1e9 if lv.time > 4.5 * dt else norm), grad_sup

    def degenerating(*args, **kw):
        out = step(*args, **kw)
        calls["step"] += 1
        calls["level"] = max(calls["level"], round(out.time / dt))
        if calls["level"] >= 5 + later:
            raise DegeneracyError(f"order parameter fell at level "
                                  f"{5 + later}")
        return out

    monkeypatch.setattr(ql, "_measure", tripping)
    monkeypatch.setattr(ql, "transport_step", degenerating)
    levels = []
    with pytest.raises(AprioriViolationError) as err:
        _bump_run(levels.append)
    assert err.value.time == levels[-1].time
    assert err.value.time == pytest.approx(0.141421, abs=1e-6)
    assert len(levels) == 5
    # levels 1-5, each solved once: five passes a step on this bump
    assert calls["level"] == 5 and calls["step"] == 25


@pytest.mark.parametrize("n", [16, 17, 257])
def test_w1_sup_matches_materialized_derivative(n):
    # the continuation norm without building the derivative: the same float
    import varwave.quasilinear as ql
    g = Grid1D(-8.0, 8.0, n)
    rng = np.random.default_rng(n)
    stacks = [rng.normal(size=shape) * 10.0 ** rng.uniform(-3, 3)
              for shape in [(n,), (6, n), (3, 6, n)] for _ in range(20)]
    # steep ends only, so the one-sided edge formulas hold the max
    for edge in (0, 1, -2, -1):
        U = 1e-3 * rng.normal(size=(6, n))
        U[2, edge] = 1.0
        stacks.append(U)
    for U in stacks:
        want = max(float(np.max(np.abs(U))),
                   float(np.max(np.abs(centered_derivative(g, U)))))
        assert ql._w1_sup(g, U) == want


def test_resolve_budgets_defaults_double_initial_values():
    import varwave.quasilinear as ql
    g = Grid1D(-8.0, 8.0, 257)
    p = flat_point_potential(0.5)
    ws = wave_speed(2.0, 1.0)
    st = _bump_state(g, ws)
    E0 = float(integrate(g, energy_density_polar(*st.U, p, ws)[0]))
    E_prime, L_prime = resolve_budgets(st, p, ws)
    assert E_prime == pytest.approx(2.0 * E0, rel=1e-6)
    w1 = ql._w1_sup(g, st.U)
    assert L_prime == pytest.approx(
        2.0 * max(w1, float(np.max(1.0 / st.s))), rel=1e-12)


def test_advance_preserves_equilibrium_and_reaches_t_final():
    g = Grid1D(-8.0, 8.0, 257)
    p = flat_point_potential(0.5)
    ws = wave_speed(2.0, 1.0)
    st = _bump_state(g, ws, a_psi=0.05, a_s=0.02)
    cfg = QuasilinearConfig(dt=0.8 * g.dx / ws.c_max)
    t_final = 16 * cfg.dt
    levels = []
    res = advance(st, p, ws, cfg, t_final, observer=levels.append)
    assert res.achieved_T == pytest.approx(t_final)
    assert res.state.time == pytest.approx(t_final)
    assert len(levels) == 17
    assert len(res.energy_reports) == len(res.w2_sup) == 17
    E = np.array([r.total_E for r in res.energy_reports])
    assert np.max(np.abs(E - E[0])) < 1e-3 * max(E[0], 1.0)


def _twelve_step_run(observer=None):
    g = Grid1D(-8.0, 8.0, 129)
    p = flat_point_potential(0.5)
    ws = wave_speed(2.0, 1.0)
    st = _bump_state(g, ws)
    cfg = QuasilinearConfig(dt=0.8 * g.dx / ws.c_max)
    res = advance(st, p, ws, cfg, 12 * cfg.dt, observer=observer)
    assert len(res.traces) == 12
    return g, p, ws, cfg, res


def test_transport_step_builds_two_stencils_and_one_source_call(monkeypatch):
    # both characteristic families go through one stacked query set; the
    # midpoints sample all six rows, the feet the four the Riemann updates read
    import varwave.quasilinear as ql
    from varwave.fields import Stencil
    calls = {"step": 0, "stencil": 0, "sources": 0}
    rows = []
    apply = Stencil.apply

    def recording(self, samples, fill=None):
        rows.append(np.shape(samples)[0])
        return apply(self, samples, fill=fill)

    def counting(key, fn):
        def wrapped(*args, **kw):
            calls[key] += 1
            return fn(*args, **kw)
        return wrapped

    monkeypatch.setattr(ql, "transport_step",
                        counting("step", ql.transport_step))
    monkeypatch.setattr(ql, "stencil", counting("stencil", ql.stencil))
    monkeypatch.setattr(ql, "rhs_sources",
                        counting("sources", ql.rhs_sources))
    monkeypatch.setattr(Stencil, "apply", recording)
    _twelve_step_run()
    assert calls["step"] > 0
    assert calls["stencil"] == 2 * calls["step"]
    assert calls["sources"] == calls["step"]
    assert rows == [6, 4] * calls["step"]


def test_advance_evaluates_each_level_energy_once(monkeypatch):
    import varwave.quasilinear as ql
    calls = []

    def counting(*args):
        calls.append(1)
        return energy_density_polar(*args)

    monkeypatch.setattr(ql, "energy_density_polar", counting)
    _, _, _, _, res = _twelve_step_run()
    # one per level: the budgets read the initial level's record
    assert len(calls) == len(res.energy_reports)


def test_advance_records_match_per_level_formulas():
    levels = []
    g, p, ws, cfg, res = _twelve_step_run(levels.append)
    log = EnergyLog(g, cfg.dt)
    for st in levels:
        log.record(st.time, energy_density_polar(*st.U, p, ws),
                   float(np.max(np.abs(st.U[2:]))))
    got = np.array([astuple(r) for r in res.energy_reports], dtype=float)
    want = np.array([astuple(r) for r in log.reports], dtype=float)
    assert np.array_equal(got, want, equal_nan=True)
    assert res.w2_sup == [float(np.max(np.abs(centered_derivative(g, st.U[2:]))))
                          for st in levels]


def test_advance_conservation_residuals_refine():
    p = flat_point_potential(0.5)
    ws = wave_speed(2.0, 1.0)
    pairs = []
    for n in (129, 257, 513):
        g = Grid1D(-8.0, 8.0, n)
        st = _bump_state(g, ws)
        cfg = QuasilinearConfig(dt=0.8 * g.dx / ws.c_max)
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
        advance(st, p, ws, QuasilinearConfig(dt=g.dx), 0.2)
    cfg = QuasilinearConfig(dt=0.8 * g.dx / ws.c_max)
    with pytest.raises(ConfigError, match="whole number"):
        advance(st, p, ws, cfg, 10.37 * cfg.dt)
    for t_final in (-10 * cfg.dt, math.nan):
        with pytest.raises(ConfigError, match="must be positive"):
            advance(st, p, ws, cfg, t_final)
    # reference potential has no interior equilibrium: s = 0.5 cannot be a
    # legitimate far field for it
    st_ref = _bump_state(g, ws)
    with pytest.raises(ConfigError, match="far-field"):
        advance(st_ref, reference_potential(), ws, cfg, 16 * cfg.dt)


# --- moving frame ------------------------------------------------------------


def test_fixed_frame_levels_match_the_per_field_reference_bitwise(
        monkeypatch):
    # at frame_speed 0 a whole run takes the fixed-frame step: with the
    # per-field reference step swapped in, every level keeps its bits
    import varwave.quasilinear as ql
    want = []
    _twelve_step_run(want.append)

    def reference(state, p, ws, dt, frozen_mid=None, frozen_end=None,
                  frame_speed=0.0, drifted=None):
        assert frame_speed == 0.0 and drifted is None
        U = _reference_transport_step(state, p, ws, dt, frozen_mid,
                                      frozen_end)
        return PolarState(state.grid, *U, time=state.time + dt,
                          far_field=state.far_field)

    monkeypatch.setattr(ql, "transport_step", reference)
    got = []
    _twelve_step_run(got.append)
    assert [st.time for st in got] == [st.time for st in want]
    for a, b in zip(got, want):
        assert a.U.tobytes() == b.U.tobytes()


def _frame_run(n, V, T=2.0):
    """The bump on [-8, 8] to time T, solved in the frame moving at V."""
    g = Grid1D(-8.0, 8.0, n)
    p = flat_point_potential(0.5)
    ws = wave_speed(2.0, 1.0)
    steps = int(math.ceil(T / (0.8 * g.dx / ws.c_max)))
    cfg = QuasilinearConfig(dt=T / steps, frame_speed=V)
    return g, advance(_bump_state(g, ws), p, ws, cfg, T)


def test_moving_frame_matches_fixed_frame_to_discretization_accuracy():
    # the moving-frame state at y is the fixed-frame state at x = y + V T;
    # measured sup gaps over the six fields: 2.4e-4 at dx = 1/8 and 2.5e-5
    # at dx = 1/16, so the gap falls like a discretization error
    V, T = 0.7, 2.0
    gaps = []
    for n in (129, 257):
        g, fixed = _frame_run(n, 0.0, T)
        _, moving = _frame_run(n, V, T)
        x = g.nodes[g.nodes - V * T >= g.x_min]
        got = stencil(g, x - V * T).apply(moving.state.U)
        want = stencil(g, x).apply(fixed.state.U)
        gaps.append(float(np.max(np.abs(got - want))))
    assert gaps[0] < 5e-4
    assert gaps[1] < 5e-5
    assert gaps[1] < gaps[0] / 8.0


def test_moving_frame_step_samples_the_departure_primitives_once(monkeypatch):
    # a pass still builds 2 stencils (6 rows at the midpoints, 4 at the
    # feet); psi and s add one 4-row sample per step, shared by its passes
    from varwave.fields import Stencil
    rows = []
    apply = Stencil.apply

    def recording(self, samples, fill=None):
        rows.append(np.shape(samples)[0])
        return apply(self, samples, fill=fill)

    monkeypatch.setattr(Stencil, "apply", recording)
    _, res = _frame_run(129, 0.7, T=0.5)
    want = []
    for t in res.traces:
        want += [4] + [6, 4] * len(t.diff_norms)
    assert rows == want


def test_moving_frame_step_needs_the_drifted_rows():
    import varwave.quasilinear as ql
    g = Grid1D(-8.0, 8.0, 129)
    ws = wave_speed(2.0, 1.0)
    st = _bump_state(g, ws)
    dt, V = 0.8 * g.dx / ws.c_max, 1.1
    p = flat_point_potential(0.5)
    with pytest.raises(ValueError, match="drifted"):
        transport_step(st, p, ws, dt, frame_speed=V)
    out = transport_step(st, p, ws, dt, frame_speed=V,
                         drifted=ql._drifted_rows(st, V * dt))
    assert out.time == st.time + dt


def test_config_rejects_non_finite_frame_speed():
    for bad in (math.nan, math.inf):
        with pytest.raises(ConfigError, match="frame_speed"):
            QuasilinearConfig(dt=0.01, frame_speed=bad)


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


def test_polar_snapshot_rejects_wrong_width(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("x,psi\n0.0,1.0\n0.5,1.0\n")
    with pytest.raises(ConfigError):
        read_polar_snapshot_csv(path)
