"""Slow-time embedding, extraction, action machinery, and the epsilon sweep."""

import math

import numpy as np
import pytest

from varwave import (AsymptoticConfig, ConfigError, Grid1D, QuasilinearConfig,
                     SlowCoefficients, advance,
                     bump_slope, convergence_study, discrete_el_residual,
                     embed, evolve_markers, extract,
                     flat_point_potential, gaussian, integrate, make_markers,
                     fit_order, reference_potential, rescaling_map,
                     sample_eulerian, standardize, strong_residual, wave_speed)
from varwave.diagnostics import EnergyLog, energy_density_polar
from varwave.profiles import zero


def _background(eps):
    return AsymptoticConfig(ws=wave_speed(2.0, 1.0), psi0=math.pi / 4.0,
                            s0=0.5, epsilon=eps)


# --- config and clocks -------------------------------------------------------


def test_config_rejects_degenerate_backgrounds():
    with pytest.raises(ConfigError, match="isotropic"):
        AsymptoticConfig(ws=wave_speed(1.0, 1.0), psi0=0.3, s0=0.5,
                         epsilon=0.1)
    with pytest.raises(ConfigError):
        AsymptoticConfig(ws=wave_speed(2.0, 1.0), psi0=0.3, s0=1.2,
                         epsilon=0.1)
    with pytest.raises(ConfigError):
        AsymptoticConfig(ws=wave_speed(2.0, 1.0), psi0=0.3, s0=0.5,
                         epsilon=1.0)


def test_clocks_are_inverse_scalings():
    # the slow clock runs at epsilon: fast time 8 is tau = 2 at eps = 1/4
    cfg = _background(0.25)
    u0 = gaussian(1.0)
    g = Grid1D(-8.0, 8.0, 257)
    st = embed(cfg, g, flat_point_potential(0.5), u0, u0.derivative,
               bump_slope(0.5))
    st.time = 8.0
    ext = extract(cfg, st, g.nodes)
    assert ext.tau == pytest.approx(2.0) and ext.t_fast == 8.0


# --- rescaling ---------------------------------------------------------------


def test_background_rescaling_values():
    cfg = _background(0.1)
    m = rescaling_map(cfg)
    # time runs at c'(psi0), density is measured against s0
    assert m.time_scale == pytest.approx(0.4082482904638631, abs=1e-12)
    assert m.rho_scale == pytest.approx(2.0, abs=1e-12)
    flipped = AsymptoticConfig(ws=wave_speed(1.0, 2.0), psi0=math.pi / 4.0,
                               s0=0.5, epsilon=0.1)
    m2 = rescaling_map(flipped)
    assert m2.time_scale == pytest.approx(-m.time_scale, abs=1e-12)


def test_slow_coefficients_require_positive_kinetic_terms():
    with pytest.raises(ConfigError, match="positive"):
        SlowCoefficients(-1.0, 1.0, 1.0, 1.0)
    with pytest.raises(ConfigError, match="positive"):
        SlowCoefficients(1.0, 1.0, 0.0, 1.0)


def test_background_coefficients_are_always_compatible():
    # a e = b d and e/b = 1/s0^2: one clock and a real density rescale
    # standardize every background, so rescaling_map checks neither
    for K1, K3, psi0, s0 in ((2.0, 1.0, 0.3, 0.4), (5.0, 0.5, 1.1, 0.7),
                             (1.0, 3.0, 0.9, 0.25)):
        co = SlowCoefficients.from_background(wave_speed(K1, K3), psi0, s0)
        assert abs(co.a * co.e - co.b * co.d) <= 1e-12 * abs(co.a * co.e)
        assert co.e / co.b == pytest.approx(1.0 / (s0 * s0), rel=1e-12)


def test_standardize_scales_density_and_clock():
    from varwave.asymptotic import ExtractedSlow, RescalingMap
    ext = ExtractedSlow(y=np.array([0.0]), u=np.array([1.0]),
                        rho=np.array([3.0]), tau=2.0, t_fast=20.0)
    out = standardize(ext, RescalingMap(time_scale=0.5, rho_scale=2.0))
    assert out.tau == pytest.approx(1.0)
    assert out.rho[0] == pytest.approx(6.0)
    assert out.u[0] == 1.0 and out.t_fast == 20.0


# --- embed / extract ---------------------------------------------------------


def test_embed_zero_amplitude_is_equilibrium():
    cfg = _background(0.0)
    u0 = gaussian(1.0)
    g = Grid1D(-8.0, 8.0, 257)
    st = embed(cfg, g, flat_point_potential(0.5), u0, u0.derivative,
               bump_slope(0.5))
    assert np.max(np.abs(st.psi - math.pi / 4.0)) == 0.0
    assert np.max(np.abs(st.s - 0.5)) == 0.0
    for f in (st.phi, st.v, st.omega, st.r):
        assert np.max(np.abs(f)) == 0.0


def test_embed_amplitude_scales_with_epsilon():
    u0 = gaussian(1.0)
    for eps in (0.2, 0.1, 0.05):
        st = embed(_background(eps), Grid1D(-8.0, 8.0, 513),
                   flat_point_potential(0.5), u0, u0.derivative,
                   bump_slope(0.5))
        assert np.max(np.abs(st.psi - math.pi / 4.0)) == pytest.approx(eps)


def test_embedded_energy_is_quadratic_in_epsilon():
    u0 = gaussian(1.0)
    rho0 = bump_slope(0.5)
    p = flat_point_potential(0.5)
    ws = wave_speed(2.0, 1.0)
    pairs = []
    for eps in (0.2, 0.1, 0.05, 0.025):
        st = embed(_background(eps), Grid1D(-10.0, 10.0, 1001), p, u0,
                   u0.derivative, rho0)
        E = energy_density_polar(st.psi, st.s, st.phi, st.v, st.omega, st.r,
                                 p, ws)[0]
        pairs.append((eps, float(integrate(st.grid, E))))
    # leading order is quadratic; the s-dependent weights add an O(eps) tilt
    assert fit_order(pairs) == pytest.approx(2.0, abs=0.1)


def test_embed_requires_flat_potential_and_zero_mass_density():
    cfg = _background(0.1)
    u0 = gaussian(1.0)
    g = Grid1D(-8.0, 8.0, 257)
    with pytest.raises(ConfigError, match="flat to third order"):
        embed(cfg, g, reference_potential(), u0, u0.derivative,
              bump_slope(0.5))
    with pytest.raises(ConfigError, match="zero mass"):
        embed(cfg, g, flat_point_potential(0.5), u0, u0.derivative,
              gaussian(0.5))


def test_extract_inverts_embed_at_time_zero():
    u0 = gaussian(1.0, 0.0, 1.3)
    rho0 = bump_slope(0.5, 0.0, 1.0)
    cfg = _background(0.1)
    g = Grid1D(-8.0, 8.0, 641)
    st = embed(cfg, g, flat_point_potential(0.5), u0, u0.derivative, rho0)
    y = g.nodes[40:-40]
    ext = extract(cfg, st, y)
    assert np.max(np.abs(ext.u - u0(y))) < 1e-12
    assert np.max(np.abs(ext.rho - rho0(y))) < 1e-12
    assert ext.tau == 0.0
    with pytest.raises(ConfigError):
        extract(_background(0.0), st, y)


# --- discrete action machinery -----------------------------------------------


def _slab(m, n, span_tau=0.6, span_y=4.0):
    tau = np.linspace(0.0, span_tau, m)
    y = np.linspace(-span_y, span_y, n)
    T, Y = np.meshgrid(tau, y, indexing="ij")
    u = 0.4 * np.exp(-(Y - 0.3 * T) ** 2) * (1.0 + 0.5 * T)
    R = 0.3 * np.exp(-((Y + 0.2 * T) ** 2)) * np.sin(Y + T)
    dtau = tau[1] - tau[0]
    dy = y[1] - y[0]
    return dtau, dy, u, R


def test_el_residuals_vanish_on_trivial_slab():
    coeffs = SlowCoefficients(1.0, 1.0, 1.0, 1.0)
    u = np.zeros((12, 24))
    rep = discrete_el_residual(coeffs, 0.1, 0.1, u, u.copy())
    assert rep.gap_u == 0.0 and rep.gap_R == 0.0
    assert np.max(np.abs(rep.grad_u)) == 0.0
    assert np.max(np.abs(rep.strong_R)) == 0.0


def test_action_gradient_matches_brute_force_differentiation():
    # the gradient is exact for the discrete functional: compare against
    # one-sided numerical differentiation of action_value node by node
    coeffs = SlowCoefficients.from_background(wave_speed(2.0, 1.0),
                                              math.pi / 4.0, 0.5)
    dtau, dy, u, R = _slab(6, 9)
    gu, gR = __import__("varwave").action_gradient(coeffs, dtau, dy, u, R)
    from varwave import action_value
    W = np.outer(np.r_[0.5, np.ones(4), 0.5] * dtau,
                 np.r_[0.5, np.ones(7), 0.5] * dy)
    h = 1e-6
    rng = np.random.default_rng(3)
    for _ in range(12):
        i, j = rng.integers(0, 6), rng.integers(0, 9)
        up, um = u.copy(), u.copy()
        up[i, j] += h
        um[i, j] -= h
        fd = (action_value(coeffs, dtau, dy, up, R)
              - action_value(coeffs, dtau, dy, um, R)) / (2.0 * h)
        assert gu[i, j] * W[i, j] == pytest.approx(fd, rel=2e-5, abs=1e-8)
        Rp, Rm = R.copy(), R.copy()
        Rp[i, j] += h
        Rm[i, j] -= h
        fd = (action_value(coeffs, dtau, dy, u, Rp)
              - action_value(coeffs, dtau, dy, u, Rm)) / (2.0 * h)
        assert gR[i, j] * W[i, j] == pytest.approx(fd, rel=2e-5, abs=1e-8)


def test_gradient_and_strong_form_agree_at_second_order():
    coeffs = SlowCoefficients.from_background(wave_speed(2.0, 1.0),
                                              math.pi / 4.0, 0.5)
    gaps = []
    for m, n in ((31, 81), (61, 161), (121, 321)):
        rep = discrete_el_residual(coeffs, *_slab(m, n), trim=3)
        gaps.append(max(rep.gap_u, rep.gap_R))
    assert gaps[0] / gaps[1] == pytest.approx(4.0, rel=0.35)
    assert gaps[1] / gaps[2] == pytest.approx(4.0, rel=0.35)


def test_marker_solution_satisfies_strong_form():
    # sample the reduced solution on (tau, y) slabs of shrinking spacing:
    # the strong residual must converge to zero (against an independent
    # integrator, this is the cross-discretization consistency check)
    u0 = gaussian(0.4, 0.0, 1.2)
    rho0 = bump_slope(0.3, 0.0, 1.0)
    mk = make_markers((-4.0, 4.0), 3001, u0, rho0, du0=u0.derivative)
    levels = []
    res = evolve_markers(mk, t_final=0.32, dt=1e-3, observer=levels.append)
    assert not res.broke
    by_time = {round(s.time / 1e-3): s for s in levels}
    coeffs = SlowCoefficients(1.0, 1.0, 1.0, 1.0)

    sups = []
    hs = []
    for k_step, n in ((80, 41), (40, 81), (20, 161)):
        times = [by_time[k] for k in range(0, 321, k_step)]
        y = np.linspace(-2.5, 2.5, n)
        dy = y[1] - y[0]
        dtau = k_step * 1e-3
        u = np.empty((len(times), n))
        R = np.empty((len(times), n))
        for i, st in enumerate(times):
            u_s, rho_s = sample_eulerian(st, y)
            u[i] = u_s
            R[i] = np.concatenate(
                ([0.0], np.cumsum(0.5 * (rho_s[1:] + rho_s[:-1]) * dy)))
        res_u, res_R = strong_residual(coeffs, dtau, dy, u, R)
        sl = (slice(2, -2), slice(2, -2))
        sups.append(max(float(np.max(np.abs(res_u[sl]))),
                        float(np.max(np.abs(res_R[sl])))))
        hs.append(max(dtau, dy))
    assert sups[0] > sups[1] > sups[2]
    assert fit_order(list(zip(hs, sups))) >= 1.0


# --- convergence_study -------------------------------------------------------


def test_study_zero_data_reports_zero_errors():
    out = convergence_study(
        flat_point_potential(0.5), wave_speed(2.0, 1.0), math.pi / 4.0, 0.5,
        zero(), zero(), epsilons=(0.5, 0.25), tau_final=0.04,
        y_span=(-3.0, 3.0), dx=0.1, marker_dt=2e-3)
    assert out["errors"] == [pytest.approx(0.0, abs=1e-10)] * 2
    assert out["fitted_order"] is None
    assert out["gauge"] == "C(t)=0"
    assert all(not r["failed"] for r in out["runs"])


def test_study_small_sweep_structure_and_improvement():
    u0 = gaussian(0.8, 0.0, 1.0)
    rho0 = bump_slope(0.4, 0.0, 1.0)
    out = convergence_study(
        flat_point_potential(0.5), wave_speed(2.0, 1.0), math.pi / 4.0, 0.5,
        u0, rho0, epsilons=(0.4, 0.2), tau_final=0.1,
        y_span=(-4.0, 4.0), dx=0.1, marker_dt=1e-3)
    assert out["epsilons"] == [0.4, 0.2]
    assert all(e is not None and e > 0.0 for e in out["errors"])
    # smaller epsilon sits closer to the reduced dynamics
    assert out["errors"][1] < out["errors"][0]
    assert out["rescaling"]["rho_scale"] == pytest.approx(2.0)
    assert out["reference_energy"] > 0.0
    assert out["gauge_drop"] == pytest.approx(0.1 * out["reference_energy"])
    run = out["runs"][0]
    for key in ("epsilon", "t_fast", "frame_speed", "grid_nodes", "steps",
                "fixpoint_passes", "achieved_T", "l2_u", "l2_rho", "sup_u",
                "sup_rho", "failed"):
        assert key in run
    for run in out["runs"]:
        # solved in the frame moving at c0, on y_span +- 8 only
        assert run["frame_speed"] == out["c0"]
        assert run["grid_nodes"] == 241
        assert run["steps"] <= run["fixpoint_passes"] <= 40 * run["steps"]


def test_study_requires_two_epsilons():
    with pytest.raises(ConfigError):
        convergence_study(flat_point_potential(0.5), wave_speed(2.0, 1.0),
                          math.pi / 4.0, 0.5, zero(), zero(),
                          epsilons=(0.2,), tau_final=0.1)


@pytest.mark.parametrize("bad", [0.0, -0.1, 1.0, math.nan])
def test_study_refuses_epsilons_outside_the_unit_interval(bad, monkeypatch):
    # refused before the reference or any run starts (0 used to divide by
    # zero in the fast time)
    import varwave.asymptotic as asy

    def no_run(*args, **kw):
        raise AssertionError("a run started")

    monkeypatch.setattr(asy, "make_markers", no_run)
    monkeypatch.setattr(asy, "advance", no_run)
    with pytest.raises(ConfigError, match="outside"):
        convergence_study(flat_point_potential(0.5), wave_speed(2.0, 1.0),
                          math.pi / 4.0, 0.5, zero(), zero(),
                          epsilons=(0.5, bad), tau_final=0.1)


def _criterion_10_inputs():
    return (flat_point_potential(0.5), gaussian(1.0, 0.0, 1.0),
            bump_slope(0.5, 0.0, 1.0))


def test_moving_frame_error_is_converged_in_dx():
    # criterion 10's inputs at epsilon = 0.1: the sweep's error against the
    # marker reference moves by 0.05 % when dx halves (measured), so it is
    # the asymptotic error and not the scheme's
    import varwave.asymptotic as asy
    p, u0, rho0 = _criterion_10_inputs()
    cfg = _background(0.1)
    mapping = rescaling_map(cfg)
    y_grid = np.linspace(-5.0, 5.0, 400)
    u_ref, rho_ref, _ = asy._marker_reference(
        mapping, u0, rho0, (-6.0, 6.0), y_grid, 2e-3, 0.5)
    errs = []
    for dx in (0.05, 0.025):
        run = asy._sweep_run(p, cfg, mapping, u0, rho0, 0.5, y_grid, u_ref,
                             rho_ref, (-6.0, 6.0), dx)
        assert not run["failed"]
        errs.append(math.hypot(run["l2_u"], run["l2_rho"]))
    assert abs(errs[1] - errs[0]) <= 0.01 * errs[1]


def test_sweep_run_is_within_the_stop_tolerance_of_a_tight_solve(
        monkeypatch):
    # criterion 10's inputs at epsilon = 0.2: the predictor and the
    # a-posteriori stop move where each step's iteration starts and ends,
    # not its fixed point, so the final state lies within 100 fixpoint_tol
    # in W^{1,inf} of a run solved to 1e-12; the run takes 652 passes
    # (872 from y = x with the plain stop)
    import varwave.asymptotic as asy
    import varwave.quasilinear as ql
    p, u0, rho0 = _criterion_10_inputs()
    cfg = _background(0.2)
    y_grid = np.linspace(-5.0, 5.0, 400)
    no_ref = np.zeros_like(y_grid)
    finals, passes = [], []

    def keeping(*args, **kw):
        out = advance(*args, **kw)
        finals.append(out.state)
        return out

    monkeypatch.setattr(asy, "advance", keeping)
    for tol in (asy._FIXPOINT_TOL, 1e-12):
        monkeypatch.setattr(asy, "_FIXPOINT_TOL", tol)
        run = asy._sweep_run(p, cfg, rescaling_map(cfg), u0, rho0, 0.5,
                             y_grid, no_ref, no_ref, (-6.0, 6.0), 0.05)
        assert not run["failed"]
        passes.append(run["fixpoint_passes"])
    loose, tight = finals
    assert passes[0] == 652
    assert ql._w1_sup(loose.grid, loose.U - tight.U) < 100.0 * 1e-8


def test_moving_frame_energy_residuals_carry_the_frame_flux():
    # epsilon = 0.2 to t = 4 in both frames, on the sweep's grids: with the
    # flux V E (and V F) the moving-frame residuals are no larger than the
    # fixed frame's; without it they measure the frame drift instead
    p, u0, rho0 = _criterion_10_inputs()
    cfg = _background(0.2)
    ws, V, T = cfg.ws, cfg.c0, 4.0
    reports = {}
    for frame, x_hi in ((0.0, 6.0 + V * T + 8.0), (V, 14.0)):
        g = Grid1D(-14.0, x_hi, int(round((x_hi + 14.0) / 0.05)) + 1)
        steps = int(math.ceil(T / (0.8 * g.dx / ws.c_max)))
        qcfg = QuasilinearConfig(dt=T / steps, frame_speed=frame)
        levels = []
        init = embed(cfg, g, p, u0, u0.derivative, rho0)
        res = advance(init, p, ws, qcfg, T, observer=levels.append)
        reports[frame] = res.energy_reports
    # the moving-frame levels (the loop's last run) logged as if fixed
    blind = EnergyLog(g, qcfg.dt)
    for st in levels:
        blind.record(st.time, energy_density_polar(*st.U, p, ws), 0.0)

    def worst(reps, key):
        return max(getattr(r, key) for r in reps[1:-1])

    for key in ("residual_E", "residual_F"):
        assert worst(reports[V], key) <= worst(reports[0.0], key)
    assert worst(blind.reports, "residual_E") > 100.0 * worst(reports[V],
                                                              "residual_E")
