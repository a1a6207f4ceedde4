"""Slow-time embedding, extraction, action machinery, and the epsilon sweep."""

import math

import numpy as np
import pytest

from varwave import (AsymptoticConfig, ConfigError, Grid1D, SlowCoefficients,
                     bump_slope, convergence_study, discrete_el_residual,
                     embed, evolve_markers, extract, fast_time,
                     flat_point_potential, gaussian, integrate, make_markers,
                     fit_order, reference_potential, rescaling_from_coefficients,
                     rescaling_map, sample_eulerian, slow_time, standardize,
                     strong_residual, wave_speed)
from varwave.diagnostics import energy_density_polar
from varwave.profiles import zero


def _background(eps, u0=None, rho0=None, du0=None):
    return AsymptoticConfig(ws=wave_speed(2.0, 1.0), psi0=math.pi / 4.0,
                            s0=0.5, epsilon=eps, u_init=u0, rho_init=rho0,
                            du_init=du0)


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
    cfg = _background(0.25)
    assert slow_time(cfg, 8.0) == pytest.approx(2.0)
    assert fast_time(cfg, 2.0) == pytest.approx(8.0)
    with pytest.raises(ConfigError):
        fast_time(_background(0.0), 1.0)


# --- rescaling ---------------------------------------------------------------


def test_unit_coefficients_rescale_to_identity():
    m = rescaling_from_coefficients(SlowCoefficients(1.0, 1.0, 1.0, 1.0))
    assert m.time_scale == pytest.approx(1.0)
    assert m.rho_scale == pytest.approx(1.0)


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


def test_rescaling_requires_compatible_coefficients():
    with pytest.raises(ConfigError, match="a e != b d"):
        rescaling_from_coefficients(SlowCoefficients(1.0, 1.0, 1.0, 2.0))
    with pytest.raises(ConfigError, match="linear"):
        rescaling_from_coefficients(SlowCoefficients(1.0, 0.0, 1.0, 0.0))
    with pytest.raises(ConfigError, match="positive"):
        SlowCoefficients(-1.0, 1.0, 1.0, 1.0)


def test_background_coefficients_are_always_compatible():
    for K1, K3, psi0, s0 in ((2.0, 1.0, 0.3, 0.4), (5.0, 0.5, 1.1, 0.7),
                             (1.0, 3.0, 0.9, 0.25)):
        coeffs = SlowCoefficients.from_background(wave_speed(K1, K3), psi0, s0)
        assert coeffs.compatible


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
    cfg = _background(0.0, u0=gaussian(1.0), rho0=bump_slope(0.5))
    g = Grid1D(-8.0, 8.0, 257)
    st = embed(cfg, g, p=flat_point_potential(0.5))
    assert np.max(np.abs(st.psi - math.pi / 4.0)) == 0.0
    assert np.max(np.abs(st.s - 0.5)) == 0.0
    for f in (st.phi, st.v, st.omega, st.r):
        assert np.max(np.abs(f)) == 0.0


def test_embed_amplitude_scales_with_epsilon():
    u0 = gaussian(1.0)
    for eps in (0.2, 0.1, 0.05):
        cfg = _background(eps, u0=u0, rho0=bump_slope(0.5))
        st = embed(cfg, Grid1D(-8.0, 8.0, 513), p=flat_point_potential(0.5))
        assert np.max(np.abs(st.psi - math.pi / 4.0)) == pytest.approx(eps)


def test_embedded_energy_is_quadratic_in_epsilon():
    u0 = gaussian(1.0)
    rho0 = bump_slope(0.5)
    p = flat_point_potential(0.5)
    ws = wave_speed(2.0, 1.0)
    pairs = []
    for eps in (0.2, 0.1, 0.05, 0.025):
        cfg = _background(eps, u0=u0, rho0=rho0, du0=u0.derivative)
        st = embed(cfg, Grid1D(-10.0, 10.0, 1001), p=p)
        E = energy_density_polar(st.psi, st.s, st.phi, st.v, st.omega, st.r,
                                 p, ws)[0]
        pairs.append((eps, float(integrate(st.grid, E))))
    # leading order is quadratic; the s-dependent weights add an O(eps) tilt
    assert fit_order(pairs) == pytest.approx(2.0, abs=0.1)


def test_embed_requires_flat_potential_and_zero_mass_density():
    cfg = _background(0.1, u0=gaussian(1.0), rho0=bump_slope(0.5))
    g = Grid1D(-8.0, 8.0, 257)
    with pytest.raises(ConfigError, match="flat to third order"):
        embed(cfg, g, p=reference_potential())
    bad = _background(0.1, u0=gaussian(1.0), rho0=gaussian(0.5))
    with pytest.raises(ConfigError, match="zero mass"):
        embed(bad, g, p=flat_point_potential(0.5))
    none = _background(0.1)
    with pytest.raises(ConfigError, match="profiles"):
        embed(none, g)


def test_extract_inverts_embed_at_time_zero():
    u0 = gaussian(1.0, 0.0, 1.3)
    rho0 = bump_slope(0.5, 0.0, 1.0)
    cfg = _background(0.1, u0=u0, rho0=rho0, du0=u0.derivative)
    g = Grid1D(-8.0, 8.0, 641)
    st = embed(cfg, g, p=flat_point_potential(0.5))
    y = g.nodes[40:-40]
    ext = extract(cfg, st, y)
    assert np.max(np.abs(ext.u - u0(y))) < 1e-12
    assert np.max(np.abs(ext.rho - rho0(y))) < 1e-12
    assert ext.tau == 0.0
    with pytest.raises(ConfigError):
        extract(_background(0.0, u0=u0, rho0=rho0), st, y)


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
        y_span=(-3.0, 3.0), y_eval=(-2.0, 2.0), n_eval=51, dx=0.1,
        n_markers=201, marker_dt=2e-3, pad=3.0)
    assert out["errors"] == [pytest.approx(0.0, abs=1e-10)] * 2
    assert out["fitted_order"] is None
    assert out["gauge"] == "C(t)=0"
    assert all(not r["failed"] for r in out["runs"])


def test_study_small_sweep_structure_and_improvement():
    u0 = gaussian(0.8, 0.0, 1.0)
    rho0 = bump_slope(0.4, 0.0, 1.0)
    out = convergence_study(
        flat_point_potential(0.5), wave_speed(2.0, 1.0), math.pi / 4.0, 0.5,
        u0, rho0, du0=u0.derivative, epsilons=(0.4, 0.2), tau_final=0.1,
        y_span=(-4.0, 4.0), y_eval=(-3.0, 3.0), n_eval=121, dx=0.1,
        n_markers=1201, marker_dt=1e-3, pad=4.0)
    assert out["epsilons"] == [0.4, 0.2]
    assert all(e is not None and e > 0.0 for e in out["errors"])
    # smaller epsilon sits closer to the reduced dynamics
    assert out["errors"][1] < out["errors"][0]
    assert out["rescaling"]["rho_scale"] == pytest.approx(2.0)
    assert out["reference_energy"] > 0.0
    assert out["gauge_drop"] == pytest.approx(0.1 * out["reference_energy"])
    run = out["runs"][0]
    for key in ("epsilon", "t_fast", "grid_nodes", "steps", "achieved_T",
                "l2_u", "l2_rho", "sup_u", "sup_rho", "failed"):
        assert key in run


def test_study_requires_two_epsilons():
    with pytest.raises(ConfigError):
        convergence_study(flat_point_potential(0.5), wave_speed(2.0, 1.0),
                          math.pi / 4.0, 0.5, zero(), zero(),
                          epsilons=(0.2,), tau_final=0.1)
