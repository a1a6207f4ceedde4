"""Marker solver for the reduced slow-time system: Riccati oracles, breaking."""

import math

import numpy as np
import pytest

from varwave import (ConfigError, DomainError, MarkerState,
                     WavebreakingError, breaking_time_riccati, bump_slope,
                     constant, evolve_markers, gaussian, make_markers,
                     marker_rhs, sample_eulerian)
from varwave.profiles import zero


# --- construction ------------------------------------------------------------


def test_make_markers_seeds_identity_map():
    u0 = gaussian(0.5)
    st = make_markers((-4.0, 4.0), 64, u0, zero(), du0=u0.derivative)
    assert st.xi.shape == (64,)
    # default margin widens the span by 10% of its width on each side
    assert st.xi[0] == pytest.approx(-4.8)
    assert st.xi[-1] == pytest.approx(4.8)
    assert np.array_equal(st.x, st.xi)
    assert np.all(st.J == 1.0)
    assert st.time == 0.0


def test_make_markers_slope_is_the_exact_derivative():
    u0 = gaussian(0.5, width=1.3)
    st = make_markers((-4.0, 4.0), 256, u0, zero(), du0=u0.derivative)
    assert np.max(np.abs(st.alpha - u0.derivative(st.xi))) == 0.0


def test_make_markers_input_validation():
    with pytest.raises(ConfigError):
        make_markers((-4.0, 4.0), 4, zero(), zero(), du0=zero().derivative)
    with pytest.raises(ConfigError):
        make_markers((4.0, 4.0), 64, zero(), zero(), du0=zero().derivative)


# --- marker_rhs --------------------------------------------------------------


def test_rhs_rest_state_is_stationary():
    m = 16
    z = np.zeros(m)
    xi = np.linspace(-1.0, 1.0, m)
    dx, du, da, dr, dJ = marker_rhs(np.stack([xi, z, z, z, np.ones(m)]),
                                    xi[1] - xi[0], np.empty((5, m)))
    for arr in (dx, du, da, dr, dJ):
        assert np.max(np.abs(arr)) == 0.0


def test_rhs_uniform_density_drives_slope_and_velocity():
    # alpha = 0, rho = rho_bar: d alpha/dt = rho_bar^2/2 everywhere, and
    # du/dt = half the energy mass strictly to the left of each marker
    m = 32
    rho_bar = 0.7
    xi = np.linspace(0.0, 1.0, m)
    dxi = xi[1] - xi[0]
    z = np.zeros(m)
    _, du, da, dr, dJ = marker_rhs(
        np.stack([xi, z, z, np.full(m, rho_bar), np.ones(m)]), dxi,
        np.empty((5, m)))
    assert np.allclose(da, 0.5 * rho_bar ** 2, rtol=1e-15)
    assert np.allclose(dr, 0.0, atol=1e-15)
    assert np.allclose(dJ, 0.0, atol=1e-15)
    expect_du = 0.5 * rho_bar ** 2 * dxi * np.arange(m)
    assert np.allclose(du, expect_du, rtol=1e-13)
    assert du[0] == 0.0  # nothing lies to the left of the first marker


def test_rhs_refuses_crossed_characteristics():
    m = 16
    z = np.zeros(m)
    xi = np.linspace(0.0, 1.0, m)
    J = np.ones(m)
    J[5] = -0.01
    with pytest.raises(WavebreakingError) as err:
        marker_rhs(np.stack([xi, z, z, z, J]), xi[1] - xi[0],
                   np.empty((5, m)))
    assert err.value.marker_index == 5


def test_rhs_fills_the_given_buffer_row_by_row():
    m = 16
    xi = np.linspace(0.0, 1.0, m)
    dxi = xi[1] - xi[0]
    u = 0.3 * xi
    alpha = np.full(m, -0.2)
    rho = 0.5 + 0.1 * xi
    J = 1.0 + 0.5 * xi
    buf = np.full((5, m), np.nan)
    out = marker_rhs(np.stack([xi, u, alpha, rho, J]), dxi, out=buf)
    assert out is buf
    dx, du, da, dr, dJ = buf
    cell = (alpha ** 2 + rho ** 2) * J * dxi
    assert np.array_equal(dx, u)
    assert np.array_equal(du, 0.5 * np.concatenate(([0.0],
                                                    np.cumsum(cell)[:-1])))
    assert np.array_equal(da, 0.5 * (rho ** 2 - alpha ** 2))
    assert np.array_equal(dr, -alpha * rho)
    assert np.array_equal(dJ, alpha * J)


# --- Riccati closed forms ----------------------------------------------------


def test_pure_density_marker_follows_riccati_circle():
    # w0 = i rho_bar: alpha(t) = (rho_bar^2 t/2)/(1 + rho_bar^2 t^2/4),
    # rho(t) = rho_bar/(1 + rho_bar^2 t^2/4), J = 1 + rho_bar^2 t^2/4
    rho_bar = 0.8
    st = make_markers((-1.0, 1.0), 16, zero(), constant(rho_bar),
                      du0=zero().derivative)
    res = evolve_markers(st, t_final=1.0, dt=1e-3)
    assert not res.broke
    t = 1.0
    denom = 1.0 + rho_bar ** 2 * t * t / 4.0
    assert np.max(np.abs(res.state.alpha - 0.5 * rho_bar ** 2 * t / denom)) < 1e-8
    assert np.max(np.abs(res.state.rho - rho_bar / denom)) < 1e-8
    assert np.max(np.abs(res.state.J - denom)) < 1e-8


def test_general_marker_matches_complex_riccati():
    # w(t) = w0 / (1 + w0 t / 2) for w = alpha + i rho, any initial pair
    a0, r0 = -0.6, 0.9
    st = make_markers((-1.0, 1.0), 16, zero(), constant(r0),
                      du0=zero().derivative)
    st.alpha[:] = a0
    res = evolve_markers(st, t_final=1.0, dt=1e-3)
    w0 = complex(a0, r0)
    w = w0 / (1.0 + w0 * 1.0 / 2.0)
    assert np.max(np.abs(res.state.alpha - w.real)) < 1e-8
    assert np.max(np.abs(res.state.rho - w.imag)) < 1e-8
    assert np.max(np.abs(res.state.J - abs(1.0 + w0 / 2.0) ** 2)) < 1e-8


def test_per_marker_invariants_are_conserved():
    u0 = bump_slope(0.4, 0.0, 1.0)
    rho0 = gaussian(0.6, 0.5, 1.2)
    st = make_markers((-4.0, 4.0), 128, u0, rho0, du0=u0.derivative)
    q0 = (st.alpha ** 2 + st.rho ** 2) * st.J
    m0 = st.rho * st.J
    res = evolve_markers(st, t_final=2.0, dt=2e-3)
    assert not res.broke
    q1 = (res.state.alpha ** 2 + res.state.rho ** 2) * res.state.J
    m1 = res.state.rho * res.state.J
    scale = np.max(np.abs(q0))
    assert np.max(np.abs(q1 - q0)) < 1e-10 * scale
    assert np.max(np.abs(m1 - m0)) < 1e-10 * max(np.max(np.abs(m0)), 1e-30)
    # and so is the total energy reported step by step
    E = np.array([e for _, e in res.energy_history])
    assert np.max(np.abs(E - E[0])) < 1e-10 * max(E[0], 1e-30)


# --- wave breaking -----------------------------------------------------------


def test_breaking_prediction_prefers_real_negative_markers():
    t, i = breaking_time_riccati(np.array([-2.0, -4.0, 1.0]),
                                 np.array([0.0, 0.0, 0.0]),
                                 np.array([1.0, 1.0, 1.0]))
    assert (t, i) == (0.5, 1)
    t, i = breaking_time_riccati(np.array([-2.0, -4.0]),
                                 np.array([0.5, 0.5]),
                                 np.array([1.0, 1.0]))
    assert math.isinf(t) and i == -1


def test_density_free_gradient_blowup_time():
    # steepest initial slope -2 with rho = 0 breaks at t = 1 exactly
    amp = math.sqrt(2.0) * math.exp(0.5)
    u0 = gaussian(amp, 0.0, 1.0)
    st = make_markers((-4.5, 4.5), 2048, u0, zero(), du0=u0.derivative)
    a_min = float(np.min(st.alpha))
    assert a_min == pytest.approx(-2.0, abs=1e-4)
    res = evolve_markers(st, t_final=2.0, dt=1e-3)
    assert res.broke
    assert res.t_star == pytest.approx(-2.0 / a_min, rel=1e-4)
    assert res.t_star == pytest.approx(1.0, rel=0.01)
    # the breaking marker sits where the slope was steepest
    assert res.marker_index == int(np.argmin(st.alpha))
    assert res.state.time < res.t_star <= 2.0


def test_uniform_density_floor_prevents_breaking():
    # rho bounded below keeps every Riccati circle clear of the real axis:
    # no collapse, and |alpha| never exceeds sup|w0|
    u0 = bump_slope(0.5, 0.0, 1.0)
    st = make_markers((-4.0, 4.0), 256, u0, constant(1.2),
                      du0=u0.derivative)
    w0_sup = float(np.max(np.sqrt(st.alpha ** 2 + st.rho ** 2)))
    res = evolve_markers(st, t_final=10.0, dt=0.01)
    assert not res.broke
    assert res.t_star is None and res.marker_index is None
    assert res.sup_alpha <= w0_sup + 1e-9
    assert np.min(res.state.J) > 0.0


def test_zero_data_is_inert():
    st = make_markers((-2.0, 2.0), 32, zero(), zero(), du0=zero().derivative)
    res = evolve_markers(st, t_final=5.0, dt=0.05)
    assert not res.broke
    assert res.state.energy == 0.0
    assert np.max(np.abs(res.state.u)) == 0.0
    assert np.array_equal(res.state.x, st.x)


# --- evolve_markers bookkeeping ----------------------------------------------


def test_evolve_entry_checks():
    u0 = gaussian(3.0)  # steep: sup|du0| = 3 sqrt(2) e^{-1/2}
    st = make_markers((-4.0, 4.0), 64, u0, zero(), du0=u0.derivative)
    with pytest.raises(ConfigError, match="sup"):
        evolve_markers(st, t_final=1.0, dt=0.1)
    with pytest.raises(ConfigError):
        evolve_markers(st, t_final=1.0, dt=-0.01)
    for dt in (math.inf, math.nan):
        with pytest.raises(ConfigError):
            evolve_markers(st, t_final=1.0, dt=dt)
    with pytest.raises(ConfigError, match="whole number"):
        evolve_markers(st, t_final=1.0, dt=0.0003)
    with pytest.raises(ConfigError, match="shorter than one step"):
        evolve_markers(st, t_final=1e-12, dt=0.01)
    for t_final in (-1.0, math.nan):
        with pytest.raises(ConfigError, match="must be positive"):
            evolve_markers(st, t_final=t_final, dt=0.01)


# --- bit for bit against the tuple RK4 ----------------------------------------
# evolve_markers keeps (x, u, alpha, rho, J) as one (5, m) stack and writes
# the RK4 stages into buffers kept for the run; the oracle below is the
# tuple form it replaced, with the same operations in the same order.


def _oracle_rhs(x, u, alpha, rho, J, dxi):
    if np.min(J) <= 0.0:
        raise WavebreakingError("characteristics crossed",
                                marker_index=int(np.argmin(J)))
    cell = (alpha ** 2 + rho ** 2) * J * dxi
    left_mass = np.concatenate(([0.0], np.cumsum(cell)[:-1]))
    return (u,
            0.5 * left_mass,
            0.5 * (rho ** 2 - alpha ** 2),
            -alpha * rho,
            alpha * J)


def _oracle_rk4(y, dt, dxi):
    k1 = _oracle_rhs(*y, dxi)
    y2 = tuple(a + 0.5 * dt * k for a, k in zip(y, k1))
    k2 = _oracle_rhs(*y2, dxi)
    y3 = tuple(a + 0.5 * dt * k for a, k in zip(y, k2))
    k3 = _oracle_rhs(*y3, dxi)
    y4 = tuple(a + dt * k for a, k in zip(y, k3))
    k4 = _oracle_rhs(*y4, dxi)
    return tuple(a + (dt / 6.0) * (p + 2 * q + 2 * r_ + s_)
                 for a, p, q, r_, s_ in zip(y, k1, k2, k3, k4))


def _oracle_run(st, t_final, dt):
    """Tuple RK4 to t_final, stopping where evolve_markers stops: returns
    the last healthy level, the energy history and, on breaking, the
    Riccati prediction (t_star, marker_index)."""
    y, t = (st.x, st.u, st.alpha, st.rho, st.J), st.time

    def energy(y):
        return MarkerState(st.xi, *y).energy

    hist = [(t, energy(y))]
    for _ in range(int(round(t_final / dt))):
        try:
            nxt = _oracle_rk4(y, dt, st.dxi)
            collapsed = np.min(nxt[4]) <= 1e-4
        except WavebreakingError:
            collapsed = True
        if collapsed:
            remaining, idx = breaking_time_riccati(*y[2:])
            return y, hist, (t + remaining, idx)
        y, t = nxt, t + dt
        hist.append((t, energy(y)))
    return y, hist, (None, None)


def _assert_matches_oracle(st, t_final, dt):
    y, hist, (t_star, idx) = _oracle_run(st, t_final, dt)
    res = evolve_markers(st, t_final=t_final, dt=dt)
    for name, want in zip(("x", "u", "alpha", "rho", "J"), y):
        assert np.array_equal(getattr(res.state, name), want), name
    assert np.array_equal(np.array(res.energy_history), np.array(hist))
    assert res.state.time == hist[-1][0]
    assert (res.t_star, res.marker_index) == (t_star, idx)
    return res


def test_stacked_rk4_matches_the_tuple_oracle_with_density():
    u0 = gaussian(0.5)
    st = make_markers((-4.0, 4.0), 256, u0, constant(1.2), du0=u0.derivative)
    res = _assert_matches_oracle(st, 2.0, 0.01)
    assert not res.broke and len(res.energy_history) == 201


def test_stacked_rk4_matches_the_tuple_oracle_through_breaking():
    amp = math.sqrt(2.0) * math.exp(0.5)
    u0 = gaussian(amp, 0.0, 1.0)
    st = make_markers((-4.5, 4.5), 256, u0, zero(), du0=u0.derivative)
    res = _assert_matches_oracle(st, 2.0, 5e-3)
    assert res.broke and res.state.time < res.t_star < 2.0


# --- sample_eulerian ---------------------------------------------------------


def test_sampling_reproduces_marker_values_at_markers():
    u0 = gaussian(0.4, 0.0, 1.5)
    rho0 = gaussian(0.5, 0.3, 1.0)
    st = make_markers((-4.0, 4.0), 128, u0, rho0, du0=u0.derivative)
    u_s, _ = sample_eulerian(st, st.x[3:-3])
    assert np.max(np.abs(u_s - st.u[3:-3])) < 1e-14


def test_sampling_conserves_density_mass():
    u0 = bump_slope(0.4, 0.0, 1.0)
    rho0 = gaussian(0.7, 0.0, 1.0)
    st = make_markers((-4.0, 4.0), 256, u0, rho0, du0=u0.derivative)
    res = evolve_markers(st, t_final=1.0, dt=2e-3)
    xs = np.linspace(res.state.x[0], res.state.x[-1], 20001)
    _, rho_s = sample_eulerian(res.state, xs)
    mass_sampled = float(np.trapezoid(rho_s, xs))
    dens = res.state.rho * res.state.J
    mass_markers = float(np.sum(0.5 * (dens[1:] + dens[:-1]) * res.state.dxi))
    assert mass_sampled == pytest.approx(mass_markers, abs=1e-8)


def test_sampling_accuracy_improves_with_marker_count():
    u_true = gaussian(0.4, 0.0, 1.2)
    errs = []
    for m in (64, 128, 256):
        st = make_markers((-4.0, 4.0), m, u_true, zero(),
                          du0=u_true.derivative)
        xq = np.linspace(-3.0, 3.0, 1001)
        u_s, _ = sample_eulerian(st, xq)
        errs.append(float(np.max(np.abs(u_s - u_true(xq)))))
    assert errs[0] > errs[1] > errs[2]
    # shape-preserving resampling: at least second order through extrema
    assert errs[0] / errs[2] > 12.0


def test_sampling_domain_guards():
    u0 = gaussian(0.2)
    st = make_markers((-2.0, 2.0), 32, u0, zero(), du0=u0.derivative)
    with pytest.raises(DomainError, match="span"):
        sample_eulerian(st, np.array([0.0, 10.0]))
    st.x[10] = st.x[9] - 1e-9  # fold the map
    with pytest.raises(DomainError, match="increasing"):
        sample_eulerian(st, np.array([0.0]))
