"""Constant-speed complex solver: d'Alembert, Duhamel, Picard windows."""

import math
from functools import partial

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import erf

from varwave import (AprioriViolationError, ComplexField, ConfigError,
                     Grid1D, NonContractionError, SemilinearConfig,
                     StateEscapeError, apriori_constants,
                     contraction_window, ensure_valid,
                     flat_point_potential, free_wave, picard_iterates,
                     picard_solve, reference_potential, source_term,
                     state_distance, zero_potential)
from varwave import semilinear
from varwave.semilinear import _dalembert, _march, _padded


# --- source_term -------------------------------------------------------------


def test_source_vanishes_at_origin_and_matches_reference_formula():
    p = reference_potential()
    assert source_term(p, np.array([0.0 + 0.0j]))[0] == 0.0
    # W0'(s) = 2 s / (1-s)^3 for the reference potential
    s = np.array([0.1, 0.3, 0.6])
    got = source_term(p, s.astype(complex)).real
    assert np.allclose(got, 2.0 * s / (1.0 - s) ** 3, rtol=1e-12)


def test_source_rotation_equivariance():
    p = reference_potential()
    z = np.array([0.3 + 0.1j, 0.05 - 0.2j, 1e-9 + 0j])
    for theta in (0.4, 1.3, -2.0):
        rot = np.exp(1j * theta)
        assert np.allclose(source_term(p, rot * z), rot * source_term(p, z),
                           rtol=1e-10, atol=1e-18)


def test_source_smooth_through_zero():
    # the small-|z| expansion must join the exact ratio without a jump
    p = reference_potential()
    s = np.array([1e-8, 0.999e-7, 1.001e-7, 1e-6])
    vals = source_term(p, s.astype(complex)).real / s
    # ratio = 2/(1-s)^3 = 2 + 6s + 12s^2 + ... near zero
    assert np.max(np.abs(vals - (2.0 + 6.0 * s))) < 2e-11
    # across the switch the increment is the genuine slope, no extra jump
    assert abs((vals[2] - vals[1]) - 6.0 * (s[2] - s[1])) < 1e-12


def test_source_evaluates_origin_derivatives_once_per_potential():
    import dataclasses
    calls = []

    def counting(ev):
        def wrapped(s):
            calls.append(np.size(s))
            return ev(s)
        return wrapped

    ref = reference_potential()
    p = dataclasses.replace(ref, eval_2=counting(ref.eval_2),
                            eval_3=counting(ref.eval_3))
    z = np.array([0.0, 1e-9, 0.2 - 0.1j])
    for _ in range(5):
        got = source_term(p, z)
    assert calls == [1, 1]
    assert np.array_equal(got, source_term(ref, z))
    # W0''(0) = 2 and W0'''(0) = 12 for the reference potential
    assert p.origin_derivatives == (2.0, 12.0)


def test_source_escape_guard():
    from varwave import StateEscapeError
    p = reference_potential()
    with pytest.raises(StateEscapeError):
        source_term(p, np.array([0.5, 1.0 + 0j]))


# --- free_wave ---------------------------------------------------------------


def _zero_velocity_bump(g, amp=0.2, width=0.8):
    zeta = amp * np.exp(-(g.nodes / width) ** 2)
    return ComplexField(g, zeta.astype(complex), np.zeros(g.n, complex))


def test_free_wave_splits_zero_velocity_data_exactly():
    g = Grid1D(-8.0, 8.0, 513)
    f0 = _zero_velocity_bump(g)
    c, t = 2.0, 1.5  # c t / dx = 96 cells
    f1 = free_wave(f0, c, t)
    h = lambda x: 0.2 * np.exp(-(x / 0.8) ** 2)
    exact = 0.5 * (h(g.nodes - c * t) + h(g.nodes + c * t))
    assert np.max(np.abs(f1.zeta - exact)) < 1e-15
    assert f1.time == pytest.approx(1.5)


def test_free_wave_velocity_integral():
    # zeta0 = 0, zeta_t0 = e^{-x^2}: zeta(t) = (1/2c) int_{x-ct}^{x+ct} e^{-y^2}
    g = Grid1D(-8.0, 8.0, 2049)
    c, t = 1.0, 2.0
    zt0 = np.exp(-g.nodes ** 2)
    f0 = ComplexField(g, np.zeros(g.n, complex), zt0.astype(complex),
                      validate=False)
    f1 = free_wave(f0, c, t)
    exact = (math.sqrt(math.pi) / (4.0 * c)) * (
        erf(g.nodes + c * t) - erf(g.nodes - c * t))
    mask = np.abs(g.nodes) < 5.0  # stay clear of the far-field extension
    assert np.max(np.abs(f1.zeta[mask] - exact[mask])) < 5e-6


def test_free_wave_preserves_traveling_profile_second_order():
    h = lambda x: 0.2 * np.exp(-x ** 2)
    hp = lambda x: 0.2 * np.exp(-x ** 2) * (-2.0 * x)
    c, t = 1.0, 1.0
    errs = []
    for n in (257, 513):
        g = Grid1D(-8.0, 8.0, n)
        f0 = ComplexField(g, h(g.nodes).astype(complex),
                          (-c * hp(g.nodes)).astype(complex))
        f1 = free_wave(f0, c, t)
        errs.append(np.max(np.abs(f1.zeta - h(g.nodes - c * t))))
    assert errs[0] / errs[1] == pytest.approx(4.0, rel=0.3)


def _reference_shift(arr, k, fill):
    """Sample arr at index i+k, constant fill outside."""
    n = arr.shape[0]
    out = np.full(n, fill, dtype=arr.dtype)
    if k >= 0:
        if k < n:
            out[: n - k] = arr[k:]
    elif -k < n:
        out[-k:] = arr[: n + k]
    return out


def _reference_free_wave(f0, c, m):
    """The d'Alembert step free_wave took before the padded stacks: shift
    by m cells with constant fill, the velocity prefix clamped at its ends."""
    g, z0, zt0, ff = f0.grid, f0.zeta, f0.zeta_t, f0.far_field
    pref = np.concatenate(([0.0 + 0.0j],
                           np.cumsum(0.5 * (zt0[1:] + zt0[:-1]) * g.dx)))
    zx0 = np.gradient(z0, g.dx, edge_order=2)
    sh = _reference_shift
    zeta = (0.5 * (sh(z0, m, ff) + sh(z0, -m, ff))
            + (sh(pref, m, pref[-1]) - sh(pref, -m, pref[0])) / (2.0 * c))
    zeta_t = (0.5 * c * (sh(zx0, m, 0.0) - sh(zx0, -m, 0.0))
              + 0.5 * (sh(zt0, m, 0.0) + sh(zt0, -m, 0.0)))
    return zeta, zeta_t


_bounded_complex = st.complex_numbers(max_magnitude=0.5, allow_nan=False,
                                      allow_infinity=False)


@st.composite
def _compact_data_and_shift(draw):
    """Random complex data with a nonzero far field, perturbed (zeta and
    zeta_t) only strictly inside the grid, and an aligned shift m < n."""
    n = draw(st.integers(16, 48))
    x_min = draw(st.floats(-10.0, 10.0))
    g = Grid1D(x_min, x_min + draw(st.floats(0.5, 20.0)), n)
    lo = draw(st.integers(1, n - 2))
    hi = draw(st.integers(lo, n - 2))
    ff = draw(_bounded_complex.filter(lambda z: z != 0))
    bump = np.zeros(n, complex)
    vel = np.zeros(n, complex)
    bump[lo:hi + 1] = draw(st.lists(_bounded_complex, min_size=hi - lo + 1,
                                    max_size=hi - lo + 1))
    vel[lo:hi + 1] = draw(st.lists(_bounded_complex, min_size=hi - lo + 1,
                                   max_size=hi - lo + 1))
    f0 = ComplexField(g, ff + bump, vel, far_field=ff, validate=False)
    return f0, draw(st.floats(0.1, 10.0)), draw(st.integers(0, n - 1))


def _free_march(f0, cfg, m):
    """The free levels of an m-step window from f0, as an (m+1, 2, n)
    stack: the march with no source, iterate 0 of the Picard check."""
    return np.array(list(_march(f0, _dalembert(f0, cfg.c, -1, m), cfg, 0.0,
                                lambda j, z: 0.0)))


@settings(max_examples=200, deadline=None)
@given(_compact_data_and_shift())
def test_free_wave_exact_on_aligned_shifts(case):
    f0, c, m = case
    dt = f0.grid.dx / c
    fw = free_wave(f0, c, m * dt)
    zeta, zeta_t = _reference_free_wave(f0, c, m)
    assert fw.zeta.tobytes() == zeta.tobytes()
    assert fw.zeta_t.tobytes() == zeta_t.tobytes()
    # the lattice's free march gives the free_wave levels: row for row up
    # to level 1, up to rounding after; it pins the ends, where f0 is at
    # its far field but a later level need not be
    base = _free_march(f0, SemilinearConfig(c=c, dt=dt, T_window=math.inf), m)
    for j in range(m + 1):
        fw = free_wave(f0, c, j * dt)
        for got, want in ((base[j, 0], fw.zeta), (base[j, 1], fw.zeta_t)):
            scale = max(1.0, float(np.max(np.abs(want))))
            assert np.max(np.abs(got - want)[1:-1]) <= 1e-12 * scale
    assert np.array_equal(base[0, 0], f0.zeta)
    assert np.array_equal(base[0, 1], f0.zeta_t)


def test_free_wave_requires_aligned_time():
    g = Grid1D(-8.0, 8.0, 257)
    f0 = _zero_velocity_bump(g)
    with pytest.raises(ConfigError, match="whole number"):
        free_wave(f0, 1.0, 0.7 * g.dx)
    with pytest.raises(ConfigError):
        free_wave(f0, 1.0, -g.dx)


# --- Duhamel cone corrections -----------------------------------------------


def _lattice_corrections(g, levels, source, q_ff, c):
    """The lattice march's Duhamel corrections at every level, as (zeta,
    zeta_t) stacks: the march from the zero state over the sources of the
    given levels; its ends are pinned to 0."""
    zero = np.zeros(g.n, dtype=complex)
    f0 = ComplexField(g, zero, zero, validate=False)
    below = np.zeros((2, g.n + 2 * (levels.shape[0] - 1)), dtype=complex)
    cfg = SemilinearConfig(c=c, dt=g.dx / c, T_window=math.inf)
    out = np.array(list(_march(f0, below, cfg, q_ff,
                               lambda j, z: source(levels[j]))))
    return out[:, 0], out[:, 1]


def _duhamel_last(g, hist, p, c, dt, far_field=0.0 + 0.0j):
    """Cone corrections to (zeta, zeta_t) at the last level of a history."""
    q_ff = complex(source_term(p, np.asarray([far_field]))[0])
    corr_z, corr_zt = _lattice_corrections(g, hist, partial(source_term, p),
                                           q_ff, g.dx / dt)
    return corr_z[-1], corr_zt[-1]


def test_duhamel_zero_potential_is_inert():
    g = Grid1D(-8.0, 8.0, 257)
    p = zero_potential()
    hist = np.stack([0.3 * np.exp(-g.nodes ** 2) * (1.0 + 0.1 * l)
                     for l in range(5)]).astype(complex)
    dz, dzt = _duhamel_last(g, hist, p, 1.0, g.dx)
    assert np.max(np.abs(dz)) == 0.0
    assert np.max(np.abs(dzt)) == 0.0


def test_duhamel_constant_history_closed_form():
    # constant source q: corrections are -q t^2 / 2 and -q t, exactly
    g = Grid1D(-8.0, 8.0, 257)
    p = reference_potential()
    zstar = 0.4 + 0.0j
    m = 12
    c = 1.0
    dt = g.dx / c
    hist = np.full((m + 1, g.n), zstar, dtype=complex)
    dz, dzt = _duhamel_last(g, hist, p, c, dt, far_field=zstar)
    q = source_term(p, np.array([zstar]))[0]
    t = m * dt
    # inside the ends, which the march pins to the zero state's far field
    assert np.max(np.abs(dz[1:-1] - (-q * t * t / 2.0))) < 1e-14
    assert np.max(np.abs(dzt[1:-1] - (-q * t))) < 1e-14


def test_duhamel_self_convergence_second_order():
    # fixed final time, fixed smooth history function, refined grids
    c, T = 1.0, 0.5
    h = lambda x, t: 0.3 * np.exp(-x ** 2) * (1.0 + t)
    outs = []
    for n in (129, 257, 513):
        g = Grid1D(-8.0, 8.0, n)
        dt = g.dx / c
        m = int(round(T / dt))
        hist = np.stack([h(g.nodes, l * dt) for l in range(m + 1)]).astype(complex)
        dz, _ = _duhamel_last(g, hist, reference_potential(), c, dt)
        outs.append(dz)
    # compare on the shared coarse nodes, finest run as reference
    e_coarse = np.max(np.abs(outs[0] - outs[2][::4]))
    e_mid = np.max(np.abs(outs[1] - outs[2][::2]))
    assert e_coarse / e_mid == pytest.approx(4.0, rel=0.4)


def _concatenated_prefix(q, q_ff, dx, pad):
    """The one-level trapezoid prefix integral, linearly extended by the
    far-field source value on both sides, built by concatenation."""
    pref = np.concatenate(([0.0 + 0.0j], np.cumsum(0.5 * (q[1:] + q[:-1]) * dx)))
    left = pref[0] - q_ff * dx * np.arange(pad, 0, -1)
    right = pref[-1] + q_ff * dx * np.arange(1, pad + 1)
    return np.concatenate((left, pref, right))


def _loop_cone_corrections(grid, levels, source, q_ff, c, dt, corr_z, corr_zt):
    """The O(m^2 n) cone sum: every (level j, source level l) pair summed
    directly, trapezoid weights 1/2 at l = 0 and l = j, in space through
    prefix integrals of the sources."""
    q_levels = source(levels)
    m, n = q_levels.shape[0] - 1, grid.n
    pad = m + 1
    prefs = np.stack([_concatenated_prefix(q, q_ff, grid.dx, pad)
                      for q in q_levels])
    qs = np.stack([_padded(q, q_ff, pad) for q in q_levels])
    corr_z[0] = corr_zt[0] = 0.0
    for j in range(1, m + 1):
        acc_z = np.zeros(n, dtype=complex)
        acc_zt = np.zeros(n, dtype=complex)
        for l in range(j + 1):
            w = 0.5 if l in (0, j) else 1.0
            hi = slice(pad + j - l, pad + j - l + n)
            lo = slice(pad - j + l, pad - j + l + n)
            acc_z += w * (prefs[l, hi] - prefs[l, lo])
            acc_zt += w * (qs[l, hi] + qs[l, lo])
        corr_z[j] = -(dt / (2.0 * c)) * acc_z
        corr_zt[j] = -(dt / 2.0) * acc_zt


def _identity(q):
    return q


@pytest.mark.parametrize("m", [1, 2, 3, 5, 15, 16, 17, 33, 40])
@pytest.mark.parametrize("n", [16, 33, 257])
def test_cone_running_sums_match_double_loop(n, m):
    rng = np.random.default_rng(1000 * n + m)
    g = Grid1D(-3.0, 5.0, n)
    c = 1.7
    q = rng.normal(size=(m + 1, n)) + 1j * rng.normal(size=(m + 1, n))
    q_ff = 0.3 - 0.7j
    got = _lattice_corrections(g, q, _identity, q_ff, c)
    want = [np.full((m + 1, n), np.nan, dtype=complex) for _ in range(2)]
    _loop_cone_corrections(g, q, _identity, q_ff, c, g.dx / c, *want)
    for new, loop in zip(got, want):
        assert np.all(new[0] == 0.0)
        scale = max(1.0, float(np.max(np.abs(loop))))
        # inside the ends, which the march pins to the far field
        assert np.max(np.abs(new - loop)[:, 1:-1]) <= 1e-12 * scale
        assert np.all(new[:, [0, -1]] == 0.0)


def _picard_map(f0, cfg, p, hat):
    """One Picard map of a window from f0: the march over the sources of
    the (zeta, zeta_t) levels hat, as an (m+1, 2, n) stack."""
    m = hat.shape[0] - 1
    q_ff = complex(source_term(p, np.asarray([f0.far_field]))[0])
    return np.array(list(_march(f0, _dalembert(f0, cfg.c, -1, m), cfg, q_ff,
                                lambda j, z: source_term(p, hat[j, 0]))))


def _marched_window(f0, p, cfg, m):
    """The levels picard_solve marches over one m-step window from f0."""
    levels = []
    picard_solve(f0, p, cfg, m * cfg.dt, observer=levels.append)
    return np.array([(f.zeta, f.zeta_t) for f in levels])


def _start_of(levels, f0, m, cfg):
    """The state at level m of a window from f0, to start the next one."""
    return ComplexField(f0.grid, levels[m, 0], levels[m, 1],
                        far_field=f0.far_field, time=f0.time + m * cfg.dt,
                        validate=False)


def _cone_fixed_point(f0, p, cfg, m):
    """An m-step window as free_wave levels plus the double-loop cone sum,
    iterated m + 2 times: the window map is nilpotent, so iterate m + 1 is
    its fixed point and the last one leaves it in place."""
    free = np.array([(f.zeta, f.zeta_t) for f in
                     (free_wave(f0, cfg.c, j * cfg.dt) for j in range(m + 1))])
    q_ff = complex(source_term(p, np.asarray([f0.far_field]))[0])
    levels = free
    for _ in range(m + 2):
        corr = np.empty((2, m + 1, f0.grid.n), dtype=complex)
        _loop_cone_corrections(f0.grid, levels[:, 0], partial(source_term, p),
                               q_ff, cfg.c, cfg.dt, *corr)
        levels = free + corr.transpose(1, 0, 2)
        levels[:, 0, [0, -1]] = f0.far_field
        levels[:, 1, [0, -1]] = 0.0
    return levels


def test_picard_iteration_unchanged_by_running_sums():
    # the causal lattice march against the fixed point of free_wave plus
    # the double-loop cone sum, over two 32-step windows
    g = Grid1D(-8.0, 8.0, 257)
    zeta = 0.1 * np.exp(-g.nodes ** 2)
    f0 = ComplexField(g, zeta.astype(complex), np.zeros(g.n, complex))
    p = ensure_valid(reference_potential())
    cfg = SemilinearConfig(c=1.0, dt=g.dx, T_window=32 * g.dx)
    new = picard_solve(f0, p, cfg, 64 * g.dx)
    start = f0
    for _ in range(2):
        old = _cone_fixed_point(start, p, cfg, 32)
        start = _start_of(old, start, 32, cfg)
    for a, b in ((new.field.zeta, start.zeta), (new.field.zeta_t, start.zeta_t)):
        assert np.max(np.abs(a - b)) <= 1e-12 * np.max(np.abs(b))
    assert new.trace.diff_norms == [[], []]


def _all_levels_picard(f0, p, cfg, m):
    """Picard iteration of one window with fresh arrays for every iterate,
    the distance taken by state_distance over every level 0..m, stopped by
    fields.contraction_stop; returns the last iterate and the diffs."""
    hat, diffs = _free_march(f0, cfg, m), []
    for _ in range(semilinear._PICARD_MAX):
        new = _picard_map(f0, cfg, p, hat)
        diffs.append(float(np.max(state_distance(
            f0.grid, new[:, 0], new[:, 1], hat[:, 0], hat[:, 1], p))))
        hat = new
        if semilinear.contraction_stop(diffs, cfg.picard_tol):
            return hat, diffs
    raise NonContractionError("window failed to contract", diff_norms=diffs)


@pytest.mark.parametrize("amp, width, c, window_steps, steps, windows", [
    (2e-10, 9.0, 1.0, 1, 8, 8),    # one-step windows, edge 9e-11 off far field
    (0.1, 1.0, 1.0, 8, 24, 3),     # three 8-step windows, edge 1.6e-29
    # two 40-step windows; c = 8 keeps the window (40 dt = 0.625) short
    # enough to contract
    (0.1, 1.0, 8.0, 40, 80, 2),
], ids=["one_step_windows", "three_8_step_windows", "two_40_step_windows"])
def test_picard_distance_without_fixed_level_matches_all_levels(
        amp, width, c, window_steps, steps, windows):
    # every iterate of picard_iterates, the free one too, starts from the
    # pinned start state, so leaving level 0 out of its distances changes
    # none of them, even where the start state's ends are off the far field
    g = Grid1D(-8.0, 8.0, 129)
    zeta = amp * np.exp(-(g.nodes / width) ** 2)
    start = ComplexField(g, zeta.astype(complex), np.zeros(g.n, complex))
    p = ensure_valid(reference_potential())
    cfg = SemilinearConfig(c=c, dt=g.dx / c, T_window=math.inf)
    for _ in range(steps // window_steps):
        new_z, new_zt, diffs = picard_iterates(start, p, cfg, window_steps)
        old, old_diffs = _all_levels_picard(start, p, cfg, window_steps)
        assert diffs == old_diffs
        assert np.array_equal(new_z, old[:, 0])
        assert np.array_equal(new_zt, old[:, 1])
        start = _start_of(old, start, window_steps, cfg)
    assert steps // window_steps == windows


def _lattice_iterates(f0, p, m, count):
    """Iterates 0..count-1 of an m-level window's Picard map, each as an
    (m+1, 2, n) stack of levels; as in picard_iterates, iterate 0 is the
    free march."""
    cfg = SemilinearConfig(c=1.0, dt=f0.grid.dx, T_window=m * f0.grid.dx)
    iterates = [_free_march(f0, cfg, m)]
    for _ in range(1, count):
        iterates.append(_picard_map(f0, cfg, p, iterates[-1]))
    return iterates


def test_window_iterates_settle_one_level_per_iterate():
    # iterate k's zeta level j reads the sources of iterate k-1's levels
    # below j, its zeta_t level j those up to j: so iterate k has its final
    # zeta on levels 0..k and zeta_t on 0..k-1, and iterate m+1 is the
    # fixed point.  Every iterate pins its ends, so level 0 is alike in all.
    g = Grid1D(-8.0, 8.0, 129)
    m = 8
    zeta = 0.3 * np.exp(-g.nodes ** 2)
    zeta[0] = zeta[-1] = 0.0
    f0 = ComplexField(g, zeta.astype(complex), 0.2j * np.exp(-g.nodes ** 2))
    p = ensure_valid(reference_potential())
    iterates = _lattice_iterates(f0, p, m, m + 3)
    final = iterates[m + 1]
    scale = np.max(np.abs(final), axis=(0, 2))

    def off(a, b, which, levels):
        return np.max(np.abs(a[levels, which] - b[levels, which])) / scale[which]

    # and no further: the next level still moves
    for k in range(m + 1):
        assert off(iterates[k], final, 0, slice(0, k + 1)) <= 1e-15
        if k < m:
            assert off(iterates[k], final, 0, slice(k + 1, k + 2)) > 1e-10
        if k > 0:
            assert off(iterates[k], final, 1, slice(0, k)) <= 1e-15
            assert off(iterates[k], final, 1, slice(k, k + 1)) > 1e-10
    assert off(iterates[m + 2], final, 0, slice(None)) <= 1e-15
    assert off(iterates[m + 2], final, 1, slice(None)) <= 1e-15
    # the causal march is that fixed point
    marched = _marched_window(
        f0, p, SemilinearConfig(c=1.0, dt=g.dx, T_window=math.inf), m)
    assert off(marched, final, 0, slice(1, None)) <= 1e-15
    assert off(marched, final, 1, slice(1, None)) <= 1e-15


def test_picard_window_stops_within_its_tolerance_of_the_fixed_point():
    # the fixed point of an m-level window is its iterate m+1; the Picard
    # check stops before it, within picard_tol in state_distance at every
    # level
    g = Grid1D(-8.0, 8.0, 129)
    m = 8
    zeta = 0.1 * np.exp(-g.nodes ** 2)
    zeta[0] = zeta[-1] = 0.0
    f0 = ComplexField(g, zeta.astype(complex), 0.05j * np.exp(-g.nodes ** 2))
    p = ensure_valid(reference_potential())
    final = _lattice_iterates(f0, p, m, m + 2)[-1]
    cfg = SemilinearConfig(c=1.0, dt=g.dx, T_window=m * g.dx)
    zeta, zeta_t, diffs = picard_iterates(f0, p, cfg, m)
    assert len(diffs) < m + 1
    dist = state_distance(g, zeta, zeta_t, final[:, 0], final[:, 1], p)
    assert 0.0 < np.max(dist) <= cfg.picard_tol


@pytest.mark.parametrize("n, m, amp", [(129, 8, 0.1), (257, 64, 0.2),
                                       (1025, 1, 0.3)])
def test_picard_map_leaves_the_marched_window_in_place(n, m, amp):
    # the march is the window's fixed point: one Picard map over its own
    # levels gives them back
    g = Grid1D(-8.0, 8.0, n)
    zeta = (amp * np.exp(-g.nodes ** 2)).astype(complex)
    f0 = ComplexField(g, zeta, 0.1j * np.exp(-(g.nodes - 1.0) ** 2))
    p = ensure_valid(reference_potential())
    cfg = SemilinearConfig(c=1.0, dt=g.dx, T_window=math.inf)
    marched = _marched_window(f0, p, cfg, m)
    marched[0] = _picard_map(f0, cfg, p, marched)[0]  # the pinned start
    again = _picard_map(f0, cfg, p, marched)
    scale = np.max(np.abs(marched), axis=(0, 2))
    for which in (0, 1):
        assert (np.max(np.abs(again[:, which] - marched[:, which]))
                <= 1e-15 * scale[which])


def test_picard_solve_matches_the_picard_check_over_two_windows():
    g = Grid1D(-8.0, 8.0, 257)
    zeta = (0.2 * np.exp(-g.nodes ** 2)).astype(complex)
    f0 = ComplexField(g, zeta, 0.1j * np.exp(-g.nodes ** 2))
    p = ensure_valid(reference_potential())
    m = 16
    cfg = SemilinearConfig(c=1.0, dt=g.dx, T_window=m * g.dx, picard_tol=1e-13)
    res = picard_solve(f0, p, cfg, 2 * m * g.dx)
    start = f0
    for _ in range(2):
        z, zt, diffs = picard_iterates(start, p, cfg, m)
        assert 2 < len(diffs) < m + 1
        start = _start_of(np.stack((z, zt), axis=1), start, m, cfg)
    for got, want in ((res.field.zeta, start.zeta),
                      (res.field.zeta_t, start.zeta_t)):
        assert np.max(np.abs(got - want)) <= 1e-11 * np.max(np.abs(want))


def test_picard_solve_marches_a_window_the_iteration_cannot():
    # the certified run's input (its certified window is 0.37 steps) in
    # one window of 512 steps: the Picard iterates leave |zeta| < 1, while
    # the causal march, the same discrete problem, completes
    g = Grid1D(-7.998046875, 7.998046875, 4096)
    zeta = (0.3 * np.exp(-(g.nodes / 0.6) ** 2)).astype(complex)
    f0 = ComplexField(g, zeta, np.zeros(g.n, complex))
    p = ensure_valid(reference_potential())
    cfg = SemilinearConfig(c=1.0, dt=g.dx, T_window=512 * g.dx)
    with pytest.raises(StateEscapeError):
        picard_iterates(f0, p, cfg, 512)
    res = picard_solve(f0, p, cfg, 512 * g.dx)
    assert res.trace.diff_norms == [[]]
    assert np.max(np.abs(res.field.zeta)) < 1.0


def test_picard_solve_hands_out_fresh_levels():
    # each level is its own pair of arrays, so an observer may keep them all
    g = Grid1D(-8.0, 8.0, 129)
    zeta = (0.2 * np.exp(-g.nodes ** 2)).astype(complex)
    f0 = ComplexField(g, zeta, np.zeros(g.n, complex))
    levels = []
    picard_solve(f0, ensure_valid(reference_potential()),
                 SemilinearConfig(c=1.0, dt=g.dx, T_window=4 * g.dx),
                 10 * g.dx, observer=levels.append)
    arrays = [a for f in levels for a in (f.zeta, f.zeta_t)]
    assert len(arrays) == 22
    for i, a in enumerate(arrays):
        assert not any(np.shares_memory(a, b) for b in arrays[i + 1:])


def _fresh_window_levels(f0, p, cfg, steps):
    """The levels of a picard_solve run rebuilt one window at a time, each
    window from a fresh _march: new buffers, level -1 from _dalembert's
    own zeta_x, and Q_0 recomputed from the start state."""
    q_ff = complex(source_term(p, np.asarray([f0.far_field]))[0])
    win = max(1, int(math.floor(min(cfg.T_window / cfg.dt + 1e-9, steps))))
    levels, state, done = [(f0.zeta, f0.zeta_t)], f0, 0
    while done < steps:
        m = min(win, steps - done)
        window = list(_march(state, _dalembert(state, cfg.c, -1, m), cfg,
                             q_ff, lambda j, z: source_term(p, z)))
        levels += window[1:]
        state = ComplexField(f0.grid, *window[-1], far_field=f0.far_field,
                             time=state.time + m * cfg.dt, validate=False)
        done += m
    return np.array(levels)


@settings(max_examples=60, deadline=None)
@given(n=st.integers(32, 64), steps=st.integers(1, 24),
       window=st.one_of(st.just(math.inf), st.integers(1, 24)),
       amp=st.floats(0.0, 0.2), phase=st.floats(0.0, 2.0 * math.pi),
       flat=st.booleans())
def test_picard_solve_carries_its_seams_as_fresh_windows_would(
        n, steps, window, amp, phase, flat):
    # picard_solve allocates the march's buffers once and hands each
    # window the source and zeta_x of its start state; one-step windows, a
    # shorter last window and one window over the run all match a run of
    # fresh per-window marches, on the reference potential's far field 0
    # and on flat4's equilibrium |far field| = 0.5
    g = Grid1D(-4.0, 4.0, n)
    p = flat_point_potential(0.5) if flat else reference_potential()
    ff = 0.5 * complex(math.cos(phase), math.sin(phase)) if flat else 0j
    bump = amp * np.exp(-2.0 * (g.nodes - 0.3) ** 2) * (1.0 + 0.5j)
    f0 = ComplexField(g, ff + bump, 0.3 * bump, far_field=ff, validate=False)
    cfg = SemilinearConfig(c=1.3, dt=g.dx / 1.3, T_window=window * g.dx / 1.3)
    got = []
    picard_solve(f0, p, cfg, steps * cfg.dt, observer=got.append)
    got = np.array([(f.zeta, f.zeta_t) for f in got])
    want = _fresh_window_levels(f0, p, cfg, steps)
    assert got.shape == want.shape == (steps + 1, 2, n)
    scale = max(1e-300, float(np.max(np.abs(want))))
    assert np.max(np.abs(got - want)) <= 1e-13 * scale


def test_one_step_windows_take_one_source_and_one_slope_per_level(
        monkeypatch):
    # the seam's Q and zeta_x are handed to the next window, not recomputed:
    # k one-step windows evaluate the source at k + 1 levels, plus once for
    # the far-field check, and zeta_x once per level
    counts = {"source": 0, "slope": 0}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(semilinear, "source_term",
                        counted("source", semilinear.source_term))
    monkeypatch.setattr(semilinear, "centered_derivative",
                        counted("slope", semilinear.centered_derivative))
    g = Grid1D(-8.0, 8.0, 129)
    zeta = (0.2 * np.exp(-g.nodes ** 2)).astype(complex)
    f0 = ComplexField(g, zeta, np.zeros(g.n, complex))
    k = 7
    res = picard_solve(f0, reference_potential(),
                       SemilinearConfig(c=1.0, dt=g.dx, T_window=g.dx),
                       k * g.dx)
    assert len(res.trace.diff_norms) == k
    assert counts == {"source": k + 2, "slope": k + 1}


def test_solve_holds_no_level_stack():
    # numpy reports its buffers to tracemalloc, so the peak is the arrays'
    # own bytes, whatever the allocator does with them
    import tracemalloc
    g = Grid1D(-8.0, 8.0, 1025)
    m = 64
    zeta = 0.1 * np.exp(-g.nodes ** 2)
    f0 = ComplexField(g, zeta.astype(complex), np.zeros(g.n, complex))
    p = ensure_valid(reference_potential())
    cfg = SemilinearConfig(c=1.0, dt=g.dx, T_window=m * g.dx)
    picard_solve(f0, p, cfg, m * g.dx)  # first-call caches stay out of it
    tracemalloc.start()
    try:
        before, _ = tracemalloc.get_traced_memory()
        res = picard_solve(f0, p, cfg, m * g.dx)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert res.trace.diff_norms == [[]]
    stack = (m + 1) * g.n * 16
    # measured 0.48 of a stack: about 31 complex lines of n nodes (the
    # march's lines and sources, the energy log's last three levels and one
    # level's temporaries), whatever m is; one (m+1, n) complex stack more
    # would not fit
    assert (peak - before) / stack <= 1.0


# --- contraction_window ------------------------------------------------------


def test_contraction_window_positive_and_shrinks_with_energy():
    p = ensure_valid(reference_potential())
    w1 = contraction_window(p, 0.01)
    w2 = contraction_window(p, 0.1)
    assert 0.0 < w2 < w1


def test_contraction_window_requires_enlarged_budget():
    # the budget 2E exceeds E only for a positive energy
    p = ensure_valid(reference_potential())
    for E in (0.0, -1.0, float("nan")):
        with pytest.raises(ConfigError, match="enlarged budget"):
            contraction_window(p, E)


def test_contraction_window_needs_a_confining_tail():
    with pytest.raises(ConfigError):
        contraction_window(zero_potential(), 1.0)


# --- picard_solve ------------------------------------------------------------


def _solve_setup(n=257, amp=0.05, c=1.0):
    g = Grid1D(-8.0, 8.0, n)
    zeta = amp * np.exp(-g.nodes ** 2)
    f0 = ComplexField(g, zeta.astype(complex), np.zeros(g.n, complex))
    cfg = SemilinearConfig(c=c, dt=g.dx / c, T_window=0.25)
    return g, f0, cfg


def test_picard_zero_potential_reduces_to_free_wave():
    # one window covering the whole span: transport must be exact
    g = Grid1D(-8.0, 8.0, 257)
    zeta = 0.05 * np.exp(-g.nodes ** 2)
    f0 = ComplexField(g, zeta.astype(complex), np.zeros(g.n, complex))
    T = 0.5
    cfg = SemilinearConfig(c=1.0, dt=g.dx, T_window=T)
    res = picard_solve(f0, zero_potential(), cfg, T)
    fw = free_wave(f0, cfg.c, T)
    assert np.max(np.abs(res.field.zeta - fw.zeta)) < 1e-14
    assert np.max(np.abs(res.field.zeta_t - fw.zeta_t)) < 1e-14
    assert res.trace.diff_norms == [[]]
    # source-free: the Picard check stops at its first iterate
    assert picard_iterates(f0, zero_potential(), cfg,
                           round(T / cfg.dt))[2] == [0.0]


def test_picard_window_that_does_not_stop_raises(monkeypatch):
    # picard_tol = 0 never accepts a nonzero change, so the window runs
    # out of iterations and raises with its diffs
    monkeypatch.setattr(semilinear, "_PICARD_MAX", 3)
    g = Grid1D(-8.0, 8.0, 129)
    zeta = 0.1 * np.exp(-g.nodes ** 2)
    f0 = ComplexField(g, zeta.astype(complex), np.zeros(g.n, complex))
    cfg = SemilinearConfig(c=1.0, dt=g.dx, T_window=0.5, picard_tol=0.0)
    with pytest.raises(NonContractionError,
                       match="starting at t = 0.000000") as err:
        picard_iterates(f0, reference_potential(), cfg, 4)
    assert len(err.value.diff_norms) == 3
    assert all(d > 0.0 for d in err.value.diff_norms)
    with pytest.raises(ConfigError, match="at least one step"):
        picard_iterates(f0, reference_potential(), cfg, 0)


def test_picard_constant_equilibrium_is_a_fixed_point():
    g = Grid1D(-8.0, 8.0, 257)
    p = flat_point_potential(0.5)
    f0 = ComplexField(g, np.full(g.n, 0.5 + 0.0j), np.zeros(g.n, complex),
                      far_field=0.5)
    cfg = SemilinearConfig(c=1.0, dt=g.dx, T_window=0.25)
    res = picard_solve(f0, p, cfg, 0.5)
    assert np.max(np.abs(res.field.zeta - 0.5)) < 1e-14
    assert np.max(np.abs(res.field.zeta_t)) < 1e-14


def test_picard_window_seams_refine_second_order():
    # window boundaries re-derive zeta_t discretely, an O(dx^2) perturbation;
    # one-shot and split runs must agree at that order
    p = ensure_valid(reference_potential())
    seams = []
    for n in (257, 513):
        g = Grid1D(-8.0, 8.0, n)
        zeta = 0.05 * np.exp(-g.nodes ** 2)
        f0 = ComplexField(g, zeta.astype(complex), np.zeros(g.n, complex))
        one = picard_solve(f0, p, SemilinearConfig(c=1.0, dt=g.dx, T_window=0.5,
                                                   picard_tol=1e-12), 0.5)
        two = picard_solve(f0, p, SemilinearConfig(c=1.0, dt=g.dx, T_window=0.25,
                                                   picard_tol=1e-12), 0.5)
        seams.append(np.max(np.abs(one.field.zeta - two.field.zeta)))
    assert seams[0] < 1e-4
    assert seams[0] / seams[1] == pytest.approx(4.0, rel=0.4)


def test_picard_iterates_contract_geometrically():
    # the two 4-step windows of a run to t = 0.5, each from the last level
    # of the one before
    g, f0, cfg = _solve_setup(amp=0.1)
    p = ensure_valid(reference_potential())
    measured = 0
    for _ in range(2):
        zeta, zeta_t, diffs = picard_iterates(f0, p, cfg, 4)
        # after the first comparison the ratio must stay below 0.9
        for a, b in zip(diffs[1:-1], diffs[2:]):
            if a > 1e-13:
                measured += 1
                assert b / a <= 0.9
        f0 = ComplexField(g, zeta[-1], zeta_t[-1], time=f0.time + 0.25,
                          validate=False)
    assert measured >= 2


def test_picard_small_amplitude_matches_linear_dispersion():
    # around zeta = 0 the reference potential linearizes to
    # zeta_tt - c^2 zeta_xx + 2 zeta = 0, so a Dirichlet mode sin(kx)
    # oscillates at omega^2 = c^2 k^2 + 2
    n = 513
    g = Grid1D(-8.0, 8.0, n)
    a, k, c = 1e-3, math.pi / 4.0, 1.0
    zeta = a * np.sin(k * g.nodes)
    f0 = ComplexField(g, zeta.astype(complex), np.zeros(g.n, complex))
    cfg = SemilinearConfig(c=c, dt=g.dx / c, T_window=0.25)
    T = 31 * g.dx / c  # near a quarter period, where sensitivity to omega peaks
    res = picard_solve(f0, reference_potential(), cfg, T)
    omega = math.sqrt(c * c * k * k + 2.0)
    exact = a * np.sin(k * g.nodes) * math.cos(omega * T)
    mask = np.abs(g.nodes) < 5.5  # away from boundary contamination
    err = np.max(np.abs(res.field.zeta[mask] - exact[mask]))
    assert err < 0.01 * a
    # the shift away from the potential-free frequency is clearly resolved
    free_exact = a * np.sin(k * g.nodes) * math.cos(c * k * T)
    assert np.max(np.abs(res.field.zeta[mask] - free_exact[mask])) > 50.0 * err


def test_picard_energy_drift_second_order():
    p = ensure_valid(reference_potential())
    drifts = []
    steps = []
    for n in (257, 513, 1025):
        g = Grid1D(-8.0, 8.0, n)
        zeta = 0.1 * np.exp(-g.nodes ** 2)
        f0 = ComplexField(g, zeta.astype(complex), np.zeros(g.n, complex))
        cfg = SemilinearConfig(c=1.0, dt=g.dx, T_window=0.25)
        res = picard_solve(f0, p, cfg, 0.5)
        E = np.array([r.total_E for r in res.energy_reports])
        drifts.append(float(np.max(np.abs(E - E[0]))))
        steps.append(cfg.dt)
    from varwave import fit_order
    order = fit_order(list(zip(steps, drifts)))
    assert 1.7 <= order <= 2.3


def test_picard_refuses_a_non_positive_t_final():
    g, f0, cfg = _solve_setup()
    for t_final in (-0.5, math.nan):
        with pytest.raises(ConfigError, match="must be positive"):
            picard_solve(f0, ensure_valid(reference_potential()), cfg,
                         t_final)


@pytest.mark.parametrize("field, value", [
    ("c", math.nan), ("c", math.inf), ("dt", math.nan), ("dt", math.inf),
    ("T_window", math.nan), ("c", 0.0), ("dt", -1.0), ("T_window", 0.0)])
def test_semilinear_config_refuses_values_it_cannot_run(field, value):
    kwargs = dict(c=1.0, dt=0.0625, T_window=0.25)
    kwargs[field] = value
    with pytest.raises(ConfigError):
        SemilinearConfig(**kwargs)


def test_picard_unbounded_window_is_one_window_over_the_run():
    g, f0, _ = _solve_setup(amp=0.1)
    p = ensure_valid(reference_potential())
    T = 16 * g.dx
    runs = [picard_solve(f0, p, SemilinearConfig(c=1.0, dt=g.dx, T_window=w), T)
            for w in (math.inf, T)]
    assert [len(r.trace.diff_norms) for r in runs] == [1, 1]
    assert runs[0].trace.diff_norms == runs[1].trace.diff_norms
    assert runs[0].field.zeta.tobytes() == runs[1].field.zeta.tobytes()
    assert runs[0].field.zeta_t.tobytes() == runs[1].field.zeta_t.tobytes()


def test_picard_enforces_aligned_step_and_equilibrium_far_field():
    g, f0, cfg = _solve_setup()
    p = ensure_valid(reference_potential())
    bad = SemilinearConfig(c=1.0, dt=0.9 * g.dx, T_window=0.25)
    with pytest.raises(ConfigError, match="grid-aligned"):
        picard_solve(f0, p, bad, 0.5)
    zeta = 0.3 + 0.05 * np.exp(-g.nodes ** 2)
    f_bad = ComplexField(g, zeta.astype(complex), np.zeros(g.n, complex),
                         far_field=0.3)
    with pytest.raises(ConfigError, match="far field"):
        picard_solve(f_bad, p, cfg, 0.5)


@pytest.mark.parametrize("c, cells", [(1.0, 2.0), (2.0, 1.0)])
def test_duhamel_refuses_a_misaligned_step(c, cells):
    # the Duhamel cone moves one cell per level; with c dt = 2 dx the
    # constant history's correction would come out half of -q t^2 / 2
    g = Grid1D(-8.0, 8.0, 257)
    f0 = ComplexField(g, np.full(g.n, 0.4 + 0.0j), np.zeros(g.n, complex),
                      far_field=0.4)
    cfg = SemilinearConfig(c=c, dt=cells * g.dx, T_window=0.25)
    with pytest.raises(ConfigError, match="dt must equal dx/c"):
        picard_solve(f0, flat_point_potential(0.4), cfg, 0.5)


def test_picard_leaves_the_initial_state_untouched():
    g, f0, cfg = _solve_setup(amp=0.1)
    zeta, zeta_t, time = f0.zeta.tobytes(), f0.zeta_t.tobytes(), f0.time
    levels = []
    res = picard_solve(f0, ensure_valid(reference_potential()), cfg, 0.5,
                       observer=levels.append)
    assert len(levels) == 1 + round(0.5 / cfg.dt)
    assert res.field.time == pytest.approx(0.5)
    assert f0.zeta.tobytes() == zeta and f0.zeta_t.tobytes() == zeta_t
    assert f0.time == time


def test_picard_trips_certified_bound_when_over_energized():
    # constants certified for a tiny energy budget cannot cover 0.3-size data
    g, f0, cfg = _solve_setup(amp=0.3)
    p = ensure_valid(reference_potential())
    tiny = apriori_constants(p, 1e-6)
    assert tiny.cE < 0.3
    with pytest.raises(AprioriViolationError):
        picard_solve(f0, p, cfg, 0.5, apriori=tiny)
