"""Constant-speed complex solver: d'Alembert, Duhamel, Picard windows."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import erf

from varwave import (AprioriViolationError, ComplexField, ConfigError,
                     Grid1D, SemilinearConfig, apriori_constants,
                     contraction_window, duhamel_apply, ensure_valid,
                     flat_point_potential, free_wave, picard_solve,
                     reference_potential, source_term, state_distance,
                     zero_potential)
from varwave import semilinear
from varwave.semilinear import (_cone_corrections, _free_levels, _padded,
                                _padded_prefix)


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


@settings(max_examples=200, deadline=None)
@given(_compact_data_and_shift())
def test_free_wave_exact_on_aligned_shifts(case):
    f0, c, m = case
    dt = f0.grid.dx / c
    fw = free_wave(f0, c, m * dt)
    zeta, zeta_t = _reference_free_wave(f0, c, m)
    assert fw.zeta.tobytes() == zeta.tobytes()
    assert fw.zeta_t.tobytes() == zeta_t.tobytes()
    # the window's free levels are the free_wave calls, row for row
    base_z, base_zt = np.empty((2, m + 1, f0.grid.n), dtype=complex)
    _free_levels(f0, c, range(m + 1), base_z, base_zt)
    for j in range(m + 1):
        fw = free_wave(f0, c, j * dt)
        assert base_z[j].tobytes() == fw.zeta.tobytes()
        assert base_zt[j].tobytes() == fw.zeta_t.tobytes()


def test_free_wave_requires_aligned_time():
    g = Grid1D(-8.0, 8.0, 257)
    f0 = _zero_velocity_bump(g)
    with pytest.raises(ConfigError, match="grid aligned"):
        free_wave(f0, 1.0, 0.7 * g.dx)
    with pytest.raises(ConfigError):
        free_wave(f0, 1.0, -g.dx)


# --- duhamel_apply -----------------------------------------------------------


def test_duhamel_zero_potential_is_inert():
    g = Grid1D(-8.0, 8.0, 257)
    p = zero_potential()
    hist = np.stack([0.3 * np.exp(-g.nodes ** 2) * (1.0 + 0.1 * l)
                     for l in range(5)]).astype(complex)
    dz, dzt = duhamel_apply(g, hist, p, 1.0, g.dx)
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
    dz, dzt = duhamel_apply(g, hist, p, c, dt, far_field=zstar)
    q = source_term(p, np.array([zstar]))[0]
    t = m * dt
    assert np.max(np.abs(dz - (-q * t * t / 2.0))) < 1e-14
    assert np.max(np.abs(dzt - (-q * t))) < 1e-14


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
        dz, _ = duhamel_apply(g, hist, reference_potential(), c, dt)
        outs.append(dz)
    # compare on the shared coarse nodes, finest run as reference
    e_coarse = np.max(np.abs(outs[0] - outs[2][::4]))
    e_mid = np.max(np.abs(outs[1] - outs[2][::2]))
    assert e_coarse / e_mid == pytest.approx(4.0, rel=0.4)


def _loop_cone_corrections(grid, levels, source, q_ff, c, dt, corr_z, corr_zt):
    """The O(m^2 n) cone sum: every (level j, source level l) pair summed
    directly, trapezoid weights 1/2 at l = 0 and l = j."""
    q_levels = source(levels)
    m, n = q_levels.shape[0] - 1, grid.n
    pad = m + 1
    prefs = np.stack([_padded_prefix(q, q_ff, grid.dx, pad) for q in q_levels])
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
    # NaN-filled outputs: every entry, level 0 included, must be written
    got = [np.full((m + 1, n), np.nan, dtype=complex) for _ in range(2)]
    want = [np.full((m + 1, n), np.nan, dtype=complex) for _ in range(2)]
    _cone_corrections(g, q, _identity, q_ff, c, g.dx / c, *got)
    _loop_cone_corrections(g, q, _identity, q_ff, c, g.dx / c, *want)
    for new, loop in zip(got, want):
        assert np.all(new[0] == 0.0)
        scale = max(1.0, float(np.max(np.abs(loop))))
        assert np.max(np.abs(new - loop)) <= 1e-12 * scale


def _concatenated_prefix(q, q_ff, dx, pad):
    """The one-level padded prefix built by concatenation."""
    pref = np.concatenate(([0.0 + 0.0j], np.cumsum(0.5 * (q[1:] + q[:-1]) * dx)))
    left = pref[0] - q_ff * dx * np.arange(pad, 0, -1)
    right = pref[-1] + q_ff * dx * np.arange(1, pad + 1)
    return np.concatenate((left, pref, right))


@pytest.mark.parametrize("pad", [0, 1, 7, 40])
def test_padded_stacks_match_single_levels(pad):
    rng = np.random.default_rng(pad)
    q = rng.normal(size=(17, 33)) + 1j * rng.normal(size=(17, 33))
    dx = 0.37
    for q_ff in (0.0 + 0.0j, 0.3 - 0.7j):
        prefs = _padded_prefix(q, q_ff, dx, pad)
        padded = _padded(q, q_ff, pad)
        assert prefs.shape == padded.shape == (17, 33 + 2 * pad)
        for l in range(17):
            one = _padded_prefix(q[l], q_ff, dx, pad)
            assert prefs[l].tobytes() == one.tobytes()
            assert one.tobytes() == _concatenated_prefix(q[l], q_ff, dx,
                                                         pad).tobytes()
            full = np.full(pad, q_ff, dtype=complex)
            assert padded[l].tobytes() == _padded(q[l], q_ff, pad).tobytes()
            assert padded[l].tobytes() == np.concatenate((full, q[l],
                                                          full)).tobytes()


def test_picard_iteration_unchanged_by_running_sums(monkeypatch):
    # 32-step windows: the cone's blocks of levels meet inside each window
    g = Grid1D(-8.0, 8.0, 257)
    zeta = 0.1 * np.exp(-g.nodes ** 2)
    f0 = ComplexField(g, zeta.astype(complex), np.zeros(g.n, complex))
    p = ensure_valid(reference_potential())
    cfg = SemilinearConfig.aligned(g, 1.0, T_window=32 * g.dx)
    new = picard_solve(f0, p, cfg, 64 * g.dx)
    loop_calls = []

    def loop_cone(*args):
        loop_calls.append(args[1].shape)
        _loop_cone_corrections(*args)

    monkeypatch.setattr(semilinear, "_cone_corrections", loop_cone)
    old = picard_solve(f0, p, cfg, 64 * g.dx)
    assert loop_calls and all(s == (33, g.n) for s in loop_calls)
    assert len(loop_calls) == old.trace.iterate_count
    for a, b in ((new.field.zeta, old.field.zeta),
                 (new.field.zeta_t, old.field.zeta_t)):
        assert np.max(np.abs(a - b)) <= 1e-12 * np.max(np.abs(b))
    assert new.trace.iterate_count == old.trace.iterate_count
    assert len(new.trace.diff_norms) == 2
    assert ([len(d) for d in new.trace.diff_norms]
            == [len(d) for d in old.trace.diff_norms])


def _all_levels_window_iterate(grid, f0, p, cfg, q_ff, stacks, w0):
    """The Picard window with fresh arrays for every iterate (the solver's
    kept stacks go unused), the source evaluated on the whole stack, and
    the distance taken by state_distance over every level 0..m, stopped by
    the solver's rule."""
    m = stacks.shape[1] - 1
    base_z, base_zt = np.empty((2, m + 1, grid.n), dtype=complex)
    _free_levels(f0, cfg.c, range(m + 1), base_z, base_zt)
    hat_z, hat_zt = base_z.copy(), base_zt.copy()
    diffs = []
    for _ in range(semilinear._PICARD_MAX):
        corr_z, corr_zt = np.zeros_like(base_z), np.zeros_like(base_zt)
        _cone_corrections(grid, source_term(p, hat_z), _identity, q_ff,
                          cfg.c, cfg.dt, corr_z, corr_zt)
        new_z, new_zt = base_z + corr_z, base_zt + corr_zt
        new_z[:, 0] = new_z[:, -1] = f0.far_field
        new_zt[:, 0] = new_zt[:, -1] = 0.0
        diffs.append(float(np.max(state_distance(
            grid, new_z, new_zt, hat_z, hat_zt, p))))
        hat_z, hat_zt = new_z, new_zt
        if semilinear.contraction_stop(diffs, cfg.picard_tol):
            return hat_z, hat_zt, diffs, True
    return hat_z, hat_zt, diffs, False


@pytest.mark.parametrize("amp, width, c, window_steps, steps, windows", [
    (2e-10, 9.0, 1.0, 0.5, 8, 8),  # one-step windows, edge 9e-11 off far field
    (0.1, 1.0, 1.0, 8, 24, 3),     # three 8-step windows, edge 1.6e-29
    # two 40-step windows, each crossing two block edges; c = 8 keeps the
    # window (40 dt = 0.625) short enough to contract
    (0.1, 1.0, 8.0, 40, 80, 2),
], ids=["one_step_windows", "three_8_step_windows", "two_40_step_windows"])
def test_picard_distance_without_fixed_level_matches_all_levels(
        monkeypatch, amp, width, c, window_steps, steps, windows):
    # in the first case the first iterate's boundary pin moves level 0 by
    # more than the Duhamel correction moves level 1, so leaving level 0 out
    # of that first distance would change diff_norms
    g = Grid1D(-8.0, 8.0, 129)
    zeta = amp * np.exp(-(g.nodes / width) ** 2)
    f0 = ComplexField(g, zeta.astype(complex), np.zeros(g.n, complex))
    p = ensure_valid(reference_potential())
    cfg = SemilinearConfig.aligned(g, c, T_window=window_steps * g.dx / c)
    new = picard_solve(f0, p, cfg, steps * g.dx / c)
    monkeypatch.setattr(semilinear, "_window_iterate",
                        _all_levels_window_iterate)
    old = picard_solve(f0, p, cfg, steps * g.dx / c)
    assert len(new.trace.diff_norms) == windows
    assert new.trace.diff_norms == old.trace.diff_norms
    assert np.array_equal(new.field.zeta, old.field.zeta)
    assert np.array_equal(new.field.zeta_t, old.field.zeta_t)


def test_window_holds_at_most_ten_level_stacks():
    # numpy reports its buffers to tracemalloc, so the peak is the arrays'
    # own bytes, whatever the allocator does with them
    import tracemalloc
    g = Grid1D(-8.0, 8.0, 1025)
    m = 64
    zeta = 0.1 * np.exp(-g.nodes ** 2)
    f0 = ComplexField(g, zeta.astype(complex), np.zeros(g.n, complex))
    p = ensure_valid(reference_potential())
    cfg = SemilinearConfig.aligned(g, 1.0, T_window=m * g.dx)
    picard_solve(f0, p, cfg, m * g.dx)  # first-call caches stay out of it
    tracemalloc.start()
    try:
        before, _ = tracemalloc.get_traced_memory()
        res = picard_solve(f0, p, cfg, m * g.dx)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(res.trace.diff_norms) == 1 and res.trace.iterate_count >= 3
    stack = (m + 1) * g.n * 16
    assert (peak - before) / stack <= 10.0


@pytest.mark.parametrize("c, cells", [(1.0, 2.0), (2.0, 1.0)])
def test_duhamel_refuses_a_misaligned_step(c, cells):
    # the cone moves one cell per level; with c dt = 2 dx the constant
    # history's correction came out half of -q t^2 / 2
    g = Grid1D(-8.0, 8.0, 257)
    hist = np.full((13, g.n), 0.4 + 0.0j)
    with pytest.raises(ConfigError, match="dt must equal dx/c"):
        duhamel_apply(g, hist, reference_potential(), c, cells * g.dx,
                      far_field=0.4 + 0.0j)


def test_duhamel_rejects_misshapen_history():
    g = Grid1D(-8.0, 8.0, 257)
    with pytest.raises(ConfigError):
        duhamel_apply(g, np.zeros((3, 99), complex), reference_potential(),
                      1.0, g.dx)


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
    cfg = SemilinearConfig.aligned(g, c, T_window=0.25)
    return g, f0, cfg


def test_picard_zero_potential_reduces_to_free_wave():
    # one window covering the whole span: transport must be exact
    g = Grid1D(-8.0, 8.0, 257)
    zeta = 0.05 * np.exp(-g.nodes ** 2)
    f0 = ComplexField(g, zeta.astype(complex), np.zeros(g.n, complex))
    T = 0.5
    cfg = SemilinearConfig.aligned(g, 1.0, T_window=T)
    res = picard_solve(f0, zero_potential(), cfg, T)
    fw = free_wave(f0, cfg.c, T)
    assert np.max(np.abs(res.field.zeta - fw.zeta)) < 1e-14
    assert np.max(np.abs(res.field.zeta_t - fw.zeta_t)) < 1e-14
    # source-free: every window converges on its first pass
    assert res.trace.converged
    assert res.trace.iterate_count == len(res.trace.diff_norms)


def test_picard_constant_equilibrium_is_a_fixed_point():
    g = Grid1D(-8.0, 8.0, 257)
    p = flat_point_potential(0.5)
    f0 = ComplexField(g, np.full(g.n, 0.5 + 0.0j), np.zeros(g.n, complex),
                      far_field=0.5)
    cfg = SemilinearConfig.aligned(g, 1.0, T_window=0.25)
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
    g, f0, cfg = _solve_setup(amp=0.1)
    p = ensure_valid(reference_potential())
    res = picard_solve(f0, p, cfg, 0.5)
    for diffs in res.trace.diff_norms:
        # after the first comparison the ratio must stay below 0.9
        for a, b in zip(diffs[1:-1], diffs[2:]):
            if a > 1e-13:
                assert b / a <= 0.9


def test_picard_small_amplitude_matches_linear_dispersion():
    # around zeta = 0 the reference potential linearizes to
    # zeta_tt - c^2 zeta_xx + 2 zeta = 0, so a Dirichlet mode sin(kx)
    # oscillates at omega^2 = c^2 k^2 + 2
    n = 513
    g = Grid1D(-8.0, 8.0, n)
    a, k, c = 1e-3, math.pi / 4.0, 1.0
    zeta = a * np.sin(k * g.nodes)
    f0 = ComplexField(g, zeta.astype(complex), np.zeros(g.n, complex))
    cfg = SemilinearConfig.aligned(g, c, T_window=0.25)
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
        cfg = SemilinearConfig.aligned(g, 1.0, T_window=0.25)
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


def test_picard_trips_certified_bound_when_over_energized():
    # constants certified for a tiny energy budget cannot cover 0.3-size data
    g, f0, cfg = _solve_setup(amp=0.3)
    p = ensure_valid(reference_potential())
    tiny = apriori_constants(p, 1e-6)
    assert tiny.cE < 0.3
    with pytest.raises(AprioriViolationError):
        picard_solve(f0, p, cfg, 0.5, apriori=tiny)
