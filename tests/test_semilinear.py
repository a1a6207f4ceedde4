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
                     apriori_constants,
                     contraction_window, ensure_valid,
                     flat_point_potential, free_wave, picard_solve,
                     reference_potential, source_term, state_distance,
                     zero_potential)
from varwave import semilinear
from varwave.semilinear import _Lattice, _padded


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
    # the lattice's free march gives the free_wave levels: row for row up
    # to level 1, up to rounding after
    base_z, base_zt = np.empty((2, m + 1, f0.grid.n), dtype=complex)
    lattice = _Lattice(f0.grid.n, m, 0.0, dt, None)
    lattice.seed(f0, c)
    lattice.march(None, base_z, base_zt)
    for j in range(m + 1):
        fw = free_wave(f0, c, j * dt)
        for got, want in ((base_z[j], fw.zeta), (base_zt[j], fw.zeta_t)):
            scale = max(1.0, float(np.max(np.abs(want))))
            assert np.max(np.abs(got - want)) <= 1e-12 * scale
    assert base_z[0].tobytes() == f0.zeta.tobytes()
    assert base_zt[0].tobytes() == f0.zeta_t.tobytes()


def test_free_wave_requires_aligned_time():
    g = Grid1D(-8.0, 8.0, 257)
    f0 = _zero_velocity_bump(g)
    with pytest.raises(ConfigError, match="whole number"):
        free_wave(f0, 1.0, 0.7 * g.dx)
    with pytest.raises(ConfigError):
        free_wave(f0, 1.0, -g.dx)


# --- Duhamel cone corrections -----------------------------------------------


def _lattice_corrections(g, levels, source, q_ff, dt, corr_z, corr_zt):
    """The lattice march's Duhamel corrections at every level: the march
    from the zero state over the sources of the given levels, unpinned."""
    lattice = _Lattice(g.n, levels.shape[0] - 1, q_ff, dt, source)
    lattice.march(levels, corr_z, corr_zt)


def _duhamel_last(g, hist, p, c, dt, far_field=0.0 + 0.0j):
    """Cone corrections to (zeta, zeta_t) at the last level of a history."""
    q_ff = complex(source_term(p, np.asarray([far_field]))[0])
    corr_z, corr_zt = np.empty((2,) + hist.shape, dtype=complex)
    _lattice_corrections(g, hist, partial(source_term, p), q_ff, dt,
                         corr_z, corr_zt)
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
    # NaN-filled outputs: every entry, level 0 included, must be written
    got = [np.full((m + 1, n), np.nan, dtype=complex) for _ in range(2)]
    want = [np.full((m + 1, n), np.nan, dtype=complex) for _ in range(2)]
    _lattice_corrections(g, q, _identity, q_ff, g.dx / c, *got)
    _loop_cone_corrections(g, q, _identity, q_ff, c, g.dx / c, *want)
    for new, loop in zip(got, want):
        assert np.all(new[0] == 0.0)
        scale = max(1.0, float(np.max(np.abs(loop))))
        assert np.max(np.abs(new - loop)) <= 1e-12 * scale


def _all_levels_window_iterate(picard_map):
    """A Picard window with fresh arrays for every iterate (the solver's
    kept stacks go unused), the distance taken by state_distance over every
    level 0..m, stopped by the solver's rule; picard_map(lattice, f0, cfg,
    hat_z, m) gives an iterate's unpinned levels, the free levels for hat_z
    None."""
    def window_iterate(grid, f0, p, cfg, lattice, stacks, w0):
        m = stacks.shape[1] - 1
        hat_z, hat_zt = picard_map(lattice, f0, cfg, None, m)
        diffs = []
        for _ in range(semilinear._PICARD_MAX):
            new_z, new_zt = picard_map(lattice, f0, cfg, hat_z, m)
            new_z[:, 0] = new_z[:, -1] = f0.far_field
            new_zt[:, 0] = new_zt[:, -1] = 0.0
            diffs.append(float(np.max(state_distance(
                grid, new_z, new_zt, hat_z, hat_zt, p))))
            hat_z, hat_zt = new_z, new_zt
            if semilinear.contraction_stop(diffs, cfg.picard_tol):
                return hat_z, hat_zt, diffs
        raise NonContractionError("window failed to contract",
                                  diff_norms=diffs)
    return window_iterate


def _marched_iterate(lattice, f0, cfg, hat_z, m):
    """An iterate by the solver's lattice march, into fresh arrays."""
    new_z, new_zt = np.empty((2, m + 1, f0.grid.n), dtype=complex)
    lattice.seed(f0, cfg.c)
    lattice.march(hat_z, new_z, new_zt)
    return new_z, new_zt


def _cone_iterate(p):
    """An iterate as free_wave levels plus the double-loop cone sum."""
    def iterate(lattice, f0, cfg, hat_z, m):
        levels = [free_wave(f0, cfg.c, j * cfg.dt) for j in range(m + 1)]
        new_z = np.stack([f.zeta for f in levels])
        new_zt = np.stack([f.zeta_t for f in levels])
        if hat_z is not None:
            corr = np.empty((2, m + 1, f0.grid.n), dtype=complex)
            _loop_cone_corrections(f0.grid, hat_z, partial(source_term, p),
                                   lattice.q_ff, cfg.c, cfg.dt, *corr)
            new_z += corr[0]
            new_zt += corr[1]
        return new_z, new_zt
    return iterate


def test_picard_iteration_unchanged_by_running_sums(monkeypatch):
    # the lattice march against free_wave plus the double-loop cone sum;
    # 32-step windows: the blocks of sources meet inside each window
    g = Grid1D(-8.0, 8.0, 257)
    zeta = 0.1 * np.exp(-g.nodes ** 2)
    f0 = ComplexField(g, zeta.astype(complex), np.zeros(g.n, complex))
    p = ensure_valid(reference_potential())
    cfg = SemilinearConfig(c=1.0, dt=g.dx, T_window=32 * g.dx)
    new = picard_solve(f0, p, cfg, 64 * g.dx)
    monkeypatch.setattr(semilinear, "_window_iterate",
                        _all_levels_window_iterate(_cone_iterate(p)))
    old = picard_solve(f0, p, cfg, 64 * g.dx)
    for a, b in ((new.field.zeta, old.field.zeta),
                 (new.field.zeta_t, old.field.zeta_t)):
        assert np.max(np.abs(a - b)) <= 1e-12 * np.max(np.abs(b))
    assert new.trace.iterate_count == old.trace.iterate_count
    assert len(new.trace.diff_norms) == 2
    assert ([len(d) for d in new.trace.diff_norms]
            == [len(d) for d in old.trace.diff_norms])


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
    cfg = SemilinearConfig(c=c, dt=g.dx / c, T_window=window_steps * g.dx / c)
    new = picard_solve(f0, p, cfg, steps * g.dx / c)
    monkeypatch.setattr(semilinear, "_window_iterate",
                        _all_levels_window_iterate(_marched_iterate))
    old = picard_solve(f0, p, cfg, steps * g.dx / c)
    assert len(new.trace.diff_norms) == windows
    assert new.trace.diff_norms == old.trace.diff_norms
    assert np.array_equal(new.field.zeta, old.field.zeta)
    assert np.array_equal(new.field.zeta_t, old.field.zeta_t)


def _lattice_iterates(f0, p, m, count):
    """Iterates 0..count-1 of an m-level window's Picard map, each as a
    (zeta, zeta_t) stack of levels; as in the solver, iterate 0 is the free
    march and every later iterate has its ends pinned."""
    g = f0.grid
    lattice = _Lattice(g.n, m, 0.0, g.dx, partial(source_term, p))
    cfg = SemilinearConfig(c=1.0, dt=g.dx, T_window=m * g.dx)
    iterates = [np.stack(_marched_iterate(lattice, f0, cfg, None, m))]
    for _ in range(1, count):
        new = np.stack(_marched_iterate(lattice, f0, cfg, iterates[-1][0], m))
        new[0, :, 0] = new[0, :, -1] = f0.far_field
        new[1, :, 0] = new[1, :, -1] = 0.0
        iterates.append(new)
    return iterates


def test_window_iterates_settle_one_level_per_iterate():
    # iterate k's zeta level j reads the sources of iterate k-1's levels
    # below j, its zeta_t level j those up to j: so iterate k has its final
    # zeta on levels 0..k and zeta_t on 0..k-1, and iterate m+1 is the
    # fixed point.  The start state's ends sit at the far field, so the
    # pinning leaves level 0 of every iterate alike.
    g = Grid1D(-8.0, 8.0, 129)
    m = 8
    zeta = 0.3 * np.exp(-g.nodes ** 2)
    zeta[0] = zeta[-1] = 0.0
    f0 = ComplexField(g, zeta.astype(complex), 0.2j * np.exp(-g.nodes ** 2))
    p = ensure_valid(reference_potential())
    iterates = _lattice_iterates(f0, p, m, m + 3)
    final = iterates[m + 1]
    scale = np.max(np.abs(final), axis=(1, 2))

    def off(a, b, which, levels):
        return np.max(np.abs(a[which, levels] - b[which, levels])) / scale[which]

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


def test_picard_window_stops_within_its_tolerance_of_the_fixed_point():
    # the fixed point of an m-level window is its iterate m+1; picard_solve
    # stops before it, within picard_tol in state_distance at every level
    g = Grid1D(-8.0, 8.0, 129)
    m = 8
    zeta = 0.1 * np.exp(-g.nodes ** 2)
    zeta[0] = zeta[-1] = 0.0
    f0 = ComplexField(g, zeta.astype(complex), 0.05j * np.exp(-g.nodes ** 2))
    p = ensure_valid(reference_potential())
    final = _lattice_iterates(f0, p, m, m + 2)[-1]
    cfg = SemilinearConfig(c=1.0, dt=g.dx, T_window=m * g.dx)
    levels = []
    res = picard_solve(f0, p, cfg, m * g.dx, observer=levels.append)
    assert res.trace.iterate_count < m + 1
    dist = state_distance(g, np.stack([f.zeta for f in levels]),
                          np.stack([f.zeta_t for f in levels]), *final, p)
    assert 0.0 < np.max(dist) <= cfg.picard_tol


def test_window_holds_at_most_eight_level_stacks():
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
    assert len(res.trace.diff_norms) == 1 and res.trace.iterate_count >= 3
    stack = (m + 1) * g.n * 16
    # four complex stacks, two real ones and the lattice's lines: a return
    # to the six complex stacks of free levels plus iterates would not fit
    assert (peak - before) / stack <= 8.0


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
    # source-free: every window converges on its first pass
    assert res.trace.converged
    assert res.trace.iterate_count == len(res.trace.diff_norms)


def test_picard_window_that_does_not_stop_raises(monkeypatch):
    # picard_tol = 0 never accepts a nonzero change, so the first window
    # runs out of iterations and raises with its diffs
    monkeypatch.setattr(semilinear, "_PICARD_MAX", 3)
    g = Grid1D(-8.0, 8.0, 129)
    zeta = 0.1 * np.exp(-g.nodes ** 2)
    f0 = ComplexField(g, zeta.astype(complex), np.zeros(g.n, complex))
    cfg = SemilinearConfig(c=1.0, dt=g.dx, T_window=0.5, picard_tol=0.0)
    with pytest.raises(NonContractionError,
                       match="starting at t = 0.000000") as err:
        picard_solve(f0, reference_potential(), cfg, 1.0)
    assert len(err.value.diff_norms) == 3
    assert all(d > 0.0 for d in err.value.diff_norms)


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
