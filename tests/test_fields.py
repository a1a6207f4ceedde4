"""Grid primitives: interpolation, quadrature, norms, snapshot files."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from varwave import (ComplexField, ConfigError, DomainError, Grid1D,
                     centered_derivative, integrate, interpolate, norms,
                     read_snapshot_csv, reference_potential, state_distance,
                     write_snapshot_csv)
from varwave.fields import stencil


# --- Grid1D ------------------------------------------------------------------


def test_grid_basic_geometry():
    g = Grid1D(-2.0, 2.0, 17)
    assert g.dx == pytest.approx(0.25)
    assert g.length == pytest.approx(4.0)
    assert g.nodes[0] == -2.0 and g.nodes[-1] == 2.0
    assert g.contains(0.3) and not g.contains(2.5)


def test_grid_rejects_degenerate_input():
    with pytest.raises(ConfigError):
        Grid1D(0.0, 1.0, 8)
    with pytest.raises(ConfigError):
        Grid1D(1.0, 1.0, 32)


# --- interpolate -------------------------------------------------------------


def test_interpolate_reproduces_constants_and_nodes():
    g = Grid1D(0.0, 1.0, 33)
    vals = np.full(g.n, 3.25)
    q = np.linspace(0.0, 1.0, 97)
    assert np.allclose(interpolate(g, vals, q), 3.25, atol=1e-14)
    # node queries return the sample bitwise
    samples = np.sin(g.nodes)
    assert np.array_equal(interpolate(g, samples, g.nodes), samples)


def test_interpolate_exact_on_cubics():
    g = Grid1D(-1.0, 2.0, 25)
    f = lambda x: x ** 3 - 2.0 * x ** 2 + 0.5 * x - 1.0
    mids = 0.5 * (g.nodes[:-1] + g.nodes[1:])
    assert np.allclose(interpolate(g, f(g.nodes), mids), f(mids), atol=1e-12)


def test_interpolate_fourth_order_on_smooth_data():
    f = np.sin
    errs = []
    for n in (33, 65):
        g = Grid1D(0.0, 3.0, n)
        q = np.linspace(0.5, 2.5, 1001)
        errs.append(np.max(np.abs(interpolate(g, f(g.nodes), q) - f(q))))
    # halving dx should shrink the error by about 2^4
    assert errs[0] / errs[1] == pytest.approx(16.0, rel=0.3)


def test_interpolate_outside_grid():
    g = Grid1D(0.0, 1.0, 17)
    vals = g.nodes.copy()
    with pytest.raises(DomainError):
        interpolate(g, vals, 1.5)
    assert interpolate(g, vals, np.array([0.5, 1.5]), fill=-7.0)[1] == -7.0


def test_interpolate_scalar_query_returns_scalar():
    g = Grid1D(0.0, 1.0, 17)
    out = interpolate(g, g.nodes ** 2, 0.3)
    assert np.ndim(out) == 0


@st.composite
def _stack_and_queries(draw):
    """A grid, a (k, n) stack of samples, per-row fills, and query points
    mixing near-node points, interior points and points outside the grid;
    the last item maps each near-node query to its node (-1 elsewhere)."""
    n = draw(st.integers(16, 48))
    k = draw(st.integers(1, 6))
    g = Grid1D(-1.0, 2.0, n)
    seed = draw(st.integers(0, 2 ** 32 - 1))
    rng = np.random.default_rng(seed)
    samples = rng.normal(size=(k, n))
    fill = rng.normal(size=(k, 1))
    m = draw(st.integers(1, 40))
    node = np.where(rng.integers(0, 3, size=m) == 0,
                    rng.integers(0, n, size=m), -1)
    q = np.where(node >= 0,
                 g.nodes[node] + rng.uniform(-1e-10, 1e-10, size=m) * g.dx,
                 rng.uniform(g.x_min - 0.5, g.x_max + 0.5, size=m))
    if draw(st.booleans()):
        q = np.clip(q, g.x_min, g.x_max)
    return g, samples, fill, q, node


@settings(max_examples=150, deadline=None)
@given(_stack_and_queries())
def test_stacked_stencil_matches_rowwise_interpolate(case):
    g, samples, fill, q, node = case
    sten = stencil(g, q)
    rows = lambda x, fills: np.array(
        [interpolate(g, f, x, fill=fv) for f, fv in zip(samples, fills)])
    stacked = sten.apply(samples, fill=fill)
    assert np.array_equal(stacked, rows(q, fill[:, 0]))
    # queries within 1e-9 cells of a node inside the grid snap to its sample
    snapped = (node >= 0) & (q >= g.x_min) & (q <= g.x_max)
    assert np.array_equal(stacked[:, snapped], samples[:, node[snapped]])
    if g.contains(q):
        assert np.array_equal(sten.apply(samples), rows(q, [None] * len(fill)))
    else:
        with pytest.raises(DomainError):
            sten.apply(samples)
        with pytest.raises(DomainError):
            interpolate(g, samples[0], q)
    # a scalar query gives one value per row
    out = stencil(g, q[0]).apply(samples, fill=fill)
    assert out.shape == (len(samples),)
    assert np.array_equal(out, rows(q[0], fill[:, 0]))
    assert np.array_equal(centered_derivative(g, samples),
                          np.array([centered_derivative(g, f) for f in samples]))


# --- integrate ---------------------------------------------------------------


def test_integrate_linear_exact():
    g = Grid1D(0.0, 2.0, 41)
    assert integrate(g, np.ones(g.n)) == pytest.approx(2.0, abs=1e-14)
    assert integrate(g, g.nodes) == pytest.approx(2.0, abs=1e-14)
    # partial-cell bounds, still exact for linear data
    assert integrate(g, g.nodes, 0.13, 1.77) == pytest.approx(
        (1.77 ** 2 - 0.13 ** 2) / 2.0, abs=1e-14)


def test_integrate_additive_over_subintervals():
    g = Grid1D(-3.0, 3.0, 61)
    vals = np.exp(-g.nodes ** 2)
    whole = integrate(g, vals)
    split = integrate(g, vals, -3.0, 0.37) + integrate(g, vals, 0.37, 3.0)
    assert whole == pytest.approx(split, abs=1e-13)


def test_integrate_second_order_convergence():
    f = lambda x: np.exp(-x ** 2)
    exact = math.sqrt(math.pi) * math.erf(3.0)
    errs = []
    for n in (41, 81):
        g = Grid1D(-3.0, 3.0, n)
        errs.append(abs(integrate(g, f(g.nodes)) - exact))
    assert errs[0] / errs[1] == pytest.approx(4.0, rel=0.2)


def test_integrate_rejects_bad_bounds():
    g = Grid1D(0.0, 1.0, 17)
    vals = np.ones(g.n)
    with pytest.raises(ConfigError):
        integrate(g, vals, 0.8, 0.2)
    with pytest.raises(DomainError):
        integrate(g, vals, -0.5, 0.5)
    assert integrate(g, vals, 0.4, 0.4) == 0.0


# --- ComplexField ------------------------------------------------------------


def _bump(g, amp, width=0.5):
    return amp * np.exp(-(g.nodes / width) ** 2)


def test_field_boundary_pinning_enforced():
    g = Grid1D(-8.0, 8.0, 64)
    zeta = np.full(g.n, 0.5 + 0.0j)
    zeta[0] = 0.3
    with pytest.raises(ConfigError):
        ComplexField(g, zeta, np.zeros(g.n), far_field=0.5)
    zeta[0] = 0.5
    zt = np.zeros(g.n, dtype=complex)
    zt[-1] = 1e-6
    with pytest.raises(ConfigError):
        ComplexField(g, zeta, zt, far_field=0.5)


def test_field_escape_guard():
    from varwave import StateEscapeError
    g = Grid1D(-8.0, 8.0, 64)
    zeta = 0.2 + _bump(g, 0.9)
    with pytest.raises(StateEscapeError):
        ComplexField(g, zeta.astype(complex), np.zeros(g.n))


def test_field_shape_mismatch_rejected():
    g = Grid1D(0.0, 1.0, 32)
    with pytest.raises(ConfigError):
        ComplexField(g, np.zeros(16), np.zeros(32))


def test_field_copy_is_independent():
    g = Grid1D(-8.0, 8.0, 64)
    f = ComplexField(g, _bump(g, 0.1).astype(complex), np.zeros(g.n))
    f2 = f.copy()
    f2.zeta[5] = 0.9
    assert f.zeta[5] != f2.zeta[5]


# --- norms -------------------------------------------------------------------


def test_norms_equilibrium_state():
    g = Grid1D(-8.0, 8.0, 128)
    f = ComplexField(g, np.full(g.n, 0.4 + 0.0j), np.zeros(g.n), far_field=0.4)
    nn = norms(f, reference_potential())
    assert nn.sup_zeta == pytest.approx(0.4)
    assert nn.h1_dist == pytest.approx(0.0, abs=1e-13)
    assert nn.sup_zeta_t == 0.0 and nn.l2_zeta_t == 0.0
    # W0(0.4) integrated over a length-16 interval
    w0_exact = 16.0 * 0.4 ** 2 / 0.6 ** 2
    assert nn.w0_mass == pytest.approx(w0_exact, rel=1e-12)


def test_norms_scale_linearly_in_bump_amplitude():
    g = Grid1D(-8.0, 8.0, 513)
    n1 = norms(ComplexField(g, _bump(g, 0.1).astype(complex), np.zeros(g.n)))
    n2 = norms(ComplexField(g, _bump(g, 0.2).astype(complex), np.zeros(g.n)))
    assert n2.sup_zeta == pytest.approx(2.0 * n1.sup_zeta, rel=1e-12)
    assert n2.h1_dist == pytest.approx(2.0 * n1.h1_dist, rel=1e-10)


def test_norms_velocity_against_gaussian_integral():
    # l2 of a e^{-(x/w)^2} is a sqrt(w sqrt(pi/2)) on a wide interval
    g = Grid1D(-10.0, 10.0, 2001)
    a, w = 0.3, 0.7
    zt = a * np.exp(-(g.nodes / w) ** 2)
    f = ComplexField(g, np.zeros(g.n, dtype=complex), zt.astype(complex))
    exact = a * math.sqrt(w * math.sqrt(math.pi / 2.0))
    nn = norms(f)
    assert nn.sup_zeta_t == pytest.approx(a)
    assert nn.l2_zeta_t == pytest.approx(exact, rel=1e-6)


def test_state_distance_separates_and_vanishes():
    g = Grid1D(-8.0, 8.0, 128)
    f1 = ComplexField(g, _bump(g, 0.1).astype(complex), np.zeros(g.n))
    f2 = ComplexField(g, _bump(g, 0.2).astype(complex), np.zeros(g.n))
    assert state_distance(f1, f1) == 0.0
    assert state_distance(f1, f2, reference_potential()) > 0.0
    with pytest.raises(ConfigError):
        state_distance(f1, ComplexField(Grid1D(-8.0, 8.0, 64),
                                        np.zeros(64, complex), np.zeros(64)))


# --- snapshot files ----------------------------------------------------------


def test_snapshot_round_trip(tmp_path):
    g = Grid1D(-4.0, 4.0, 129)
    zeta = 0.4 * np.exp(-g.nodes ** 2) * np.exp(0.3j)
    zt = 0.1j * np.exp(-(g.nodes - 0.5) ** 2)
    zeta[0] = zeta[-1] = 0.0
    zt[0] = zt[-1] = 0.0
    f = ComplexField(g, zeta, zt)
    path = tmp_path / "snap.csv"
    write_snapshot_csv(path, f)
    f2 = read_snapshot_csv(path)
    assert f2.grid.n == g.n
    assert f2.grid.x_min == pytest.approx(g.x_min)
    assert np.max(np.abs(f2.zeta - f.zeta)) < 1e-15
    assert np.max(np.abs(f2.zeta_t - f.zeta_t)) < 1e-15


def test_snapshot_rejects_malformed_file(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("x,re\n0.0,1.0\n1.0,2.0\n")
    with pytest.raises(ConfigError):
        read_snapshot_csv(path)
