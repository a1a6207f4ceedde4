"""Grid primitives: interpolation, quadrature, distances, snapshot files."""

import math
import tempfile
import warnings
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from varwave import (ComplexField, ConfigError, DomainError, Grid1D,
                     centered_derivative, integrate, interpolate,
                     read_polar_snapshot_csv, read_snapshot_csv,
                     reference_potential, state_distance, write_snapshot_csv,
                     write_polar_snapshot_csv, zero_potential)
from varwave.fields import (contraction_stop, fit_steps, step_count, stencil,
                            trapezoid_weights)
from varwave.quasilinear import PolarState


# --- Grid1D ------------------------------------------------------------------


@settings(max_examples=300)
@given(t=st.floats(1e-6, 1e6), dt_max=st.floats(1e-6, 1e3))
def test_fitted_steps_pass_the_step_count_rule(t, dt_max):
    # the CLI and the epsilon sweep fit their steps, the solvers count them:
    # a fitted step must be whole steps of t, no longer than the one asked
    steps, dt = fit_steps(t, dt_max)
    assert step_count(t, dt) == steps
    assert dt <= dt_max


def test_grid_basic_geometry():
    g = Grid1D(-2.0, 2.0, 17)
    assert g.dx == pytest.approx(0.25)
    assert g.nodes[0] == -2.0 and g.nodes[-1] == 2.0
    assert g.inside(np.array([0.3, 2.5])).tolist() == [True, False]


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


@st.composite
def _cubic_on_grid(draw, points):
    """A grid, the coefficients (c0, c1, c2, c3) of a cubic, and `points`
    sorted points inside the grid."""
    x_min = draw(st.floats(-5.0, 5.0))
    g = Grid1D(x_min, x_min + draw(st.floats(0.5, 10.0)),
               draw(st.integers(16, 80)))
    coeffs = draw(st.tuples(*[st.floats(-3.0, 3.0)] * 4))
    fracs = draw(st.lists(st.floats(0.0, 1.0), min_size=points,
                          max_size=points))
    pts = np.clip(g.x_min + np.sort(fracs) * (g.x_max - g.x_min),
                  g.x_min, g.x_max)
    return g, coeffs, pts


_CUBIC_GRID = Grid1D(-1.0, 2.0, 25)


@settings(max_examples=150, deadline=None)
@given(_cubic_on_grid(points=24))
# x^3 - 2x^2 + 0.5x - 1 at the cell midpoints
@example((_CUBIC_GRID, (-1.0, 0.5, -2.0, 1.0),
          0.5 * (_CUBIC_GRID.nodes[:-1] + _CUBIC_GRID.nodes[1:])))
def test_interpolate_exact_on_cubics(case):
    g, coeffs, q = case
    f = np.polynomial.Polynomial(coeffs)
    M = max(1.0, abs(g.x_min), abs(g.x_max))
    # roundoff on the cubic's terms, plus the snap of a query within 1e-9
    # cells of a node to that node's sample
    atol = (1e-12 * sum(abs(c) * M ** k for k, c in enumerate(coeffs))
            + 1e-9 * g.dx * sum(k * abs(c) * M ** (k - 1)
                                for k, c in enumerate(coeffs)))
    assert np.allclose(interpolate(g, f(g.nodes), q), f(q), rtol=0.0,
                       atol=atol)


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


def test_non_finite_queries_are_outside_without_a_warning():
    g = Grid1D(0.0, 1.0, 17)
    q = np.array([np.nan, np.inf, -np.inf, 0.5])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert interpolate(g, g.nodes, q, fill=-7.0).tolist() == [
            -7.0, -7.0, -7.0, 0.5]
        for x in q[:3]:
            with pytest.raises(DomainError):
                interpolate(g, g.nodes, x)
            assert interpolate(g, g.nodes, x, fill=-7.0) == -7.0


def _reference_stencil(grid, x):
    """`stencil` and `Stencil.apply` as written before the index-array
    rewrite (np.clip, one take per node, np.where over the whole result),
    kept as its bitwise oracle; returns apply(samples, fill=None)."""
    x = np.asarray(x, dtype=float)
    xq = np.atleast_1d(x)
    inside = grid.inside(xq)
    pos = np.clip((xq - grid.x_min) / grid.dx, 0.0, grid.n - 1.0)
    with np.errstate(invalid="ignore"):  # NaN queries: an undefined cast
        jbase = np.clip(np.floor(pos).astype(int) - 1, 0, grid.n - 4)
    t = pos - (jbase + 1)
    tm, t0, t1, t2 = t + 1.0, t, t - 1.0, t - 2.0
    w0, w1, w2, w3 = (-t0 * t1 * t2 / 6.0, tm * t1 * t2 / 2.0,
                      -tm * t0 * t2 / 2.0, tm * t0 * t1 / 6.0)
    near = np.abs(pos - np.round(pos)) < 1e-9
    snap_node = np.round(pos[near]).astype(int)

    def apply(samples, fill=None):
        samples = np.asarray(samples)
        outside = not np.all(inside)
        if fill is None and outside:
            raise DomainError("interpolation query outside the grid")
        at = lambda k: np.take(samples, jbase + k, axis=-1)
        out = w0 * at(0) + w1 * at(1) + w2 * at(2) + w3 * at(3)
        if snap_node.size:
            out[..., near] = np.take(samples, snap_node, axis=-1)
        if outside:
            out = np.where(inside, out, fill)
        return out
    return apply


@st.composite
def _stack_and_queries(draw):
    """A grid, a (k, n) stack of samples, per-row fills, and query points
    mixing near-node points, interior points, points outside the grid, NaN
    and +-inf, the grid ends and points 5e-13 cells past them; the last
    item maps each near-node query to its node (-1 elsewhere)."""
    n = draw(st.one_of(st.just(16), st.integers(16, 48)))
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
    tol = 5e-13 * g.dx
    special = [(np.nan, -1), (np.inf, -1), (-np.inf, -1), (g.x_min, 0),
               (g.x_max, n - 1), (g.x_min - tol, 0), (g.x_max + tol, n - 1)]
    picks = draw(st.lists(st.sampled_from(special), max_size=4))
    if picks:
        q = np.concatenate([q, [x for x, _ in picks]])
        node = np.concatenate([node, [j for _, j in picks]])
        order = rng.permutation(q.size)
        q, node = q[order], node[order]
    return g, samples, fill, q, node


@settings(max_examples=150, deadline=None)
@given(_stack_and_queries())
# a query 5e-13 past the right end: outside by the 1e-12-cell rule of
# `Grid1D.inside`, which the stencil shares
@example((Grid1D(-1.0, 2.0, 28),
          np.random.default_rng(0).normal(size=(2, 28)),
          np.array([[0.5], [-0.5]]), np.array([2.0 + 5e-13]), np.array([-1])))
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
    if np.all(g.inside(q)):
        assert np.array_equal(sten.apply(samples), rows(q, [None] * len(fill)))
    else:
        with pytest.raises(DomainError):
            sten.apply(samples)
        with pytest.raises(DomainError):
            interpolate(g, samples[0], q)
    assert np.array_equal(centered_derivative(g, samples),
                          np.array([centered_derivative(g, f) for f in samples]))


@settings(max_examples=150, deadline=None)
@given(_stack_and_queries())
def test_stencil_matches_reference_bitwise(case):
    g, samples, fill, q, _ = case
    want = _reference_stencil(g, q)
    sten = stencil(g, q)
    assert np.array_equal(sten.apply(samples, fill=fill), want(samples, fill))
    assert np.array_equal(sten.apply(samples[0], fill=fill[0, 0]),
                          want(samples[0], fill[0, 0]))
    if np.all(g.inside(q)):
        assert np.array_equal(sten.apply(samples), want(samples))
    else:
        with pytest.raises(DomainError):
            sten.apply(samples)


# --- integrate ---------------------------------------------------------------


def test_integrate_linear_exact():
    g = Grid1D(0.0, 2.0, 41)
    assert integrate(g, np.ones(g.n)) == pytest.approx(2.0, abs=1e-14)
    assert integrate(g, g.nodes) == pytest.approx(2.0, abs=1e-14)


def test_stacked_integrate_equals_rows_and_is_exact_on_linear_data():
    g = Grid1D(-1.0, 2.0, 61)
    rng = np.random.default_rng(5)
    # rows 0-2 linear (the integral of a + b x over [-1, 2] is 3a + 1.5b),
    # rows 3-5 random
    coef = rng.normal(size=(3, 2))
    stack = np.vstack([coef[:, :1] + coef[:, 1:] * g.nodes,
                       rng.normal(size=(3, g.n))])
    stacked = integrate(g, stack)
    assert stacked.shape == (6,)
    assert np.array_equal(stacked, [integrate(g, row) for row in stack])
    assert np.allclose(stacked[:3], 3.0 * coef[:, 0] + 1.5 * coef[:, 1],
                       rtol=0.0, atol=1e-14)


def test_integrate_second_order_convergence():
    f = lambda x: np.exp(-x ** 2)
    exact = math.sqrt(math.pi) * math.erf(3.0)
    errs = []
    for n in (41, 81):
        g = Grid1D(-3.0, 3.0, n)
        errs.append(abs(integrate(g, f(g.nodes)) - exact))
    assert errs[0] / errs[1] == pytest.approx(4.0, rel=0.2)


# --- centered_derivative -----------------------------------------------------


@settings(max_examples=150, deadline=None)
@given(n=st.integers(16, 80), k=st.integers(0, 3),
       width=st.floats(1e-3, 1e3), kind=st.sampled_from([float, complex]),
       seed=st.integers(0, 2**32 - 1))
def test_centered_derivative_is_np_gradient_bit_for_bit(n, k, width, kind,
                                                        seed):
    # k = 0 is one line, k >= 1 a (k, n) stack
    g = Grid1D(-0.5 * width, 0.5 * width, n)
    rng = np.random.default_rng(seed)
    shape = (k, n) if k else (n,)
    f = rng.standard_normal(shape) * 10.0 ** rng.integers(-8, 9)
    if kind is complex:
        f = f + 1j * rng.standard_normal(shape)
    got = centered_derivative(g, f)
    want = np.gradient(f, g.dx, axis=-1, edge_order=2)
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.tobytes() == want.tobytes()


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
    f2 = ComplexField(g, f.zeta, f.zeta_t)
    f2.zeta[5] = 0.9
    assert f.zeta[5] != f2.zeta[5]


def test_state_distance_separates_and_vanishes():
    g = Grid1D(-8.0, 8.0, 128)
    f1 = ComplexField(g, _bump(g, 0.1).astype(complex), np.zeros(g.n))
    f2 = ComplexField(g, _bump(g, 0.2).astype(complex), np.zeros(g.n))
    p = reference_potential()
    assert state_distance(g, f1.zeta, f1.zeta_t, f1.zeta, f1.zeta_t, p) == 0.0
    assert state_distance(g, f1.zeta, f1.zeta_t, f2.zeta, f2.zeta_t, p) > 0.0
    with pytest.raises(ConfigError):
        state_distance(g, f1.zeta, f1.zeta_t, np.zeros(64, complex),
                       np.zeros(64, complex), p)


def _reference_level_metric(grid, z1, zt1, z2, zt2, p):
    """The per-level contraction metric the Picard solver used to carry."""
    dz = z1 - z2
    dzt = zt1 - zt2
    dzx = np.gradient(dz, grid.dx, axis=1, edge_order=2)
    wts = np.full(grid.n, grid.dx)
    wts[0] = wts[-1] = 0.5 * grid.dx
    l2 = lambda a: np.sqrt(np.sum(np.abs(a) ** 2 * wts, axis=1))
    return (np.max(np.abs(dz), axis=1) + np.max(np.abs(dzx), axis=1)
            + l2(dz) + l2(dzx)
            + np.max(np.abs(dzt), axis=1) + l2(dzt)
            + np.sum(np.abs(p.eval_0(np.abs(z1)) - p.eval_0(np.abs(z2))) * wts, axis=1))


@pytest.mark.parametrize("use_potential", [False, True])
def test_state_distance_on_stack_equals_per_level_calls(use_potential):
    g = Grid1D(-8.0, 8.0, 257)
    # the zero potential leaves only the norms of the differences
    p = reference_potential() if use_potential else zero_potential()
    rng = np.random.default_rng(11)
    z1, zt1, z2, zt2 = (0.3 * (rng.uniform(-1, 1, (9, g.n))
                               + 1j * rng.uniform(-1, 1, (9, g.n)))
                        for _ in range(4))
    stacked = state_distance(g, z1, zt1, z2, zt2, p)
    levels = [state_distance(g, z1[l], zt1[l], z2[l], zt2[l], p)
              for l in range(9)]
    assert stacked.shape == (9,)
    assert np.array_equal(stacked, np.array(levels))
    assert np.array_equal(stacked,
                          _reference_level_metric(g, z1, zt1, z2, zt2, p))


def test_trapezoid_weights_integrate_linear_functions_exactly():
    g = Grid1D(-1.0, 3.0, 33)
    w = trapezoid_weights(g.n, g.dx)
    assert w[0] == w[-1] == 0.5 * g.dx and np.all(w[1:-1] == g.dx)
    assert np.sum(w * (2.0 * g.nodes + 1.0)) == pytest.approx(12.0, rel=1e-14)


# --- contraction_stop --------------------------------------------------------


def test_contraction_stop_cases():
    # the first pass has no rate: only its change decides
    assert not contraction_stop([0.1], 0.05)
    assert contraction_stop([0.01], 0.05)
    # rate 0.1: the bound 0.1 / 0.9 * 0.1 = 0.011 is below 0.05
    assert contraction_stop([1.0, 0.1], 0.05)
    # rate 0.6 is not below 1/2: the change itself must fall below tol
    assert not contraction_stop([0.1, 0.06], 0.05)
    assert contraction_stop([0.05, 0.03], 0.05)
    # a zero change stops, even at tol 0; a NaN change never does
    assert contraction_stop([1.0, 0.0], 1e-12)
    assert contraction_stop([1.0, 0.0], 0.0)
    assert not contraction_stop([1.0, 1e-300], 0.0)
    assert not contraction_stop([1.0, math.nan], 1.0)


_finite = st.floats(-10.0, 10.0, allow_nan=False)


@settings(max_examples=300, deadline=None)
@given(a=st.floats(-0.4999, 0.4999), n=st.integers(1, 5),
       perm_seed=st.integers(0, 2 ** 32 - 1),
       x_star=st.lists(_finite, min_size=5, max_size=5),
       x0=st.lists(_finite, min_size=5, max_size=5),
       tol_exp=st.floats(-12.0, 0.0))
def test_contraction_stop_bounds_the_distance_to_the_fixed_point(
        a, n, perm_seed, x_star, x0, tol_exp):
    # T(x) = x* + a P (x - x*) with P a signed permutation, an isometry of
    # the sup norm: a contraction at rate |a| < 1/2 in that norm (n = 1 is
    # the scalar map), iterated in exact arithmetic; when the stop rule
    # accepts an iterate it is within tol of x*, up to the rounding of the
    # float distances the rule reads
    rng = np.random.default_rng(perm_seed)
    perm = rng.permutation(n)
    sign = rng.choice([-1, 1], n)
    star = [Fraction(v) for v in x_star[:n]]
    x = [Fraction(v) for v in x0[:n]]
    q = Fraction(a)
    tol = 10.0 ** tol_exp
    diffs = []
    for _ in range(200):
        e = [xi - si for xi, si in zip(x, star)]
        new = [star[i] + q * sign[i] * e[perm[i]] for i in range(n)]
        diffs.append(float(max(abs(u - v) for u, v in zip(new, x))))
        x = new
        if contraction_stop(diffs, tol):
            break
    else:
        pytest.fail("the iteration never stopped")
    true = max(abs(xi - si) for xi, si in zip(x, star))
    assert true <= Fraction(tol) * (1 + Fraction(1, 10 ** 12))


# --- snapshot files ----------------------------------------------------------


def _reference_snapshot_csv(path, f):
    """The per-row snapshot writer the shared csv writer replaced."""
    xs = f.grid.nodes
    with open(path, "w") as fh:
        fh.write("x,re_zeta,im_zeta,re_zeta_t,im_zeta_t\n")
        for i in range(f.grid.n):
            fh.write(f"{xs[i]:.17g},{f.zeta[i].real:.17g},{f.zeta[i].imag:.17g},"
                     f"{f.zeta_t[i].real:.17g},{f.zeta_t[i].imag:.17g}\n")


def test_snapshot_csv_bytes_match_per_row_writer(tmp_path):
    g = Grid1D(-3.0, 1.0 / 3.0, 40)
    rng = np.random.default_rng(2)
    zeta = rng.normal(size=g.n) * 10.0 ** rng.integers(-300, 3, g.n) + 1j * rng.normal(size=g.n)
    zt = np.full(g.n, -0.0 + 1e-310j)
    zt[::3] = 1.0 / 3.0 - 2.5j
    f = ComplexField(g, zeta, zt, validate=False)
    write_snapshot_csv(tmp_path / "new.csv", f)
    _reference_snapshot_csv(tmp_path / "old.csv", f)
    assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "old.csv").read_bytes()


@pytest.mark.parametrize("reader, width, value", [(read_snapshot_csv, 5, 0.0),
                                                  (read_polar_snapshot_csv, 7, 0.5)])
def test_grid_csv_readers_reject_bad_columns_and_nodes(tmp_path, reader, width,
                                                       value):
    x = np.linspace(0.0, 1.0, 17)
    rows = np.column_stack([x] + [np.full(17, value)] * (width - 1))
    good = tmp_path / "good.csv"
    np.savetxt(good, rows, delimiter=",", header="h", comments="")
    reader(good)
    narrow = tmp_path / "narrow.csv"
    np.savetxt(narrow, rows[:, :-1], delimiter=",", header="h", comments="")
    with pytest.raises(ConfigError, match=f"{width} columns"):
        reader(narrow)
    rows[5, 0] += 0.01
    skewed = tmp_path / "skewed.csv"
    np.savetxt(skewed, rows, delimiter=",", header="h", comments="")
    with pytest.raises(ConfigError, match="not uniform"):
        reader(skewed)



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
    # 17 significant digits read back exactly
    assert np.array_equal(f2.zeta, f.zeta)
    assert np.array_equal(f2.zeta_t, f.zeta_t)


_any_float = st.floats(allow_nan=False, allow_infinity=False)


def _bits(a):
    return np.ascontiguousarray(a).view(np.uint8).tobytes()


def _complex(parts):
    """The complex array whose real and imaginary parts are the two halves
    of parts, bit for bit (x + 1j * y would turn an imaginary -0.0 into
    +0.0)."""
    out = np.empty(len(parts) // 2, dtype=complex)
    out.real, out.imag = np.split(np.asarray(parts, dtype=float), 2)
    return out


@settings(max_examples=60, deadline=None)
@given(data=st.data(), g=st.builds(
    lambda x0, width, n: Grid1D(x0, x0 + width, n), st.floats(-1e3, 1e3),
    st.floats(1e-3, 1e3), st.integers(16, 40)))
def test_snapshot_round_trip_property(data, g):
    # random finite values on a random small grid: the complex snapshot
    # (|zeta| < 1 and pinned ends, which its reader checks) and the polar
    # one (any finite values) read back bit for bit, on the same grid
    part = st.floats(-0.7, 0.7)
    zeta = _complex(data.draw(st.lists(part, min_size=2 * g.n,
                                       max_size=2 * g.n)))
    zt = _complex(data.draw(st.lists(_any_float, min_size=2 * g.n,
                                     max_size=2 * g.n)))
    zeta[[0, -1]] = zt[[0, -1]] = 0.0
    U = np.array(data.draw(st.lists(_any_float, min_size=6 * g.n,
                                    max_size=6 * g.n))).reshape(6, g.n)
    f = ComplexField(g, zeta, zt)
    ps = PolarState(g, *U)
    with tempfile.TemporaryDirectory() as tmp:
        write_snapshot_csv(Path(tmp) / "snap.csv", f)
        f2 = read_snapshot_csv(Path(tmp) / "snap.csv")
        write_polar_snapshot_csv(Path(tmp) / "polar.csv", ps)
        ps2 = read_polar_snapshot_csv(Path(tmp) / "polar.csv")
    assert f2.grid == g and ps2.grid == g
    assert _bits(f2.zeta) == _bits(f.zeta)
    assert _bits(f2.zeta_t) == _bits(f.zeta_t)
    assert _bits(ps2.U) == _bits(ps.U)


def test_snapshot_rejects_malformed_file(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("x,re\n0.0,1.0\n1.0,2.0\n")
    with pytest.raises(ConfigError):
        read_snapshot_csv(path)
