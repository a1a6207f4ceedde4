"""Uniform 1-d grids, sampled fields, interpolation, quadrature, distances,
and the clock.

Everything downstream (both wave solvers, the marker resampler, the
diagnostics) flows through these primitives, so their contracts are narrow
and heavily tested: cubic interpolation is exact on cubics and at nodes,
quadrature is the whole-grid trapezoid rule along the last axis,
state_distance is the solution-space metric of the semilinear Picard
iteration, and step_count / fit_steps are the one rule by which every solver,
the CLI and the epsilon sweep turn a duration into whole steps.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DomainError

__all__ = [
    "Grid1D",
    "step_count",
    "fit_steps",
    "ComplexField",
    "Stencil",
    "stencil",
    "interpolate",
    "integrate",
    "trapezoid_weights",
    "l2_norm",
    "state_distance",
    "contraction_stop",
    "centered_derivative",
    "write_csv_rows",
    "write_csv",
    "read_grid_csv",
    "write_snapshot_csv",
    "read_snapshot_csv",
]


@dataclass(frozen=True)
class Grid1D:
    """Uniform closed-interval grid with at least 16 nodes."""

    x_min: float
    x_max: float
    n: int

    def __post_init__(self):
        if self.n < 16:
            raise ConfigError("grid needs at least 16 nodes")
        if not self.x_max > self.x_min:
            raise ConfigError("empty grid interval")

    @property
    def dx(self) -> float:
        return (self.x_max - self.x_min) / (self.n - 1)

    @property
    def nodes(self) -> np.ndarray:
        return np.linspace(self.x_min, self.x_max, self.n)

    def inside(self, x) -> np.ndarray:
        """Mask of the points in the grid, ends widened by 1e-12 cells."""
        tol = 1e-12 * self.dx
        return (x >= self.x_min - tol) & (x <= self.x_max + tol)


def step_count(t: float, dt: float) -> int:
    """The number of steps dt that make up the time t, round(t / dt).

    ConfigError unless t > 0 and dt > 0, t / dt is finite, the steps land
    on t to within 1e-9 max(1, t), and there is at least one of them.
    """
    if not (t > 0.0 and dt > 0.0):
        raise ConfigError(f"time {t} and step dt = {dt} must be positive")
    ratio = t / dt
    if not math.isfinite(ratio):
        raise ConfigError(f"time / dt = {t} / {dt} must be finite")
    steps = int(round(ratio))
    if abs(steps * dt - t) > 1e-9 * max(1.0, t):
        raise ConfigError(f"time {t} is not a whole number of steps dt = {dt}")
    if steps == 0:
        raise ConfigError(f"time {t} is shorter than one step dt = {dt}")
    return steps


def fit_steps(t: float, dt_max: float) -> tuple[int, float]:
    """(steps, dt) for the fewest equal steps dt <= dt_max that make up t
    by step_count's rule: dt = t / steps, or dt_max when t overruns
    steps * dt_max by at most 1e-9 of a step; ConfigError when t / dt_max
    is not finite."""
    ratio = t / dt_max
    if not math.isfinite(ratio):
        raise ConfigError(f"time / dt = {t} / {dt_max} must be finite")
    steps = max(1, math.ceil(ratio - 1e-9))
    return steps, min(t / steps, dt_max)


@dataclass(frozen=True)
class Stencil:
    """Four-point Lagrange stencil of one set of m query points on a grid.

    Built once by `stencil` and applied to any number of sample arrays on
    that grid: `apply` interpolates along the last axis, so one call samples
    a (k, n) stack of fields at the same queries.  Everything a query needs
    is an index array made at build time: its four stencil nodes, the
    queries that sit on a node and that node, and the queries outside the
    grid.
    """

    index: np.ndarray    # (4, m) the four stencil nodes of each query
    weights: np.ndarray  # (4, m) their Lagrange weights
    snap: np.ndarray     # queries on a node (to 1e-9 cells) ...
    snap_node: np.ndarray  # ... and the node each of them sits on
    outside: np.ndarray  # queries outside the grid (NaN included)

    def apply(self, samples, fill=None):
        """Interpolate samples of shape (..., n) at the m queries.

        Queries outside the grid raise DomainError unless a fill value is
        supplied: a scalar, or a (k, 1) array that gives each row of a
        (k, n) stack its own far-field constant.
        """
        samples = np.asarray(samples)
        if fill is None and self.outside.size:
            raise DomainError("interpolation query outside the grid")
        # (..., 4, m) samples times weights, summed in node order
        terms = samples.take(self.index, axis=-1).astype(
            np.result_type(samples, self.weights), copy=False)
        terms *= self.weights
        out = terms[..., 0, :] + terms[..., 1, :]
        out += terms[..., 2, :]
        out += terms[..., 3, :]
        # snap exact nodes so interpolation at a node returns the sample bitwise
        if self.snap.size:
            out[..., self.snap] = samples.take(self.snap_node, axis=-1)
        if self.outside.size:
            fill = np.asarray(fill)
            out = out.astype(np.result_type(out, fill), copy=False)
            out[..., self.outside] = fill
        return out


def stencil(grid: Grid1D, x) -> Stencil:
    """Interpolation stencil of the query points x (see `interpolate`)."""
    xq = np.atleast_1d(np.asarray(x, dtype=float))
    outside = np.flatnonzero(~grid.inside(xq))

    # fmax/fmin clamp like clip but send NaN to the floor, so no NaN reaches
    # the integer cast; NaN and +-inf queries are outside and get the fill
    pos = np.fmin(np.fmax((xq - grid.x_min) / grid.dx, 0.0), grid.n - 1.0)
    # pos >= 0, so the cast truncates to the floor
    jbase = np.minimum(np.maximum(pos.astype(np.intp) - 1, 0), grid.n - 4)
    t = pos - (jbase + 1)  # offset from the second stencil node, in cells

    # the Lagrange weights -t (t-1)(t-2)/6, (t+1)(t-1)(t-2)/2,
    # -(t+1) t (t-2)/2, (t+1) t (t-1)/6, multiplied left to right; the signs
    # sit on the divisors, since (-a) b = -(a b) and a / -d = -(a / d) exactly
    tm, t1, t2 = t + 1.0, t - 1.0, t - 2.0
    weights = np.empty((4, t.size))
    a = t * t1
    a *= t2
    np.divide(a, -6.0, out=weights[0])
    np.multiply(tm, t1, out=a)
    a *= t2
    np.divide(a, 2.0, out=weights[1])
    tm_t = tm * t
    np.multiply(tm_t, t2, out=a)
    np.divide(a, -2.0, out=weights[2])
    np.multiply(tm_t, t1, out=a)
    np.divide(a, 6.0, out=weights[3])

    node = np.round(pos)
    snap = np.flatnonzero(np.abs(pos - node) < 1e-9)
    return Stencil(jbase + np.arange(4)[:, None], weights, snap,
                   node[snap].astype(np.intp), outside)


def interpolate(grid: Grid1D, samples: np.ndarray, x, fill=None):
    """Four-point Lagrange interpolation of nodal samples at query points.

    The m queries are a 1-d array (a scalar is one query); the result has
    shape (..., m).  Exact for cubic polynomials and exact at grid nodes.
    Queries outside the grid raise DomainError unless a fill value is
    supplied (a scalar, or a (k, 1) array with one value per row of a (k, n)
    stack).  To sample several fields at the same queries, build the
    `stencil` once and apply it to their stack.
    """
    return stencil(grid, x).apply(samples, fill)


def integrate(grid: Grid1D, samples):
    """Trapezoid integral over the whole grid along the last axis, one
    value per row of a (..., n) stack; exact for piecewise-linear data."""
    return np.sum(np.asarray(samples) * trapezoid_weights(grid.n, grid.dx),
                  axis=-1)


def centered_derivative(grid: Grid1D, samples: np.ndarray) -> np.ndarray:
    """Second-order spatial derivative along the last axis: centered inside,
    one-sided at the ends."""
    return np.gradient(np.asarray(samples), grid.dx, axis=-1, edge_order=2)


# ---------------------------------------------------------------------------
# complex state

@dataclass
class ComplexField:
    """State (zeta, zeta_t) of the constant-speed complex wave equation.

    zeta = s e^{i psi} packs the order parameter and director angle; the far
    field is an equilibrium constant the boundary values are pinned to.
    """

    grid: Grid1D
    zeta: np.ndarray
    zeta_t: np.ndarray
    far_field: complex = 0.0 + 0.0j
    time: float = 0.0
    validate: bool = True

    def __post_init__(self):
        self.zeta = np.array(self.zeta, dtype=complex)
        self.zeta_t = np.array(self.zeta_t, dtype=complex)
        if self.zeta.shape != (self.grid.n,) or self.zeta_t.shape != (self.grid.n,):
            raise ConfigError("field arrays must match the grid")
        if self.validate:
            self.check()

    def check(self):
        sup = float(np.max(np.abs(self.zeta)))
        if sup >= 1.0:
            from .errors import StateEscapeError
            raise StateEscapeError(f"sup|zeta| = {sup:.6f} >= 1")
        for edge in (0, -1):
            if abs(self.zeta[edge] - self.far_field) > 1e-10:
                raise ConfigError("boundary value departs from the far field")
            if abs(self.zeta_t[edge]) > 1e-10:
                raise ConfigError("boundary time derivative is not zero")


def trapezoid_weights(n: int, h: float) -> np.ndarray:
    """Composite trapezoid weights of n nodes spaced h apart."""
    w = np.full(n, h)
    w[0] = w[-1] = 0.5 * h
    return w


def l2_norm(a, h: float):
    """Trapezoid L^2 norm along the last axis of nodal samples spaced h apart."""
    a = np.asarray(a)
    return np.sqrt(np.sum(np.abs(a) ** 2 * trapezoid_weights(a.shape[-1], h), axis=-1))


def state_distance(grid: Grid1D, zeta1, zeta_t1, zeta2, zeta_t2, p):
    """Metric distance between two states (zeta, zeta_t) on the grid.

    Sup and L^2 norms of the differences of zeta, zeta_x, zeta_t, plus the
    L^1 difference of the densities of the potential p; this is the
    contraction metric of the windowed fixed-point iteration.  The arrays
    may be (..., n) stacks of time levels: the distance is taken along the
    last axis, one value per level.
    """
    shapes = {np.shape(a) for a in (zeta1, zeta_t1, zeta2, zeta_t2)}
    if shapes != {np.shape(zeta1)[:-1] + (grid.n,)}:
        raise ConfigError("states must match each other and the grid")
    w = trapezoid_weights(grid.n, grid.dx)

    def sup_l2(a):
        a = np.abs(a)
        sup = np.max(a, axis=-1)
        np.square(a, out=a)
        a *= w
        return sup, np.sqrt(np.sum(a, axis=-1))

    dz = np.asarray(zeta1) - zeta2
    sup_z, l2_z = sup_l2(dz)
    sup_zx, l2_zx = sup_l2(centered_derivative(grid, dz))
    sup_zt, l2_zt = sup_l2(np.asarray(zeta_t1) - zeta_t2)
    dw = p.eval_0(np.abs(zeta1)) - p.eval_0(np.abs(zeta2))
    return (sup_z + sup_zx + l2_z + l2_zx + sup_zt + l2_zt
            + np.sum(np.abs(dw) * w, axis=-1))


def contraction_stop(diffs, tol: float) -> bool:
    """Whether a fixed-point iteration may stop after its latest pass.

    diffs are the distances d_1, ..., d_k between successive iterates.  It
    stops once d_k < tol, or, from pass 2 on, when the observed rate
    q = d_k / d_{k-1} is below 1/2 and Banach's a-posteriori bound
    q / (1 - q) * d_k on the distance to the fixed point is below tol.
    """
    d = diffs[-1]
    if len(diffs) >= 2 and diffs[-2] > 0.0:
        q = d / diffs[-2]
        if q < 0.5 and q / (1.0 - q) * d < tol:
            return True
    return d < tol


# ---------------------------------------------------------------------------
# csv files: one row per node (or marker), every value as %.17g


def write_csv_rows(fh, columns):
    """Write one row per index of the columns, each value as %.17g.

    columns are equal-length 1-d sequences; a scalar column broadcasts.
    """
    cols = np.broadcast_arrays(*(np.asarray(c, dtype=float) for c in columns))
    fmt = ",".join(["%.17g"] * len(cols)) + "\n"
    fh.writelines(fmt % row for row in zip(*cols))


def write_csv(path, header: str, columns):
    """A header line, then `write_csv_rows` of the columns."""
    with open(path, "w") as fh:
        fh.write(header + "\n")
        write_csv_rows(fh, columns)


def read_grid_csv(path, n_columns: int, what: str):
    """Read a csv written by `write_csv` whose first column is the grid.

    Checks the column count and that the x column holds uniform nodes;
    returns the grid and the (n_columns - 1, n) array of the other columns.
    An unreadable file or a non-numeric or non-finite cell is a ConfigError.
    """
    try:
        data = np.loadtxt(path, delimiter=",", skiprows=1)
    except (OSError, ValueError) as exc:
        raise ConfigError(f"cannot read {what} {path}: {exc}")
    if not np.all(np.isfinite(data)):
        raise ConfigError(f"cannot read {what} {path}: a cell is not finite")
    if data.ndim != 2 or data.shape[1] != n_columns:
        raise ConfigError(f"{what} must have {n_columns} columns")
    x = data[:, 0]
    grid = Grid1D(float(x[0]), float(x[-1]), x.size)
    if not np.allclose(x, grid.nodes, rtol=0.0, atol=1e-9 * grid.dx):
        raise ConfigError(f"{what} nodes are not uniform")
    return grid, data[:, 1:].T


SNAPSHOT_HEADER = "x,re_zeta,im_zeta,re_zeta_t,im_zeta_t"


def write_snapshot_csv(path, f: ComplexField):
    """One row per node: x, Re zeta, Im zeta, Re zeta_t, Im zeta_t."""
    write_csv(path, SNAPSHOT_HEADER, (f.grid.nodes, f.zeta.real, f.zeta.imag,
                                      f.zeta_t.real, f.zeta_t.imag))


def read_snapshot_csv(path, far_field=0.0 + 0.0j) -> ComplexField:
    """Inverse of write_snapshot_csv at time 0; grid rebuilt from the x
    column."""
    grid, cols = read_grid_csv(path, 5, "snapshot csv")
    # each (re, im) column pair viewed as one complex column, bit for bit
    zeta, zeta_t = np.ascontiguousarray(cols.T).view(complex).T
    return ComplexField(grid, zeta, zeta_t, far_field=far_field)
