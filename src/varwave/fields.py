"""Uniform 1-d grids, sampled fields, interpolation, quadrature, norms.

Everything downstream (both wave solvers, the marker resampler, the
diagnostics) flows through these primitives, so their contracts are narrow
and heavily tested: cubic interpolation is exact on cubics and at nodes,
quadrature is the piecewise-linear integral (trapezoid plus partial end
cells), and the norm bundle mirrors the solution-space metric used by the
fixed-point solvers.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .errors import ConfigError, DomainError

__all__ = [
    "Grid1D",
    "ComplexField",
    "StateNorms",
    "Stencil",
    "stencil",
    "interpolate",
    "integrate",
    "trapezoid_weights",
    "l2_norm",
    "norms",
    "state_distance",
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

    @property
    def length(self) -> float:
        return self.x_max - self.x_min

    def inside(self, x) -> np.ndarray:
        """Mask of the points in the grid, ends widened by 1e-12 cells."""
        tol = 1e-12 * self.dx
        return (x >= self.x_min - tol) & (x <= self.x_max + tol)

    def contains(self, x) -> bool:
        return bool(np.all(self.inside(np.asarray(x))))


@dataclass(frozen=True)
class Stencil:
    """Four-point Lagrange stencil of one set of query points on a grid.

    Built once by `stencil` and applied to any number of sample arrays on
    that grid: `apply` interpolates along the last axis, so one call samples
    a (k, n) stack of fields at the same queries.
    """

    base: np.ndarray     # first of the four stencil nodes, per query
    weights: tuple       # the four Lagrange weights, per query
    snap: np.ndarray     # queries on a node (to 1e-9 cells) ...
    snap_node: np.ndarray  # ... and the node each of them sits on
    inside: np.ndarray   # queries inside the grid
    scalar: bool

    def apply(self, samples, fill=None):
        """Interpolate samples of shape (..., n) at the m queries.

        Queries outside the grid raise DomainError unless a fill value is
        supplied; it broadcasts against the (..., m) result, so a (k, 1)
        array gives each row of a stack its own far-field constant.
        """
        samples = np.asarray(samples)
        outside = not np.all(self.inside)
        if fill is None and outside:
            raise DomainError("interpolation query outside the grid")
        w0, w1, w2, w3 = self.weights
        at = lambda k: np.take(samples, self.base + k, axis=-1)
        out = w0 * at(0) + w1 * at(1) + w2 * at(2) + w3 * at(3)
        # snap exact nodes so interpolation at a node returns the sample bitwise
        if self.snap_node.size:
            out[..., self.snap] = np.take(samples, self.snap_node, axis=-1)
        if outside:
            out = np.where(self.inside, out, fill)
        return out[..., 0] if self.scalar else out


def stencil(grid: Grid1D, x) -> Stencil:
    """Interpolation stencil of the query points x (see `interpolate`)."""
    x = np.asarray(x, dtype=float)
    xq = np.atleast_1d(x)
    inside = grid.inside(xq)

    pos = (xq - grid.x_min) / grid.dx
    pos = np.clip(pos, 0.0, grid.n - 1.0)
    jbase = np.clip(np.floor(pos).astype(int) - 1, 0, grid.n - 4)
    t = pos - (jbase + 1)  # offset from the second stencil node, in cells

    tm, t0, t1, t2 = t + 1.0, t, t - 1.0, t - 2.0
    weights = (-t0 * t1 * t2 / 6.0, tm * t1 * t2 / 2.0,
               -tm * t0 * t2 / 2.0, tm * t0 * t1 / 6.0)
    near = np.abs(pos - np.round(pos)) < 1e-9
    return Stencil(jbase, weights, near, np.round(pos[near]).astype(int),
                   inside, x.ndim == 0)


def interpolate(grid: Grid1D, samples: np.ndarray, x, fill=None):
    """Four-point Lagrange interpolation of nodal samples at query points.

    Exact for cubic polynomials and exact at grid nodes.  Queries outside the
    grid raise DomainError unless a fill value is supplied (used by the
    transport solver, whose characteristics leave through a constant far
    field).  To sample several fields at the same queries, build the
    `stencil` once and apply it to their stack.
    """
    return stencil(grid, x).apply(samples, fill)


def integrate(grid: Grid1D, samples: np.ndarray, a: Optional[float] = None,
              b: Optional[float] = None):
    """Integral of the piecewise-linear interpolant of samples over [a, b].

    Composite trapezoid over whole cells plus linear corrections for the
    partial cells at each end; exactly additive over subintervals.
    """
    a = grid.x_min if a is None else float(a)
    b = grid.x_max if b is None else float(b)
    if b < a:
        raise ConfigError("integration bounds reversed")
    if not grid.contains((a, b)):
        raise DomainError("integration bounds outside the grid")
    a = min(max(a, grid.x_min), grid.x_max)
    b = min(max(b, grid.x_min), grid.x_max)
    if a == b:
        return samples.dtype.type(0.0) if hasattr(samples, "dtype") else 0.0

    dx = grid.dx
    samples = np.asarray(samples)

    def lin(xq):
        pos = (xq - grid.x_min) / dx
        j = min(int(pos), grid.n - 2)
        t = pos - j
        return (1.0 - t) * samples[j] + t * samples[j + 1], j, t

    fa, ja, ta = lin(a)
    fb, jb, tb = lin(b)
    if ja == jb:
        return 0.5 * (fa + fb) * (b - a)

    x_first = grid.x_min + (ja + 1) * dx
    x_last = grid.x_min + jb * dx
    total = 0.5 * (fa + samples[ja + 1]) * (x_first - a)
    total = total + 0.5 * (samples[jb] + fb) * (b - x_last)
    if jb > ja + 1:
        inner = samples[ja + 1:jb + 1]
        total = total + np.trapezoid(inner, dx=dx)
    return total


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

    def zeta_x(self) -> np.ndarray:
        return centered_derivative(self.grid, self.zeta)

    def copy(self) -> "ComplexField":
        return ComplexField(self.grid, self.zeta.copy(), self.zeta_t.copy(),
                            self.far_field, self.time, validate=False)


@dataclass(frozen=True)
class StateNorms:
    """Norm components of the solution-space metric for one state."""

    sup_zeta: float
    h1_dist: float
    sup_zeta_t: float
    l2_zeta_t: float
    w0_mass: float


def trapezoid_weights(n: int, h: float) -> np.ndarray:
    """Composite trapezoid weights of n nodes spaced h apart."""
    w = np.full(n, h)
    w[0] = w[-1] = 0.5 * h
    return w


def l2_norm(a, h: float):
    """Trapezoid L^2 norm along the last axis of nodal samples spaced h apart."""
    a = np.asarray(a)
    return np.sqrt(np.sum(np.abs(a) ** 2 * trapezoid_weights(a.shape[-1], h), axis=-1))


def norms(f: ComplexField, p=None) -> StateNorms:
    """Norm bundle of a state: sup and H^1 distance to the far field, sup/L2
    of the velocity, and the L^1 mass of W0(|zeta|) when a potential is given."""
    h = f.grid.dx
    w0_mass = 0.0
    if p is not None:
        w0_mass = float(np.sum(p.eval_0(np.abs(f.zeta)) * trapezoid_weights(f.grid.n, h)))
    return StateNorms(
        sup_zeta=float(np.max(np.abs(f.zeta))),
        h1_dist=float(l2_norm(f.zeta - f.far_field, h) + l2_norm(f.zeta_x(), h)),
        sup_zeta_t=float(np.max(np.abs(f.zeta_t))),
        l2_zeta_t=float(l2_norm(f.zeta_t, h)),
        w0_mass=w0_mass,
    )


def state_distance(grid: Grid1D, zeta1, zeta_t1, zeta2, zeta_t2, p=None):
    """Metric distance between two states (zeta, zeta_t) on the grid.

    Sup and L^2 norms of the differences of zeta, zeta_x, zeta_t, plus the
    L^1 difference of the potential densities when p is given; this is the
    contraction metric of the windowed fixed-point solver.  The arrays may
    be (..., n) stacks of time levels: the distance is taken along the last
    axis, one value per level.
    """
    shapes = {np.shape(a) for a in (zeta1, zeta_t1, zeta2, zeta_t2)}
    if shapes != {np.shape(zeta1)[:-1] + (grid.n,)}:
        raise ConfigError("states must match each other and the grid")
    h = grid.dx
    dz = np.asarray(zeta1) - zeta2
    dzx = centered_derivative(grid, dz)
    dzt = np.asarray(zeta_t1) - zeta_t2
    sup = lambda a: np.max(np.abs(a), axis=-1)
    d = (sup(dz) + sup(dzx) + l2_norm(dz, h) + l2_norm(dzx, h)
         + sup(dzt) + l2_norm(dzt, h))
    if p is not None:
        dw = np.abs(p.eval_0(np.abs(zeta1)) - p.eval_0(np.abs(zeta2)))
        d = d + np.sum(dw * trapezoid_weights(grid.n, h), axis=-1)
    return d


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


def read_snapshot_csv(path, far_field=0.0 + 0.0j, time=0.0) -> ComplexField:
    """Inverse of write_snapshot_csv; grid rebuilt from the x column."""
    grid, (re_z, im_z, re_zt, im_zt) = read_grid_csv(path, 5, "snapshot csv")
    return ComplexField(grid, re_z + 1j * im_z, re_zt + 1j * im_zt,
                        far_field=far_field, time=time)
