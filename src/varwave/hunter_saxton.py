"""Lagrangian marker solver for the reduced slow-time system.

The asymptotic limit of the director dynamics is the two-component system

  (u_t + u u_x)_x = (1/2)(u_x^2 + rho^2),      rho_t + (u rho)_x = 0,

integrated here in the gauge where u_t + u u_x equals the half mass of
u_x^2 + rho^2 to the left of x (the arbitrary-in-time constant is fixed to
zero).  Along the flow dx/dt = u the system closes into marker ODEs for
alpha = u_x, rho, and the Jacobian J = dx/dxi:

  d alpha/dt = (rho^2 - alpha^2) / 2,  d rho/dt = -alpha rho,  dJ/dt = alpha J,

with du/dt constant per marker because (alpha^2 + rho^2) J is.  Wave
breaking is the Jacobian touching zero: alpha = u_x blows down while u stays
bounded.  w = alpha + i rho obeys dw/dt = -w^2/2, so each marker is an exact
Riccati flow; the solver exploits that only for blow-up prediction and for
test oracles, and otherwise integrates with classical RK4.  Markers start
from the exact slope du0 of the initial profile u0 (make_markers takes
both), so no difference quotient enters the initial data.  A run keeps the
unknowns (x, u, alpha, rho, J) as one (5, m) stack and writes the four RK4
stages and the stage states into buffers allocated once per run, so each
step allocates only the (5, m) array of its new level.  A run hands each
level to an optional observer as a MarkerState whose arrays are the rows
of that level's array, and reports breaking on its result (broke, t_star,
marker_index) instead of raising.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, List, Optional, Tuple

import numpy as np

from .errors import ConfigError, DomainError, WavebreakingError
from .fields import step_count

__all__ = [
    "MarkerState",
    "HSResult",
    "make_markers",
    "marker_rhs",
    "evolve_markers",
    "sample_eulerian",
    "breaking_time_riccati",
]

_MARGIN = 0.1  # markers cover the span widened by this fraction each side
_J_FLOOR = 1e-4  # a step taking any Jacobian to this or below is breaking


@dataclass
class MarkerState:
    """Markers x(xi, t) with slope, density, and Jacobian attached."""

    xi: np.ndarray
    x: np.ndarray
    u: np.ndarray
    alpha: np.ndarray
    rho: np.ndarray
    J: np.ndarray
    time: float = 0.0

    def __post_init__(self):
        m = self.xi.shape[0]
        for name in ("x", "u", "alpha", "rho", "J"):
            if getattr(self, name).shape != (m,):
                raise ConfigError(f"{name} must match xi in length")

    @property
    def dxi(self) -> float:
        return float(self.xi[1] - self.xi[0])

    @property
    def energy(self) -> float:
        """Half mass of u_x^2 + rho^2; constant cell by cell under the flow."""
        return 0.5 * float(np.sum((self.alpha ** 2 + self.rho ** 2) * self.J) * self.dxi)


def make_markers(span: Tuple[float, float], m: int, u0: Callable,
                 rho0: Callable, du0: Callable) -> MarkerState:
    """Seed m markers uniformly over span widened by 10% on each side.

    At t = 0 the labels coincide with positions (J = 1).  The slope alpha
    is du0, the exact derivative of u0, at the labels.
    """
    if m < 8:
        raise ConfigError("need at least 8 markers")
    lo, hi = span
    if not hi > lo:
        raise ConfigError("empty span")
    pad = _MARGIN * (hi - lo)
    xi = np.linspace(lo - pad, hi + pad, m)
    u = np.asarray(u0(xi), dtype=float)
    rho = np.asarray(rho0(xi), dtype=float)
    alpha = np.asarray(du0(xi), dtype=float)
    return MarkerState(xi=xi, x=xi.copy(), u=u, alpha=alpha, rho=rho,
                       J=np.ones(m), time=0.0)


def marker_rhs(y, dxi, out):
    """Time derivatives of the marker unknowns y = (x, u, alpha, rho, J).

    y is a (5, m) stack; the derivatives fill the rows of the (5, m) array
    out, which is returned.  du/dt integrates
    the energy density strictly to the left of each marker (left-endpoint
    cells in the label variable), which fixes the gauge: the free additive
    constant of the velocity equation is identically zero.  A non-positive
    Jacobian means characteristics have crossed; evaluating the flow past
    that point is meaningless, so it raises WavebreakingError and leaves
    out unwritten.
    """
    _, u, alpha, rho, J = y
    if np.min(J) <= 0.0:
        raise WavebreakingError(
            f"Jacobian hit {np.min(J):.3e}: characteristics crossed",
            marker_index=int(np.argmin(J)))
    dx, du, da, dr, dJ = out
    np.multiply(alpha, alpha, out=da)
    np.multiply(rho, rho, out=dr)
    # the mass cells (alpha^2 + rho^2) J dxi, formed in the dJ row
    cell = np.add(da, dr, out=dJ)
    cell *= J
    cell *= dxi
    du[0] = 0.0
    np.cumsum(cell[:-1], out=du[1:])
    du *= 0.5
    np.subtract(dr, da, out=da)
    da *= 0.5
    np.multiply(alpha, rho, out=dr)
    np.negative(dr, out=dr)
    np.multiply(alpha, J, out=dJ)
    dx[:] = u
    return out


def breaking_time_riccati(alpha, rho, J) -> Tuple[float, int]:
    """Remaining time to the first Jacobian collapse, marker by marker.

    From w = alpha + i rho, J(t) = J(0) |1 + w t / 2|^2 vanishes only for
    real negative w, after exactly -2/alpha.  Markers with rho != 0 never
    collapse (the Riccati circle keeps |1 + w t / 2| > 0); they are skipped.
    Returns (inf, -1) when nothing breaks.
    """
    alpha = np.asarray(alpha, float)
    rho = np.asarray(rho, float)
    candidates = (np.abs(rho) < 1e-12) & (alpha < 0.0) & (np.asarray(J) > 0.0)
    if not np.any(candidates):
        return math.inf, -1
    times = np.where(candidates, -2.0 / np.where(candidates, alpha, -1.0), math.inf)
    i = int(np.argmin(times))
    return float(times[i]), i


@dataclass
class HSResult:
    state: MarkerState
    broke: bool
    t_star: Optional[float]
    marker_index: Optional[int]
    energy_history: List[Tuple[float, float]]
    sup_alpha: float


def _rk4_step(y, dt, dxi, k, tmp):
    """One classical RK4 step from the (5, m) stack y, returned as a fresh
    (5, m) array.  The stages go into the (4, 5, m) buffer k and the stage
    states into the (5, m) buffer tmp; y is only read."""
    marker_rhs(y, dxi, out=k[0])
    np.multiply(k[0], 0.5 * dt, out=tmp)
    tmp += y
    marker_rhs(tmp, dxi, out=k[1])
    np.multiply(k[1], 0.5 * dt, out=tmp)
    tmp += y
    marker_rhs(tmp, dxi, out=k[2])
    np.multiply(k[2], dt, out=tmp)
    tmp += y
    marker_rhs(tmp, dxi, out=k[3])
    # (dt/6) (((k1 + 2 k2) + 2 k3) + k4) + y
    np.multiply(k[1], 2, out=tmp)
    tmp += k[0]
    np.multiply(k[2], 2, out=k[2])
    tmp += k[2]
    tmp += k[3]
    new = np.multiply(tmp, dt / 6.0)
    new += y
    return new


def evolve_markers(st: MarkerState, t_final: float, dt: float,
                   observer: Optional[Callable] = None) -> HSResult:
    """March the markers to t_final, a whole number of steps dt
    (fields.step_count), with RK4, watching for breaking.

    A step that drives any Jacobian to the floor 1e-4 or below stops the
    run; the breaking time is then predicted from the Riccati structure of
    the last healthy state (exact when the collapsing marker carries
    rho = 0), and the result is flagged: broke, t_star and marker_index are
    set and the state returned is that last healthy one.

    The entry check dt * sup|alpha| <= 0.1 keeps the fastest Riccati
    transient resolved at the start; near breaking alpha grows like the
    inverse remaining time, so the run stops at the Jacobian floor (where
    |alpha| has grown by ~100x) rather than resolving the collapse itself,
    and leaves t_star to the exact per-marker prediction.

    The unknowns travel as one (5, m) stack, a copy of st's arrays (st is
    never written); the stages and stage states live in buffers allocated
    once per run, and each accepted level is a fresh (5, m) array whose
    rows become the arrays of that level's MarkerState.

    `observer(state)` is called with the initial state and then with each
    accepted step, in time order; the solver never changes a MarkerState
    after handing it over.
    """
    steps = step_count(t_final, dt)
    a0 = float(np.max(np.abs(st.alpha)))
    if dt * a0 > 0.1:
        raise ConfigError(
            f"dt = {dt:.3e} too large for initial slopes: dt * sup|alpha| = "
            f"{dt * a0:.3f} > 0.1")
    xi, dxi = st.xi.copy(), st.dxi
    y = np.array([st.x, st.u, st.alpha, st.rho, st.J], dtype=float)
    k = np.empty((4,) + y.shape)
    tmp = np.empty_like(y)
    cur = MarkerState(xi, *y, time=st.time)
    hist = [(cur.time, cur.energy)]
    sup_alpha = float(np.max(np.abs(cur.alpha)))
    if observer is not None:
        observer(cur)

    for _ in range(steps):
        try:
            nxt = _rk4_step(y, dt, dxi, k, tmp)
            collapsed = bool(np.min(nxt[4]) <= _J_FLOOR)
        except WavebreakingError:
            nxt = y
            collapsed = True
        if collapsed:
            remaining, idx = breaking_time_riccati(cur.alpha, cur.rho, cur.J)
            if not math.isfinite(remaining):
                # collapse without a clean rho = 0 marker: report the step end
                idx = int(np.argmin(nxt[4]))
                t_star = cur.time + dt
            else:
                t_star = cur.time + remaining
            return HSResult(state=cur, broke=True, t_star=t_star,
                            marker_index=idx, energy_history=hist,
                            sup_alpha=sup_alpha)
        y = nxt
        cur = MarkerState(xi, *y, time=cur.time + dt)
        hist.append((cur.time, cur.energy))
        sup_alpha = max(sup_alpha, float(np.max(np.abs(cur.alpha))))
        if observer is not None:
            observer(cur)

    return HSResult(state=cur, broke=False, t_star=None, marker_index=None,
                    energy_history=hist, sup_alpha=sup_alpha)


def sample_eulerian(st: MarkerState, x_query) -> Tuple[np.ndarray, np.ndarray]:
    """Resample (u, rho) on given positions from the marker cloud.

    x_query is an array of positions or a Grid1D.  u is monotone-safe
    (piecewise cubic Hermite through the markers); rho is the derivative of
    the cumulative rho mass, which keeps the integral of rho across any
    marker range exact even where markers bunch up.  scipy.interpolate is
    imported here, on the first call, so importing varwave stays cheap.
    """
    from scipy.interpolate import CubicSpline, PchipInterpolator

    x = st.x
    if np.any(np.diff(x) <= 0.0):
        raise DomainError("marker positions are not increasing: too close to "
                          "breaking for Eulerian sampling")
    xq = np.asarray(getattr(x_query, "nodes", x_query), dtype=float)
    if np.min(xq) < x[0] or np.max(xq) > x[-1]:
        raise DomainError("query points outside the marker span")
    u_of_x = PchipInterpolator(x, st.u)
    # cumulative mass of rho in the label variable mapped to positions
    dens = st.rho * st.J
    mass = np.concatenate(([0.0],
                           np.cumsum(0.5 * (dens[1:] + dens[:-1]) * st.dxi)))
    rho_of_x = CubicSpline(x, mass).derivative()
    return u_of_x(xq), rho_of_x(xq)
