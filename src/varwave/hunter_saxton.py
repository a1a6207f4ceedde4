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
both), so no difference quotient enters the initial data.  A run hands
each level to an optional observer and reports breaking on its result
(broke, t_star, marker_index) instead of raising.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, List, Optional, Tuple

import numpy as np

from .errors import ConfigError, DomainError, WavebreakingError

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

    def copy(self) -> "MarkerState":
        return MarkerState(self.xi.copy(), self.x.copy(), self.u.copy(),
                           self.alpha.copy(), self.rho.copy(), self.J.copy(),
                           time=self.time)


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


def marker_rhs(x, u, alpha, rho, J, dxi):
    """Time derivatives of the marker unknowns.

    du/dt integrates the energy density strictly to the left of each marker
    (left-endpoint cells in the label variable), which fixes the gauge: the
    free additive constant of the velocity equation is identically zero.
    A non-positive Jacobian means characteristics have crossed; evaluating
    the flow past that point is meaningless, so it raises WavebreakingError.
    """
    J = np.asarray(J, dtype=float)
    if np.min(J) <= 0.0:
        raise WavebreakingError(
            f"Jacobian hit {np.min(J):.3e}: characteristics crossed",
            marker_index=int(np.argmin(J)))
    cell = (alpha ** 2 + rho ** 2) * J * dxi
    left_mass = np.concatenate(([0.0], np.cumsum(cell)[:-1]))
    return (u,
            0.5 * left_mass,
            0.5 * (rho ** 2 - alpha ** 2),
            -alpha * rho,
            alpha * J)


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


def _rk4_step(st: MarkerState, dt: float) -> MarkerState:
    y = (st.x, st.u, st.alpha, st.rho, st.J)
    k1 = marker_rhs(*y, st.dxi)
    y2 = tuple(a + 0.5 * dt * k for a, k in zip(y, k1))
    k2 = marker_rhs(*y2, st.dxi)
    y3 = tuple(a + 0.5 * dt * k for a, k in zip(y, k2))
    k3 = marker_rhs(*y3, st.dxi)
    y4 = tuple(a + dt * k for a, k in zip(y, k3))
    k4 = marker_rhs(*y4, st.dxi)
    new = tuple(a + (dt / 6.0) * (p + 2 * q + 2 * r_ + s_)
                for a, p, q, r_, s_ in zip(y, k1, k2, k3, k4))
    return MarkerState(st.xi, *new, time=st.time + dt)


def evolve_markers(st: MarkerState, t_final: float, dt: float,
                   observer: Optional[Callable] = None) -> HSResult:
    """March the markers to t_final with RK4, watching for breaking.

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

    `observer(state)` is called with the initial state and then with each
    accepted step, in time order; the solver never changes a MarkerState
    after handing it over.
    """
    if not (dt > 0.0 and t_final > 0.0):
        raise ConfigError(f"need dt > 0 and t_final > 0, got {dt}, {t_final}")
    a0 = float(np.max(np.abs(st.alpha)))
    if dt * a0 > 0.1:
        raise ConfigError(
            f"dt = {dt:.3e} too large for initial slopes: dt * sup|alpha| = "
            f"{dt * a0:.3f} > 0.1")
    steps = int(round(t_final / dt))
    if abs(steps * dt - t_final) > 1e-9 * max(1.0, t_final):
        raise ConfigError("t_final must be a whole number of steps")
    if steps == 0:
        raise ConfigError("t_final shorter than one step")
    cur = st.copy()
    hist = [(cur.time, cur.energy)]
    sup_alpha = float(np.max(np.abs(cur.alpha)))
    if observer is not None:
        observer(cur)

    for _ in range(steps):
        try:
            nxt = _rk4_step(cur, dt)
            collapsed = bool(np.min(nxt.J) <= _J_FLOOR)
        except WavebreakingError:
            nxt = cur
            collapsed = True
        if collapsed:
            remaining, idx = breaking_time_riccati(cur.alpha, cur.rho, cur.J)
            if not math.isfinite(remaining):
                # collapse without a clean rho = 0 marker: report the step end
                idx = int(np.argmin(nxt.J))
                t_star = cur.time + dt
            else:
                t_star = cur.time + remaining
            return HSResult(state=cur, broke=True, t_star=t_star,
                            marker_index=idx, energy_history=hist,
                            sup_alpha=sup_alpha)
        cur = nxt
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
