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
test oracles, and integrates (alpha, rho, J) with classical RK4.  Position
and velocity need no integrator: the mass L to the left of a marker is
constant, so u = u0 + L t / 2 and x = x0 + u0 t + L t^2 / 4 exactly (Hunter
& Saxton, SIAM J. Appl. Math. 51, 1991).  Markers start from the exact slope
du0 of the initial profile u0 (make_markers takes both), so no difference
quotient enters the initial data.  A run keeps (alpha, rho, J) as one (3, m)
stack and writes the four RK4 stages and the stage states into buffers
allocated once per run, so each step allocates only the (5, m) array of its
new level, (x, u, alpha, rho, J).  A run hands each level to an optional
observer as a MarkerState whose arrays are the rows of that level's array,
and reports breaking on its result (broke, t_star, marker_index) instead of
raising.  sample_eulerian resamples a cloud onto Eulerian positions in
numpy: u by the PCHIP interpolant (Fritsch & Carlson, SIAM J. Numer. Anal.
17, 1980), rho as the derivative of the not-a-knot cubic spline through the
cumulative rho mass (de Boor, A Practical Guide to Splines, ch. IV).
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


def marker_rhs(y, out):
    """Time derivatives of the marker unknowns y = (alpha, rho, J).

    y is a (3, m) stack; the derivatives fill the rows of the (3, m) array
    out, which is returned.  x and u are not among the unknowns: along
    markers du/dt is the constant half mass to the left (see
    evolve_markers).  A non-positive Jacobian means characteristics have
    crossed; evaluating the flow past that point is meaningless, so it
    raises WavebreakingError and leaves out unwritten.
    """
    alpha, rho, J = y
    if J.min() <= 0.0:
        raise WavebreakingError(
            f"Jacobian hit {np.min(J):.3e}: characteristics crossed",
            marker_index=int(np.argmin(J)))
    da, dr, dJ = out
    np.multiply(alpha, alpha, out=da)
    np.multiply(rho, rho, out=dr)
    np.subtract(dr, da, out=da)
    da *= 0.5
    np.multiply(alpha, rho, out=dr)
    np.negative(dr, out=dr)
    np.multiply(alpha, J, out=dJ)
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


def _rk4_step(y, dt, k, tmp, new):
    """One classical RK4 step from the (3, m) stack y into the (3, m) array
    new.  The stages go into the (4, 3, m) buffer k and the stage states
    into the (3, m) buffer tmp; y is only read."""
    marker_rhs(y, out=k[0])
    np.multiply(k[0], 0.5 * dt, out=tmp)
    tmp += y
    marker_rhs(tmp, out=k[1])
    np.multiply(k[1], 0.5 * dt, out=tmp)
    tmp += y
    marker_rhs(tmp, out=k[2])
    np.multiply(k[2], dt, out=tmp)
    tmp += y
    marker_rhs(tmp, out=k[3])
    # (dt/6) (((k1 + 2 k2) + 2 k3) + k4) + y
    np.multiply(k[1], 2, out=tmp)
    tmp += k[0]
    np.multiply(k[2], 2, out=k[2])
    tmp += k[2]
    tmp += k[3]
    np.multiply(tmp, dt / 6.0, out=new)
    new += y


def evolve_markers(st: MarkerState, t_final: float, dt: float,
                   observer: Optional[Callable] = None) -> HSResult:
    """March the markers to t_final, a whole number of steps dt
    (fields.step_count), watching for breaking.

    (alpha, rho, J) advance by RK4.  x and u follow their exact map: each
    cell's (alpha^2 + rho^2) J is invariant, so the mass L to the left of a
    marker keeps its value at entry and, s after the start,
    u = u0 + (s/2) L and x = x0 + s u0 + (s^2/4) L.

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

    RK4 works on a (3, m) stack, a copy of st's arrays (st is never
    written); the stages and stage states live in buffers allocated once
    per run, and each accepted level is a fresh (5, m) array whose rows
    become the arrays of that level's MarkerState.

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
    xi, t0 = st.xi.copy(), st.time
    lev = np.array([st.x, st.u, st.alpha, st.rho, st.J], dtype=float)
    x0, u0, y = lev[0], lev[1], lev[2:]
    # L[i]: the mass (alpha^2 + rho^2) J dxi of the cells strictly to the
    # left of marker i (left-endpoint cells in the label variable); L[0] = 0
    # fixes the gauge, the free additive constant of du/dt = L / 2
    alpha, rho, J = y
    cell = alpha * alpha + rho * rho
    cell *= J
    cell *= st.dxi
    L = np.zeros_like(cell)
    np.cumsum(cell[:-1], out=L[1:])
    k = np.empty((4,) + y.shape)
    tmp = np.empty_like(y)
    cur = MarkerState(xi, *lev, time=t0)
    hist = [(cur.time, cur.energy)]
    sup_alpha = float(np.max(np.abs(cur.alpha)))
    if observer is not None:
        observer(cur)

    for _ in range(steps):
        lev = np.empty_like(lev)
        x, u, nxt = lev[0], lev[1], lev[2:]
        try:
            _rk4_step(y, dt, k, tmp, nxt)
            collapsed = bool(nxt[2].min() <= _J_FLOOR)
        except WavebreakingError:
            nxt = y
            collapsed = True
        if collapsed:
            remaining, idx = breaking_time_riccati(cur.alpha, cur.rho, cur.J)
            if not math.isfinite(remaining):
                # collapse without a clean rho = 0 marker: report the step end
                idx = int(np.argmin(nxt[2]))
                t_star = cur.time + dt
            else:
                t_star = cur.time + remaining
            return HSResult(state=cur, broke=True, t_star=t_star,
                            marker_index=idx, energy_history=hist,
                            sup_alpha=sup_alpha)
        t = cur.time + dt
        s = t - t0
        # x = (x0 + s u0) + (s^2/4) L and u = (s/2) L + u0, no temporaries
        np.multiply(u0, s, out=x)
        x += x0
        np.multiply(L, 0.25 * s * s, out=u)
        x += u
        np.multiply(L, 0.5 * s, out=u)
        u += u0
        y = nxt
        cur = MarkerState(xi, *lev, time=t)
        hist.append((cur.time, cur.energy))
        sup_alpha = max(sup_alpha, float(np.max(np.abs(cur.alpha))))
        if observer is not None:
            observer(cur)

    return HSResult(state=cur, broke=False, t_star=None, marker_index=None,
                    energy_history=hist, sup_alpha=sup_alpha)


def _hermite(x, y, h, m, d, xq, derivative=False):
    """The cubic Hermite interpolant through (x, y) with node slopes d, or
    its derivative, at the points xq inside [x[0], x[-1]]; h and m are the
    interval widths and secants.

    Each interval holds the power form y_i + d_i s + c2_i s^2 + c3_i s^3 in
    s = xq - x_i, with the coefficients scipy's CubicHermiteSpline builds; a
    point on a node belongs to the interval on its right, x[-1] to the last.
    """
    i = np.clip(np.searchsorted(x, xq, side="right") - 1, 0, x.size - 2)
    h, m, d0, d1 = h[i], m[i], d[i], d[i + 1]
    t = (d0 + d1 - 2.0 * m) / h
    c3 = t / h
    c2 = (m - d0) / h - t
    s = xq - x[i]
    if derivative:
        return (3.0 * c3 * s + 2.0 * c2) * s + d0
    return ((c3 * s + c2) * s + d0) * s + y[i]


def _pchip_end(h0, h1, m0, m1):
    """PCHIP's end slope: the three-point one-sided estimate from the end
    secant m0 and its neighbour m1, set to 0 where its sign is not m0's and
    clamped to 3 m0 where the secants change sign."""
    d = ((2.0 * h0 + h1) * m0 - h0 * m1) / (h0 + h1)
    if np.sign(d) != np.sign(m0):
        return 0.0
    if np.sign(m0) != np.sign(m1) and abs(d) > 3.0 * abs(m0):
        return 3.0 * m0
    return d


def _pchip_slopes(h, m):
    """Node slopes of the PCHIP interpolant (Fritsch & Carlson, SIAM J.
    Numer. Anal. 17, 1980) from the interval widths h and secants m: inside,
    the weighted harmonic mean of the adjacent secants, 0 where they change
    sign or one is 0; _pchip_end at the two ends."""
    w1 = 2.0 * h[1:] + h[:-1]
    w2 = h[1:] + 2.0 * h[:-1]
    flat = (np.sign(m[1:]) != np.sign(m[:-1])) | (m[1:] == 0.0) | (m[:-1] == 0.0)
    d = np.empty(m.size + 1)
    # a secant of 0 or tiny against the widths makes a mean of infinite
    # reciprocal; those nodes are flat, or their slope underflows to 0
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        d[1:-1] = np.where(flat, 0.0,
                           (w1 + w2) / (w1 / m[:-1] + w2 / m[1:]))
    d[0] = _pchip_end(h[0], h[1], m[0], m[1])
    d[-1] = _pchip_end(h[-1], h[-2], m[-1], m[-2])
    return d


def _not_a_knot_slopes(x, h, m):
    """Node slopes of the not-a-knot cubic spline (de Boor, A Practical
    Guide to Splines, ch. IV) from the nodes x, widths h and secants m: the
    tridiagonal system of C2 continuity inside, third-derivative continuity
    across x[1] and x[-2] at the ends, solved by Thomas elimination."""
    n = x.size
    diag, b = np.empty(n), np.empty(n)
    sub, sup = np.zeros(n), np.zeros(n)
    diag[1:-1] = 2.0 * (h[:-1] + h[1:])
    sub[1:-1], sup[1:-1] = h[1:], h[:-1]
    b[1:-1] = 3.0 * (h[1:] * m[:-1] + h[:-1] * m[1:])
    d0, d1 = x[2] - x[0], x[-1] - x[-3]
    diag[0], sup[0] = h[1], d0
    b[0] = ((h[0] + 2.0 * d0) * h[1] * m[0] + h[0] ** 2 * m[1]) / d0
    diag[-1], sub[-1] = h[-2], d1
    b[-1] = (h[-1] ** 2 * m[-2] + (2.0 * d1 + h[-1]) * h[-2] * m[-1]) / d1
    diag, b, sub, sup = diag.tolist(), b.tolist(), sub.tolist(), sup.tolist()
    for k in range(1, n):
        w = sub[k] / diag[k - 1]
        diag[k] -= w * sup[k - 1]
        b[k] -= w * b[k - 1]
    s = [0.0] * n
    s[-1] = b[-1] / diag[-1]
    for k in range(n - 2, -1, -1):
        s[k] = (b[k] - sup[k] * s[k + 1]) / diag[k]
    return np.array(s)


def sample_eulerian(st: MarkerState, x_query) -> Tuple[np.ndarray, np.ndarray]:
    """Resample (u, rho) on given positions from the marker cloud.

    x_query is an array of positions or a Grid1D.  u is the PCHIP
    interpolant through the markers (monotone-safe piecewise cubic
    Hermite); rho is the derivative of the not-a-knot cubic spline through
    the cumulative rho mass, which keeps the integral of rho across any
    marker range exact even where markers bunch up.  Both are the
    interpolants of scipy's PchipInterpolator and CubicSpline, built here in
    numpy.  An empty query returns two empty arrays.

    DomainError when the cloud has fewer than 4 markers or is not finite,
    when the marker positions are not increasing (too close to breaking),
    and when a query point is NaN or outside the marker span.
    """
    x = st.x
    if x.size < 4:
        raise DomainError("Eulerian sampling needs at least 4 markers")
    # cumulative mass of rho in the label variable mapped to positions
    dens = st.rho * st.J
    mass = np.concatenate(([0.0],
                           np.cumsum(0.5 * (dens[1:] + dens[:-1]) * st.dxi)))
    if not (np.all(np.isfinite(x)) and np.all(np.isfinite(st.u))
            and math.isfinite(mass[-1])):
        raise DomainError("marker positions, u or rho mass not finite")
    h = x[1:] - x[:-1]
    if not np.all(h > 0.0):
        raise DomainError("marker positions are not increasing: too close to "
                          "breaking for Eulerian sampling")
    xq = np.asarray(getattr(x_query, "nodes", x_query), dtype=float)
    if xq.size and not (np.min(xq) >= x[0] and np.max(xq) <= x[-1]):
        raise DomainError("query points NaN or outside the marker span")
    u = st.u
    m_u, m_mass = (u[1:] - u[:-1]) / h, (mass[1:] - mass[:-1]) / h
    return (_hermite(x, u, h, m_u, _pchip_slopes(h, m_u), xq),
            _hermite(x, mass, h, m_mass, _not_a_knot_slopes(x, h, m_mass), xq,
                     derivative=True))
