"""Variable-speed director/order-parameter solver in first-order form.

State U = (psi, s, phi, v, omega, r): director angle, order parameter, their
time derivatives, and the scaled gradients omega = c(psi) psi_x,
r = c(psi) s_x.  The wave speed c(psi) = sqrt(K1 sin^2 + K3 cos^2) rides on
the solution, so the principal part is quasilinear; in the combinations
phi +/- omega and v +/- r it reduces to transport at speeds -/+ c(psi) with
zeroth-order sources:

  phi_t - c omega_x = -(2/s)(phi v - omega r) - (c'/c) r^2 / s^2
  v_t   - c r_x     = s (phi^2 - omega^2) + (c'/c) omega r - W0'(s)
  omega_t - c phi_x = (c'/c) phi omega
  r_t   - c v_x     = (c'/c) phi r

together with psi_t = phi, s_t = v.  (The phi source follows from varying
the action in the angle; with it, and only with it, the local energy law
E_t = (c^2 F)_x holds along solutions, which the diagnostics verify.)

The scheme is semi-Lagrangian: each Riemann variable is pulled back along
its characteristic (midpoint rule for the foot) and the sources are applied
at the characteristic midpoint, with coefficient fields frozen from the
previous iterate of a fixed point solved one step at a time.  Each level is
checked against the budget monitors (energy, W^{1,inf} norm, 1/s) as soon
as it is solved, so every accepted level certifies that its linearization
was taken inside the contraction regime; a window is only a batch of at
most _WINDOW_STEPS accepted levels, ended by the first step that fails,
and a window whose first step fails ends the run.

Both families in one pass: the six fields live in one (6, n) array, the
two families' queries form one set of 2n points, and a step builds 2
stencils, the midpoints sampling all six fields in one call and the feet
the four Riemann fields in one call, and makes one rhs_sources call.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable, List, Optional, Tuple

import numpy as np

# conservation_residuals is not called here (EnergyLog calls it); the name
# stays bound because perfbench/tracing.py wraps this module attribute
from .diagnostics import (EnergyLog, EnergyReport, conservation_residuals,
                          energy_density_polar)
from .errors import (AprioriViolationError, ConfigError, DegeneracyError,
                     NonContractionError, StateEscapeError)
from .fields import (Grid1D, centered_derivative, integrate, interpolate,
                     read_grid_csv, stencil, write_csv)
from .potentials import PotentialSpec, WaveSpeed

__all__ = [
    "PolarState",
    "QuasilinearConfig",
    "FixpointTrace",
    "QuasilinearResult",
    "rhs_sources",
    "trace_characteristics",
    "transport_step",
    "fixpoint_solve",
    "advance",
    "resolve_budgets",
    "write_polar_snapshot_csv",
    "read_polar_snapshot_csv",
]

_S_FLOOR = 1e-12
_FIXPOINT_MAX = 40  # fixed-point passes per step before the step fails
_WINDOW_STEPS = 7  # levels per window, the batch advance hands on
_CFL_LIMIT = 0.9  # largest dt * c_max / dx that advance accepts
_FIELDS = ("psi", "s", "phi", "v", "omega", "r")


def _row(i: int) -> property:
    return property(lambda st: st.U[i],
                    lambda st, val: st.U.__setitem__(i, val))


class PolarState:
    """Nodal state of the director-angle system at one time.

    The six fields are the rows of one (6, n) array U, in the order of
    _FIELDS; psi, s, ... are views of their rows, and assigning to one
    writes into U.  The constructor copies the fields it is given.
    """

    psi, s, phi, v, omega, r = map(_row, range(len(_FIELDS)))

    def __init__(self, grid: Grid1D, psi, s, phi, v, omega, r,
                 time: float = 0.0,
                 far_field: Optional[Tuple[float, float]] = None):
        rows = [np.asarray(f, dtype=float) for f in (psi, s, phi, v, omega, r)]
        for name, f in zip(_FIELDS, rows):
            if f.shape != (grid.n,):
                raise ConfigError(f"{name} must have shape ({grid.n},)")
        self.grid, self.U, self.time = grid, np.array(rows), time
        self.far_field = (far_field if far_field is not None
                          else (float(self.psi[0]), float(self.s[0])))

    @classmethod
    def _adopt(cls, grid: Grid1D, U: np.ndarray, time: float,
               far_field: Tuple[float, float]) -> "PolarState":
        """Wrap a fresh (6, n) array without copying it; the caller hands
        U over and keeps no other reference to it."""
        st = cls.__new__(cls)
        st.grid, st.U, st.time, st.far_field = grid, U, time, far_field
        return st

    def check(self):
        """Enforce positivity, the order-parameter range, and pinned edges."""
        if not np.all(np.isfinite(self.s)) or np.min(self.s) <= 0.0:
            raise DegeneracyError("order parameter is not strictly positive")
        if np.max(self.s) >= 1.0:
            raise StateEscapeError("order parameter reached 1")
        psi_inf, s_inf = self.far_field
        for edge in (0, -1):
            if abs(self.psi[edge] - psi_inf) > 1e-7 or abs(self.s[edge] - s_inf) > 1e-7:
                raise ConfigError("boundary values depart from the far field")
        for name in ("phi", "v", "omega", "r"):
            f = getattr(self, name)
            tol = 1e-7 * max(1.0, float(np.max(np.abs(f))))
            if abs(f[0]) > tol or abs(f[-1]) > tol:
                raise ConfigError(f"{name} is not zero at the boundary")

    @property
    def far(self) -> Tuple[float, ...]:
        """Constant values outside the grid."""
        return (self.far_field[0], self.far_field[1], 0.0, 0.0, 0.0, 0.0)

    @classmethod
    def from_primitives(cls, grid: Grid1D, psi, s, psi_t, s_t,
                        ws: WaveSpeed, time: float = 0.0,
                        far_field: Optional[Tuple[float, float]] = None
                        ) -> "PolarState":
        """Build the first-order state from (psi, s) and their velocities.

        The gradient fields are centered differences times the local speed,
        the discrete version of their defining constraints.
        """
        psi = np.asarray(psi, dtype=float)
        s = np.asarray(s, dtype=float)
        c = ws.c(psi)
        omega = c * centered_derivative(grid, psi)
        r = c * centered_derivative(grid, s)
        return cls(grid, psi, s, np.asarray(psi_t, float), np.asarray(s_t, float),
                   omega, r, time=time, far_field=far_field)

    def copy(self) -> "PolarState":
        return PolarState(self.grid, *self.U, time=self.time,
                          far_field=self.far_field)


def _w1_sup(grid: Grid1D, U: np.ndarray) -> float:
    """max(sup|U|, sup|centered_derivative(grid, U)|) along the last axis,
    without building the derivative: dividing by the positive 2 dx after
    the max gives the same number, and the ends use np.gradient's
    second-order coefficients."""
    dx = grid.dx
    ends = ((-1.5 / dx) * U[..., 0] + (2.0 / dx) * U[..., 1]
            + (-0.5 / dx) * U[..., 2],
            (0.5 / dx) * U[..., -3] + (-2.0 / dx) * U[..., -2]
            + (1.5 / dx) * U[..., -1])
    return max(float(np.max(np.abs(U))),
               float(np.max(np.abs(U[..., 2:] - U[..., :-2]))) / (2.0 * dx),
               float(np.max(np.abs(ends))))


def rhs_sources(p: PotentialSpec, cp_over_c, s, phi, v, omega, r):
    """Zeroth-order source terms, the rows (S_phi, S_v, S_omega, S_r) of one
    (4, m) array.

    These are everything on the right of the transport operators; cp_over_c
    is c'/c at the angle (WaveSpeed.speed_and_ratio).  Raises
    DegeneracyError when s touches the floor where the 1/s and 1/s^2
    factors blow up.
    """
    s = np.asarray(s, dtype=float)
    if np.min(s) <= _S_FLOOR:
        raise DegeneracyError(f"order parameter fell to {np.min(s):.3e}")
    out = np.empty((4,) + s.shape)
    out[0] = -(2.0 / s) * (phi * v - omega * r) - cp_over_c * r * r / (s * s)
    out[1] = (s * (phi * phi - omega * omega) + cp_over_c * omega * r
              - p.eval_1(s))
    cp_phi = cp_over_c * phi
    np.multiply(cp_phi, omega, out=out[2])
    np.multiply(cp_phi, r, out=out[3])
    return out


def trace_characteristics(grid: Grid1D, psi_hat: np.ndarray, ws: WaveSpeed,
                          x, t: float, tau: float, dt: float,
                          branch: int = 1) -> np.ndarray:
    """Backward characteristic foot at time tau, started from (t, x).

    The '+' branch solves dx/dtau = -c(psi_hat) (so tracing backward moves
    right), the '-' branch the opposite.  psi_hat is either one frozen angle
    field or a history array of shape (levels, n) at spacing dt whose level
    0 sits at time tau; intermediate times use linear blending of levels.
    Midpoint (RK2) stepping.  A trace leaving the grid raises DomainError.
    """
    if branch not in (1, -1):
        raise ConfigError("branch must be +1 or -1")
    if dt <= 0.0 or t < tau:
        raise ConfigError("need dt > 0 and t >= tau")
    steps = int(round((t - tau) / dt))
    if abs(steps * dt - (t - tau)) > 1e-9 * max(1.0, t - tau):
        raise ConfigError("t - tau must be a whole number of steps")
    psi_hat = np.asarray(psi_hat, dtype=float)
    frozen = psi_hat.ndim == 1
    if not frozen and psi_hat.shape[0] < steps + 1:
        raise ConfigError("history does not cover [tau, t]")

    def angle_at(time_q, xq):
        if frozen:
            return interpolate(grid, psi_hat, xq)
        pos = (time_q - tau) / dt
        k0 = min(int(math.floor(pos + 1e-12)), psi_hat.shape[0] - 2)
        k0 = max(k0, 0)
        frac = pos - k0
        level = (1.0 - frac) * psi_hat[k0] + frac * psi_hat[k0 + 1]
        return interpolate(grid, level, xq)

    cur = np.atleast_1d(np.asarray(x, dtype=float)).copy()
    for k in range(steps):
        t_k = t - k * dt
        c0 = ws.c(angle_at(t_k, cur))
        half = cur + branch * 0.5 * dt * c0
        c1 = ws.c(angle_at(t_k - 0.5 * dt, half))
        cur = cur + branch * dt * c1
    return cur if np.ndim(x) else float(cur[0])


@functools.lru_cache(maxsize=16)
def _family_queries(grid: Grid1D) -> Tuple[np.ndarray, np.ndarray]:
    """The 2n query nodes of both families and their signs, read-only: the
    +c family (moving right, foot to the left) first, then the -c family."""
    x = np.tile(grid.nodes, 2)
    sign = np.repeat([-1.0, 1.0], grid.n)
    x.flags.writeable = sign.flags.writeable = False
    return x, sign


def transport_step(state: PolarState, p: PotentialSpec, ws: WaveSpeed, dt: float,
                   frozen_mid: Optional[PolarState] = None,
                   frozen_end: Optional[PolarState] = None) -> PolarState:
    """One semi-Lagrangian step of length dt.

    Characteristic feet are traced through the frozen coefficient fields
    (frozen_end at the arrival time for the first half step, frozen_mid at
    the half time for the full step; both default to the departure state,
    which is the plain linearized step).  Sources are evaluated on the frozen
    midpoint state at the characteristic midpoints.  Feet outside the grid
    read the constant far-field state.

    Both families in one pass: 2 stencils, one rhs_sources call.  The query
    set has 2n points, the n nodes of the +c family followed by those of the
    -c family.  The midpoint stencil samples all six rows of the frozen
    midpoint state at once, the foot stencil the four rows (phi, v, omega, r)
    of the departure state that the Riemann updates read.
    """
    g = state.grid
    mid = frozen_mid if frozen_mid is not None else state
    end = frozen_end if frozen_end is not None else state
    far = np.array(state.far)[:, None]
    x, sign = _family_queries(g)

    # feet, RK2 through frozen angles; the frozen midpoint state sampled at
    # the half-way points also feeds the sources, and one sin and one cos
    # of its angle row give the midpoint speeds and the sources' c'/c
    half = (x.reshape(2, g.n) + sign.reshape(2, g.n)
            * (0.5 * dt * ws.c(end.psi))).reshape(-1)
    args = stencil(g, half).apply(mid.U, fill=far)
    c_mid, cp_over_c = ws.speed_and_ratio(args[0])
    foot = x + sign * (dt * c_mid)
    dep = stencil(g, foot).apply(state.U[2:], fill=far[2:])
    src = rhs_sources(p, cp_over_c, *args[1:])

    # Riemann updates: (phi - omega, v - r) ride the right-moving family,
    # (phi + omega, v + r) the left-moving one; dep holds (phi, v, omega, r)
    R = (dep[0:2] + sign * dep[2:4]) + dt * (src[0:2] + sign * src[2:4])
    right, left = R[:, :g.n], R[:, g.n:]

    # the new level, written row block by row block into one fresh array:
    # pointwise ODEs for the primitives, midpoint rule on frozen data
    # (without frozen_end, 0.5 * (a + a) == a exactly), then the Riemann
    # variables split back into (phi, v) and (omega, r)
    U = np.empty_like(state.U)
    np.add(state.U[:2], dt * (0.5 * (state.U[2:4] + end.U[2:4])), out=U[:2])
    np.add(left, right, out=U[2:4])
    np.subtract(left, right, out=U[4:])
    U[2:] *= 0.5
    out = PolarState._adopt(g, U, state.time + dt, state.far_field)
    if np.min(out.s) <= _S_FLOOR:
        raise DegeneracyError(
            f"order parameter fell to {np.min(out.s):.3e} at t = {out.time:.6f}")
    if np.max(out.s) >= 1.0:
        raise StateEscapeError(f"order parameter reached 1 at t = {out.time:.6f}")
    return out


@dataclass(frozen=True)
class QuasilinearConfig:
    """Step and tolerance of the fixed-point solver.

    Each level is checked as soon as it is solved, so no window length
    appears here: a window is a batch of at most _WINDOW_STEPS levels and
    changes no output.  The budgets the iteration must stay under belong to
    a run, not to the configuration: advance resolves them once from its
    initial state (see resolve_budgets) and fixpoint_solve takes them as an
    argument.
    """

    dt: float
    fixpoint_tol: float = 1e-9

    def __post_init__(self):
        if self.dt <= 0.0:
            raise ConfigError("dt must be positive")

    @classmethod
    def cfl(cls, grid: Grid1D, ws: WaveSpeed, cfl: float = 0.8,
            **kw) -> "QuasilinearConfig":
        return cls(dt=cfl * grid.dx / ws.c_max, **kw)


@dataclass
class FixpointTrace:
    window_start: float
    steps: int
    diff_norms: List[List[float]]  # per step: the successive differences
    halvings: int = 0  # windows end before a failing step; always 0


@dataclass
class QuasilinearResult:
    state: PolarState
    traces: List[FixpointTrace]
    energy_reports: List[EnergyReport]
    w2_sup: List[float]
    achieved_T: float = 0.0


def _average_state(a: PolarState, b: PolarState) -> PolarState:
    U = a.U + b.U
    U *= 0.5
    return PolarState._adopt(a.grid, U, 0.5 * (a.time + b.time), a.far_field)


def _measure(st: PolarState, p: PotentialSpec, ws: WaveSpeed):
    """What the budget check and the energy log read off one level: the
    densities (E, F, c2F, EmW), the total energy, the budget norm
    max(W^{1,inf} norm, sup 1/s), and the gradient sup of phi, v, omega, r."""
    dens = energy_density_polar(*st.U, p, ws)
    dU = np.abs(centered_derivative(st.grid, st.U))
    norm = max(float(np.max(np.abs(st.U))), float(np.max(dU)),
               float(np.max(1.0 / st.s)))
    return dens, float(integrate(st.grid, dens[0])), norm, float(np.max(dU[2:]))


def resolve_budgets(U0: PolarState, p: PotentialSpec,
                    ws: WaveSpeed) -> Tuple[float, float]:
    """The budgets (E', L') of a run starting at U0: twice the initial
    energy, and twice the larger of the initial W^{1,inf} norm and sup(1/s).
    A tiny absolute floor on the energy budget keeps exact equilibria
    (energy zero up to roundoff) from tripping the monitor on noise."""
    _, E0, norm0, _ = _measure(U0, p, ws)
    E0 = max(E0, 0.0)
    return 2.0 * E0 + 1e-12 * max(1.0, E0), 2.0 * norm0


def _solve_step(x: PolarState, p: PotentialSpec, ws: WaveSpeed,
                cfg: QuasilinearConfig):
    """One step's fixed point: y <- T(x, frozen_mid=avg(x, y),
    frozen_end=y) from y = x (the plain step) until the W^{1,inf} change is
    below cfg.fixpoint_tol.  Returns (level, the passes' changes); level is
    None when the step is still moving after _FIXPOINT_MAX passes."""
    y, diffs = x, []
    for _ in range(_FIXPOINT_MAX):
        y_new = transport_step(x, p, ws, cfg.dt,
                               frozen_mid=_average_state(x, y), frozen_end=y)
        diffs.append(_w1_sup(x.grid, y_new.U - y.U))
        y = y_new
        if diffs[-1] < cfg.fixpoint_tol:
            return y, diffs
    return None, diffs


def _over_budgets(E: float, norm: float,
                  budgets: Tuple[float, float]) -> bool:
    """Whether a level is over (E', L'); the energy has 1e-9 relative slack."""
    E_prime, L_prime = budgets
    return E > E_prime * (1.0 + 1e-9) or norm > L_prime


def fixpoint_solve(U0: PolarState, p: PotentialSpec, ws: WaveSpeed,
                   cfg: QuasilinearConfig,
                   max_steps: Optional[int] = None,
                   budgets: Optional[Tuple[float, float]] = None
                   ) -> Tuple[List[PolarState], float, FixpointTrace, list]:
    """Solve one window of at most _WINDOW_STEPS (and max_steps) steps.

    Each step's map takes a guessed next level to the semi-Lagrangian step
    of the linear system with coefficients and sources frozen on the
    average of the current level and the guess; its fixed point is the
    nonlinear step.  Each level is checked as soon as it is solved, and the
    window ends at the first step that fails: one that does not contract
    within _FIXPOINT_MAX passes, or whose level violates the budgets
    (energy above E', W^{1,inf} norm or sup(1/s) above L').  No step after
    it is computed, and since a step depends only on the level before it,
    the window length changes no level and no error.  A failing first step
    raises NonContractionError or AprioriViolationError from U0.
    `budgets` is the pair (E', L'); None resolves it from U0
    (resolve_budgets), and initial data already over the budgets raise
    ConfigError.  Returns (trajectory including the initial level,
    achieved_T actually covered, iteration trace, measures): for each level
    after the initial one, measures holds its densities (E, F, c2F, EmW),
    total energy, budget norm max(W^{1,inf}, sup 1/s) and the gradient sup
    of phi, v, omega, r.
    """
    budgets = resolve_budgets(U0, p, ws) if budgets is None else budgets
    _, E0, norm0, _ = _measure(U0, p, ws)
    if _over_budgets(E0, norm0, budgets):
        raise ConfigError(
            f"initial data violates the budgets: energy {E0:.6g} vs E' = "
            f"{budgets[0]:.6g}, norm {norm0:.6g} vs L' = {budgets[1]:.6g}")
    steps = _WINDOW_STEPS
    if max_steps is not None:
        steps = min(steps, max_steps)
    traj, diffs, measures = [U0], [], []
    for _ in range(steps):
        level, passes = _solve_step(traj[-1], p, ws, cfg)
        if level is None:
            if not measures:
                raise NonContractionError(
                    f"step from t = {U0.time:.6f} failed to contract in "
                    f"{_FIXPOINT_MAX} passes", diff_norms=[passes])
            break
        measure = _measure(level, p, ws)
        if _over_budgets(measure[1], measure[2], budgets):
            if not measures:
                raise AprioriViolationError(
                    f"budgets exceeded on the step from t = {U0.time:.6f} "
                    f"(E' = {budgets[0]:.6g}, L' = {budgets[1]:.6g})",
                    time=U0.time)
            break
        traj.append(level)
        diffs.append(passes)
        measures.append(measure)
    taken = len(measures)
    return traj, taken * cfg.dt, FixpointTrace(U0.time, taken, diffs), measures


def advance(state: PolarState, p: PotentialSpec, ws: WaveSpeed,
            cfg: QuasilinearConfig, t_final: float,
            observer: Optional[Callable] = None) -> QuasilinearResult:
    """March the state to t_final through fixed-point windows (see
    fixpoint_solve: each level is checked as soon as it is solved, and a
    window is a batch of levels handed to the log and the observer).

    Budgets are resolved once from the initial state and held fixed for the
    whole run.  Energy and flux totals are recorded every step with centered
    conservation residuals filled in away from the run's ends; w2_sup tracks
    the largest gradient of any first-order field (a second-derivative proxy
    for the primitives), which the continuation theory watches but never
    caps.

    `observer(state)` is called with the initial state and then with each
    accepted level, in time order; the solver never changes a PolarState
    after handing it over.
    """
    grid = state.grid
    if cfg.dt > _CFL_LIMIT * grid.dx / ws.c_max + 1e-15:
        raise ConfigError(
            f"dt = {cfg.dt:.3e} exceeds {_CFL_LIMIT} * dx / c_max "
            f"= {_CFL_LIMIT * grid.dx / ws.c_max:.3e}")
    state.check()
    s_inf = state.far_field[1]
    if abs(float(p.eval_1(np.asarray([s_inf]))[0])) > 1e-8:
        raise ConfigError("far-field order parameter must be an equilibrium "
                          f"of the potential (W0'({s_inf}) != 0)")

    total_steps = int(round(t_final / cfg.dt))
    if abs(total_steps * cfg.dt - t_final) > 1e-9 * max(1.0, t_final):
        raise ConfigError("t_final must be a whole number of steps")
    if total_steps == 0:
        raise ConfigError("t_final shorter than one step")

    log = EnergyLog(grid, cfg.dt)
    w2_sup: List[float] = []

    def record(st: PolarState, measure):
        dens, _, _, grad_sup = measure
        log.record(st.time, dens, float(np.max(np.abs(st.U[2:]))))
        w2_sup.append(grad_sup)
        if observer is not None:
            observer(st)

    budgets = resolve_budgets(state, p, ws)
    record(state, _measure(state, p, ws))

    traces: List[FixpointTrace] = []
    done = 0
    cur = state
    while done < total_steps:
        traj, covered, trace, measures = fixpoint_solve(
            cur, p, ws, cfg, max_steps=total_steps - done, budgets=budgets)
        traces.append(trace)
        for st, m in zip(traj[1:], measures):
            record(st, m)
        cur = traj[-1]
        done += trace.steps

    return QuasilinearResult(state=cur, traces=traces, energy_reports=log.reports,
                             w2_sup=w2_sup, achieved_T=done * cfg.dt)


POLAR_SNAPSHOT_HEADER = "x,psi,s,phi,v,omega,r"


def write_polar_snapshot_csv(path, st: PolarState):
    """One row per node: x and the six state fields."""
    write_csv(path, POLAR_SNAPSHOT_HEADER, (st.grid.nodes, *st.U))


def read_polar_snapshot_csv(path, time: float = 0.0) -> PolarState:
    """Inverse of write_polar_snapshot_csv; grid rebuilt from the x column."""
    grid, fields = read_grid_csv(path, 7, "polar snapshot csv")
    return PolarState(grid, *fields, time=time)
