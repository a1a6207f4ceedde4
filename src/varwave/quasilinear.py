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
previous iterate of a fixed point solved one step at a time, whose
iteration starts from the extrapolation of the last two levels.  The run
marches one step at a time: each level is checked against the budget
monitors (energy, W^{1,inf} norm, 1/s) as soon as it is solved, so every
accepted level certifies that its linearization was taken inside the
contraction regime, and the first step that fails ends the run.

Both families in one pass: the six fields live in one (6, n) array, the
two families' queries form one set of 2n points, and a step builds 2
stencils, the midpoints sampling all six fields in one call and the feet
the four Riemann fields in one call, and makes one rhs_sources call.

A run may solve in the frame y = x - V t moving at V
(QuasilinearConfig.frame_speed): the families then move at +c - V and
-c - V relative to the grid, psi and s at -V, and the grid follows a packet
moving at about V instead of covering its whole path.  Each step samples
the departure primitives once more, at the nodes shifted by V dt, with a
stencil cached per grid and V dt.  V = 0 is the fixed frame, bit for bit.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable, ClassVar, List, Optional, Tuple

import numpy as np

# conservation_residuals is not called here (EnergyLog calls it); the name
# stays bound because perfbench/tracing.py wraps this module attribute
from .diagnostics import (EnergyLog, EnergyReport, conservation_residuals,
                          energy_density_polar)
from .errors import (AprioriViolationError, ConfigError, DegeneracyError,
                     NonContractionError, StateEscapeError)
# interpolate is not called here (transport_step builds stencils); the name
# stays bound because perfbench/tracing.py wraps this module attribute
from .fields import (Grid1D, centered_derivative, contraction_stop,
                     integrate, interpolate, read_grid_csv, stencil,
                     step_count, write_csv)
from .potentials import PotentialSpec, WaveSpeed

__all__ = [
    "PolarState",
    "QuasilinearConfig",
    "FixpointTrace",
    "QuasilinearResult",
    "rhs_sources",
    "transport_step",
    "advance",
    "resolve_budgets",
    "write_polar_snapshot_csv",
    "read_polar_snapshot_csv",
]

_S_FLOOR = 1e-12
_FIXPOINT_MAX = 40  # fixed-point passes per step before the step fails
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


@functools.lru_cache(maxsize=16)
def _family_queries(grid: Grid1D, shift: float
                    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The 2n query nodes of both families shifted by shift / 2 (half
    points) and by shift (feet), and their signs, read-only: the +c family
    (moving right, foot to the left) first, then the -c family.  shift is
    V dt, the distance the frame moving at V covers in one step; with
    shift = 0 both node sets are the nodes themselves, bit for bit."""
    x = np.tile(grid.nodes, 2)
    half, foot = x + 0.5 * shift, x + shift
    sign = np.repeat([-1.0, 1.0], grid.n)
    for a in (half, foot, sign):
        a.flags.writeable = False
    return half, foot, sign


@functools.lru_cache(maxsize=16)
def _drift_stencil(grid: Grid1D, shift: float):
    """Stencil of the nodes shifted by V dt, the feet of psi and s in the
    frame moving at V (they ride the characteristic dy/dt = -V)."""
    return stencil(grid, grid.nodes + shift)


def _drifted_rows(state: PolarState, shift: float) -> np.ndarray:
    """Rows (psi, s, phi, v) of state at the nodes shifted by shift = V dt,
    the far field beyond the grid: the departure values of the primitives'
    ODEs in the frame moving at V.  They depend only on the departure level,
    so a fixed point computes them once per step."""
    far = np.array(state.far[:4])[:, None]
    return _drift_stencil(state.grid, shift).apply(state.U[:4], fill=far)


def transport_step(state: PolarState, p: PotentialSpec, ws: WaveSpeed, dt: float,
                   frozen_mid: Optional[PolarState] = None,
                   frozen_end: Optional[PolarState] = None,
                   frame_speed: float = 0.0,
                   drifted: Optional[np.ndarray] = None) -> PolarState:
    """One semi-Lagrangian step of length dt in the frame y = x - V t
    moving at V = frame_speed.

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

    In the moving frame the families travel at +c - V and -c - V, so the
    half points shift by V dt / 2 and the feet by V dt; psi and s ride
    dy/dt = -V, so their ODEs start from the departure rows at the nodes
    shifted by V dt (`drifted`: the rows (psi, s, phi, v) there, from
    _drifted_rows; a step with V dt != 0 raises ValueError without them).
    The Riemann updates and the sources do not change.  V = 0 takes none of
    this: 2 stencils, and the same bits as a step that knows no frame.
    """
    g = state.grid
    mid = frozen_mid if frozen_mid is not None else state
    end = frozen_end if frozen_end is not None else state
    far = np.array(state.far)[:, None]
    shift = frame_speed * dt
    if shift == 0.0:
        dep0 = state.U
    elif drifted is None:
        raise ValueError("a step in a moving frame needs the drifted rows")
    else:
        dep0 = drifted
    x_half, x_foot, sign = _family_queries(g, shift)

    # feet, RK2 through frozen angles; the frozen midpoint state sampled at
    # the half-way points also feeds the sources, and one sin and one cos
    # of its angle row give the midpoint speeds and the sources' c'/c
    half = (x_half.reshape(2, g.n) + sign.reshape(2, g.n)
            * (0.5 * dt * ws.c(end.psi))).reshape(-1)
    args = stencil(g, half).apply(mid.U, fill=far)
    c_mid, cp_over_c = ws.speed_and_ratio(args[0])
    foot = x_foot + sign * (dt * c_mid)
    dep = stencil(g, foot).apply(state.U[2:], fill=far[2:])
    src = rhs_sources(p, cp_over_c, *args[1:])

    # Riemann updates: (phi - omega, v - r) ride the right-moving family,
    # (phi + omega, v + r) the left-moving one; dep holds (phi, v, omega, r)
    R = (dep[0:2] + sign * dep[2:4]) + dt * (src[0:2] + sign * src[2:4])
    right, left = R[:, :g.n], R[:, g.n:]

    # the new level, written row block by row block into one fresh array:
    # ODEs along dy/dt = -V for the primitives, midpoint rule on frozen data
    # (at V = 0 without frozen_end, 0.5 * (a + a) == a exactly), then the
    # Riemann variables split back into (phi, v) and (omega, r)
    U = np.empty_like(state.U)
    np.add(dep0[:2], dt * (0.5 * (dep0[2:4] + end.U[2:4])), out=U[:2])
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
    """Step, tolerance and frame of the fixed-point solver.

    frame_speed V: the run solves in y = x - V t, on a grid that moves with
    that frame (0, the default, is the fixed frame).  The budgets the
    iteration must stay under belong to a run, not to the configuration:
    advance resolves them once from its initial state (see resolve_budgets)
    and checks every level against them.
    """

    dt: float
    fixpoint_tol: float = 1e-9
    frame_speed: float = 0.0

    def __post_init__(self):
        if self.dt <= 0.0:
            raise ConfigError("dt must be positive")
        if not math.isfinite(self.frame_speed):
            raise ConfigError("frame_speed must be finite")


@dataclass
class FixpointTrace:
    """One step's fixed point: the time of the level it starts from and the
    W^{1,inf} change of each pass."""

    time: float
    diff_norms: List[float]
    # one step per trace, never halved; kept for the benchmark tracer
    steps: ClassVar[int] = 1
    halvings: ClassVar[int] = 0


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


def resolve_budgets(U0: PolarState, p: PotentialSpec, ws: WaveSpeed,
                    measure: Optional[tuple] = None) -> Tuple[float, float]:
    """The budgets (E', L') of a run starting at U0: twice the initial
    energy, and twice the larger of the initial W^{1,inf} norm and sup(1/s).
    A tiny absolute floor on the energy budget keeps exact equilibria
    (energy zero up to roundoff) from tripping the monitor on noise.
    measure: U0's _measure, when the caller has it already."""
    _, E0, norm0, _ = measure if measure is not None else _measure(U0, p, ws)
    E0 = max(E0, 0.0)
    return 2.0 * E0 + 1e-12 * max(1.0, E0), 2.0 * norm0


def fixpoint_solve(x: PolarState, y0: PolarState, p: PotentialSpec,
                   ws: WaveSpeed, cfg: QuasilinearConfig,
                   budgets: Tuple[float, float]
                   ) -> Tuple[PolarState, tuple, FixpointTrace]:
    """Solve the step from level x and check the level it reaches.

    The step's map takes a guessed next level y to the semi-Lagrangian step
    of the linear system with coefficients and sources frozen on avg(x, y)
    and y, in the frame moving at cfg.frame_speed; its fixed point is the
    nonlinear step.  The iteration starts from the first guess y0 (y0 = x
    makes the first pass the plain linearized step) and stops once
    fields.contraction_stop accepts its W^{1,inf} changes at
    cfg.fixpoint_tol.  A step
    still moving after _FIXPOINT_MAX passes raises NonContractionError
    (diff_norms: its passes), and a level over the budgets (E', L') raises
    AprioriViolationError (time: x.time); the energy has 1e-9 relative
    slack.  Returns (level, measure, trace), where measure holds the
    level's densities (E, F, c2F, EmW), total energy, budget norm
    max(W^{1,inf}, sup 1/s) and the gradient sup of phi, v, omega, r.
    """
    V, y, diffs = cfg.frame_speed, y0, []
    drifted = _drifted_rows(x, V * cfg.dt) if V != 0.0 else None
    for _ in range(_FIXPOINT_MAX):
        y_new = transport_step(x, p, ws, cfg.dt,
                               frozen_mid=_average_state(x, y), frozen_end=y,
                               frame_speed=V, drifted=drifted)
        diffs.append(_w1_sup(x.grid, y_new.U - y.U))
        y = y_new
        if contraction_stop(diffs, cfg.fixpoint_tol):
            break
    else:
        raise NonContractionError(
            f"step from t = {x.time:.6f} failed to contract in "
            f"{_FIXPOINT_MAX} passes", diff_norms=diffs)
    measure = _measure(y, p, ws)
    E_prime, L_prime = budgets
    if measure[1] > E_prime * (1.0 + 1e-9) or measure[2] > L_prime:
        raise AprioriViolationError(
            f"budgets exceeded on the step from t = {x.time:.6f} "
            f"(E' = {E_prime:.6g}, L' = {L_prime:.6g})", time=x.time)
    return y, measure, FixpointTrace(x.time, diffs)


def _first_guess(prev: PolarState, cur: PolarState) -> PolarState:
    """The first guess of the step from cur: 2 cur - prev, the linear
    extrapolation of the last two levels (both on the same grid, in any
    frame), or cur itself when that guess is not finite or its s leaves
    (_S_FLOOR, 1), where the coefficients frozen on it are undefined."""
    U = 2.0 * cur.U - prev.U
    if (not np.all(np.isfinite(U)) or np.min(U[1]) <= _S_FLOOR
            or np.max(U[1]) >= 1.0):
        return cur
    return PolarState._adopt(cur.grid, U, 2.0 * cur.time - prev.time,
                             cur.far_field)


def advance(state: PolarState, p: PotentialSpec, ws: WaveSpeed,
            cfg: QuasilinearConfig, t_final: float,
            observer: Optional[Callable] = None) -> QuasilinearResult:
    """March the state to t_final, a whole number of steps cfg.dt
    (fields.step_count), one step at a time (see fixpoint_solve: each level
    is checked as soon as it is solved, and the first step that fails
    raises from the level before it).  The first step's iteration
    starts from the initial state, every later one from the extrapolation
    of the last two levels (_first_guess); the fixed point, and so each
    level up to the stop tolerance, does not depend on where it starts.

    Budgets are resolved once from the initial state, which always
    satisfies them, and held fixed for the whole run.  Energy and flux
    totals are recorded every step with centered conservation residuals
    filled in away from the run's ends (the laws of the frame moving at
    cfg.frame_speed, see EnergyLog); w2_sup tracks the largest gradient of
    any first-order field (a second-derivative proxy for the primitives),
    which the continuation theory watches but never caps.

    `observer(state)` is called with the initial state and then with each
    accepted level, in time order; the solver never changes a PolarState
    after handing it over.

    The entry gate dt <= 0.9 dx / c_max bounds the speeds of the fixed
    frame.  In a frame moving at V the speeds relative to the grid reach
    c_max + |V|, so a foot may travel up to (c_max + |V|) dt / dx cells in
    one step: about 1.5 cells on the epsilon sweep (V = c0, dt = 0.8 dx /
    c_max).  The four-point stencil reads a foot at any distance; what the
    step needs is a contracting fixed point, which every step checks (the
    sweep's passes contract by a factor below 0.02).
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

    total_steps = step_count(t_final, cfg.dt)

    log = EnergyLog(grid, cfg.dt, frame_speed=cfg.frame_speed)
    w2_sup: List[float] = []

    def record(st: PolarState, measure):
        dens, _, _, grad_sup = measure
        log.record(st.time, dens, float(np.max(np.abs(st.U[2:]))))
        w2_sup.append(grad_sup)
        if observer is not None:
            observer(st)

    measure = _measure(state, p, ws)
    budgets = resolve_budgets(state, p, ws, measure=measure)
    record(state, measure)

    traces: List[FixpointTrace] = []
    prev, cur = None, state
    for _ in range(total_steps):
        guess = cur if prev is None else _first_guess(prev, cur)
        prev = cur
        cur, measure, trace = fixpoint_solve(prev, guess, p, ws, cfg, budgets)
        traces.append(trace)
        record(cur, measure)

    return QuasilinearResult(state=cur, traces=traces, energy_reports=log.reports,
                             w2_sup=w2_sup, achieved_T=total_steps * cfg.dt)


POLAR_SNAPSHOT_HEADER = "x,psi,s,phi,v,omega,r"


def write_polar_snapshot_csv(path, st: PolarState):
    """One row per node: x and the six state fields."""
    write_csv(path, POLAR_SNAPSHOT_HEADER, (st.grid.nodes, *st.U))


def read_polar_snapshot_csv(path) -> PolarState:
    """Inverse of write_polar_snapshot_csv at time 0; grid rebuilt from the
    x column."""
    grid, fields = read_grid_csv(path, 7, "polar snapshot csv")
    return PolarState(grid, *fields)
