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
previous iterate of a whole-window fixed point.  Windows halve when the
iteration fails to contract or when a budget monitor (energy, W^{1,inf}
norm, 1/s) trips, so acceptance of a window is itself the certificate that
the linearization was taken inside the contraction regime.

4 stencils, stacked state: the six fields live in one (6, n) array, and a
step builds one interpolation stencil per query set (two characteristic
midpoints, two feet) and samples all six fields through each in one call.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
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
    "full_rhs",
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

    def w1_inf(self) -> float:
        """max over fields of sup|f| and sup|f_x| (the continuation norm)."""
        return _w1_sup(self.grid, self.U)


def _w1_sup(grid: Grid1D, U: np.ndarray) -> float:
    return max(float(np.max(np.abs(U))),
               float(np.max(np.abs(centered_derivative(grid, U)))))


def rhs_sources(p: PotentialSpec, ws: WaveSpeed, psi, s, phi, v, omega, r):
    """Zeroth-order source terms (S_phi, S_v, S_omega, S_r).

    These are everything on the right of the transport operators.  Raises
    DegeneracyError when s touches the floor where the 1/s and 1/s^2
    factors blow up.
    """
    s = np.asarray(s, dtype=float)
    if np.min(s) <= _S_FLOOR:
        raise DegeneracyError(f"order parameter fell to {np.min(s):.3e}")
    c = ws.c(psi)
    cp_over_c = ws.c_prime(psi) / c
    s_phi = -(2.0 / s) * (phi * v - omega * r) - cp_over_c * r * r / (s * s)
    s_v = s * (phi * phi - omega * omega) + cp_over_c * omega * r - p.eval_1(s)
    s_omega = cp_over_c * phi * omega
    s_r = cp_over_c * phi * r
    return s_phi, s_v, s_omega, s_r


def full_rhs(p: PotentialSpec, ws: WaveSpeed, psi, s, phi, v, omega, r):
    """The complete zeroth-order right side of the first-order system.

    Returns six components: the time derivatives of (psi, s) are simply
    (phi, v), followed by the four wave-component sources of rhs_sources.
    """
    s_phi, s_v, s_omega, s_r = rhs_sources(p, ws, psi, s, phi, v, omega, r)
    return (np.asarray(phi, float), np.asarray(v, float), s_phi, s_v, s_omega, s_r)


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


def transport_step(state: PolarState, p: PotentialSpec, ws: WaveSpeed, dt: float,
                   frozen_mid: Optional[PolarState] = None,
                   frozen_end: Optional[PolarState] = None,
                   forcing: Optional[Callable] = None) -> PolarState:
    """One semi-Lagrangian step of length dt.

    Characteristic feet are traced through the frozen coefficient fields
    (frozen_end at the arrival time for the first half step, frozen_mid at
    the half time for the full step; both default to the departure state,
    which is the plain linearized step).  Sources are evaluated on the frozen
    midpoint state at the characteristic midpoints.  `forcing(x, t)` may
    return four arrays added to (S_phi, S_v, S_omega, S_r) for manufactured
    solutions.  Feet outside the grid read the constant far-field state.

    4 stencils, stacked state: one interpolation stencil per query set (two
    characteristic midpoints, two feet), each applied to all six rows of the
    stacked state in one call.
    """
    g = state.grid
    mid = frozen_mid if frozen_mid is not None else state
    end = frozen_end if frozen_end is not None else state
    far = np.array(state.far)[:, None]
    x = g.nodes
    t_half = state.time + 0.5 * dt

    # feet of the two characteristic families, RK2 through frozen angles;
    # the frozen midpoint state sampled at the half-way points also feeds
    # the sources, and its angle row gives the midpoint speeds
    c_end = ws.c(end.psi)
    half_m = x - 0.5 * dt * c_end   # family moving right (speed +c)
    half_p = x + 0.5 * dt * c_end   # family moving left  (speed -c)
    args_m = stencil(g, half_m).apply(mid.U, fill=far)
    args_p = stencil(g, half_p).apply(mid.U, fill=far)
    foot_m = x - dt * ws.c(args_m[0])
    foot_p = x + dt * ws.c(args_p[0])

    psi_m, s_m, phi_m, v_m, om_m, r_m = stencil(g, foot_m).apply(state.U, fill=far)
    psi_p, s_p, phi_p, v_p, om_p, r_p = stencil(g, foot_p).apply(state.U, fill=far)

    sphi_m, sv_m, som_m, sr_m = rhs_sources(p, ws, *args_m)
    sphi_p, sv_p, som_p, sr_p = rhs_sources(p, ws, *args_p)
    if forcing is not None:
        fphi_m, fv_m, fom_m, fr_m = forcing(half_m, t_half)
        fphi_p, fv_p, fom_p, fr_p = forcing(half_p, t_half)
        sphi_m, sv_m, som_m, sr_m = (sphi_m + fphi_m, sv_m + fv_m,
                                     som_m + fom_m, sr_m + fr_m)
        sphi_p, sv_p, som_p, sr_p = (sphi_p + fphi_p, sv_p + fv_p,
                                     som_p + fom_p, sr_p + fr_p)

    # Riemann updates: (phi+omega, v+r) ride the left-moving family,
    # (phi-omega, v-r) the right-moving one
    R1 = (phi_p + om_p) + dt * (sphi_p + som_p)
    R2 = (phi_m - om_m) + dt * (sphi_m - som_m)
    R3 = (v_p + r_p) + dt * (sv_p + sr_p)
    R4 = (v_m - r_m) + dt * (sv_m - sr_m)
    phi_new = 0.5 * (R1 + R2)
    omega_new = 0.5 * (R1 - R2)
    v_new = 0.5 * (R3 + R4)
    r_new = 0.5 * (R3 - R4)

    # pointwise ODEs for the primitives, midpoint rule on frozen data
    phi_half = 0.5 * (state.phi + end.phi) if frozen_end is not None else state.phi
    v_half = 0.5 * (state.v + end.v) if frozen_end is not None else state.v
    psi_new = state.psi + dt * phi_half
    s_new = state.s + dt * v_half

    out = PolarState(g, psi_new, s_new, phi_new, v_new, omega_new, r_new,
                     time=state.time + dt, far_field=state.far_field)
    if np.min(out.s) <= _S_FLOOR:
        raise DegeneracyError(
            f"order parameter fell to {np.min(out.s):.3e} at t = {out.time:.6f}")
    if np.max(out.s) >= 1.0:
        raise StateEscapeError(f"order parameter reached 1 at t = {out.time:.6f}")
    return out


@dataclass(frozen=True)
class QuasilinearConfig:
    """Step, window, and budget parameters of the fixed-point solver.

    E_budget and L_budget are the enlarged constants the iteration must stay
    under; None means "twice the initial value", resolved at solve entry.
    """

    dt: float
    T_local: float
    E_budget: Optional[float] = None
    L_budget: Optional[float] = None
    fixpoint_tol: float = 1e-9
    fixpoint_max: int = 40
    max_halvings: int = 20
    cfl_limit: float = 0.9

    def __post_init__(self):
        if self.dt <= 0.0 or self.T_local <= 0.0:
            raise ConfigError("dt and T_local must be positive")

    @classmethod
    def cfl(cls, grid: Grid1D, ws: WaveSpeed, cfl: float = 0.8,
            T_local: float = 0.5, **kw) -> "QuasilinearConfig":
        return cls(dt=cfl * grid.dx / ws.c_max, T_local=T_local, **kw)


@dataclass
class FixpointTrace:
    window_start: float
    steps: int
    diff_norms: List[float]
    converged: bool
    halvings: int = 0
    budget_tripped: bool = False


@dataclass
class QuasilinearResult:
    state: PolarState
    traces: List[FixpointTrace]
    energy_reports: List[EnergyReport]
    w2_sup: List[float]
    achieved_T: float = 0.0
    trajectory: Optional[List[PolarState]] = None


def _window_diff(grid: Grid1D, traj_a: List[PolarState], traj_b: List[PolarState]) -> float:
    """Sup over levels of the W^{1,inf} distance between window trajectories."""
    return max(_w1_sup(grid, a.U - b.U) for a, b in zip(traj_a[1:], traj_b[1:]))


def _average_state(a: PolarState, b: PolarState) -> PolarState:
    return PolarState(a.grid, *(0.5 * (a.U + b.U)),
                      time=0.5 * (a.time + b.time), far_field=a.far_field)


def _total_energy(st: PolarState, p: PotentialSpec, ws: WaveSpeed) -> float:
    E = energy_density_polar(*st.U, p, ws)[0]
    return float(integrate(st.grid, E))


def resolve_budgets(U0: PolarState, p: PotentialSpec, ws: WaveSpeed,
                    cfg: QuasilinearConfig) -> Tuple[float, float]:
    """Fill in the default budgets: twice the initial energy, twice the
    larger of the initial W^{1,inf} norm and sup(1/s).  A tiny absolute
    floor on the energy budget keeps exact equilibria (energy zero up to
    roundoff) from tripping the monitor on noise."""
    E = cfg.E_budget
    if E is None:
        E0 = max(_total_energy(U0, p, ws), 0.0)
        E = 2.0 * E0 + 1e-12 * max(1.0, E0)
    L = cfg.L_budget
    if L is None:
        L = 2.0 * max(U0.w1_inf(), float(np.max(1.0 / U0.s)))
    return E, L


def _iterate_window(U0: PolarState, p: PotentialSpec, ws: WaveSpeed,
                    cfg: QuasilinearConfig, steps: int,
                    forcing: Optional[Callable]):
    """One fixed-point attempt at a window of `steps` steps."""
    guess = [U0] + [U0.copy() for _ in range(steps)]
    for j in range(1, steps + 1):
        guess[j].time = U0.time + j * cfg.dt
    diffs: List[float] = []
    for _ in range(cfg.fixpoint_max):
        traj = [U0]
        cur = U0
        for j in range(steps):
            mid = _average_state(guess[j], guess[j + 1])
            cur = transport_step(cur, p, ws, cfg.dt, frozen_mid=mid,
                                 frozen_end=guess[j + 1], forcing=forcing)
            traj.append(cur)
        d = _window_diff(U0.grid, traj, guess)
        diffs.append(d)
        guess = traj
        if d < cfg.fixpoint_tol:
            return guess, diffs, True
    return guess, diffs, False


def fixpoint_solve(U0: PolarState, p: PotentialSpec, ws: WaveSpeed,
                   cfg: QuasilinearConfig,
                   forcing: Optional[Callable] = None,
                   max_steps: Optional[int] = None
                   ) -> Tuple[List[PolarState], float, FixpointTrace]:
    """Solve one local window as a whole-trajectory fixed point.

    The map takes a guessed trajectory to the semi-Lagrangian solution of
    the linear system with coefficients and sources frozen on the guess; its
    fixed point is the nonlinear solution.  The attempted window is
    cfg.T_local; it halves whenever the iteration fails to contract or a
    converged candidate violates the budgets (energy above E', W^{1,inf}
    norm or sup(1/s) above L').  Returns (trajectory including the initial
    level, achieved_T actually covered, iteration trace).
    """
    E_prime, L_prime = resolve_budgets(U0, p, ws, cfg)
    E0 = _total_energy(U0, p, ws)
    norm0 = max(U0.w1_inf(), float(np.max(1.0 / U0.s)))
    if E0 > E_prime or norm0 > L_prime:
        raise ConfigError(
            f"initial data violates the budgets: energy {E0:.6g} vs E' = "
            f"{E_prime:.6g}, norm {norm0:.6g} vs L' = {L_prime:.6g}")
    steps = max(1, int(math.floor(cfg.T_local / cfg.dt + 1e-9)))
    if max_steps is not None:
        steps = min(steps, max_steps)

    halvings = 0
    while True:
        traj, diffs, converged = _iterate_window(U0, p, ws, cfg, steps, forcing)
        tripped = False
        if converged:
            for st in traj[1:]:
                if (_total_energy(st, p, ws) > E_prime * (1.0 + 1e-9)
                        or st.w1_inf() > L_prime
                        or float(np.max(1.0 / st.s)) > L_prime):
                    tripped = True
                    break
            if not tripped:
                trace = FixpointTrace(U0.time, steps, diffs, True,
                                      halvings=halvings)
                return traj, steps * cfg.dt, trace
        if steps == 1 or halvings >= cfg.max_halvings:
            trace = FixpointTrace(U0.time, steps, diffs, converged,
                                  halvings=halvings, budget_tripped=tripped)
            if converged and tripped:
                raise AprioriViolationError(
                    f"budgets exceeded at t = {U0.time:.6f} even on a single "
                    f"step (E' = {E_prime:.6g}, L' = {L_prime:.6g})",
                    time=U0.time)
            raise NonContractionError(
                f"window at t = {U0.time:.6f} failed to contract after "
                f"{halvings} halvings", diff_norms=diffs)
        steps = max(1, steps // 2)
        halvings += 1


def advance(state: PolarState, p: PotentialSpec, ws: WaveSpeed,
            cfg: QuasilinearConfig, t_final: float,
            forcing: Optional[Callable] = None,
            keep_trajectory: bool = False) -> QuasilinearResult:
    """March the state to t_final through fixed-point windows.

    Budgets are resolved once from the initial state and held fixed for the
    whole run.  Energy and flux totals are recorded every step with centered
    conservation residuals filled in away from the run's ends; w2_sup tracks
    the largest gradient of any first-order field (a second-derivative proxy
    for the primitives), which the continuation theory watches but never
    caps.
    """
    grid = state.grid
    if cfg.dt > cfg.cfl_limit * grid.dx / ws.c_max + 1e-15:
        raise ConfigError(
            f"dt = {cfg.dt:.3e} exceeds {cfg.cfl_limit} * dx / c_max "
            f"= {cfg.cfl_limit * grid.dx / ws.c_max:.3e}")
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

    E_prime, L_prime = resolve_budgets(state, p, ws, cfg)
    cfg = replace(cfg, E_budget=E_prime, L_budget=L_prime)

    log = EnergyLog(grid, cfg.dt)
    w2_sup: List[float] = []
    trajectory: List[PolarState] = [] if keep_trajectory else None

    def record(st: PolarState):
        log.record(st.time, energy_density_polar(*st.U, p, ws),
                   float(np.max(np.abs(st.U[2:]))))
        w2_sup.append(float(np.max(np.abs(centered_derivative(grid, st.U[2:])))))

    record(state)
    if keep_trajectory:
        trajectory.append(state.copy())

    traces: List[FixpointTrace] = []
    done = 0
    cur = state
    while done < total_steps:
        traj, covered, trace = fixpoint_solve(cur, p, ws, cfg, forcing=forcing,
                                              max_steps=total_steps - done)
        traces.append(trace)
        for st in traj[1:]:
            record(st)
            if keep_trajectory:
                trajectory.append(st.copy())
        cur = traj[-1]
        done += trace.steps

    return QuasilinearResult(state=cur, traces=traces, energy_reports=log.reports,
                             w2_sup=w2_sup, achieved_T=done * cfg.dt,
                             trajectory=trajectory)


POLAR_SNAPSHOT_HEADER = "x,psi,s,phi,v,omega,r"


def write_polar_snapshot_csv(path, st: PolarState):
    """One row per node: x and the six state fields."""
    write_csv(path, POLAR_SNAPSHOT_HEADER, (st.grid.nodes, *st.U))


def read_polar_snapshot_csv(path, time: float = 0.0) -> PolarState:
    """Inverse of write_polar_snapshot_csv; grid rebuilt from the x column."""
    grid, fields = read_grid_csv(path, 7, "polar snapshot csv")
    return PolarState(grid, *fields, time=time)
