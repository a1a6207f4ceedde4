"""Slow-time reduction of the director dynamics and its verification tools.

Weakly nonlinear long-time regime: on a background (psi0, s0) with wave
speed c0 = c(psi0), disturbances of size epsilon riding the right-moving
characteristic y = x - c0 t evolve on the slow clock tau = epsilon t.
Writing psi = psi0 + eps u(tau, y), s = s0 + eps R(tau, y) and keeping the
cubic-order part of the action gives the reduced Lagrangian density (up to
an overall sign chosen so the nodal action gradient equals the strong-form
residual)

    L = -a u_tau u_y - b u u_y^2 - d R_tau R_y - e u R_y^2,

with a = s0^2 c0, b = s0^2 (c c')0, d = c0, e = (c c')0.  Because a e = b d
for this family, one rescaling standardizes both equations: running time as
tau_std = (b/a) tau = c'(psi0) tau and measuring the density as
rho_std = sqrt(e/b) rho = rho / s0 (rho = R_y) turns the Euler-Lagrange
system into the two-component system solved by the marker scheme.  The
background potential must be flat to third order at s0 (zero first to third
derivatives) so its cubic term drops below the retained order; the
flat-point family provides exactly that.

This module carries the embedding of slow data into full initial states,
the inverse extraction from a computed fast solution in the moving frame,
the rescaling map, the discrete action machinery (value, exact nodal
gradient, strong-form residual on deliberately different stencils), and the
epsilon sweep that measures how fast the full dynamics converges to the
reduced one.  The sweep solves the full dynamics in the frame y = x - c0 t
itself (QuasilinearConfig.frame_speed = c0), on a grid that covers only
y_span plus a pad, whatever the fast time.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from .config import _MAX_SWEEP_STEPS
from .diagnostics import fit_order
from .errors import ConfigError, VarwaveError
# centered_derivative and interpolate are not called here (embed takes the
# exact slope, extract builds one stencil); the names stay bound because
# perfbench/tracing.py wraps these module attributes
from .fields import (Grid1D, centered_derivative, fit_steps, interpolate,
                     l2_norm, stencil, trapezoid_weights)
from .hunter_saxton import evolve_markers, make_markers, sample_eulerian
from .potentials import PotentialSpec, WaveSpeed
from .profiles import Profile
from .quasilinear import PolarState, QuasilinearConfig, advance

__all__ = [
    "SlowCoefficients",
    "AsymptoticConfig",
    "RescalingMap",
    "ExtractedSlow",
    "ELResidualReport",
    "embed",
    "extract",
    "rescaling_map",
    "standardize",
    "action_value",
    "action_gradient",
    "strong_residual",
    "discrete_el_residual",
    "convergence_study",
]


@dataclass(frozen=True)
class SlowCoefficients:
    """Coefficients of the reduced cubic-order Lagrangian."""

    a: float
    b: float
    d: float
    e: float

    def __post_init__(self):
        if self.a <= 0.0 or self.d <= 0.0:
            raise ConfigError("kinetic coefficients a, d must be positive")

    @classmethod
    def from_background(cls, ws: WaveSpeed, psi0: float, s0: float) -> "SlowCoefficients":
        c0 = float(ws.c(psi0))
        ccp = c0 * float(ws.c_prime(psi0))
        return cls(a=s0 * s0 * c0, b=s0 * s0 * ccp, d=c0, e=ccp)


@dataclass(frozen=True)
class AsymptoticConfig:
    """Background state (wave speed, psi0, s0) and amplitude epsilon of one
    embedding; the slow profiles go to embed."""

    ws: WaveSpeed
    psi0: float
    s0: float
    epsilon: float

    def __post_init__(self):
        if not (0.0 < self.s0 < 1.0):
            raise ConfigError("background order parameter must lie in (0, 1)")
        if not (0.0 <= self.epsilon < 1.0):
            raise ConfigError("epsilon must lie in [0, 1)")
        if abs(self.lam) < 1e-14:
            raise ConfigError("isotropic background: c'(psi0) = 0 leaves no "
                              "slow-time dynamics at this order")

    @property
    def c0(self) -> float:
        return float(self.ws.c(self.psi0))

    @property
    def lam(self) -> float:
        """c'(psi0), the anisotropy rate that sets the standard clock."""
        return float(self.ws.c_prime(self.psi0))

    @property
    def coefficients(self) -> SlowCoefficients:
        return SlowCoefficients.from_background(self.ws, self.psi0, self.s0)


@dataclass(frozen=True)
class RescalingMap:
    """(tau, rho) |-> (time_scale * tau, rho_scale * rho) standardization."""

    time_scale: float
    rho_scale: float


def rescaling_map(cfg: AsymptoticConfig) -> RescalingMap:
    """Standardizing rescale (b/a tau, sqrt(e/b) rho) = (c'(psi0) tau,
    rho / s0) of the background's reduced Lagrangian.

    One clock serves both equations because a e = b d for every background;
    b != 0 because the config refuses isotropic backgrounds, and
    e/b = 1/s0^2 > 0.
    """
    co = cfg.coefficients
    return RescalingMap(time_scale=co.b / co.a,
                        rho_scale=math.sqrt(co.e / co.b))


def embed(cfg: AsymptoticConfig, grid: Grid1D, p: PotentialSpec,
          u0: Callable, du0: Callable, rho0: Callable) -> PolarState:
    """Initial full state carrying the slow profiles at amplitude epsilon.

    u0 is the slow angle profile and du0 its exact derivative; rho0 is the
    slow transverse density (the y-derivative of the order-parameter
    disturbance, unstandardized).  psi = psi0 + eps u0, s = s0 + eps R with
    R the antiderivative of rho0; rho0 must have zero mass so R is again
    localized.  Time derivatives are set for a right-moving packet (the
    moving-frame chain rule at leading order: psi_t = -c0 eps u_y,
    s_t = -c0 eps R_y), and the gradient fields satisfy their defining
    constraints exactly on the grid.  The first three derivatives of the
    potential p at s0 are checked to vanish; otherwise the cubic term it
    contributes would enter at the retained order and the reduced system
    would not be the right limit.
    """
    s0_arr = np.asarray([cfg.s0])
    for k, ev in ((1, p.eval_1), (2, p.eval_2), (3, p.eval_3)):
        val = float(ev(s0_arr)[0])
        if abs(val) > 1e-9:
            raise ConfigError(
                f"potential must be flat to third order at s0 = {cfg.s0}: "
                f"derivative {k} is {val:.3e}")
    y = grid.nodes
    eps, s0, c0 = cfg.epsilon, cfg.s0, cfg.c0
    u = np.asarray(u0(y), dtype=float)
    u_y = np.asarray(du0(y), dtype=float)
    R_y = np.asarray(rho0(y), dtype=float)
    R = np.concatenate(([0.0], np.cumsum(0.5 * (R_y[1:] + R_y[:-1]) * grid.dx)))
    if abs(R[-1]) > 1e-8 * max(1.0, float(np.max(np.abs(R)))):
        raise ConfigError("rho0 must have zero mass for a localized "
                          f"embedding (residual mass {R[-1]:.3e})")

    psi = cfg.psi0 + eps * u
    s = s0 + eps * R
    if np.min(s) <= 0.0 or np.max(s) >= 1.0:
        raise ConfigError("embedded order parameter leaves (0, 1); reduce "
                          "epsilon or the density profile")
    c_loc = cfg.ws.c(psi)
    phi = -eps * c0 * u_y
    v = -eps * c0 * R_y
    omega = c_loc * (eps * u_y)
    r = c_loc * (eps * R_y)
    return PolarState(grid, psi, s, phi, v, omega, r, time=0.0,
                      far_field=(cfg.psi0, cfg.s0))


@dataclass
class ExtractedSlow:
    """Slow fields read off a fast solution in the co-moving frame."""

    y: np.ndarray
    u: np.ndarray
    rho: np.ndarray
    tau: float
    t_fast: float


def extract(cfg: AsymptoticConfig, state: PolarState, y_query
            ) -> ExtractedSlow:
    """Undo the embedding at the state's time.

    The state is solved in the frame moving at c0
    (QuasilinearConfig.frame_speed = c0), so its grid coordinate is the
    co-moving y itself.  Samples the fast solution at y_query, peels off
    the background and the amplitude:
    u = (psi - psi0)/eps and rho = s_x/eps, read through the gradient field
    r = c(psi) s_x so no extra differencing is introduced.  The returned
    fields are unstandardized; apply the rescaling map to compare with the
    standard-form marker solution.
    """
    if cfg.epsilon == 0.0:
        raise ConfigError("cannot extract slow fields at epsilon = 0")
    y = np.atleast_1d(np.asarray(y_query, dtype=float))
    psi_q, r_q = stencil(state.grid, y).apply(state.U[[0, 5]])
    u = (psi_q - cfg.psi0) / cfg.epsilon
    rho = r_q / (cfg.ws.c(psi_q) * cfg.epsilon)
    return ExtractedSlow(y=y, u=u, rho=rho, tau=cfg.epsilon * state.time,
                         t_fast=state.time)


def standardize(ext: ExtractedSlow, m: RescalingMap) -> ExtractedSlow:
    """Apply the rescaling map to extracted fields (u is untouched)."""
    return ExtractedSlow(y=ext.y, u=ext.u, rho=m.rho_scale * ext.rho,
                         tau=m.time_scale * ext.tau, t_fast=ext.t_fast)


# ---------------------------------------------------------------------------
# discrete action machinery on a (tau, y) grid


def _d_axis(A: np.ndarray, h: float, axis: int) -> np.ndarray:
    """Centered interior, first-order one-sided ends (a fixed linear map)."""
    A = np.moveaxis(A, axis, 0)
    out = np.empty_like(A)
    out[1:-1] = (A[2:] - A[:-2]) / (2.0 * h)
    out[0] = (A[1] - A[0]) / h
    out[-1] = (A[-1] - A[-2]) / h
    return np.moveaxis(out, 0, axis)


def _dT_axis(B: np.ndarray, h: float, axis: int) -> np.ndarray:
    """Transpose of _d_axis as a linear map (adjoint differencing)."""
    B = np.moveaxis(B, axis, 0)
    out = np.zeros_like(B)
    # interior columns of the transpose
    out[1:-1] = (B[:-2] - B[2:]) / (2.0 * h)
    # edge corrections: rows 0, 1, n-2, n-1 of D have nonstandard entries
    out[0] = -B[0] / h - B[1] / (2.0 * h)
    out[1] = B[0] / h - B[2] / (2.0 * h)
    out[-2] = B[-3] / (2.0 * h) - B[-1] / h
    out[-1] = B[-2] / (2.0 * h) + B[-1] / h
    return np.moveaxis(out, 0, axis)


def _weights(m: int, n: int, dtau: float, dy: float) -> np.ndarray:
    return np.outer(trapezoid_weights(m, dtau), trapezoid_weights(n, dy))


def action_value(coeffs: SlowCoefficients, dtau: float, dy: float,
                 u: np.ndarray, R: np.ndarray) -> float:
    """Trapezoid quadrature of the reduced Lagrangian over the slab."""
    u = np.asarray(u, float)
    R = np.asarray(R, float)
    if u.shape != R.shape or u.ndim != 2:
        raise ConfigError("u and R must be matching 2-d arrays (tau, y)")
    ut, uy = _d_axis(u, dtau, 0), _d_axis(u, dy, 1)
    Rt, Ry = _d_axis(R, dtau, 0), _d_axis(R, dy, 1)
    L = (-coeffs.a * ut * uy - coeffs.b * u * uy ** 2
         - coeffs.d * Rt * Ry - coeffs.e * u * Ry ** 2)
    W = _weights(u.shape[0], u.shape[1], dtau, dy)
    return float(np.sum(W * L))


def action_gradient(coeffs: SlowCoefficients, dtau: float, dy: float,
                    u: np.ndarray, R: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Exact nodal gradient of action_value, scaled back to a density.

    The discrete action is polynomial in each nodal value, so its gradient
    is computed exactly by running the differencing maps in transpose; the
    result divided by the quadrature weights is the discrete variational
    derivative.  Away from the slab edges it must agree with strong_residual
    to second order in the spacings, and with nothing else: the two use
    different discretizations of the same operators on purpose.
    """
    u = np.asarray(u, float)
    R = np.asarray(R, float)
    if u.shape != R.shape or u.ndim != 2:
        raise ConfigError("u and R must be matching 2-d arrays (tau, y)")
    ut, uy = _d_axis(u, dtau, 0), _d_axis(u, dy, 1)
    Rt, Ry = _d_axis(R, dtau, 0), _d_axis(R, dy, 1)
    W = _weights(u.shape[0], u.shape[1], dtau, dy)

    grad_u = (-coeffs.a * (_dT_axis(W * uy, dtau, 0) + _dT_axis(W * ut, dy, 1))
              - coeffs.b * (W * uy ** 2 + _dT_axis(2.0 * W * u * uy, dy, 1))
              - coeffs.e * W * Ry ** 2)
    grad_R = (-coeffs.d * (_dT_axis(W * Ry, dtau, 0) + _dT_axis(W * Rt, dy, 1))
              - coeffs.e * _dT_axis(2.0 * W * u * Ry, dy, 1))
    return grad_u / W, grad_R / W


def strong_residual(coeffs: SlowCoefficients, dtau: float, dy: float,
                    u: np.ndarray, R: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Pointwise Euler-Lagrange residuals on plain centered stencils.

    First component: 2a u_{tau y} + b u_y^2 + 2b u u_yy - e R_y^2 (the
    advective product written out).  Second: 2d R_{tau y} + 2e u_y R_y
    + 2e u R_yy.  Cross derivatives use the four-corner stencil.  Only the
    interior is meaningful; edge rows and columns hold copied neighbors.
    """
    u = np.asarray(u, float)
    R = np.asarray(R, float)

    def cross(A):
        out = np.empty_like(A)
        out[1:-1, 1:-1] = (A[2:, 2:] - A[2:, :-2] - A[:-2, 2:] + A[:-2, :-2]) \
            / (4.0 * dtau * dy)
        out[0, :], out[-1, :] = out[1, :], out[-2, :]
        out[:, 0], out[:, -1] = out[:, 1], out[:, -2]
        return out

    def dyy(A):
        out = np.empty_like(A)
        out[:, 1:-1] = (A[:, 2:] - 2.0 * A[:, 1:-1] + A[:, :-2]) / (dy * dy)
        out[:, 0], out[:, -1] = out[:, 1], out[:, -2]
        return out

    uy = _d_axis(u, dy, 1)
    Ry = _d_axis(R, dy, 1)
    res_u = (2.0 * coeffs.a * cross(u) + coeffs.b * uy ** 2
             + 2.0 * coeffs.b * u * dyy(u) - coeffs.e * Ry ** 2)
    res_R = (2.0 * coeffs.d * cross(R) + 2.0 * coeffs.e * uy * Ry
             + 2.0 * coeffs.e * u * dyy(R))
    return res_u, res_R


@dataclass
class ELResidualReport:
    """Action-gradient and strong-form residuals with their interior gap."""

    grad_u: np.ndarray
    grad_R: np.ndarray
    strong_u: np.ndarray
    strong_R: np.ndarray
    gap_u: float
    gap_R: float


def discrete_el_residual(coeffs: SlowCoefficients, dtau: float, dy: float,
                         u: np.ndarray, R: np.ndarray,
                         trim: int = 2) -> ELResidualReport:
    """Both variational residuals and their sup gap away from slab edges.

    The gap is the direct consistency check between the two independent
    discretizations; it must shrink at second order when the slab is
    refined.  `trim` rows/columns at each edge are excluded (the one-sided
    boundary stencils of the gradient and the copied edges of the strong
    form disagree there by design).
    """
    grad_u, grad_R = action_gradient(coeffs, dtau, dy, u, R)
    strong_u, strong_R = strong_residual(coeffs, dtau, dy, u, R)
    sl = (slice(trim, -trim), slice(trim, -trim))
    gap_u = float(np.max(np.abs(grad_u[sl] - strong_u[sl])))
    gap_R = float(np.max(np.abs(grad_R[sl] - strong_R[sl])))
    return ELResidualReport(grad_u, grad_R, strong_u, strong_R, gap_u, gap_R)


# ---------------------------------------------------------------------------
# epsilon sweep against the marker reference

# every full-dynamics run of the sweep: CFL number and fixed-point tolerance,
# each the loosest on its ladder whose error stays within a budget.  Both
# errors are the study's measure, the combined L2 distance of the
# standardized extracted fields, on the criterion-10 inputs.
# - CFL, ladder 0.8, 1.2, 1.6, 2.0: the time error, the distance from a run
#   at CFL / 8 at epsilon = 0.2, stays within 2 % of the smallest error the
#   sweep reports (0.1147, epsilon = 0.05): measured 4.7e-4, 1.1e-3, 1.9e-3
#   and 3.1e-3 against a budget of 2.3e-3.  It is second order in dt and
#   about the same at every epsilon; steps in the frame moving at c0 pass
#   advance's foot-travel gate.
# - Tolerance, ladder 1e-8, 1e-7, ..., 1e-3: the fixed-point error, the
#   distance from a run solved to 1e-12 at each of epsilon = 0.2, 0.1 and
#   0.05, stays within 1 % of the time-error budget, 2.3e-5: its largest
#   was measured 7.1e-8, 1.8e-7, 1.05e-6, 4.96e-6, 8.03e-6 and 3.22e-5 from
#   1e-8 to 1e-3.  Most steps stop after their first pass.
_CFL, _FIXPOINT_TOL = 1.6, 1e-4
# evaluation points, reference markers, and the pad (in y) on each side of
# y_span that the full-dynamics grids cover
_N_EVAL, _N_MARKERS, _PAD = 400, 4001, 8.0


def _marker_reference(mapping: RescalingMap, u0: Profile, rho0: Callable,
                      y_span: Tuple[float, float], y_grid: np.ndarray,
                      marker_dt: float, tau_final: float
                      ) -> Tuple[np.ndarray, np.ndarray, float]:
    """The standard reduced system at tau_final on y_grid, from one marker
    run (profiles u0 as-is, rho0 rescaled by the density factor), moved
    into the gauge the full dynamics selects (see convergence_study).
    Returns (u_ref, rho_ref, E_ref), E_ref the conserved reference energy."""
    def rho_std0(y):
        return mapping.rho_scale * np.asarray(rho0(y), dtype=float)

    mk = make_markers(y_span, _N_MARKERS, u0, rho_std0, u0.derivative)
    res = evolve_markers(mk, tau_final, fit_steps(tau_final, marker_dt)[1])
    if res.broke:
        raise ConfigError(f"reference solution breaks before tau = {tau_final}")
    # the left-pinned reference moves into the other gauge: constant drop
    # tau*E in u, frame shift tau^2 E/2 in y
    E_ref = res.state.energy
    u_ref, rho_ref = sample_eulerian(
        res.state, y_grid + 0.5 * tau_final * tau_final * E_ref)
    return u_ref - tau_final * E_ref, rho_ref, E_ref


def _fast_run(cfg: AsymptoticConfig, mapping: RescalingMap, tau_final: float,
              y_span: Tuple[float, float], dx: float
              ) -> Tuple[Grid1D, float, int, float]:
    """(grid, t_fast, steps, dt) of one epsilon's run: the grid over
    y_span +- _PAD at spacing dx, the fast time of tau_final, and the
    fewest steps of at most _CFL dx / c_max that make it up."""
    rate = cfg.epsilon * mapping.time_scale
    if rate == 0.0:
        raise ConfigError(f"epsilon {cfg.epsilon} underflows the slow clock")
    t_fast = tau_final / rate
    x_lo = y_span[0] - _PAD
    n_nodes = int(round((y_span[1] + _PAD - x_lo) / dx)) + 1
    grid = Grid1D(x_lo, x_lo + (n_nodes - 1) * dx, n_nodes)
    return (grid, t_fast) + fit_steps(t_fast, _CFL * grid.dx / cfg.ws.c_max)


def _sweep_run(p: PotentialSpec, cfg: AsymptoticConfig, mapping: RescalingMap,
               u0: Profile, rho0: Callable, tau_final: float,
               y_grid: np.ndarray, u_ref: np.ndarray, rho_ref: np.ndarray,
               y_span: Tuple[float, float], dx: float) -> Dict:
    """One epsilon of the sweep: embed, advance to the fast time of
    tau_final in the frame moving at c0 on a grid over y_span +- _PAD,
    extract, standardize, and measure against the reference.  Returns the
    run's study.json entry; a run that fails is marked, not raised."""
    V = cfg.c0
    grid, t_fast, n_steps, dt = _fast_run(cfg, mapping, tau_final, y_span, dx)
    qcfg = QuasilinearConfig(dt=dt, fixpoint_tol=_FIXPOINT_TOL, frame_speed=V)
    try:
        out = advance(embed(cfg, grid, p, u0, u0.derivative, rho0), p,
                      cfg.ws, qcfg, t_fast)
        ext = standardize(extract(cfg, out.state, y_grid), mapping)
    except VarwaveError as exc:
        return {"epsilon": cfg.epsilon, "t_fast": t_fast, "frame_speed": V,
                "dt": dt, "fixpoint_tol": _FIXPOINT_TOL, "failed": True,
                "error": f"{type(exc).__name__}: {exc}"}
    err_u = ext.u - u_ref
    err_rho = ext.rho - rho_ref
    dy = y_grid[1] - y_grid[0]
    return {
        "epsilon": cfg.epsilon,
        "t_fast": t_fast,
        "frame_speed": V,
        "grid_nodes": grid.n,
        "steps": n_steps,
        "dt": dt,
        "fixpoint_tol": _FIXPOINT_TOL,
        "fixpoint_passes": sum(len(t.diff_norms) for t in out.traces),
        "achieved_T": out.achieved_T,
        "l2_u": float(l2_norm(err_u, dy)),
        "l2_rho": float(l2_norm(err_rho, dy)),
        "sup_u": float(np.max(np.abs(err_u))),
        "sup_rho": float(np.max(np.abs(err_rho))),
        "failed": False,
    }


def convergence_study(p: PotentialSpec, ws: WaveSpeed, psi0: float, s0: float,
                      u0: Profile, rho0: Callable, epsilons: Sequence[float],
                      tau_final: float, *,
                      y_span: Tuple[float, float] = (-6.0, 6.0),
                      dx: float = 0.05,
                      marker_dt: float = 1e-3) -> Dict:
    """Measure the distance between the full dynamics and its reduction.

    u0 is a Profile: its exact derivative seeds the reference slopes and
    the embedded gradient fields.  epsilons holds at least two values, each
    in (0, 1), and no run (an epsilon's fast run, or the marker reference
    at marker_dt) may take more than config._MAX_SWEEP_STEPS steps;
    anything else is a ConfigError before any run.  tau_final is
    measured on the standardized slow clock.  One marker run of the
    standard reduced system (4001 markers; profiles u0 as-is, rho0 rescaled
    by the density factor) provides the reference.  For each epsilon the
    profiles are embedded at that amplitude, the full system is advanced to
    the matching fast time tau_final / (epsilon * time_scale) in the frame
    y = x - c0 t (QuasilinearConfig.frame_speed = c0), on a grid over
    y_span +- 8 whatever the fast time, the slow fields are read off at y
    itself and standardized, and L2 errors are recorded on 400 points
    spanning y_span shrunk by 1 on each side.  Ahead of the packet the
    grid's right edge reads the untouched far field; its left edge is
    outflow.  A sub-run failure marks its entry instead of aborting the
    sweep.  Returns a JSON-ready dictionary: epsilons, errors (combined
    u/rho L2 per epsilon), fitted_order, the velocity-constant gauge of the
    reference, the rescaling map, and per-run detail (each run also records
    its frame_speed, its step dt (the largest of at most _CFL dx / c_max
    that divides the fast time), the fixed-point tolerance fixpoint_tol of
    its steps and, unless it failed, its total fixed-point passes
    fixpoint_passes).

    Gauge handling: the marker reference pins u at the left end (the
    velocity constant is zero), so its u rises by tau*E ahead of the wave.
    The full dynamics cannot follow that branch: ahead of the leading
    characteristic the medium is untouched, so the extracted u vanishes
    there and the wake behind carries the drop instead.  The two pictures
    differ by an exact symmetry of the reduced system, u -> u - tau*E
    together with y -> y + tau^2 E/2 (E is the conserved reference energy),
    and the comparison applies that transformation to the reference before
    measuring errors.  The reference itself, and the gauge tag in the
    output, stay in the left-pinned convention.
    """
    epsilons = [float(e) for e in epsilons]
    if len(epsilons) < 2:
        raise ConfigError("need at least two epsilon values")
    for eps in epsilons:
        if not 0.0 < eps < 1.0:
            raise ConfigError(f"epsilon {eps} outside (0, 1)")
    epsilons.sort(reverse=True)
    cfgs = [AsymptoticConfig(ws=ws, psi0=psi0, s0=s0, epsilon=eps)
            for eps in epsilons]
    base = cfgs[0]
    mapping = rescaling_map(base)
    runs_steps = [(f"the marker reference at dt = {marker_dt}",
                   fit_steps(tau_final, marker_dt)[0])]
    runs_steps += [(f"the run at epsilon = {cfg.epsilon}",
                    _fast_run(cfg, mapping, tau_final, y_span, dx)[2])
                   for cfg in cfgs]
    for what, steps in runs_steps:
        if steps > _MAX_SWEEP_STEPS:
            raise ConfigError(f"{what} would take {steps:.3g} steps; a sweep "
                              f"run may take at most {_MAX_SWEEP_STEPS}")
    y_grid = np.linspace(y_span[0] + 1.0, y_span[1] - 1.0, _N_EVAL)
    u_ref, rho_ref, E_ref = _marker_reference(
        mapping, u0, rho0, y_span, y_grid, marker_dt, tau_final)

    runs: List[Dict] = []
    errors: List[Optional[float]] = []
    for cfg in cfgs:
        run = _sweep_run(p, cfg, mapping, u0, rho0, tau_final, y_grid,
                         u_ref, rho_ref, y_span, dx)
        runs.append(run)
        errors.append(None if run["failed"]
                      else math.hypot(run["l2_u"], run["l2_rho"]))

    ok_pairs = [(e, r) for e, r in zip(epsilons, errors) if r is not None]
    fitted: Optional[float]
    try:
        fitted = fit_order(ok_pairs)
    except ConfigError:
        fitted = None

    return {
        "epsilons": epsilons,
        "errors": errors,
        "fitted_order": fitted,
        "gauge": "C(t)=0",
        "rescaling": {"time_scale": mapping.time_scale,
                      "rho_scale": mapping.rho_scale},
        "tau_final": tau_final,
        "psi0": psi0,
        "s0": s0,
        "c0": base.c0,
        "reference_markers": _N_MARKERS,
        "reference_energy": E_ref,
        "gauge_drop": tau_final * E_ref,
        "gauge_shift": 0.5 * tau_final * tau_final * E_ref,
        "runs": runs,
    }
