"""Constant-speed complex wave solver: zeta_tt - c^2 zeta_xx + g(zeta) = 0.

The nonlinearity g(z) = (W0'(|z|)/|z|) z comes from the bulk potential; the
solver is the integral-equation iteration behind the local well-posedness
argument, made discrete:

  * free propagation by the d'Alembert formula (the time step is locked to
    dt = dx/c, so every characteristic trace lands on a grid node and free
    transport is exact),
  * a Duhamel correction integrating the source over the backward light cone
    with trapezoid quadrature in both time and space,
  * Picard iteration of whole time windows, window length chosen inside the
    contraction regime dictated by the certified constants.

Iterates converge geometrically in the same metric the state norms report;
the iteration trace is part of the public result so contraction is checkable
from the outside.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, List, Optional

import numpy as np

# conservation_residuals is not called here (EnergyLog calls it); the name
# stays bound because perfbench/tracing.py wraps this module attribute
from .diagnostics import (EnergyLog, EnergyReport, conservation_residuals,
                          energy_density_complex)
from .errors import (AprioriViolationError, ConfigError, DomainError,
                     NonContractionError, StateEscapeError)
from .fields import ComplexField, Grid1D, centered_derivative, state_distance
from .potentials import AprioriConstants, PotentialSpec, apriori_constants

__all__ = [
    "SemilinearConfig",
    "PicardTrace",
    "SemilinearResult",
    "source_term",
    "free_wave",
    "duhamel_apply",
    "picard_solve",
    "contraction_window",
]

_PICARD_MAX = 60  # Picard iterations per window before NonContractionError


def source_term(p: PotentialSpec, z):
    """g(z) = (W0'(|z|)/|z|) z with the removable singularity filled in.

    Near z = 0 the ratio W0'(s)/s tends to W0''(0); a two-term expansion is
    used below |z| = 1e-7 so the vectorized form stays smooth through zero.
    Raises StateEscapeError when |z| leaves [0, 1).
    """
    z = np.asarray(z, dtype=complex)
    s = np.abs(z)
    if np.any(s >= 1.0):
        raise StateEscapeError("|zeta| reached 1: outside the potential domain")
    small = s < 1e-7
    s_safe = np.where(small, 1.0, s)
    ratio = p.eval_1(np.where(small, 0.0, s)) / s_safe
    w2_0 = p.eval_2(np.zeros(1))[0]
    w3_0 = p.eval_3(np.zeros(1))[0]
    ratio = np.where(small, w2_0 + 0.5 * w3_0 * s, ratio)
    return ratio * z


def _shift(arr: np.ndarray, k: int, fill):
    """Sample arr at index i+k, constant fill outside."""
    n = arr.shape[0]
    out = np.full(n, fill, dtype=arr.dtype)
    if k >= 0:
        if k < n:
            out[: n - k] = arr[k:]
    else:
        if -k < n:
            out[-k:] = arr[: n + k]
    return out


def _aligned_steps(grid: Grid1D, c: float, t: float) -> int:
    shift = c * t / grid.dx
    m = int(round(shift))
    if abs(shift - m) > 1e-9:
        raise ConfigError(
            f"time {t} is not grid aligned: c*t/dx = {shift} must be an integer")
    return m


def free_wave(f0: ComplexField, c: float, t: float) -> ComplexField:
    """Exact d'Alembert evolution of the source-free equation by time t >= 0.

    Requires c*t to be a whole number of cells (the solver guarantees this);
    the initial data are extended by the constant far field outside the grid,
    which is exact for compactly supported perturbations.
    """
    if t < 0.0:
        raise ConfigError("free_wave evolves forward only")
    m = _aligned_steps(f0.grid, c, t)
    g = f0.grid
    if m >= g.n:
        raise DomainError("characteristics crossed the whole grid: "
                          f"shift {m} with {g.n} nodes")
    z0, zt0, ff = f0.zeta, f0.zeta_t, f0.far_field

    # prefix integral of zeta_t0 (zero outside the grid, so clamped ends)
    pref = np.concatenate(([0.0 + 0.0j],
                           np.cumsum(0.5 * (zt0[1:] + zt0[:-1]) * g.dx)))
    zx0 = centered_derivative(g, z0)

    z_plus = _shift(z0, m, ff)
    z_minus = _shift(z0, -m, ff)
    pref_plus = _shift(pref, m, pref[-1])
    pref_minus = _shift(pref, -m, pref[0])
    zeta = 0.5 * (z_plus + z_minus) + (pref_plus - pref_minus) / (2.0 * c)

    zeta_t = (0.5 * c * (_shift(zx0, m, 0.0) - _shift(zx0, -m, 0.0))
              + 0.5 * (_shift(zt0, m, 0.0) + _shift(zt0, -m, 0.0)))
    return ComplexField(g, zeta, zeta_t, far_field=ff, time=f0.time + t,
                        validate=False)


def _padded_prefix(q: np.ndarray, q_ff: complex, dx: float, pad: int):
    """Trapezoid prefix integral of a source level, linearly extended by the
    far-field source value on both sides."""
    pref = np.concatenate(([0.0 + 0.0j], np.cumsum(0.5 * (q[1:] + q[:-1]) * dx)))
    left = pref[0] - q_ff * dx * np.arange(pad, 0, -1)
    right = pref[-1] + q_ff * dx * np.arange(1, pad + 1)
    return np.concatenate((left, pref, right))


def _padded(q: np.ndarray, q_ff: complex, pad: int):
    return np.concatenate((np.full(pad, q_ff, dtype=q.dtype), q,
                           np.full(pad, q_ff, dtype=q.dtype)))


def _cone_corrections(grid: Grid1D, q_levels: np.ndarray, q_ff: complex,
                      c: float, dt: float):
    """Duhamel corrections at every level of a window.

    q_levels[l] is the source field at time level l (0..m).  Returns arrays
    (m+1, n) with the corrections to zeta and zeta_t; level 0 is zero.
    Trapezoid in time over levels, trapezoid in space over the cone through
    prefix integrals, linear far-field extension outside the grid.
    """
    m = q_levels.shape[0] - 1
    n = grid.n
    dx = grid.dx
    pad = m + 1
    prefs = np.stack([_padded_prefix(q_levels[l], q_ff, dx, pad) for l in range(m + 1)])
    qs = np.stack([_padded(q_levels[l], q_ff, pad) for l in range(m + 1)])

    corr_z = np.zeros((m + 1, n), dtype=complex)
    corr_zt = np.zeros((m + 1, n), dtype=complex)
    base = pad  # index of grid node 0 inside padded arrays (prefix has n values)
    for j in range(1, m + 1):
        acc_z = np.zeros(n, dtype=complex)
        acc_zt = np.zeros(n, dtype=complex)
        for l in range(j + 1):
            w = 0.5 if (l == 0 or l == j) else 1.0
            k = j - l
            # inner integral over [x - k dx, x + k dx] from prefix values
            acc_z += w * (prefs[l, base + k: base + k + n]
                          - prefs[l, base - k: base - k + n])
            acc_zt += w * (qs[l, base + k: base + k + n]
                           + qs[l, base - k: base - k + n])
        corr_z[j] = -(dt / (2.0 * c)) * acc_z
        corr_zt[j] = -(dt / 2.0) * acc_zt
    return corr_z, corr_zt


def duhamel_apply(grid: Grid1D, zeta_history: np.ndarray, p: PotentialSpec,
                  c: float, dt: float, far_field=0.0 + 0.0j):
    """Backward-cone source correction at the last level of a history.

    zeta_history has shape (m+1, n): field levels at times 0, dt, ..., m dt.
    Returns the pair of corrections to (zeta, zeta_t) at time m dt.
    """
    zh = np.asarray(zeta_history, dtype=complex)
    if zh.ndim != 2 or zh.shape[1] != grid.n:
        raise ConfigError("history must be (levels, grid.n)")
    q = source_term(p, zh)
    q_ff = complex(source_term(p, np.asarray([far_field]))[0])
    corr_z, corr_zt = _cone_corrections(grid, q, q_ff, c, dt)
    return corr_z[-1], corr_zt[-1]


@dataclass(frozen=True)
class SemilinearConfig:
    """Discretization and iteration parameters for the windowed solver."""

    c: float
    dt: float
    T_window: float
    picard_tol: float = 1e-10

    def __post_init__(self):
        if self.c <= 0.0 or self.dt <= 0.0 or self.T_window <= 0.0:
            raise ConfigError("c, dt, T_window must be positive")

    @classmethod
    def aligned(cls, grid: Grid1D, c: float, T_window: float, **kw) -> "SemilinearConfig":
        """Lock dt to dx/c so characteristic traces land on nodes."""
        return cls(c=c, dt=grid.dx / c, T_window=T_window, **kw)


def contraction_window(p: PotentialSpec, E: float, E_prime: Optional[float] = None,
                       c: float = 1.0) -> float:
    """Window length certified to contract: (1 - E/E') / (2 sqrt(k_{E'}))."""
    E_prime = 2.0 * E if E_prime is None else E_prime
    if not E_prime > E:
        raise ConfigError("enlarged budget must exceed the energy")
    k = apriori_constants(p, E_prime, c).kE
    if k <= 0.0:
        return math.inf
    return (1.0 - E / E_prime) / (2.0 * math.sqrt(k))


@dataclass
class PicardTrace:
    """Iteration record: one list of successive-difference norms per window."""

    iterate_count: int
    diff_norms: List[List[float]]
    converged: bool


@dataclass
class SemilinearResult:
    field: ComplexField
    trace: PicardTrace
    energy_reports: List[EnergyReport]


def _window_iterate(grid: Grid1D, f0: ComplexField, p: PotentialSpec,
                    cfg: SemilinearConfig, m: int):
    """Picard-iterate one window of m steps; returns level arrays and diffs."""
    n = grid.n
    base_z = np.empty((m + 1, n), dtype=complex)
    base_zt = np.empty((m + 1, n), dtype=complex)
    for j in range(m + 1):
        fw = free_wave(f0, cfg.c, j * cfg.dt)
        base_z[j], base_zt[j] = fw.zeta, fw.zeta_t

    q_ff = complex(source_term(p, np.asarray([f0.far_field]))[0])
    hat_z, hat_zt = base_z.copy(), base_zt.copy()
    diffs: List[float] = []
    for _ in range(_PICARD_MAX):
        q = source_term(p, hat_z)
        corr_z, corr_zt = _cone_corrections(grid, q, q_ff, cfg.c, cfg.dt)
        new_z = base_z + corr_z
        new_zt = base_zt + corr_zt
        # boundary pinned to the (equilibrium) far field
        new_z[:, 0] = new_z[:, -1] = f0.far_field
        new_zt[:, 0] = new_zt[:, -1] = 0.0
        d = float(np.max(state_distance(grid, new_z, new_zt, hat_z, hat_zt, p)))
        diffs.append(d)
        hat_z, hat_zt = new_z, new_zt
        if d < cfg.picard_tol:
            return hat_z, hat_zt, diffs, True
    return hat_z, hat_zt, diffs, False


def picard_solve(f0: ComplexField, p: PotentialSpec, cfg: SemilinearConfig,
                 t_final: float, apriori: Optional[AprioriConstants] = None,
                 observer: Optional[Callable] = None) -> SemilinearResult:
    """Evolve the state to t_final through contraction windows.

    Each window is solved as a fixed point of free wave + Duhamel correction;
    the windows concatenate exactly because the step is grid aligned.  When
    certified constants are supplied, sup|zeta| is checked against cE + 1e-6
    at every accepted level (the pinning bound is an invariant of the true
    flow, so tripping it means the configuration lied about its energy).
    Energy reports carry totals each step and centered conservation residuals
    away from the ends.

    `observer(field)` is called with the initial state and then with each
    accepted level, in time order, as a ComplexField that is never changed
    afterwards.
    """
    grid = f0.grid
    if abs(cfg.dt * cfg.c / grid.dx - 1.0) > 1e-9:
        raise ConfigError("dt must equal dx/c for grid-aligned transport")
    q_ff = complex(source_term(p, np.asarray([f0.far_field]))[0])
    if abs(q_ff) > 1e-10:
        raise ConfigError("far field must be an equilibrium of the potential "
                          f"(|g(far_field)| = {abs(q_ff):.3e})")
    total_steps = _aligned_steps(grid, cfg.c, t_final)
    if total_steps == 0:
        raise ConfigError("t_final shorter than one step")
    win = max(1, int(math.floor(cfg.T_window / cfg.dt + 1e-9)))

    bound = apriori.cE + 1e-6 if apriori is not None else None

    log = EnergyLog(grid, cfg.dt)

    def record_level(zeta, zeta_t, t):
        zx = np.gradient(zeta, grid.dx, edge_order=2)
        sup = float(np.max(np.abs(zeta)))
        violated = bound is not None and sup > bound
        log.record(t, energy_density_complex(zeta, zeta_t, zx, p, cfg.c),
                   sup, violated)
        if violated:
            raise AprioriViolationError(
                f"sup|zeta| = {sup:.8f} exceeded certified bound {bound:.8f} at t = {t:.6f}",
                time=t, value=sup, bound=bound)
        if observer is not None:
            observer(ComplexField(grid, zeta, zeta_t, far_field=f0.far_field,
                                  time=t, validate=False))

    state = f0.copy()
    record_level(state.zeta, state.zeta_t, state.time)

    windows: List[List[float]] = []
    iterate_count = 0
    done = 0
    while done < total_steps:
        m = min(win, total_steps - done)
        hat_z, hat_zt, diffs, ok = _window_iterate(grid, state, p, cfg, m)
        windows.append(diffs)
        iterate_count += len(diffs)
        if not ok:
            raise NonContractionError(
                f"window starting at t = {state.time:.6f} failed to contract "
                f"within {_PICARD_MAX} iterations", diff_norms=diffs)
        for j in range(1, m + 1):
            t = state.time + j * cfg.dt
            record_level(hat_z[j], hat_zt[j], t)
        state = ComplexField(grid, hat_z[m], hat_zt[m], far_field=state.far_field,
                             time=state.time + m * cfg.dt, validate=False)
        done += m

    trace = PicardTrace(iterate_count=iterate_count, diff_norms=windows, converged=True)
    return SemilinearResult(field=state, trace=trace, energy_reports=log.reports)
