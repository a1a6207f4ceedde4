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

Iterates converge geometrically in the metric of fields.state_distance;
the iteration trace is part of the public result so contraction is checkable
from the outside.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import partial
from typing import Callable, ClassVar, List, Optional

import numpy as np

# conservation_residuals is not called here (EnergyLog calls it); the name
# stays bound because perfbench/tracing.py wraps this module attribute
from .diagnostics import (EnergyLog, EnergyReport, conservation_residuals,
                          energy_density_complex)
from .errors import (AprioriViolationError, ConfigError, DomainError,
                     NonContractionError, StateEscapeError)
from .fields import (ComplexField, Grid1D, _difference_distance,
                     centered_derivative, contraction_stop, step_count)
from .potentials import AprioriConstants, PotentialSpec, apriori_constants

__all__ = [
    "SemilinearConfig",
    "PicardTrace",
    "SemilinearResult",
    "source_term",
    "free_wave",
    "picard_solve",
    "contraction_window",
]

_PICARD_MAX = 60  # Picard iterations per window before NonContractionError
_BLOCK = 16  # levels per block of cone sources and prefixes and of distances


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
    w2_0, w3_0 = p.origin_derivatives
    ratio = np.where(small, w2_0 + 0.5 * w3_0 * s, ratio)
    return ratio * z


def free_wave(f0: ComplexField, c: float, t: float) -> ComplexField:
    """Exact d'Alembert evolution of the source-free equation by time t >= 0.

    t = 0 returns the initial state; any other t must be a whole number of
    steps dx/c (fields.step_count), so every characteristic moves a whole
    number of cells.  The initial data are extended by the constant far
    field outside the grid, which is exact for compactly supported
    perturbations.
    """
    steps = 0 if t == 0 else step_count(t, f0.grid.dx / c)
    zeta, zeta_t = np.empty((2, 1, f0.grid.n), dtype=complex)
    _free_levels(f0, c, [steps], zeta, zeta_t)
    return ComplexField(f0.grid, zeta[0], zeta_t[0], far_field=f0.far_field,
                        time=f0.time + t, validate=False)


def _free_levels(f0: ComplexField, c: float, shifts, zeta: np.ndarray,
                 zeta_t: np.ndarray):
    """d'Alembert levels of f0 after each of the given whole-cell shifts,
    written into the (k, n) arrays zeta and zeta_t, one row per shift.

    The data are padded once: zeta by its far field, zeta_t and zeta_x by
    zero, and the prefix integral of zeta_t by its end values.
    """
    g = f0.grid
    n, pad = g.n, max(shifts)
    if pad >= n:
        raise DomainError("characteristics crossed the whole grid: "
                          f"shift {pad} with {n} nodes")
    z = _padded(f0.zeta, f0.far_field, pad)
    zt = _padded(f0.zeta_t, 0.0, pad)
    zx = _padded(centered_derivative(g, f0.zeta), 0.0, pad)
    pref = _padded_prefix(f0.zeta_t, 0.0, g.dx, pad)
    for row, m in enumerate(shifts):
        hi, lo = slice(pad + m, pad + m + n), slice(pad - m, pad - m + n)
        zeta[row] = 0.5 * (z[hi] + z[lo]) + (pref[hi] - pref[lo]) / (2.0 * c)
        zeta_t[row] = 0.5 * c * (zx[hi] - zx[lo]) + 0.5 * (zt[hi] + zt[lo])


def _padded_prefix(q: np.ndarray, q_ff: complex, dx: float, pad: int):
    """Trapezoid prefix integrals of source levels along the last axis,
    linearly extended by the far-field source value on both sides; q is one
    level (n,) or a stack of them (k, n)."""
    n = q.shape[-1]
    out = np.empty(q.shape[:-1] + (n + 2 * pad,), dtype=complex)
    out[..., :pad] = 0.0j - q_ff * dx * np.arange(pad, 0, -1)
    out[..., pad] = 0.0
    # cumsum accumulates each row in order, as it does a single level
    np.cumsum(0.5 * (q[..., 1:] + q[..., :-1]) * dx, axis=-1,
              out=out[..., pad + 1:pad + n])
    out[..., pad + n:] = (out[..., pad + n - 1:pad + n]
                          + q_ff * dx * np.arange(1, pad + 1))
    return out


def _padded(q: np.ndarray, q_ff: complex, pad: int):
    """Source levels, one (n,) or a stack (k, n), extended by pad far-field
    values on both sides of the last axis."""
    n = q.shape[-1]
    out = np.empty(q.shape[:-1] + (n + 2 * pad,), dtype=q.dtype)
    out[..., :pad] = out[..., pad + n:] = q_ff
    out[..., pad:pad + n] = q
    return out


def _cone_corrections(grid: Grid1D, levels: np.ndarray, source: Callable,
                      q_ff: complex, c: float, dt: float,
                      corr_z: np.ndarray, corr_zt: np.ndarray):
    """Duhamel corrections at every level of a window, written into the
    (m+1, n) arrays corr_z and corr_zt; level 0 is zero.

    The source at time level l (0..m) is source(levels[l]); it and its
    padded prefix integral are built for _BLOCK levels at a time.
    Trapezoid in time over levels, trapezoid in space over the cone through
    prefix integrals, linear far-field extension outside the grid.  The sums
    over l run along the characteristics, R_j[i] = R_{j-1}[i+1] + P_j[i] and
    L_j[i] = L_{j-1}[i-1] + P_j[i] for the prefixes P and the sources Q, less
    half the l = 0 and l = j terms: O(m n) time; besides the outputs it holds
    one block of levels and O(n + m) running sums.
    """
    m = levels.shape[0] - 1
    n, dx, pad = grid.n, grid.dx, m
    mid = slice(pad, pad + n)
    corr_z[0] = corr_zt[0] = 0.0
    for b in range(0, m + 1, _BLOCK):
        q_block = source(levels[b:b + _BLOCK])
        prefs = _padded_prefix(q_block, q_ff, dx, pad)
        qs = _padded(q_block, q_ff, pad)
        if b == 0:
            p0, q0 = prefs[0].copy(), qs[0].copy()
            rp, lp, rq, lq = p0.copy(), p0.copy(), q0.copy(), q0.copy()
        for j in range(max(b, 1), b + len(q_block)):
            p, q = prefs[j - b], qs[j - b]
            # j shifts leave j stale end entries; pad = m keeps them off the grid
            rp[:-1] = rp[1:] + p[:-1]
            lp[1:] = lp[:-1] + p[1:]
            rq[:-1] = rq[1:] + q[:-1]
            lq[1:] = lq[:-1] + q[1:]
            hi, lo = slice(pad + j, pad + j + n), slice(pad - j, pad - j + n)
            corr_z[j] = -dt / (2.0 * c) * (rp[mid] - lp[mid] - 0.5 * (p0[hi] - p0[lo]))
            corr_zt[j] = -dt / 2.0 * (rq[mid] + lq[mid] - 0.5 * (q0[hi] + q0[lo]) - q[mid])


@dataclass(frozen=True)
class SemilinearConfig:
    """Discretization and iteration parameters for the windowed solver;
    picard_solve needs dt = dx/c, the step free transport is exact on."""

    c: float
    dt: float
    T_window: float
    picard_tol: float = 1e-10

    def __post_init__(self):
        if self.c <= 0.0 or self.dt <= 0.0 or self.T_window <= 0.0:
            raise ConfigError("c, dt, T_window must be positive")


def contraction_window(p: PotentialSpec, E: float, c: float = 1.0) -> float:
    """Window certified to contract, (1 - E/E') / (2 sqrt(k_{E'})), E' = 2E.

    The certificate does not depend on the wave speed c (the pinning bound
    behind k_{E'} is speed-uniform); c is checked to be positive only.
    """
    E_prime = 2.0 * E
    if not E_prime > E:
        raise ConfigError("enlarged budget must exceed the energy")
    if c <= 0.0:
        raise ConfigError("wave speed must be positive")
    k = apriori_constants(p, E_prime).kE
    if k <= 0.0:
        return math.inf
    return (1.0 - E / E_prime) / (2.0 * math.sqrt(k))


@dataclass
class PicardTrace:
    """Iteration record: one list of successive-difference norms per window."""

    iterate_count: int
    diff_norms: List[List[float]]
    # a window that does not contract raises, so every returned trace has
    # converged; kept for the benchmark, which reads it
    converged: ClassVar[bool] = True


@dataclass
class SemilinearResult:
    field: ComplexField
    trace: PicardTrace
    energy_reports: List[EnergyReport]


def _window_iterate(grid: Grid1D, f0: ComplexField, p: PotentialSpec,
                    cfg: SemilinearConfig, q_ff: complex, stacks: np.ndarray,
                    w0: np.ndarray):
    """Picard-iterate one window from its free levels until
    fields.contraction_stop accepts the state_distance changes at
    cfg.picard_tol; returns the level arrays and the diffs.  A window still
    moving after _PICARD_MAX iterations raises NonContractionError
    (diff_norms: its diffs).

    The window works in the six (m+1, n) complex stacks of `stacks`: the
    free levels and two iterates, each as zeta and zeta_t, every iterate
    written over the one before the current one.  W0(|zeta|) of the
    current iterate is carried into the next distance in the two real
    stacks of `w0`.  The cone and the distance work through _BLOCK levels
    at a time.
    """
    m = stacks.shape[1] - 1
    base_z, base_zt = stacks[0], stacks[1]
    buffers = (stacks[2], stacks[3]), (stacks[4], stacks[5])
    hat_w, new_w = w0
    _free_levels(f0, cfg.c, range(m + 1), base_z, base_zt)
    source = partial(source_term, p)
    hat_z, hat_zt = base_z, base_zt
    for b in range(0, m + 1, _BLOCK):
        hat_w[b:b + _BLOCK] = p.eval_0(np.abs(base_z[b:b + _BLOCK]))
    diffs: List[float] = []
    # level 0 carries no correction: once the first iterate has pinned its
    # ends it is the same in every iterate, so later distances skip it
    lo = 0
    for k in range(_PICARD_MAX):
        new_z, new_zt = buffers[k % 2]
        _cone_corrections(grid, hat_z, source, q_ff, cfg.c, cfg.dt,
                          new_z, new_zt)
        new_z += base_z
        new_zt += base_zt
        # boundary pinned to the (equilibrium) far field
        new_z[:, 0] = new_z[:, -1] = f0.far_field
        new_zt[:, 0] = new_zt[:, -1] = 0.0
        block_sups = []
        for b in range(lo, m + 1, _BLOCK):
            blk = slice(b, b + _BLOCK)
            new_w[blk] = p.eval_0(np.abs(new_z[blk]))
            block_sups.append(np.max(_difference_distance(
                grid, new_z[blk] - hat_z[blk], new_zt[blk] - hat_zt[blk],
                new_w[blk] - hat_w[blk])))
        diffs.append(float(np.max(block_sups)))
        lo = 1
        hat_z, hat_zt = new_z, new_zt
        hat_w, new_w = new_w, hat_w
        if contraction_stop(diffs, cfg.picard_tol):
            return hat_z, hat_zt, diffs
    raise NonContractionError(
        f"window starting at t = {f0.time:.6f} failed to contract "
        f"within {_PICARD_MAX} iterations", diff_norms=diffs)


def picard_solve(f0: ComplexField, p: PotentialSpec, cfg: SemilinearConfig,
                 t_final: float, apriori: Optional[AprioriConstants] = None,
                 observer: Optional[Callable] = None) -> SemilinearResult:
    """Evolve the state to t_final, a whole number of steps cfg.dt = dx/c
    (fields.step_count), through contraction windows.

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
    # the cone sums move one cell per level, so c dt must be dx
    if abs(cfg.dt * cfg.c / grid.dx - 1.0) > 1e-9:
        raise ConfigError("dt must equal dx/c for grid-aligned transport")
    q_ff = complex(source_term(p, np.asarray([f0.far_field]))[0])
    if abs(q_ff) > 1e-10:
        raise ConfigError("far field must be an equilibrium of the potential "
                          f"(|g(far_field)| = {abs(q_ff):.3e})")
    total_steps = step_count(t_final, cfg.dt)
    win = max(1, int(math.floor(cfg.T_window / cfg.dt + 1e-9)))

    bound = apriori.cE + 1e-6 if apriori is not None else None

    log = EnergyLog(grid, cfg.dt)

    def record_level(zeta, zeta_t, t):
        zx = centered_derivative(grid, zeta)
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

    # windows only read their start state, so f0 is never written
    state = f0
    record_level(state.zeta, state.zeta_t, state.time)

    # the windows' level stacks, kept for the whole solve; a shorter last
    # window works in their leading levels
    levels = min(win, total_steps) + 1
    stacks = np.empty((6, levels, grid.n), dtype=complex)
    w0 = np.empty((2, levels, grid.n))
    windows: List[List[float]] = []
    iterate_count = 0
    done = 0
    while done < total_steps:
        m = min(win, total_steps - done)
        hat_z, hat_zt, diffs = _window_iterate(
            grid, state, p, cfg, q_ff, stacks[:, :m + 1], w0[:, :m + 1])
        windows.append(diffs)
        iterate_count += len(diffs)
        for j in range(1, m + 1):
            t = state.time + j * cfg.dt
            record_level(hat_z[j], hat_zt[j], t)
        state = ComplexField(grid, hat_z[m], hat_zt[m], far_field=state.far_field,
                             time=state.time + m * cfg.dt, validate=False)
        done += m

    trace = PicardTrace(iterate_count=iterate_count, diff_norms=windows)
    return SemilinearResult(field=state, trace=trace, energy_reports=log.reports)
