"""Constant-speed complex wave solver: zeta_tt - c^2 zeta_xx + g(zeta) = 0.

g(z) = (W0'(|z|)/|z|) z comes from the bulk potential.  The solver is the
integral-equation iteration behind the local well-posedness argument, made
discrete on the lattice dt = dx/c: Picard iteration of whole time windows,
inside the contraction regime of the certified constants, of free d'Alembert
propagation plus the Duhamel integral of the source over the backward light
cone (trapezoid weights in time and space).  On the lattice both parts obey
the parallelogram rule of the 1-D wave equation, so each iterate is one
forward march of a three-term recurrence (_Lattice).  Iterates converge
geometrically in the metric of fields.state_distance; the iteration trace
is part of the public result so contraction is checkable from the outside.
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
_BLOCK = 16  # levels per block of lattice sources and of distances


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
    zeta, zeta_t = _dalembert(f0, c, steps, 0)
    return ComplexField(f0.grid, zeta, zeta_t, far_field=f0.far_field,
                        time=f0.time + t, validate=False)


def _dalembert(f0: ComplexField, c: float, shift: int, width: int):
    """d'Alembert level (zeta, zeta_t) of f0 after a whole-cell shift
    (negative: back in time), on the grid widened by `width` cells a side;
    off the grid zeta is its far field and zeta_t, zeta_x are zero."""
    g = f0.grid
    n, pad = g.n, abs(shift) + width
    if max(abs(shift), width) >= n:
        raise DomainError(f"characteristics crossed the whole grid of {n} nodes")
    z = _padded(f0.zeta, f0.far_field, pad)
    zt = _padded(f0.zeta_t, 0.0, pad)
    zx = _padded(centered_derivative(g, f0.zeta), 0.0, pad)
    cells = _padded(0.5 * (f0.zeta_t[1:] + f0.zeta_t[:-1]) * g.dx, 0.0, pad)
    pref = np.concatenate(([0.0], np.cumsum(cells)))
    hi = slice(pad + shift - width, pad + shift + width + n)
    lo = slice(pad - shift - width, pad - shift + width + n)
    return (0.5 * (z[hi] + z[lo]) + (pref[hi] - pref[lo]) / (2.0 * c),
            0.5 * c * (zx[hi] - zx[lo]) + 0.5 * (zt[hi] + zt[lo]))


def _padded(q: np.ndarray, q_ff: complex, pad: int):
    """One level extended by pad far-field values on both sides."""
    return np.concatenate((np.full(pad, q_ff, dtype=q.dtype), q,
                           np.full(pad, q_ff, dtype=q.dtype)))


class _Lattice:
    """A window's levels marched on the lattice c dt = dx, in lines kept for
    a solve with windows of up to m levels on n nodes.

    Level j >= 1 of zeta and of zeta_t follows the parallelogram rule
      u_j[i] = u_{j-1}[i+1] + u_{j-1}[i-1] - u_{j-2}[i] - s_j[i]
    from the start state (level 0) and its free d'Alembert level -1.  With
    Q_l the source of level l, s_j = (dt^2/2) T_{j-1} for zeta, T_l[i] the
    sum of Q_l's averages over the two cells by node i, and s_j = (dt/2)
    (Q_j - Q_{j-2}) for zeta_t; off the grid Q_l and its cell averages are
    q_ff.  At j = 1 the T_0 term halves and Q_{-1} = -(Q_0[i+1] +
    Q_0[i-1])/2.  That is exactly d'Alembert plus the trapezoid Duhamel sum
    over the backward cone: zeta_j reads sources of levels below j, zeta_t,j
    up to j.  Lines are padded by m + 1 cells a side, as each level spoils
    one more end cell; sources come _BLOCK levels at a time.
    """

    def __init__(self, n: int, m: int, q_ff: complex, dt: float,
                 source: Callable):
        self.pad, self.q_ff, self.dt, self.source = m + 1, q_ff, dt, source
        width, rows = n + 2 * self.pad, min(_BLOCK, m + 1)
        # (seed, work) x (level 0, -1) x (zeta, zeta_t); level j -> row j % 2
        self.lines = np.zeros((2, 2, 2, width), dtype=complex)
        # a block's sources after those of the two levels before, its s_j
        self.q = np.full((rows + 2, width), q_ff, dtype=complex)
        self.src = np.zeros((rows, 2, width), dtype=complex)

    def seed(self, f0: ComplexField, c: float):
        """Start the window's marches at f0."""
        self.lines[0, 0] = (_padded(f0.zeta, f0.far_field, self.pad),
                            _padded(f0.zeta_t, 0.0, self.pad))
        self.lines[0, 1, :, 1:-1] = _dalembert(f0, c, -1, self.pad - 1)

    def march(self, hat_z: Optional[np.ndarray], new_z: np.ndarray,
              new_zt: np.ndarray):
        """Levels 0..m of one Picard iterate into the (m+1, n) arrays new_z
        and new_zt, unpinned, over the sources of the levels hat_z; with
        hat_z None, the free levels."""
        (levels, n), pad, h = new_z.shape, self.pad, self.dt / 2.0
        q, src, (seed, work) = self.q, self.src, self.lines
        work[:] = seed
        new_z[0], new_zt[0] = work[0, :, pad:pad + n]
        if hat_z is None:
            src[:] = 0.0
        for b in range(0, levels, _BLOCK):
            k = min(_BLOCK, levels - b)
            if hat_z is not None:
                q[:2] = q[-2:]
                q[2:k + 2, pad:pad + n] = self.source(hat_z[b:b + k])
                # twice the cell averages of the levels before the block's
                cells = q[1:k + 1, 1:] + q[1:k + 1, :-1]
                cells[:, pad - 1] = cells[:, pad + n - 1] = 2.0 * self.q_ff
                np.multiply(cells[:, 1:] + cells[:, :-1], h * self.dt / 2.0,
                            out=src[:k, 0, 1:-1])
                np.multiply(q[2:k + 2] - q[:k], h, out=src[:k, 1])
                if b == 0:
                    src[1, 0] *= 0.5
                    src[1, 1, 1:-1] = h * (q[3, 1:-1]
                                           + 0.5 * (q[2, 2:] + q[2, :-2]))
            for j in range(max(b, 1), b + k):
                now, last = work[j % 2], work[(j - 1) % 2]
                np.subtract(last[:, 2:], now[:, 1:-1], out=now[:, 1:-1])
                now[:, 1:-1] += last[:, :-2]
                now[:, 1:-1] -= src[j - b, :, 1:-1]
                new_z[j], new_zt[j] = now[:, pad:pad + n]


@dataclass(frozen=True)
class SemilinearConfig:
    """Discretization and iteration parameters for the windowed solver;
    picard_solve needs dt = dx/c, the step free transport is exact on."""

    c: float
    dt: float
    T_window: float
    picard_tol: float = 1e-10

    def __post_init__(self):
        if not (0.0 < self.c < math.inf and 0.0 < self.dt < math.inf
                and self.T_window > 0.0):  # inf: one window for the run
            raise ConfigError("c, dt must be positive and finite, "
                              "T_window positive")
        if not 0.0 <= self.picard_tol < math.inf:
            raise ConfigError("picard_tol must be nonnegative and finite")


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
                    cfg: SemilinearConfig, lattice: _Lattice,
                    stacks: np.ndarray, w0: np.ndarray):
    """Picard-iterate one window from its free levels until
    fields.contraction_stop accepts the state_distance changes at
    cfg.picard_tol; returns the level arrays and the diffs.  A window still
    moving after _PICARD_MAX iterations raises NonContractionError
    (diff_norms: its diffs).

    An iterate is the lattice marched over the iterate before, ends then
    pinned; the free levels are the march with no source.  The four (m+1, n)
    complex stacks hold two iterates, each written over the one before the
    current one, and the two real ones of `w0` carry W0(|zeta|) of the
    current iterate into the next distance, taken _BLOCK levels at a time.
    """
    m = stacks.shape[1] - 1
    buffers = (stacks[0], stacks[1]), (stacks[2], stacks[3])
    hat_w, new_w = w0
    lattice.seed(f0, cfg.c)
    hat_z, hat_zt = buffers[1]
    lattice.march(None, hat_z, hat_zt)
    for b in range(0, m + 1, _BLOCK):
        hat_w[b:b + _BLOCK] = p.eval_0(np.abs(hat_z[b:b + _BLOCK]))
    diffs: List[float] = []
    # level 0 carries no correction: once the first iterate has pinned its
    # ends it is the same in every iterate, so later distances skip it
    lo = 0
    for k in range(_PICARD_MAX):
        new_z, new_zt = buffers[k % 2]
        lattice.march(hat_z, new_z, new_zt)
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

    Each window is solved as a fixed point of free wave + Duhamel correction,
    one lattice march per Picard iterate; the windows concatenate exactly
    because the step is grid aligned.  When certified constants are
    supplied, sup|zeta| is checked against cE + 1e-6 at every accepted level
    (the pinning bound is an invariant of the true flow, so tripping it
    means the configuration lied about its energy).  Energy reports carry
    totals each step and centered conservation residuals away from the ends.

    `observer(field)` is called with the initial state and then with each
    accepted level, in time order, as a ComplexField that is never changed
    afterwards.
    """
    grid = f0.grid
    # the lattice moves one cell per level, so c dt must be dx
    if abs(cfg.dt * cfg.c / grid.dx - 1.0) > 1e-9:
        raise ConfigError("dt must equal dx/c for grid-aligned transport")
    q_ff = complex(source_term(p, np.asarray([f0.far_field]))[0])
    if abs(q_ff) > 1e-10:
        raise ConfigError("far field must be an equilibrium of the potential "
                          f"(|g(far_field)| = {abs(q_ff):.3e})")
    total_steps = step_count(t_final, cfg.dt)
    win = max(1, int(math.floor(min(cfg.T_window / cfg.dt + 1e-9,
                                    total_steps))))

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

    # the windows' level stacks and lattice lines, kept for the whole
    # solve; a shorter last window works in their leading levels
    levels = win + 1
    stacks = np.empty((4, levels, grid.n), dtype=complex)
    w0 = np.empty((2, levels, grid.n))
    lattice = _Lattice(grid.n, levels - 1, q_ff, cfg.dt,
                       partial(source_term, p))
    windows: List[List[float]] = []
    iterate_count = 0
    done = 0
    while done < total_steps:
        m = min(win, total_steps - done)
        hat_z, hat_zt, diffs = _window_iterate(
            grid, state, p, cfg, lattice, stacks[:, :m + 1], w0[:, :m + 1])
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
