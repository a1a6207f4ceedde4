"""Constant-speed complex wave solver: zeta_tt - c^2 zeta_xx + g(zeta) = 0.

g(z) = (W0'(|z|)/|z|) z comes from the bulk potential.  The local
well-posedness argument solves the equation in time windows, each as the
fixed point of the integral equation: free d'Alembert propagation plus the
Duhamel integral of the source over the backward light cone.  Made discrete
on the lattice dt = dx/c (trapezoid weights in time and space), both parts
obey the parallelogram rule of the 1-D wave equation, and the window map is
causal: level j reads the sources of earlier levels only, and zeta_t of
level j those up to j.  So picard_solve reaches each window's discrete fixed
point in one forward march of a three-term recurrence (_march), computing
each level's |zeta|, source and zeta_x once: a window starts from the source
and zeta_x of the last level of the window before.  The Picard iteration of
the argument stays as a check, picard_iterates: the same march with its
sources read from the iterate before, whose successive distances in the
metric of fields.state_distance contract geometrically inside the certified
window.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, ClassVar, List, Optional

import numpy as np

# conservation_residuals is not called here (EnergyLog calls it); the name
# stays bound because perfbench/tracing.py wraps this module attribute
from .diagnostics import (EnergyLog, EnergyReport, conservation_residuals,
                          energy_density_complex)
from .errors import (AprioriViolationError, ConfigError, DomainError,
                     NonContractionError, StateEscapeError)
from .fields import (ComplexField, centered_derivative, contraction_stop,
                     state_distance, step_count)
from .potentials import AprioriConstants, PotentialSpec, apriori_constants

__all__ = [
    "SemilinearConfig",
    "PicardTrace",
    "SemilinearResult",
    "source_term",
    "free_wave",
    "picard_solve",
    "picard_iterates",
    "contraction_window",
]

_PICARD_MAX = 60  # picard_iterates' iterates before NonContractionError


def source_term(p: PotentialSpec, z, s=None):
    """g(z) = (W0'(|z|)/|z|) z with the removable singularity filled in.

    Near z = 0 the ratio W0'(s)/s tends to W0''(0); a two-term expansion is
    used below |z| = 1e-7 so the vectorized form stays smooth through zero.
    Raises StateEscapeError when |z| leaves [0, 1); s is |z|, if known.
    """
    z = np.asarray(z, dtype=complex)
    s = np.abs(z) if s is None else s
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


def _dalembert(f0: ComplexField, c: float, shift: int, width: int,
               zeta_x: Optional[np.ndarray] = None):
    """d'Alembert level (zeta, zeta_t) of f0 after a whole-cell shift
    (negative: back in time), on the grid widened by `width` cells a side;
    off the grid zeta is its far field and zeta_t, zeta_x (if not given,
    centered_derivative of f0.zeta) are zero."""
    g = f0.grid
    n, pad = g.n, abs(shift) + width
    if max(abs(shift), width) >= n:
        raise DomainError(f"characteristics crossed the whole grid of {n} nodes")
    if zeta_x is None:
        zeta_x = centered_derivative(g, f0.zeta)
    z = _padded(f0.zeta, f0.far_field, pad)
    zt = _padded(f0.zeta_t, 0.0, pad)
    zx = _padded(zeta_x, 0.0, pad)
    cells = _padded(0.5 * (f0.zeta_t[1:] + f0.zeta_t[:-1]) * g.dx, 0.0, pad)
    pref = np.concatenate(([0.0], np.cumsum(cells)))
    hi = slice(pad + shift - width, pad + shift + width + n)
    lo = slice(pad - shift - width, pad - shift + width + n)
    return (0.5 * (z[hi] + z[lo]) + (pref[hi] - pref[lo]) / (2.0 * c),
            0.5 * c * (zx[hi] - zx[lo]) + 0.5 * (zt[hi] + zt[lo]))


def _padded(q: np.ndarray, q_ff: complex, pad: int):
    """One level extended by pad far-field values on both sides."""
    ends = np.full(pad, q_ff, dtype=q.dtype)
    return np.concatenate((ends, q, ends))


def _march_buffers(n: int, m: int, q_ff: complex):
    """_march's work arrays for up to m levels on n nodes: (zeta, zeta_t) of
    level j in row j % 2, sources of level l in row l % 3, cell sums, s_j."""
    size = n + 2 * (m + 1)
    return (np.zeros((2, 2, size), dtype=complex),
            np.full((3, size), q_ff, dtype=complex),
            np.empty(size - 1, complex), np.empty(size - 2, complex))


def _march(f0: ComplexField, below: np.ndarray, cfg: SemilinearConfig,
           q_ff: complex, source: Callable, work: Optional[tuple] = None):
    """Levels 0..m of one window from f0 on the lattice c dt = dx, each
    yielded as (zeta, zeta_t): fresh arrays with their ends pinned to the
    (equilibrium) far field, never written again.  below is level -1 as
    (zeta, zeta_t) on the grid widened by m cells a side, for a window
    from f0 its free d'Alembert level _dalembert(f0, c, -1, m).

    Level j >= 1 of zeta and of zeta_t follows the parallelogram rule
      u_j[i] = u_{j-1}[i+1] + u_{j-1}[i-1] - u_{j-2}[i] - s_j[i]
    from the start state (level 0) and level -1.  With
    Q_l = source(l, zeta_l) the source of level l, s_j = (dt^2/2) T_{j-1}
    for zeta, T_l[i] the sum of Q_l's averages over the two cells by node i,
    and s_j = (dt/2) (Q_j - Q_{j-2}) for zeta_t; off the grid Q_l and its
    cell averages are q_ff.  At j = 1 the T_0 term halves and Q_{-1} =
    -(Q_0[i+1] + Q_0[i-1])/2.  That is exactly d'Alembert plus the
    trapezoid Duhamel sum over the backward cone.  zeta_j reads the sources
    of levels below j and zeta_t,j those up to j, so Q_j is taken between
    the two, from the pinned zeta_j: a source of the level itself makes the
    march causal, and its levels are the window's fixed point; a source
    read from the levels of an earlier iterate makes it one Picard map
    (Q_0 = source(0, zeta_0) too: picard_solve hands on the last Q of the
    window before).  The lines are padded by m + 1 cells a side, as each
    level spoils one more end cell.  work is _march_buffers(n, M, q_ff) for
    an M >= m, allocated once per run (default: fresh); a window uses their
    middle, so the grid and the far-field sources keep their place.
    """
    n, dt = f0.grid.n, cfg.dt
    m = (np.shape(below)[-1] - n) // 2
    pad = m + 1
    h = dt / 2.0
    off = 0 if work is None else (work[1].shape[-1] - n) // 2 - pad
    lines, q, cells, s = (a[..., off:a.shape[-1] - off]
                          for a in work or _march_buffers(n, m, q_ff))

    def pinned(line, end):
        level = line[pad:pad + n].copy()
        level[0] = level[-1] = end
        return level

    lines[0, :, :pad] = lines[0, :, pad + n:] = ((f0.far_field,), (0.0,))
    lines[0, 0, pad:pad + n] = f0.zeta
    lines[0, 1, pad:pad + n] = f0.zeta_t
    lines[1, :, 1:-1] = below
    zeta = pinned(lines[0, 0], f0.far_field)
    q[0, pad:pad + n] = source(0, zeta)
    yield zeta, pinned(lines[0, 1], 0.0)
    for j in range(1, m + 1):
        now, last = lines[j % 2], lines[(j - 1) % 2]
        # twice the cell averages of Q_{j-1}
        np.add(q[(j - 1) % 3, 1:], q[(j - 1) % 3, :-1], out=cells)
        cells[pad - 1] = cells[pad + n - 1] = 2.0 * q_ff
        np.add(cells[1:], cells[:-1], out=s)
        s *= h * dt / (4.0 if j == 1 else 2.0)
        _parallelogram(now[0], last[0], s)
        zeta = pinned(now[0], f0.far_field)
        q[j % 3, pad:pad + n] = source(j, zeta)
        if j == 1:
            s[:] = h * (q[1, 1:-1] + 0.5 * (q[0, 2:] + q[0, :-2]))
        else:
            np.multiply(q[j % 3, 1:-1] - q[(j - 2) % 3, 1:-1], h, out=s)
        _parallelogram(now[1], last[1], s)
        yield zeta, pinned(now[1], 0.0)


def _parallelogram(now: np.ndarray, last: np.ndarray, s: np.ndarray):
    """One line of level j from those of levels j - 1 (last) and j - 2
    (now, overwritten), between the line's ends."""
    np.subtract(last[2:], now[1:-1], out=now[1:-1])
    now[1:-1] += last[:-2]
    now[1:-1] -= s


@dataclass(frozen=True)
class SemilinearConfig:
    """Discretization parameters for the windowed solver; picard_solve
    needs dt = dx/c, the step free transport is exact on.  picard_tol is
    the stop of the Picard check, picard_iterates."""

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
    """One entry of diff_norms per window of a picard_solve run.

    Each window is solved by one causal march, so no Picard iterate runs:
    every entry is an empty list, iterate_count is 0 and converged is True.
    The fields keep the shape the benchmark reads (perfbench/workloads.py
    counts the windows); picard_iterates gives a window's iterate
    distances.
    """

    diff_norms: List[List[float]]
    iterate_count: ClassVar[int] = 0
    converged: ClassVar[bool] = True


@dataclass
class SemilinearResult:
    field: ComplexField
    trace: PicardTrace
    energy_reports: List[EnergyReport]


def _far_field_source(f0: ComplexField, p: PotentialSpec,
                      cfg: SemilinearConfig) -> complex:
    """The source of the far field, after checking the two conditions the
    lattice march needs: c dt = dx, and a far field at equilibrium."""
    # the lattice moves one cell per level, so c dt must be dx
    if abs(cfg.dt * cfg.c / f0.grid.dx - 1.0) > 1e-9:
        raise ConfigError("dt must equal dx/c for grid-aligned transport")
    q_ff = complex(source_term(p, np.asarray([f0.far_field]))[0])
    if abs(q_ff) > 1e-10:
        raise ConfigError("far field must be an equilibrium of the potential "
                          f"(|g(far_field)| = {abs(q_ff):.3e})")
    return q_ff


def picard_iterates(f0: ComplexField, p: PotentialSpec, cfg: SemilinearConfig,
                    steps: int):
    """Picard iteration of one window of `steps` levels from f0, the
    contraction of the local well-posedness argument, as a check on the
    window picard_solve marches; returns the last iterate's (steps+1, n)
    zeta and zeta_t stacks and the diffs, the sup over levels of the
    state_distance between successive iterates.

    Iterate 0 is the free march; iterate k + 1 is the march over the
    sources of iterate k, where picard_solve's march reads its own levels,
    so the iteration converges to picard_solve's window (iterate steps + 1
    is it, up to rounding).  It stops once fields.contraction_stop accepts
    the diffs at cfg.picard_tol; a window still moving after _PICARD_MAX
    iterates raises NonContractionError (diff_norms: its diffs).  Level 0 is
    the pinned start state in every iterate, so the distances skip it.  An
    iterate may leave |zeta| < 1 (StateEscapeError) on a window whose causal
    march does not: it is the iteration that needs a certified window.
    """
    if steps < 1:
        raise ConfigError(f"a window takes at least one step, not {steps}")
    q_ff = _far_field_source(f0, p, cfg)
    below = _dalembert(f0, cfg.c, -1, steps)
    hat = np.array(list(_march(f0, below, cfg, 0.0, lambda j, z: 0.0)))
    diffs: List[float] = []
    for _ in range(_PICARD_MAX):
        new = np.array(list(_march(f0, below, cfg, q_ff,
                                   lambda j, z: source_term(p, hat[j, 0]))))
        diffs.append(float(np.max(state_distance(
            f0.grid, new[1:, 0], new[1:, 1], hat[1:, 0], hat[1:, 1], p))))
        hat = new
        if contraction_stop(diffs, cfg.picard_tol):
            return hat[:, 0], hat[:, 1], diffs
    raise NonContractionError(
        f"window starting at t = {f0.time:.6f} failed to contract "
        f"within {_PICARD_MAX} iterations", diff_norms=diffs)


def picard_solve(f0: ComplexField, p: PotentialSpec, cfg: SemilinearConfig,
                 t_final: float, apriori: Optional[AprioriConstants] = None,
                 observer: Optional[Callable] = None) -> SemilinearResult:
    """Evolve the state to t_final, a whole number of steps cfg.dt = dx/c
    (fields.step_count), through windows of cfg.T_window.

    Each window is the fixed point of free wave + Duhamel correction from
    its start state, solved by one causal lattice march (_march) that
    hands each level on as soon as it is marched; the windows concatenate
    exactly because the step is grid aligned.  Each window starts afresh
    from the free d'Alembert level before its start state, so the window
    length is part of the scheme.  When certified constants are supplied,
    sup|zeta| is checked against cE + 1e-6 at every level (the pinning
    bound is an invariant of the true flow, so tripping it means the
    configuration lied about its energy).  Energy reports carry totals each
    step and centered conservation residuals away from the ends.  A level
    leaving |zeta| < 1 raises StateEscapeError.

    `observer(field)` is called with the initial state and then with each
    level, in time order, as a ComplexField that is never changed
    afterwards.
    """
    grid = f0.grid
    q_ff = _far_field_source(f0, p, cfg)
    total_steps = step_count(t_final, cfg.dt)
    win = max(1, int(math.floor(min(cfg.T_window / cfg.dt + 1e-9,
                                    total_steps))))

    bound = apriori.cE + 1e-6 if apriori is not None else None

    log = EnergyLog(grid, cfg.dt)
    work = _march_buffers(grid.n, win, q_ff)
    abs_zeta = q = None  # of the level last marched

    def source(j, zeta):  # level 0 is the last level of the window before
        nonlocal abs_zeta, q
        if j > 0 or q is None:
            abs_zeta = np.abs(zeta)
            q = source_term(p, zeta, abs_zeta)
        return q

    def record_level(zeta, zeta_t, t, az):  # returns the level's zeta_x
        zx = centered_derivative(grid, zeta)
        sup = float(np.max(az))
        violated = bound is not None and sup > bound
        log.record(t, energy_density_complex(zeta, zeta_t, zx, p, cfg.c, az),
                   sup, violated)
        if violated:
            raise AprioriViolationError(
                f"sup|zeta| = {sup:.8f} exceeded certified bound {bound:.8f} at t = {t:.6f}",
                time=t, value=sup, bound=bound)
        if observer is not None:
            observer(ComplexField(grid, zeta, zeta_t, far_field=f0.far_field,
                                  time=t, validate=False))
        return zx

    # windows only read their start state, so f0 is never written
    state = f0
    zx = record_level(state.zeta, state.zeta_t, state.time, np.abs(state.zeta))
    starts = range(0, total_steps, win)
    for done in starts:
        m = min(win, total_steps - done)
        levels = _march(state, _dalembert(state, cfg.c, -1, m, zx), cfg, q_ff,
                        source, work)
        next(levels)  # level 0, the start state, is recorded already
        for j, (zeta, zeta_t) in enumerate(levels, start=1):
            zx = record_level(zeta, zeta_t, state.time + j * cfg.dt, abs_zeta)
        state = ComplexField(grid, zeta, zeta_t, far_field=state.far_field,
                             time=state.time + m * cfg.dt, validate=False)

    return SemilinearResult(field=state,
                            trace=PicardTrace(diff_norms=[[] for _ in starts]),
                            energy_reports=log.reports)
