"""Energy/flux densities, conservation residuals, and convergence-order fits.

Two local laws are monitored on smooth solutions:

    E_t - (c^2 F)_x = 0          F_t - (E - 2 W0)_x = 0

with E the energy density and F = (s^2 phi omega + v r) / c in transport
variables (equivalently Re(conj(zeta_t) zeta_x) in the constant-speed complex
form, where c^2 F needs the explicit c^2 factor).  Residuals are measured by
centered differences across snapshot triples, so the first and last reported
steps carry no residual.  In a frame y = x - V t moving at V both laws gain
an advective flux, E_t = (c^2 F + V E)_y and F_t = (E - 2 W0 + V F)_y;
EnergyLog adds it.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from typing import List

import numpy as np

from .errors import ConfigError
# centered_derivative stays bound for perfbench/tracing.py, which wraps it
from .fields import Grid1D, centered_derivative, integrate, write_csv

__all__ = [
    "EnergyReport",
    "EnergyLog",
    "energy_density_polar",
    "energy_density_complex",
    "conservation_residuals",
    "fit_order",
    "write_energy_csv",
]


@dataclass
class EnergyReport:
    """Per-step conservation record for one run."""

    time: float
    total_E: float
    total_F: float
    residual_E: float  # NaN where a centered-in-time residual is undefined
    residual_F: float
    sup_state: float
    apriori_violated: bool


def energy_density_polar(psi, s, phi, v, omega, r, p, ws):
    """Energy and flux densities from transport variables.

    Returns (E, F, c2F, EmW): density, flux, c^2*flux, and E - 2 W0(s).
    """
    c = ws.c(psi)
    w0 = p.eval_0(np.asarray(s, dtype=float))
    E = 0.5 * (s**2 * (phi**2 + omega**2) + v**2 + r**2) + w0
    base = s**2 * phi * omega + v * r
    F = base / c
    return E, F, c * base, E - 2.0 * w0


def energy_density_complex(zeta, zeta_t, zeta_x, p, c, abs_zeta=None):
    """Energy and flux densities of the complex form; abs_zeta is |zeta|."""
    az = np.abs(zeta) if abs_zeta is None else abs_zeta
    w0 = p.eval_0(az)
    E = 0.5 * np.abs(zeta_t) ** 2 + 0.5 * c**2 * np.abs(zeta_x) ** 2 + w0
    F = (np.conj(zeta_t) * zeta_x).real
    return E, F, c**2 * F, E - 2.0 * w0


def conservation_residuals(grid: Grid1D, triple_E, triple_c2F, triple_F, triple_EmW, dt: float):
    """L^1 residuals of both local laws at the middle time of a snapshot triple.

    triple_* are (E^{k-1}, E^k, E^{k+1}) etc.  Time derivatives are centered
    over 2*dt, space derivatives centered on the middle snapshot; the end
    nodes, with only lower-order one-sided stencils, count as zero.
    """
    res = np.zeros((2, grid.n))
    for row, (prev, _, nxt), flux in ((res[0], triple_E, triple_c2F[1]),
                                      (res[1], triple_F, triple_EmW[1])):
        np.abs((nxt[1:-1] - prev[1:-1]) / (2.0 * dt)
               - (flux[2:] - flux[:-2]) / (2.0 * grid.dx), out=row[1:-1])
    return tuple(float(r) for r in integrate(grid, res))


class EnergyLog:
    """Energy reports of one run, one per accepted time level.

    `record` takes each level's densities (E, F, c2F, EmW) in time order;
    a level's centered residuals are filled in when the next level comes,
    so the first and last reports keep NaN residuals.  With frame_speed V
    the levels live in y = x - V t, and the residuals are those of the laws
    in that frame: V E joins the energy flux c2F and V F the flux EmW.
    """

    def __init__(self, grid: Grid1D, dt: float, frame_speed: float = 0.0):
        self.grid, self.dt, self.frame_speed = grid, dt, frame_speed
        self.reports: List[EnergyReport] = []
        self._triple: List[tuple] = []  # densities of the last three levels

    def record(self, time: float, densities, sup_state: float,
               apriori_violated: bool = False):
        g = self.grid
        total_E, total_F = integrate(g, densities[:2])
        self.reports.append(EnergyReport(
            time, float(total_E), float(total_F), math.nan, math.nan,
            sup_state, apriori_violated))
        V = self.frame_speed
        if V != 0.0:
            E, F, c2F, EmW = densities
            densities = (E, F, c2F + V * E, EmW + V * F)
        self._triple = self._triple[-2:] + [densities]
        if len(self._triple) == 3:
            E, F, c2F, EmW = zip(*self._triple)
            mid = self.reports[-2]
            mid.residual_E, mid.residual_F = conservation_residuals(
                g, E, c2F, F, EmW, self.dt)


def _finite_number(x) -> float:
    """x as a float; ConfigError unless it is a finite, non-boolean real."""
    ok = isinstance(x, numbers.Real) and not isinstance(x, bool)
    try:
        val = float(x) if ok else math.nan
    except OverflowError:  # an int beyond the float range
        val = math.inf
    if not math.isfinite(val):
        raise ConfigError(f"order fit needs finite numbers, got {x!r}")
    return val


def fit_order(pairs) -> float:
    """Least-squares slope of log(error) against log(h).

    pairs is a sequence of (h, err) with h values distinct; each pair is a
    two-element sequence of finite, non-boolean numbers, and every error
    must be positive, otherwise a rate is meaningless and we refuse to fit
    (ConfigError).
    """
    checked = []
    for pair in pairs:
        if not isinstance(pair, (list, tuple)) or len(pair) != 2:
            raise ConfigError(f"order fit needs (h, err) pairs, got {pair!r}")
        checked.append(tuple(map(_finite_number, pair)))
    if len(checked) < 3:
        raise ConfigError("order fit needs at least three (h, err) pairs")
    h, e = np.array(sorted(checked, key=lambda he: -he[0])).T
    if np.any(h <= 0.0) or np.any(e <= 0.0):
        raise ConfigError("order fit needs positive h and err")
    if np.any(np.diff(h) >= 0.0):
        raise ConfigError("order fit needs distinct h values")
    slope = np.polyfit(np.log(h), np.log(e), 1)[0]
    return float(slope)


ENERGY_HEADER = "t,total_E,total_F,residual_E,residual_F,sup_state,apriori_violated"


def write_energy_csv(path, reports):
    """One row per report, columns in ENERGY_HEADER order (the flag as 0/1)."""
    write_csv(path, ENERGY_HEADER, np.array(  # fields in declaration order
        [list(vars(r).values()) for r in reports], dtype=float).T)
