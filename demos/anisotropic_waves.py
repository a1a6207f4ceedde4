"""Anisotropic director waves solved in polar variables.

With unequal elastic constants the wave speed depends on the director
angle, so the system stays genuinely quasilinear.  The script runs the
windowed characteristic solver on a smooth pulse, reports the two local
conservation-law residuals under refinement, and traces a pair of
characteristic feet through the evolving speed field.
"""

import math

import numpy as np

from varwave import (Grid1D, ensure_valid, fit_order, flat_point_potential,
                     wave_speed)
from varwave.quasilinear import (PolarState, QuasilinearConfig, advance,
                                 trace_characteristics)

p = ensure_valid(flat_point_potential(0.5))
ws = wave_speed(2.0, 1.0)
T = 0.5

print("angle-dependent speed: c(0) = %.4f, c(pi/4) = %.4f, c(pi/2) = %.4f"
      % (ws.c(0.0), ws.c(math.pi / 4), ws.c(math.pi / 2)))


def pulse_state(n):
    g = Grid1D(-8.0, 8.0, n)
    x = g.nodes
    psi = math.pi / 4 + 0.2 * np.exp(-x ** 2)
    s = 0.5 + 0.05 * np.exp(-((x - 0.5) ** 2))
    return g, PolarState.from_primitives(
        g, psi, s, np.zeros(g.n), np.zeros(g.n), ws,
        far_field=(math.pi / 4, 0.5))


# refinement study of the residuals in the two local balance laws;
# dt follows dx at fixed CFL number so the pair refines jointly
print("\n   n     residual_E     residual_F")
pairs_E, pairs_F = [], []
for n in (257, 513, 1025):
    g, st = pulse_state(n)
    c_max = float(np.max(ws.c(st.psi)))
    steps = int(round(T / (0.8 * g.dx / c_max)))
    history = []
    res = advance(st, p, ws, QuasilinearConfig(dt=T / steps, T_local=0.25),
                  T, observer=history.append)
    rE = max(r.residual_E for r in res.energy_reports
             if not math.isnan(r.residual_E))
    rF = max(r.residual_F for r in res.energy_reports
             if not math.isnan(r.residual_F))
    pairs_E.append((g.dx, rE))
    pairs_F.append((g.dx, rF))
    print(f"  {n:5d}   {rE:.6e}   {rF:.6e}")
dt_fine = T / steps  # history and steps are those of the finest run
print(f"fitted orders: E {fit_order(pairs_E):.2f}, F {fit_order(pairs_F):.2f}")

# trace both characteristic families back from the pulse center at t = T.
# the feet bracket the launch point because the speed never vanishes
levels = np.array([st.psi for st in history])
grid = history[0].grid
foot_plus = float(trace_characteristics(grid, levels, ws, 0.5, T, 0.0,
                                        dt_fine, branch=+1))
foot_minus = float(trace_characteristics(grid, levels, ws, 0.5, T, 0.0,
                                         dt_fine, branch=-1))
print(f"\ncharacteristic feet through (x, t) = (0.5, {T}):")
print(f"  forward family  foot = {foot_plus:+.5f}")
print(f"  backward family foot = {foot_minus:+.5f}")
mid = int(round((0.5 - grid.x_min) / grid.dx))
c_mid = [float(ws.c(st.psi[mid])) for st in history]
print(f"  local speed at the launch point stays in "
      f"[{min(c_mid):.4f}, {max(c_mid):.4f}]")
