"""Energy bookkeeping for the constant-speed complex-field solver.

A Gaussian pulse relaxes in the reference well while the solver marches
window by window.  The run prints the Picard contraction history of the
first window (picard_iterates, the iteration whose fixed point the solver
marches to), the certified amplitude ceiling, and a refinement table for
the total-energy drift, which shrinks at second order.
"""

import numpy as np

from varwave import (ComplexField, Grid1D, SemilinearConfig,
                     apriori_constants, contraction_window, ensure_valid,
                     gaussian, integrate, picard_iterates, picard_solve,
                     reference_potential)
from varwave.diagnostics import energy_density_complex

p = ensure_valid(reference_potential())
c = 1.0
T = 1.0


def initial_field(n, half_span):
    g = Grid1D(-half_span, half_span, n)
    zeta = gaussian(0.3, 0.0, 0.7)(g.nodes).astype(complex)
    f0 = ComplexField(g, zeta, np.zeros(g.n, dtype=complex))
    zx = np.gradient(zeta, g.dx, edge_order=2)
    E0 = float(integrate(g, energy_density_complex(
        zeta, f0.zeta_t, zx, p, c)[0]))
    return g, f0, E0


# one moderately resolved run first, watching the solver internals
g, f0, E0 = initial_field(512, 511.0 / 64.0)   # dx = 1/64
window = contraction_window(p, E0, c=c)
bounds = apriori_constants(p, E0)
print(f"initial energy      E0 = {E0:.6f}")
print(f"certified ceiling   cE = {bounds.cE:.6f} (monitor margin 1e-6)")
print(f"contraction window  T  = {window:.6f} (E' = 2 E0)")

cfg = SemilinearConfig(c=c, dt=g.dx, T_window=min(window, T),
                       picard_tol=1e-13)
steps = max(1, int(cfg.T_window / cfg.dt + 1e-9))
print(f"\nfirst window iterate distances ({steps}-step window, "
      "geometric decay):")
for k, d in enumerate(picard_iterates(f0, p, cfg, steps)[2], start=1):
    print(f"  iterate {k}: {d:.3e}")
res = picard_solve(f0, p, cfg, T, apriori=bounds)

sup_run = max(r.sup_state for r in res.energy_reports)
print(f"\nsup|zeta| over the run = {sup_run:.6f} <= {bounds.cE + 1e-6:.6f}")

# now the drift refinement study: halving dx (and with it dt = dx/c)
# cuts the drift by about four
print("\n   n      dx         |E(T) - E(0)|   relative")
drifts = []
for n, half_span in ((1024, 1023.0 / 128.0), (2048, 2047.0 / 256.0),
                     (4096, 4095.0 / 512.0)):
    g, f0, E0 = initial_field(n, half_span)
    Tw = min(contraction_window(p, E0, c=c), T)
    out = picard_solve(f0, p, SemilinearConfig(c=c, dt=g.dx, T_window=Tw), T)
    E = [r.total_E for r in out.energy_reports]
    drift = abs(E[-1] - E[0])
    drifts.append(drift)
    print(f"  {n:5d}  {g.dx:.6f}   {drift:.6e}   {drift / E[0]:.3e}")

print("\ndrift ratios between successive refinements:")
for a, b in zip(drifts[:-1], drifts[1:]):
    print(f"  {a / b:.3f}")
