"""From the full director-wave system to the reduced marker dynamics.

Small-amplitude waves on an anisotropic background evolve, to leading
order, by the two-component reduced system in a frame moving at the
background speed, with time slowed by epsilon.  This script embeds one
slow profile at several epsilon values, runs the full solver to the same
slow time in the frame moving at c0 (so every epsilon uses the same grid),
extracts and standardizes the slow fields, and compares them with the
marker solution.  The mismatch shrinks roughly linearly in epsilon.
"""

import math

from varwave import (AsymptoticConfig, SlowCoefficients, bump_slope,
                     convergence_study, flat_point_potential, gaussian,
                     rescaling_map, wave_speed)

ws = wave_speed(2.0, 1.0)
psi0 = math.pi / 4.0
s0 = 0.5
p = flat_point_potential(s0)   # flat to third order at s0, as required

# the standardizing rescale is fixed by the background alone
coeffs = SlowCoefficients.from_background(ws, psi0, s0)
cfg0 = AsymptoticConfig(ws=ws, psi0=psi0, s0=s0, epsilon=0.1)
remap = rescaling_map(cfg0)
print("background psi0 = pi/4, s0 = 0.5, speeds K1 = 2, K3 = 1")
print(f"  reduced coefficients: a = {coeffs.a:.5f}, b = {coeffs.b:.5f}, "
      f"d = {coeffs.d:.5f}, e = {coeffs.e:.5f}")
print(f"  clock runs at {remap.time_scale:.6f}, density scaled by "
      f"{remap.rho_scale:.1f}")

# displacement pulse plus a zero-mass density wiggle; the sweep reads the
# slope from the profile's exact derivative
u0 = gaussian(1.0, 0.0, 1.0)
rho0 = bump_slope(0.5, 0.0, 1.0)

out = convergence_study(
    p, ws, psi0, s0, u0, rho0, epsilons=(0.4, 0.2, 0.1), tau_final=0.3,
    y_span=(-5.0, 5.0), dx=0.08, marker_dt=2e-3)

print(f"\nreference marker energy = {out['reference_energy']:.6f}")
print(f"gauge convention '{out['gauge']}': the reference is shifted by "
      f"{out['gauge_drop']:.5f} in u")
print(f"frame speed c0 = {out['c0']:.6f}")
print("\n  epsilon   fast time   grid nodes   steps        dt   passes   error")
for run, err in zip(out["runs"], out["errors"]):
    print(f"  {run['epsilon']:7.2f}   {run['t_fast']:9.3f}   "
          f"{run['grid_nodes']:10d}   {run['steps']:5d}   {run['dt']:.5f}   "
          f"{run['fixpoint_passes']:6d}   {err:.5f}")
print(f"\nfitted order in epsilon: {out['fitted_order']:.3f}")
