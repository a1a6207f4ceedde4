"""Tour of the bulk-potential gate and the constants derived from a well.

Runs the validator over the built-in wells, prints the clause-by-clause
verdicts, then shows how the certified sup bound cE, the derivative bound
kE, and the contraction window respond to the energy budget.
"""

import numpy as np

from varwave import (apriori_constants, contraction_window, ensure_valid,
                     flat_point_potential, quadratic_potential,
                     reference_potential, validate_potential, zero_potential)

candidates = [
    reference_potential(),
    flat_point_potential(0.5),
    quadratic_potential(),
    zero_potential(),
]

print("potential gate")
print("=" * 60)
for p in candidates:
    report = validate_potential(p)
    verdict = "accepted" if report.valid else "REJECTED"
    print(f"\n{report.name:12s} {verdict}")
    for key, clause in report.clauses.items():
        mark = "ok " if clause.passed else "BAD"
        print(f"  [{mark}] {key}: {clause.detail}")

# The reference well vanishes at the isotropic state and walls off the
# fully aligned state: W0 blows up like (1-s)^(-2) as s -> 1.
p = ensure_valid(reference_potential())
print("\nreference well against the alignment wall")
for delta in (1e-1, 1e-2, 1e-3, 1e-4):
    val = float(p.w0(1.0 - delta))
    print(f"  W0(1 - {delta:7.0e}) = {val:12.4f}")

# Energy-indexed constants. cE is the certified amplitude ceiling for any
# state whose energy stays below E; it must stay strictly below 1 for the
# well to control the state, and the contraction window shrinks as the
# budget grows.
print("\nenergy budget ->  cE        kE        window")
for E in (0.01, 0.05, 0.25, 1.0):
    a = apriori_constants(p, E)
    T = contraction_window(p, E, c=1.0)
    print(f"  E = {E:5.2f}   {a.cE:8.5f} {a.kE:10.2f} {T:10.5f}")

# Small-energy asymptotics: cE behaves like (12 E)^(1/4) near zero.
print("\nsmall-energy check of cE vs (12 E)^(1/4)")
for E in (1e-4, 1e-6, 1e-8):
    a = apriori_constants(p, E)
    print(f"  E = {E:7.0e}: cE = {a.cE:.6e}, "
          f"(12E)^0.25 = {(12.0 * E) ** 0.25:.6e}")
