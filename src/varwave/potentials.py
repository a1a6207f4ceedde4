"""Bulk potentials, anisotropic wave speed, and certified a priori constants.

The admissible potentials W0 live on [0, 1): C^4, non-negative, finitely many
zeros with finite curvature limits, and a non-integrable blow-up of
W0(u)*(1-u) at u = 1.  That last divergence is what pins the order parameter
strictly below 1 for finite-energy states, and it is the property the
validation gate is built around.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, reduce
from typing import Callable, Optional

import numpy as np
from numpy.polynomial import Polynomial

from .errors import ConfigError

__all__ = [
    "PotentialSpec",
    "WaveSpeed",
    "AprioriConstants",
    "ValidationReport",
    "rational_potential",
    "reference_potential",
    "flat_point_potential",
    "quadratic_potential",
    "zero_potential",
    "validate_potential",
    "ensure_valid",
    "wave_speed",
    "apriori_constants",
    "positivity_threshold",
]


@dataclass(frozen=True)
class PotentialSpec:
    """A bulk potential together with its first four derivatives.

    eval_k(s) evaluates the k-th derivative, vectorized over numpy arrays.
    zeros lists the zeros of W0 supplied by the author (verified, not found,
    by the validator).  flat_point, if set, is a zero where derivatives up to
    third order vanish as well.
    """

    eval_0: Callable[[np.ndarray], np.ndarray]
    eval_1: Callable[[np.ndarray], np.ndarray]
    eval_2: Callable[[np.ndarray], np.ndarray]
    eval_3: Callable[[np.ndarray], np.ndarray]
    eval_4: Callable[[np.ndarray], np.ndarray]
    zeros: tuple = ()
    flat_point: Optional[float] = None
    name: str = ""

    @cached_property
    def origin_derivatives(self):
        """W0''(0) and W0'''(0), evaluated once per potential."""
        zero = np.zeros(1)
        return self.eval_2(zero)[0], self.eval_3(zero)[0]


def rational_potential(numerator: Polynomial, zeros=(), flat_point=None, name="") -> PotentialSpec:
    """Potential of the form W0(s) = P(s) / (1-s)^2 with polynomial P.

    The k-th derivative is N_k(s) / (1-s)^(2+k) with N_0 = P and
    N_{k+1} = (1-s) N_k' + (2+k) N_k, so each eval_k is one polynomial
    evaluation and one power, taken as a product.
    """
    nums = [numerator.convert()]  # coefficients in s itself, whatever the domain
    for k in range(4):
        nums.append(Polynomial([1.0, -1.0]) * nums[-1].deriv() + (2 + k) * nums[-1])

    def make(order):
        coef = nums[order].coef

        def ev(s):
            s = np.asarray(s, dtype=float)
            out = np.full(s.shape, coef[-1])
            for a in coef[-2::-1]:  # Horner's rule, in place
                out *= s
                out += a
            out /= reduce(np.multiply, [1.0 - s] * (2 + order))
            return out[()]  # a scalar for scalar or 0-d s

        return ev

    return PotentialSpec(
        eval_0=make(0), eval_1=make(1), eval_2=make(2), eval_3=make(3), eval_4=make(4),
        zeros=tuple(zeros), flat_point=flat_point, name=name,
    )


def reference_potential() -> PotentialSpec:
    """W0(s) = s^2 / (1-s)^2: single zero at 0, blows up at 1."""
    return rational_potential(Polynomial([0.0, 0.0, 1.0]), zeros=(0.0,), name="reference")


def flat_point_potential(s0: float = 0.5) -> PotentialSpec:
    """W0(s) = s^2 (s-s0)^4 / (1-s)^2: interior zero at s0 flat to fourth order.

    The flat point sets W0' = W0'' = W0''' = 0 at s0, which is what the
    slow-time reduction needs to kill the cubic self-interaction of the
    order-parameter perturbation.
    """
    if not 0.0 < s0 < 1.0:
        raise ConfigError("flat point must lie in (0, 1)")
    p = Polynomial([0.0, 0.0, 1.0]) * Polynomial([-s0, 1.0]) ** 4
    return rational_potential(p, zeros=(0.0, s0), flat_point=s0, name="flat4")


def quadratic_potential() -> PotentialSpec:
    """W0(s) = s^2: smooth and non-negative but with no blow-up at s = 1.

    Fails the divergence clause of the validation gate; kept as the standard
    counterexample.
    """
    p = Polynomial([0.0, 0.0, 1.0]) * Polynomial([1.0, -1.0]) ** 2
    return rational_potential(p, zeros=(0.0,), name="quadratic")


def zero_potential() -> PotentialSpec:
    """W0 = 0: free wave surrogate. Not admissible (no divergence at 1)."""
    z = lambda s: np.zeros_like(np.asarray(s, dtype=float))
    return PotentialSpec(eval_0=z, eval_1=z, eval_2=z, eval_3=z, eval_4=z,
                         zeros=(0.0,), name="zero")


# ---------------------------------------------------------------------------
# validation gate

@dataclass(frozen=True)
class ClauseResult:
    passed: bool
    detail: str


@dataclass(frozen=True)
class ValidationReport:
    clauses: dict
    name: str = ""

    @property
    def valid(self) -> bool:
        return all(c.passed for c in self.clauses.values())

    def failing(self):
        return [k for k, c in self.clauses.items() if not c.passed]


_DELTA_LADDER = (1e-2, 1e-3, 1e-4, 1e-5, 1e-6)
_TAIL_SAMPLES = 2048  # scan of the non-negativity and positive-tail clauses


def _tail_integrals(p: PotentialSpec, deltas=_DELTA_LADDER):
    """Partial integrals of W0(u)(1-u) over [0, 1-delta] for each delta.

    Geometric refinement toward u = 1 keeps the trapezoid honest where the
    integrand blows up.
    """
    out = []
    for delta in deltas:
        segs = [np.linspace(0.0, 1.0 - 1e-2, 4001)]
        lo = 1e-2
        while lo > delta * (1 + 1e-12):
            hi = max(delta, lo / 10.0)
            segs.append(np.linspace(1.0 - lo, 1.0 - hi, 1501))
            lo = hi
        total = 0.0
        for seg in segs:
            f = p.eval_0(seg) * (1.0 - seg)
            total += np.trapezoid(f, seg)
        out.append(total)
    return np.asarray(out)


def positivity_threshold(p: PotentialSpec, samples: int = 4096) -> float:
    """Smallest scanned s_tilde with W0 > 0 and W0' > 0 on (s_tilde, 1).

    Raises ConfigError when no admissible threshold exists on the scan.
    """
    base = max([0.0] + [z for z in p.zeros])
    s = np.linspace(base, 1.0 - 1e-6, samples)[1:]
    good = (p.eval_0(s) > 0.0) & (p.eval_1(s) > 0.0)
    if not good[-1]:
        raise ConfigError("potential has no positive increasing tail near s = 1")
    bad = np.nonzero(~good)[0]
    if bad.size == 0:
        return base
    return float(s[bad[-1]])


def validate_potential(p: PotentialSpec) -> ValidationReport:
    """Run every admissibility clause and report per-clause outcomes.

    Clause names are stable: nonnegative, smooth_c4, zero_set, divergence,
    positive_tail.  The report never raises; the caller decides what a
    failing clause means.
    """
    clauses = {}

    # non-negativity on a dense scan of [0, 1)
    s = np.linspace(0.0, 1.0 - 1e-6, _TAIL_SAMPLES)
    w = p.eval_0(s)
    worst = float(np.min(w))
    clauses["nonnegative"] = ClauseResult(worst >= -1e-12, f"min W0 on scan = {worst:.3e}")

    # C^4 smoothness: centered differences of eval_k track eval_{k+1}
    h = 1e-4
    sc = np.linspace(2.0 * h, 0.95, 200)
    ok, worst_rel = True, 0.0
    evs = (p.eval_0, p.eval_1, p.eval_2, p.eval_3, p.eval_4)
    for k in range(4):
        fd = (evs[k](sc + h) - evs[k](sc - h)) / (2.0 * h)
        g = evs[k + 1](sc)
        rel = np.abs(fd - g) / np.maximum(1.0, np.abs(g))
        worst_rel = max(worst_rel, float(np.max(rel)))
        if np.max(rel) > 1e-3 or not np.all(np.isfinite(rel)):
            ok = False
    clauses["smooth_c4"] = ClauseResult(ok, f"max relative derivative mismatch = {worst_rel:.3e}")

    # listed zeros: value, finite non-negative curvature, quadratic limit
    ok, details = True, []
    for z in p.zeros:
        wz = float(p.eval_0(np.array([z]))[0])
        w2 = float(p.eval_2(np.array([z]))[0])
        if abs(wz) > 1e-12 or not np.isfinite(w2) or w2 < -1e-10:
            ok = False
            details.append(f"s*={z}: W0={wz:.2e}, W0''={w2:.2e}")
            continue
        hs = np.array([1e-2, 1e-3, 1e-4])
        hs = hs[(z + hs) < 1.0]
        q = 2.0 * p.eval_0(z + hs) / hs**2
        err = np.abs(q - w2)
        if err[-1] > max(1e-6, 1e-3 * (1.0 + abs(w2))):
            ok = False
            details.append(f"s*={z}: quadratic limit drifts ({err[-1]:.2e})")
    clauses["zero_set"] = ClauseResult(ok, "; ".join(details) if details else
                                       f"{len(p.zeros)} zero(s) verified")

    # divergence of the tail integral of W0(u)(1-u): increments across the
    # delta ladder must stay bounded away from zero (log divergence gives
    # near-constant increments; any convergent tail decays geometrically)
    ivals = _tail_integrals(p)
    inc = np.diff(ivals)
    diverges = bool(np.all(inc > 0.0) and inc[-1] >= 0.4 * np.max(inc))
    clauses["divergence"] = ClauseResult(
        diverges,
        "partial integrals of W0(u)(1-u) over [0,1-delta]: "
        + ", ".join(f"{v:.4g}" for v in ivals)
        + ("" if diverges else "  (tail integral converges: divergence clause fails)"),
    )

    # positive increasing tail: some s_tilde < 1 with W0, W0' > 0 beyond it
    try:
        st = positivity_threshold(p, samples=_TAIL_SAMPLES)
        clauses["positive_tail"] = ClauseResult(True, f"s_tilde = {st:.6g}")
    except ConfigError as e:
        clauses["positive_tail"] = ClauseResult(False, str(e))

    return ValidationReport(clauses=clauses, name=p.name)


def ensure_valid(p: PotentialSpec) -> PotentialSpec:
    """Return the potential if it passes the gate; raise ConfigError if not."""
    rep = validate_potential(p)
    if not rep.valid:
        raise ConfigError("potential rejected: " + "; ".join(
            f"{k}: {rep.clauses[k].detail}" for k in rep.failing()))
    return p


# ---------------------------------------------------------------------------
# wave speed

@dataclass(frozen=True)
class WaveSpeed:
    """Anisotropic director wave speed c(psi) = sqrt(K1 sin^2 + K3 cos^2)."""

    K1: float
    K3: float

    def __post_init__(self):
        if self.K1 <= 0.0 or self.K3 <= 0.0:
            raise ConfigError("elastic constants must be positive")

    def c(self, psi):
        psi = np.asarray(psi, dtype=float)
        return np.sqrt(self.K1 * np.sin(psi) ** 2 + self.K3 * np.cos(psi) ** 2)

    def speed_and_ratio(self, psi):
        """c(psi) and c'(psi)/c(psi) = (K1 - K3) sin cos / c^2, from one sin
        and one cos; c is bitwise the value `c` returns."""
        psi = np.asarray(psi, dtype=float)
        sn, cs = np.sin(psi), np.cos(psi)
        c2 = self.K1 * sn ** 2 + self.K3 * cs ** 2
        return np.sqrt(c2), (self.K1 - self.K3) * sn * cs / c2

    def c_prime(self, psi):
        psi = np.asarray(psi, dtype=float)
        return (self.K1 - self.K3) * np.sin(psi) * np.cos(psi) / self.c(psi)

    @property
    def c_max(self) -> float:
        return math.sqrt(max(self.K1, self.K3))


def wave_speed(K1: float, K3: float) -> WaveSpeed:
    return WaveSpeed(K1=float(K1), K3=float(K3))


# ---------------------------------------------------------------------------
# a priori constants

@dataclass(frozen=True)
class AprioriConstants:
    """Energy-certified bounds: sup|zeta| <= cE < 1 and CE = W0(cE).

    kE dominates W0'^2/W0 on [0, cE] (with the removable 2 W0'' limits at the
    zeros); s_tilde is the positivity threshold the pinning integral starts
    from.
    """

    cE: float
    CE: float
    kE: float
    s_tilde: float


_PIN_RESOLUTION = 1500  # nodes per segment of the pinning-integral grid
_SCAN_POINTS = 100_000  # scan of [0, cE] for the supremum kE


def _pin_integral_grid(p: PotentialSpec, s_tilde: float):
    """Precomputed u-grid and W0 samples for the pinning integral.

    Uniform on [s_tilde, 0.9], then geometric decades toward 1 so the blow-up
    region is resolved.
    """
    segs = []
    if s_tilde < 0.9:
        segs.append(np.linspace(s_tilde, 0.9, _PIN_RESOLUTION + 1))
    lo = min(0.1, 1.0 - s_tilde)
    while lo > 1e-14:
        hi = lo / 10.0
        segs.append(np.linspace(1.0 - lo, 1.0 - hi, _PIN_RESOLUTION // 2 + 1))
        lo = hi
    u = np.unique(np.concatenate(segs))
    return u, p.eval_0(u)


def _pin_integral(u, w, s_tilde: float, S: float) -> float:
    """integral over [s_tilde, S] of W0(u) (S - u) du on the prepared grid."""
    if S <= s_tilde:
        return 0.0
    j = np.searchsorted(u, S)
    uu = u[:j]
    f = w[:j] * (S - uu)
    total = np.trapezoid(f, uu) if uu.size > 1 else 0.0
    if j > 0 and uu[-1] < S:  # partial cell up to S; integrand vanishes at S
        total += 0.5 * f[-1] * (S - uu[-1])
    return float(total)


def apriori_constants(p: PotentialSpec, E: float) -> AprioriConstants:
    """Solve the pinning relation for cE and take suprema on [0, cE].

    cE is the unique S in (s_tilde, 1) with integral_{s_tilde}^{S} W0(u)(S-u) du = E;
    existence comes from the divergence clause, uniqueness from monotonicity of
    the integral in S.  No wave speed enters the bound: the pinning argument
    is speed-uniform.
    """
    if E <= 0.0:
        raise ConfigError("energy budget must be positive")
    s_tilde = positivity_threshold(p)
    u, w = _pin_integral_grid(p, s_tilde)

    lo, hi = s_tilde, 0.0
    for k in range(2, 15):
        hi = 1.0 - 10.0 ** (-k)
        if _pin_integral(u, w, s_tilde, hi) > E:
            break
    else:
        raise ConfigError("pinning integral never exceeds the budget: "
                          "potential tail too weak (divergence clause)")
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if _pin_integral(u, w, s_tilde, mid) < E:
            lo = mid
        else:
            hi = mid
        if hi - lo < 1e-15:
            break
    cE = 0.5 * (lo + hi)

    s = np.linspace(0.0, cE, _SCAN_POINTS)
    w0 = p.eval_0(s)
    w1 = p.eval_1(s)
    w2 = p.eval_2(s)

    ratio = np.where(w0 > 1e-140, w1**2 / np.where(w0 > 1e-140, w0, 1.0), 2.0 * w2)
    kE = float(np.max(ratio))
    for z in p.zeros:
        if 0.0 <= z <= cE:
            kE = max(kE, float(2.0 * p.eval_2(np.array([z]))[0]))

    return AprioriConstants(cE=float(cE), CE=float(p.eval_0(np.array([cE]))[0]),
                            kE=kE, s_tilde=float(s_tilde))
