"""Validation gate, wave speed, and energy-certified constants."""

import math

import numpy as np
import pytest
from numpy.polynomial import Polynomial
from numpy.polynomial.polynomial import polyval
from scipy.integrate import quad

from varwave import (ConfigError, apriori_constants, ensure_valid,
                     flat_point_potential, quadratic_potential,
                     rational_potential, reference_potential,
                     validate_potential, wave_speed, zero_potential)


# --- validate_potential ----------------------------------------------------


def test_reference_passes_all_clauses():
    report = validate_potential(reference_potential())
    assert report.valid
    assert all(cl.passed for cl in report.clauses.values())


def test_reference_partial_integrals_grow_like_log():
    # W0(u)(1-u) = u^2/(1-u); closed form of the partial integral up to 1-d:
    # -(1-d)^2/2 - (1-d) - ln d, so consecutive decades differ by ln 10
    p = reference_potential()
    vals = []
    for d in (1e-2, 1e-3, 1e-4, 1e-5):
        val, _ = quad(lambda u: p.eval_0(u) * (1.0 - u), 0.0, 1.0 - d)
        exact = -(1 - d) ** 2 / 2 - (1 - d) - math.log(d)
        assert abs(val - exact) < 1e-8
        vals.append(val)
    gaps = np.diff(vals)
    # polynomial part decays, so decade gaps approach ln 10 from below
    assert np.allclose(gaps, math.log(10.0), atol=0.02)
    assert gaps[-1] == pytest.approx(math.log(10.0), abs=5e-4)


def test_quadratic_rejected_on_divergence_clause():
    report = validate_potential(quadratic_potential())
    assert not report.valid
    assert not report.clauses["divergence"].passed
    # the partial integrals converge to 1/12 = int_0^1 u^2 (1-u) du
    p = quadratic_potential()
    val, _ = quad(lambda u: p.eval_0(u) * (1.0 - u), 0.0, 1.0 - 1e-6)
    assert abs(val - 1.0 / 12.0) < 1e-5


def test_quadratic_rejection_message_names_clause():
    with pytest.raises(ConfigError, match="divergence"):
        ensure_valid(quadratic_potential())


def test_zero_potential_fails_only_where_expected():
    report = validate_potential(zero_potential())
    assert not report.valid
    assert report.clauses["nonnegative"].passed
    assert report.clauses["zero_set"].passed
    assert not report.clauses["divergence"].passed


def test_flat_point_potential_passes_and_is_flat():
    p = flat_point_potential(0.5)
    assert validate_potential(p).valid
    for eval_k in (p.eval_0, p.eval_1, p.eval_2, p.eval_3):
        assert abs(float(eval_k(0.5))) <= 1e-10


def test_ensure_valid_returns_accepted_spec():
    p = reference_potential()
    assert ensure_valid(p) is p


# --- rational_potential derivatives -----------------------------------------


_S = np.linspace(0.0, 0.99, 1001)


def _evals(p):
    return (p.eval_0, p.eval_1, p.eval_2, p.eval_3, p.eval_4)


def test_reference_derivatives_match_partial_fractions():
    # s^2/(1-s)^2 = 1 - 2/(1-s) + 1/(1-s)^2
    one_minus = 1.0 - _S
    for k, ev in enumerate(_evals(reference_potential())):
        exact = (_S ** 2 / one_minus ** 2 if k == 0 else
                 math.factorial(k + 1) * one_minus ** (-(2 + k))
                 - 2.0 * math.factorial(k) * one_minus ** (-(1 + k)))
        assert np.max(np.abs(ev(_S) - exact) / (1.0 + np.abs(exact))) <= 1e-13


def _leibniz(numerator, order, s):
    """d^order/ds^order of P(s)/(1-s)^2 by the Leibniz rule; the j-th
    derivative of (1-s)^(-2) is (j+1)! (1-s)^(-2-j)."""
    total = np.zeros_like(s)
    for k in range(order + 1):
        j = order - k
        total += (math.comb(order, k) * numerator.deriv(k)(s)
                  * math.factorial(j + 1) * (1.0 - s) ** (-(2 + j)))
    return total


def test_flat_point_derivatives_match_leibniz_rule():
    numerator = Polynomial([0.0, 0.0, 1.0]) * Polynomial([-0.5, 1.0]) ** 4
    for k, ev in enumerate(_evals(flat_point_potential(0.5))):
        oracle = _leibniz(numerator, k, _S)
        assert np.max(np.abs(ev(_S) - oracle) / (1.0 + np.abs(oracle))) <= 1e-12


def test_numerator_domain_is_honoured():
    # a numerator given on domain [0, 1] is a polynomial in 2s - 1
    numerator = Polynomial([0.0, 0.0, 1.0], domain=[0.0, 1.0])
    for k, ev in enumerate(_evals(rational_potential(numerator))):
        oracle = _leibniz(numerator, k, _S)
        assert np.max(np.abs(ev(_S) - oracle) / (1.0 + np.abs(oracle))) <= 1e-12


def _polyval_times_power(numerator):
    """The evaluators as first built: numpy's polyval of N_k times the
    float power (1-s)^-(2+k)."""
    nums = [numerator.convert()]
    for k in range(4):
        nums.append(Polynomial([1.0, -1.0]) * nums[-1].deriv()
                    + (2 + k) * nums[-1])
    return [lambda s, c=num.coef, k=k: polyval(s, c) * (1.0 - s) ** (-(2 + k))
            for k, num in enumerate(nums)]


_NUMERATORS = {
    "reference": Polynomial([0.0, 0.0, 1.0]),
    "flat4": Polynomial([0.0, 0.0, 1.0]) * Polynomial([-0.5, 1.0]) ** 4,
    "quadratic": Polynomial([0.0, 0.0, 1.0]) * Polynomial([1.0, -1.0]) ** 2,
    "on_domain": Polynomial([0.0, 0.0, 1.0], domain=[0.0, 1.0]),
    "mixed_signs": Polynomial([0.3, -1.0, 0.5, 2.0, -0.7]),
}


@pytest.mark.parametrize("name", sorted(_NUMERATORS))
def test_evaluators_match_polyval_times_power(name):
    # pytest turns RuntimeWarnings into errors, so none is raised either
    s = np.linspace(0.0, 0.999, 20001)
    numerator = _NUMERATORS[name]
    for ev, ref in zip(_evals(rational_potential(numerator)),
                       _polyval_times_power(numerator)):
        want = ref(s)
        assert np.all(np.abs(ev(s) - want) <= 1e-14 * np.abs(want))


def test_evaluators_take_the_scalars_quad_passes():
    p = flat_point_potential(0.3)
    for ev in _evals(p):
        want = ev(np.array([0.7]))[0]
        for s in (0.7, np.float64(0.7), np.array(0.7)):
            got = ev(s)  # a float, as polyval times a power gave
            assert isinstance(got, float) and got == want
    val, _ = quad(p.eval_0, 0.0, 0.9)
    ref, _ = quad(_polyval_times_power(
        Polynomial([0.0, 0.0, 1.0]) * Polynomial([-0.3, 1.0]) ** 4)[0],
        0.0, 0.9)
    assert val == pytest.approx(ref, rel=1e-13)


def test_quadratic_high_derivatives_vanish():
    # W0 = s^2: the numerator recurrence cancels exactly
    p = quadratic_potential()
    assert np.max(np.abs(p.eval_3(_S))) <= 1e-9
    assert np.max(np.abs(p.eval_4(_S))) <= 1e-9


# --- wave_speed ------------------------------------------------------------


def test_wave_speed_axis_values():
    ws = wave_speed(2.0, 1.0)
    assert ws.c(0.0) == pytest.approx(1.0)            # c^2 = K3
    assert ws.c_prime(0.0) == pytest.approx(0.0)
    assert ws.c(math.pi / 2) == pytest.approx(math.sqrt(2.0))  # c^2 = K1
    assert ws.c_prime(math.pi / 2) == pytest.approx(0.0, abs=1e-14)


def test_wave_speed_isotropic_constant():
    ws = wave_speed(4.0, 4.0)
    psi = np.linspace(-3.0, 3.0, 101)
    assert np.allclose(ws.c(psi), 2.0)
    assert np.allclose(ws.c_prime(psi), 0.0)


def test_wave_speed_derivative_matches_finite_difference():
    ws = wave_speed(2.0, 1.0)
    assert ws.c(math.pi / 4) == pytest.approx(math.sqrt(1.5), abs=1e-14)
    h = 1e-6
    for psi in np.linspace(-2.0, 2.0, 41):
        fd = (ws.c(psi + h) - ws.c(psi - h)) / (2.0 * h)
        assert abs(ws.c_prime(psi) - fd) < 1e-8


def test_wave_speed_rejects_nonpositive_constants():
    with pytest.raises(ConfigError):
        wave_speed(0.0, 1.0)
    with pytest.raises(ConfigError):
        wave_speed(1.0, -2.0)


# --- apriori_constants -----------------------------------------------------


def test_small_energy_pins_threshold():
    # near s = 0 the pinning integral is ~ S^4/12, so cE ~ (12 E)^(1/4)
    p = ensure_valid(reference_potential())
    a = apriori_constants(p, 1e-12)
    b = apriori_constants(p, 1e-6)
    assert a.s_tilde <= a.cE <= b.cE
    assert a.cE == pytest.approx((12e-12) ** 0.25, rel=0.1)


def test_reference_kE_closed_form():
    # W0'^2/W0 = 4/(1-s)^4 is increasing, so the sup sits at cE
    p = ensure_valid(reference_potential())
    a = apriori_constants(p, 1.0)
    assert a.kE == pytest.approx(4.0 / (1.0 - a.cE) ** 4, rel=1e-6)


def test_cE_against_brute_force_bisection():
    p = ensure_valid(reference_potential())
    a = apriori_constants(p, 1.0)

    def pin(S):
        val, _ = quad(lambda u: p.eval_0(u) * (S - u), a.s_tilde, S,
                      limit=200)
        return val

    lo, hi = a.s_tilde, 1.0 - 1e-12
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if pin(mid) < 1.0:
            lo = mid
        else:
            hi = mid
    assert abs(a.cE - lo) < 1e-8


def test_apriori_invariants_hold_on_scan():
    p = ensure_valid(reference_potential())
    a = apriori_constants(p, 0.7)
    assert 0.0 < a.cE < 1.0
    s = np.linspace(0.0, a.cE, 100_000)
    w0 = p.eval_0(s)
    w1 = p.eval_1(s)
    assert np.all(w1 ** 2 <= a.kE * w0 + 1e-10)


def test_apriori_monotone_in_energy():
    p = ensure_valid(reference_potential())
    prev = None
    for E in (0.1, 0.5, 1.0, 2.0, 5.0):
        a = apriori_constants(p, E)
        if prev is not None:
            assert a.cE >= prev.cE
            assert a.CE >= prev.CE
        prev = a


def test_apriori_rejects_nonpositive_energy():
    p = ensure_valid(reference_potential())
    with pytest.raises(ConfigError):
        apriori_constants(p, 0.0)
