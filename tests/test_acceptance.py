"""Acceptance gate: the eleven go/no-go checks for this suite.

Each test states its tolerance inline and also enforces its wall-clock
budget.  The terminal summary (see conftest) prints one PASS/FAIL line per
criterion.
"""

import math
import time

import numpy as np
import pytest

from varwave import (AprioriViolationError, ComplexField, ConfigError, Grid1D,
                     SemilinearConfig, SlowCoefficients, apriori_constants,
                     bump_slope, constant, contraction_window,
                     convergence_study, discrete_el_residual, ensure_valid,
                     evolve_markers, fit_order, flat_point_potential,
                     free_wave, gaussian, integrate, make_markers,
                     picard_iterates, picard_solve, quadratic_potential,
                     reference_potential, validate_potential, wave_speed,
                     zero_potential)
from varwave.diagnostics import energy_density_complex
from varwave.quasilinear import PolarState, QuasilinearConfig, advance


def _complex_data(n, amp, width, x_span=8.0, vamp=0.0, center=0.0,
                  c=1.0, p=None):
    g = Grid1D(-x_span, x_span, n)
    zeta = gaussian(amp, center, width)(g.nodes).astype(complex)
    zt = gaussian(vamp, -center, width)(g.nodes).astype(complex)
    f0 = ComplexField(g, zeta, zt)
    zx = np.gradient(zeta, g.dx, edge_order=2)
    E0 = float(integrate(g, energy_density_complex(zeta, zt, zx, p, c)[0]))
    return g, f0, E0


def test_criterion_01_free_wave_exactness():
    t0 = time.monotonic()
    g = Grid1D(-8.0, 7.984375, 1024)  # dx = 1/64, so dt = dx spans T = 1
    prof = gaussian(0.3, 0.0, 1.0)
    f0 = ComplexField(g, prof(g.nodes).astype(complex),
                      np.zeros(g.n, dtype=complex))
    res = picard_solve(f0, zero_potential(),
                       SemilinearConfig(c=1.0, dt=g.dx, T_window=1.0), 1.0)
    # independent oracle: the closed-form half-sum of analytic shifts,
    # which the node-aligned stepping must reproduce exactly
    oracle = 0.5 * (prof(g.nodes - 1.0) + prof(g.nodes + 1.0))
    err = float(np.max(np.abs(res.field.zeta - oracle)))
    fw = free_wave(f0, 1.0, 1.0)
    err_t = float(np.max(np.abs(res.field.zeta_t - fw.zeta_t)))
    elapsed = time.monotonic() - t0
    print(f"criterion 1: max error vs d'Alembert {err:.3e} ({elapsed:.1f}s)")
    assert err <= 1e-12
    assert err_t <= 1e-12
    assert elapsed < 5.0


def _drift_run(n, half_span):
    p = ensure_valid(reference_potential())
    g = Grid1D(-half_span, half_span, n)
    # amplitude-0.3 pulse with a velocity component, so both conservation
    # laws are exercised; drift is the worst energy deviation over the run
    zeta = gaussian(0.3, 0.0, 0.6)(g.nodes).astype(complex)
    zt = gaussian(0.2, 0.3, 0.6)(g.nodes).astype(complex)
    f0 = ComplexField(g, zeta, zt)
    zx = np.gradient(zeta, g.dx, edge_order=2)
    E0 = float(integrate(g, energy_density_complex(zeta, zt, zx, p, 1.0)[0]))
    Tw = min(contraction_window(p, E0, c=1.0), 1.0)
    res = picard_solve(f0, p, SemilinearConfig(c=1.0, dt=g.dx, T_window=Tw),
                       1.0)
    E = [r.total_E for r in res.energy_reports]
    worst = max(abs(e - E[0]) for e in E)
    return worst, worst / E[0]


def test_criterion_02_energy_drift_second_order():
    t0 = time.monotonic()
    # spans chosen so n nodes give the dyadic spacings 1/128 and 1/256,
    # letting dt = dx tile T = 1 exactly
    abs_c, rel_c = _drift_run(2048, 2047.0 / 256.0)
    abs_f, rel_f = _drift_run(4096, 4095.0 / 512.0)
    ratio = rel_c / rel_f
    elapsed = time.monotonic() - t0
    print(f"criterion 2: drift {abs_c:.3e} -> {abs_f:.3e}, "
          f"ratio {ratio:.2f} ({elapsed:.1f}s)")
    assert 3.0 <= ratio <= 5.0
    assert abs_c <= 1e-5
    assert elapsed < 60.0


def test_criterion_03_picard_contraction_randomized():
    t0 = time.monotonic()
    rng = np.random.default_rng(0)
    p = ensure_valid(reference_potential())
    passed = 0
    measured = 0
    for _ in range(20):
        amp = rng.uniform(0.05, 0.3)
        width = rng.uniform(0.6, 1.2)
        center = rng.uniform(-1.0, 1.0)
        vamp = rng.uniform(0.0, 0.2)
        g, f0, E0 = _complex_data(513, amp, width, vamp=vamp, center=center,
                                  p=p)
        # window per the contraction bound with doubled energy budget
        Tw = contraction_window(p, E0, c=1.0)
        steps = max(1, int(math.floor(Tw / g.dx)))
        _, _, diffs = picard_iterates(
            f0, p, SemilinearConfig(c=1.0, dt=g.dx, T_window=steps * g.dx,
                                    picard_tol=1e-13), steps)
        ok = True
        for a, b in zip(diffs[:-1], diffs[1:]):
            if a > 1e-13:
                measured += 1
                ok = ok and (b / a <= 0.9)
        passed += ok
    elapsed = time.monotonic() - t0
    print(f"criterion 3: {passed}/20 trials contracted "
          f"({measured} ratios, {elapsed:.1f}s)")
    assert measured >= 20  # the check must not pass vacuously
    assert passed >= 19    # >= 95% of 20 trials
    assert elapsed < 120.0


def test_criterion_04_apriori_sup_bound():
    t0 = time.monotonic()
    p = ensure_valid(reference_potential())
    for amp in (0.1, 0.2, 0.3):
        g, f0, E0 = _complex_data(513, amp, 1.0, p=p)
        apriori = apriori_constants(p, E0)
        Tw = min(contraction_window(p, E0, c=1.0), 1.0)
        res = picard_solve(f0, p,
                           SemilinearConfig(c=1.0, dt=g.dx, T_window=Tw),
                           1.0, apriori=apriori)
        sup_run = max(r.sup_state for r in res.energy_reports)
        assert sup_run <= apriori.cE + 1e-6
        assert not any(r.apriori_violated for r in res.energy_reports)
    # constants certified for a tiny energy budget must trip on real data
    g, f0, _ = _complex_data(513, 0.3, 1.0, p=p)
    starved = apriori_constants(p, 1e-6)
    with pytest.raises(AprioriViolationError):
        picard_solve(f0, p,
                     SemilinearConfig(c=1.0, dt=g.dx, T_window=0.25),
                     1.0, apriori=starved)
    elapsed = time.monotonic() - t0
    print(f"criterion 4: bound held on 3 runs, monitor tripped "
          f"({elapsed:.1f}s)")
    assert elapsed < 30.0


def test_criterion_05_polar_complex_cross_oracle():
    t0 = time.monotonic()
    p = ensure_valid(flat_point_potential(0.5))
    ws = wave_speed(1.0, 1.0)
    T = 0.5
    pairs = []
    for n in (257, 513, 1025):
        g = Grid1D(-8.0, 8.0, n)
        x = g.nodes
        psi = math.pi / 4 + 0.2 * np.exp(-x ** 2)
        s = 0.5 + 0.05 * np.exp(-((x - 0.5) ** 2))
        zeta0 = (s * np.exp(1j * psi)).astype(complex)
        f0 = ComplexField(g, zeta0, np.zeros(g.n, complex),
                          far_field=0.5 * np.exp(1j * math.pi / 4))
        zx = np.gradient(zeta0, g.dx, edge_order=2)
        E0 = float(integrate(g, energy_density_complex(
            zeta0, np.zeros(g.n, complex), zx, p, 1.0)[0]))
        Tw = min(contraction_window(p, E0, c=1.0), T)
        sres = picard_solve(f0, p,
                            SemilinearConfig(c=1.0, dt=g.dx, T_window=Tw), T)
        st = PolarState.from_primitives(g, psi, s, np.zeros(g.n),
                                        np.zeros(g.n), ws,
                                        far_field=(math.pi / 4, 0.5))
        qres = advance(st, p, ws,
                       QuasilinearConfig(dt=g.dx / 2), T)
        diff = np.abs(qres.state.s * np.exp(1j * qres.state.psi)
                      - sres.field.zeta)
        pairs.append((g.dx, float(np.sqrt(integrate(g, diff ** 2)))))
    order = fit_order(pairs)
    elapsed = time.monotonic() - t0
    print(f"criterion 5: L2 gaps {[f'{e:.2e}' for _, e in pairs]}, "
          f"order {order:.2f} ({elapsed:.1f}s)")
    assert pairs[0][1] > pairs[1][1] > pairs[2][1]
    assert order >= 0.8
    assert elapsed < 120.0


def test_criterion_06_conservation_residuals_refine():
    t0 = time.monotonic()
    p = ensure_valid(flat_point_potential(0.5))
    ws = wave_speed(2.0, 1.0)
    T = 0.5
    pairs_E, pairs_F = [], []
    for n in (257, 513, 1025):
        g = Grid1D(-8.0, 8.0, n)
        x = g.nodes
        psi = math.pi / 4 + 0.2 * np.exp(-x ** 2)
        s = 0.5 + 0.05 * np.exp(-((x - 0.5) ** 2))
        st = PolarState.from_primitives(g, psi, s, np.zeros(g.n),
                                        np.zeros(g.n), ws,
                                        far_field=(math.pi / 4, 0.5))
        c_max = float(np.max(ws.c(psi)))
        steps = max(1, int(round(T / (0.8 * g.dx / c_max))))
        res = advance(st, p, ws,
                      QuasilinearConfig(dt=T / steps), T)
        pairs_E.append((g.dx, max(r.residual_E for r in res.energy_reports
                                  if not math.isnan(r.residual_E))))
        pairs_F.append((g.dx, max(r.residual_F for r in res.energy_reports
                                  if not math.isnan(r.residual_F))))
    order_E, order_F = fit_order(pairs_E), fit_order(pairs_F)
    elapsed = time.monotonic() - t0
    print(f"criterion 6: residual orders E {order_E:.2f}, F {order_F:.2f} "
          f"({elapsed:.1f}s)")
    assert order_E >= 0.8 and order_F >= 0.8
    assert elapsed < 120.0


def test_criterion_07_riccati_exactness_and_invariants():
    t0 = time.monotonic()
    alpha0, rho0 = -0.8, 0.6
    mk = make_markers((-4.0, 4.0), 801, lambda x: alpha0 * x, constant(rho0),
                      du0=lambda x: np.full_like(x, alpha0))
    inv0 = (mk.alpha ** 2 + mk.rho ** 2) * mk.J
    res = evolve_markers(mk, t_final=1.0, dt=1e-3)
    st = res.state
    w1 = complex(alpha0, rho0) / (1.0 + complex(alpha0, rho0) * 0.5)
    err_w = max(float(np.max(np.abs(st.alpha - w1.real))),
                float(np.max(np.abs(st.rho - w1.imag))))
    inv1 = (st.alpha ** 2 + st.rho ** 2) * st.J
    inv_drift = float(np.max(np.abs(inv1 - inv0) / np.abs(inv0)))
    elapsed = time.monotonic() - t0
    print(f"criterion 7: w error {err_w:.2e}, invariant drift {inv_drift:.2e} "
          f"({elapsed:.1f}s)")
    assert err_w <= 1e-8
    assert inv_drift <= 1e-10
    assert elapsed < 5.0


def test_criterion_08_blowup_dichotomy():
    t0 = time.monotonic()
    steepest = gaussian(math.sqrt(2.0) * math.exp(0.5), 0.0, 1.0)
    mk = make_markers((-8.0, 8.0), 2049, steepest, lambda x: np.zeros_like(x),
                      du0=steepest.derivative)
    assert float(np.min(mk.alpha)) == pytest.approx(-2.0, abs=1e-4)
    res = evolve_markers(mk, t_final=2.0, dt=1e-3)
    assert res.broke
    assert res.t_star == pytest.approx(1.0, rel=0.01)

    mk2 = make_markers((-8.0, 8.0), 2049, steepest, constant(1.2),
                       du0=steepest.derivative)
    sup_w0 = float(np.max(np.sqrt(mk2.alpha ** 2 + mk2.rho ** 2)))
    res2 = evolve_markers(mk2, t_final=10.0, dt=1e-3)
    elapsed = time.monotonic() - t0
    print(f"criterion 8: t* = {res.t_star:.4f}; with density floor "
          f"sup|alpha| = {res2.sup_alpha:.4f} <= {sup_w0:.4f} "
          f"({elapsed:.1f}s)")
    assert not res2.broke
    assert float(np.min(res2.state.J)) > 0.0
    assert res2.sup_alpha <= sup_w0 + 1e-9
    assert elapsed < 10.0


def test_criterion_09_action_gradient_vs_strong_form():
    t0 = time.monotonic()
    rng = np.random.default_rng(7)
    terms = [(rng.uniform(0.1, 0.4), rng.uniform(-1.5, 1.5),
              rng.uniform(0.6, 1.4), rng.uniform(-0.5, 0.5),
              rng.uniform(-0.8, 0.8)) for _ in range(3)]

    def field(tau, y, shift):
        T, Y = np.meshgrid(tau, y, indexing="ij")
        out = np.zeros_like(T)
        for a, y0, w, sp, gr in terms:
            out += (a * np.exp(-((Y - y0 - shift - sp * T) ** 2) / w ** 2)
                    * (1.0 + gr * T))
        return out

    coeffs = SlowCoefficients.from_background(wave_speed(2.0, 1.0),
                                              math.pi / 4, 0.5)
    pairs = []
    for m, n in ((31, 81), (61, 161), (121, 321)):
        tau = np.linspace(0.0, 0.6, m)
        y = np.linspace(-4.0, 4.0, n)
        rep = discrete_el_residual(coeffs, tau[1] - tau[0], y[1] - y[0],
                                   field(tau, y, 0.0),
                                   0.6 * field(tau, y, 0.7), trim=3)
        pairs.append((max(tau[1] - tau[0], y[1] - y[0]),
                      max(rep.gap_u, rep.gap_R)))
    order = fit_order(pairs)
    elapsed = time.monotonic() - t0
    print(f"criterion 9: gradient/strong-form gap order {order:.2f} "
          f"({elapsed:.1f}s)")
    assert order >= 1.7
    assert elapsed < 30.0


def test_criterion_10_slow_scale_reduction():
    t0 = time.monotonic()
    u0 = gaussian(1.0, 0.0, 1.0)
    out = convergence_study(
        flat_point_potential(0.5), wave_speed(2.0, 1.0), math.pi / 4.0, 0.5,
        u0, bump_slope(0.5, 0.0, 1.0),
        epsilons=(0.2, 0.1, 0.05), tau_final=0.5, dx=0.05, marker_dt=2e-3)
    elapsed = time.monotonic() - t0
    errs = out["errors"]
    print(f"criterion 10: errors {[f'{e:.3f}' for e in errs]}, "
          f"order {out['fitted_order']:.3f} ({elapsed:.1f}s)")
    assert out["gauge"] == "C(t)=0"
    assert all(e is not None for e in errs)
    assert errs[0] > errs[1] > errs[2]
    assert out["fitted_order"] >= 0.8
    assert elapsed < 600.0


def test_criterion_11_potential_gate():
    t0 = time.monotonic()
    assert validate_potential(reference_potential()).valid
    assert validate_potential(flat_point_potential(0.5)).valid
    rep = validate_potential(quadratic_potential())
    assert not rep.valid
    failing = [key for key, cl in rep.clauses.items() if not cl.passed]
    assert any("diverg" in key for key in failing)
    with pytest.raises(ConfigError, match="diverg"):
        ensure_valid(quadratic_potential())
    elapsed = time.monotonic() - t0
    print(f"criterion 11: gate decisions correct ({elapsed:.1f}s)")
    assert elapsed < 5.0
