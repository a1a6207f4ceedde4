"""The one observer seam of the three time-marching solvers.

Each solver calls `observer` with the initial state and then with each
accepted level, in time order, and never changes a state it handed over.
"""

import math

import numpy as np
import pytest

from varwave import (ComplexField, Grid1D, PolarState, QuasilinearConfig,
                     SemilinearConfig, advance, constant, evolve_markers,
                     flat_point_potential, gaussian, make_markers,
                     picard_solve, reference_potential, wave_speed)
from varwave.profiles import zero


def _complex_parts(f):
    return f.time, f.zeta, f.zeta_t


def _polar_parts(st):
    return st.time, st.U


def _marker_parts(m):
    return m.time, m.x, m.u, m.alpha, m.rho, m.J


def _picard(observer):
    g = Grid1D(-8.0, 8.0, 129)
    zeta = (0.2 * np.exp(-g.nodes ** 2)).astype(complex)
    f0 = ComplexField(g, zeta, np.zeros(g.n, complex))
    cfg = SemilinearConfig.aligned(g, 1.0, T_window=0.25)
    steps = 7  # three windows of two steps and a partial one
    res = picard_solve(f0, reference_potential(), cfg, steps * cfg.dt,
                       observer=observer)
    return steps, [r.time for r in res.energy_reports], res.field


def _advance(observer):
    g = Grid1D(-8.0, 8.0, 129)
    ws = wave_speed(2.0, 1.0)
    psi = math.pi / 4.0 + 0.1 * np.exp(-g.nodes ** 2)
    z = np.zeros(g.n)
    st = PolarState.from_primitives(g, psi, np.full(g.n, 0.5), z, z, ws,
                                    far_field=(math.pi / 4.0, 0.5))
    cfg = QuasilinearConfig.cfl(g, ws, 0.8, T_local=0.1)
    steps = 12
    res = advance(st, flat_point_potential(0.5), ws, cfg, steps * cfg.dt,
                  observer=observer)
    assert len(res.traces) > 1
    return steps, [r.time for r in res.energy_reports], res.state


def _markers(observer):
    st = make_markers((-2.0, 2.0), 32, gaussian(0.2), constant(0.5))
    res = evolve_markers(st, t_final=0.5, dt=0.01, observer=observer)
    assert not res.broke and res.state.time == pytest.approx(0.5)
    return 50, [t for t, _ in res.energy_history], res.state


def _markers_breaking(observer):
    # steepest slope -2 with rho = 0 breaks at t = 1: the run stops at the
    # last healthy level, and that is the last one observed
    amp = math.sqrt(2.0) * math.exp(0.5)
    u0 = gaussian(amp, 0.0, 1.0)
    st = make_markers((-4.5, 4.5), 128, u0, zero(), du0=u0.derivative)
    res = evolve_markers(st, t_final=2.0, dt=0.01, observer=observer)
    assert res.broke and res.state.time < res.t_star < 2.0
    return (int(round(res.state.time / 0.01)),
            [t for t, _ in res.energy_history], res.state)


@pytest.mark.parametrize("run, parts", [
    (_picard, _complex_parts),
    (_advance, _polar_parts),
    (_markers, _marker_parts),
    (_markers_breaking, _marker_parts),
], ids=["picard_solve", "advance", "evolve_markers",
        "evolve_markers_breaking"])
def test_observer_sees_every_level_once(run, parts):
    seen, copies = [], []

    def observer(state):
        seen.append(state)
        copies.append([np.copy(a) for a in parts(state)])

    steps, report_times, final = run(observer)
    assert len(seen) == steps + 1
    assert [parts(s)[0] for s in seen] == report_times
    # no state was changed after it was handed over
    for state, then in zip(seen, copies):
        for now, was in zip(parts(state), then):
            assert np.array_equal(now, was)
    # the last level observed is the result's final state, bit for bit
    for last, end in zip(parts(seen[-1]), parts(final)):
        assert np.array_equal(last, end)
