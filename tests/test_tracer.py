"""The benchmark tracer in perfbench/ wraps module attributes of varwave by
name; every one it names must stay bound, install/uninstall must leave the
package as it found it, and what it reads off returned values must match
the results."""

import importlib
import importlib.util
import math
from pathlib import Path

import numpy as np

from varwave import (ComplexField, Grid1D, PolarState, QuasilinearConfig,
                     SemilinearConfig, constant, ensure_valid,
                     flat_point_potential, make_markers, reference_potential,
                     wave_speed)

_TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", _TRACING)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def _bindings(wrapped):
    return [(importlib.import_module("varwave." + mod), attr)
            for mod, attr, _ in wrapped]


def test_every_wrapped_attribute_is_bound():
    tracing = _load_tracing()
    missing = [f"varwave.{m.__name__.split('.')[-1]}.{a}"
               for m, a in _bindings(tracing.WRAPPED) if not hasattr(m, a)]
    assert missing == []


def test_install_then_uninstall_restores_the_originals():
    tracing = _load_tracing()
    bindings = _bindings(tracing.WRAPPED)
    originals = [getattr(m, a) for m, a in bindings]
    tracer = tracing.Tracer(tracing.SpanStore())
    tracer.install()
    try:
        assert all(getattr(m, a) is not orig
                   for (m, a), orig in zip(bindings, originals))
    finally:
        tracer.uninstall()
    assert all(getattr(m, a) is orig for (m, a), orig in zip(bindings, originals))


def test_notes_match_the_results_of_traced_runs():
    # the solvers run through the cli module's bindings, as the CLI runs them
    cli = importlib.import_module("varwave.cli")
    tracing = _load_tracing()
    tracer = tracing.Tracer(tracing.SpanStore())
    tracer.install()
    try:
        g = Grid1D(-8.0, 8.0, 129)
        bump = np.exp(-g.nodes ** 2)
        ws = wave_speed(2.0, 1.0)
        z = np.zeros(g.n)
        st = PolarState.from_primitives(
            g, math.pi / 4.0 + 0.1 * bump, 0.5 + 0.05 * bump, z, z, ws,
            far_field=(math.pi / 4.0, 0.5))
        qcfg = QuasilinearConfig(dt=0.8 * g.dx / ws.c_max)
        qres = cli.advance(st, flat_point_potential(0.5), ws, qcfg,
                           12 * qcfg.dt)
        f0 = ComplexField(g, (0.1 * bump).astype(complex),
                          np.zeros(g.n, complex))
        scfg = SemilinearConfig.aligned(g, 1.0, T_window=4 * g.dx)
        sres = cli.picard_solve(f0, ensure_valid(reference_potential()), scfg,
                                12 * g.dx)
        markers = make_markers((-4.0, 4.0), 65, lambda x: -0.5 * x,
                               constant(0.5),
                               du0=lambda x: np.full_like(x, -0.5))
        mres = cli.evolve_markers(markers, 0.01, 1e-3)
    finally:
        tracer.uninstall()
    notes = tracer.notes[tracer.store.current_iteration]
    assert len(qres.traces) > 1
    assert notes["quasilinear.windows"] == len(qres.traces)
    assert notes["quasilinear.accepted_steps"] == sum(
        t.steps for t in qres.traces) == 12
    assert notes["quasilinear.sweeps"] == sum(
        len(t.diff_norms) for t in qres.traces)
    # one trace per step, so the sweeps note counts fixed-point passes
    store = tracer.store
    passes = store.names.index("quasilinear.transport_step")
    assert notes["quasilinear.sweeps"] == sum(
        nid == passes for nid in store.name_id)
    assert notes["quasilinear.halvings"] == 0
    assert notes["semilinear.windows"] == len(sres.trace.diff_norms) == 3
    assert notes["semilinear.picard_iters"] == sres.trace.iterate_count
    assert notes["hunter_saxton.steps"] == len(mres.energy_history) - 1 == 10
    # each RK4 step evaluates the right-hand side through the wrapped
    # module binding, once per stage
    rhs = store.names.index("hunter_saxton.marker_rhs")
    assert sum(nid == rhs for nid in store.name_id) == 4 * 10
