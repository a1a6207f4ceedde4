"""The benchmark tracer in perfbench/ wraps module attributes of varwave by
name; every one it names must stay bound, and install/uninstall must leave
the package as it found it."""

import importlib
import importlib.util
from pathlib import Path

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
