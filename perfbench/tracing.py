"""Spans around varwave's public functions, recorded from outside the package.

`Tracer.install()` replaces module attributes such as
`varwave.quasilinear.interpolate` with wrappers that open a span on entry
and close it on return; `uninstall()` restores the originals.  The package
source is never edited.  Spans live in flat in-memory arrays (name, start,
end, parent span, iteration, points) and are written out once, after the
timed part of a run.

A few wrappers also read the value a call returns (fixed-point traces,
Picard traces, marker step counts, certified windows), so that counts and
ratios are taken where the work happens.
"""

from __future__ import annotations

import dataclasses
import importlib
import math
import time
from array import array
from collections import defaultdict
from typing import Dict, List

import numpy as np

# (module, attribute, span name).  One function imported into several
# modules is wrapped at every binding the package calls it through.
WRAPPED = (
    ("quasilinear", "interpolate", "fields.interpolate"),
    ("asymptotic", "interpolate", "fields.interpolate"),
    ("asymptotic", "centered_derivative", "fields.centered_derivative"),
    ("diagnostics", "centered_derivative", "fields.centered_derivative"),
    ("fields", "centered_derivative", "fields.centered_derivative"),
    ("quasilinear", "centered_derivative", "fields.centered_derivative"),
    ("semilinear", "centered_derivative", "fields.centered_derivative"),
    ("quasilinear", "transport_step", "quasilinear.transport_step"),
    ("quasilinear", "rhs_sources", "quasilinear.rhs_sources"),
    ("quasilinear", "fixpoint_solve", "quasilinear.fixpoint_solve"),
    ("asymptotic", "advance", "quasilinear.advance"),
    ("cli", "advance", "quasilinear.advance"),
    ("cli", "picard_solve", "semilinear.picard_solve"),
    ("semilinear", "picard_solve", "semilinear.picard_solve"),
    ("semilinear", "free_wave", "semilinear.free_wave"),
    ("semilinear", "source_term", "semilinear.source_term"),
    ("cli", "contraction_window", "semilinear.contraction_window"),
    ("semilinear", "contraction_window", "semilinear.contraction_window"),
    ("potentials", "rational_potential", "potentials.build"),
    ("cli", "validate_potential", "potentials.validate"),
    ("potentials", "validate_potential", "potentials.validate"),
    ("cli", "apriori_constants", "potentials.apriori"),
    ("semilinear", "apriori_constants", "potentials.apriori"),
    ("hunter_saxton", "marker_rhs", "hunter_saxton.marker_rhs"),
    ("cli", "evolve_markers", "hunter_saxton.evolve_markers"),
    ("asymptotic", "evolve_markers", "hunter_saxton.evolve_markers"),
    ("cli", "make_markers", "hunter_saxton.make_markers"),
    ("asymptotic", "make_markers", "hunter_saxton.make_markers"),
    ("asymptotic", "sample_eulerian", "hunter_saxton.sample_eulerian"),
    ("cli", "convergence_study", "asymptotic.convergence_study"),
    ("asymptotic", "embed", "asymptotic.embed"),
    ("asymptotic", "extract", "asymptotic.extract"),
    ("quasilinear", "energy_density_polar", "diagnostics.energy_density"),
    ("cli", "energy_density_complex", "diagnostics.energy_density"),
    ("semilinear", "energy_density_complex", "diagnostics.energy_density"),
    ("quasilinear", "conservation_residuals",
     "diagnostics.conservation_residuals"),
    ("semilinear", "conservation_residuals",
     "diagnostics.conservation_residuals"),
    ("cli", "load_config", "config.load_config"),
    ("cli", "write_energy_csv", "cli.write"),
    ("cli", "write_snapshot_csv", "cli.write"),
    ("cli", "write_polar_snapshot_csv", "cli.write"),
    ("cli", "_write_text", "cli.write"),
)

# argument position whose size is recorded as the span's point count
_POINTS_ARG = {"fields.interpolate": 2}

_EVALS = ("eval_0", "eval_1", "eval_2", "eval_3", "eval_4")


class SpanStore:
    """Flat arrays of spans; parents come from a stack of open spans."""

    def __init__(self):
        self.names: List[str] = []
        self._ids: Dict[str, int] = {}
        self.name_id = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.iteration = array("i")
        self.points = array("q")
        self._open: List[int] = []
        self.current_iteration = -1

    def open(self, name: str, points: int = 0) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        idx = len(self.start)
        self.name_id.append(nid)
        self.parent.append(self._open[-1] if self._open else -1)
        self.iteration.append(self.current_iteration)
        self.points.append(points)
        self.end.append(math.nan)
        self._open.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def close(self, idx: int):
        self.end[idx] = time.perf_counter()
        self._open.pop()

    def arrays(self) -> Dict[str, np.ndarray]:
        return {
            "names": np.array(self.names),
            "name_id": np.frombuffer(self.name_id, dtype=np.int32),
            "start": np.frombuffer(self.start, dtype=np.float64),
            "end": np.frombuffer(self.end, dtype=np.float64),
            "parent": np.frombuffer(self.parent, dtype=np.int32),
            "iteration": np.frombuffer(self.iteration, dtype=np.int32),
            "points": np.frombuffer(self.points, dtype=np.int64),
        }

    def save(self, path: str):
        np.savez(path, **self.arrays())


def self_times(a: Dict[str, np.ndarray]) -> np.ndarray:
    """Duration of each span minus the part its direct children cover."""
    dur = a["end"] - a["start"]
    has_parent = a["parent"] >= 0
    covered = np.bincount(a["parent"][has_parent], weights=dur[has_parent],
                          minlength=dur.size)
    return dur - covered


class Tracer:
    """Installs the wrappers and collects what the wrapped calls return."""

    def __init__(self, store: SpanStore):
        self.store = store
        self._saved = []
        # per iteration: values read from returned objects
        self.notes: Dict[int, Dict[str, float]] = defaultdict(
            lambda: defaultdict(float))
        self._certified = math.nan

    def _note(self, key: str, value: float):
        self.notes[self.store.current_iteration][key] += value

    def _span(self, name: str, fn):
        store = self.store
        points_arg = _POINTS_ARG.get(name)
        after = {
            "quasilinear.fixpoint_solve": self._after_fixpoint,
            "semilinear.picard_solve": self._after_picard,
            "semilinear.contraction_window": self._after_certified,
            "hunter_saxton.evolve_markers": self._after_markers,
            "potentials.build": self._after_potential,
        }.get(name)
        wrap_observer = name == "hunter_saxton.evolve_markers"

        def wrapper(*args, **kwargs):
            points = int(np.size(args[points_arg])) if points_arg else 0
            if wrap_observer and kwargs.get("observer") is not None:
                kwargs["observer"] = self._span("cli.write", kwargs["observer"])
            idx = store.open(name, points)
            try:
                out = fn(*args, **kwargs)
            finally:
                store.close(idx)
            if after is not None:
                out = after(out, args, kwargs)
            return out

        return wrapper

    def _eval_span(self, fn):
        store = self.store

        def ev(s):
            idx = store.open("potentials.eval", int(np.size(s)))
            try:
                return fn(s)
            finally:
                store.close(idx)

        return ev

    # -- readers of returned values ---------------------------------------

    def _after_fixpoint(self, out, args, kwargs):
        trace = out[2]
        self._note("quasilinear.windows", 1)
        self._note("quasilinear.sweeps", len(trace.diff_norms))
        self._note("quasilinear.halvings", trace.halvings)
        self._note("quasilinear.accepted_steps", trace.steps)
        return out

    def _after_picard(self, out, args, kwargs):
        cfg = args[2]
        used = max(1, int(math.floor(cfg.T_window / cfg.dt + 1e-9))) * cfg.dt
        self._note("semilinear.windows", len(out.trace.diff_norms))
        self._note("semilinear.picard_iters", out.trace.iterate_count)
        if math.isfinite(self._certified) and self._certified > 0.0:
            self._note("semilinear.window_over_certified",
                       used / self._certified)
        return out

    def _after_certified(self, out, args, kwargs):
        self._certified = float(out)
        return out

    def _after_markers(self, out, args, kwargs):
        self._note("hunter_saxton.steps", len(out.energy_history) - 1)
        return out

    def _after_potential(self, out, args, kwargs):
        return dataclasses.replace(out, **{
            key: self._eval_span(getattr(out, key)) for key in _EVALS})

    # -- installation -----------------------------------------------------

    def install(self):
        for mod_name, attr, span in WRAPPED:
            mod = importlib.import_module("varwave." + mod_name)
            orig = getattr(mod, attr)
            self._saved.append((mod, attr, orig))
            setattr(mod, attr, self._span(span, orig))

    def uninstall(self):
        for mod, attr, orig in reversed(self._saved):
            setattr(mod, attr, orig)
        self._saved.clear()
