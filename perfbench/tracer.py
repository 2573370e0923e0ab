"""Span tracing from outside the program.

`Tracer.install()` replaces each traced public function with a wrapper at
the module attribute where its callers look it up, so nothing under `src/`
changes.  Callers that resolve the name at call time, such as
`coupled_step` calling `dynamics.coupled_stability_limit`, get nested spans.

A span records its name, start, end, parent span and repetition id.  Spans
are kept in memory and reduced to per-layer metrics when the run ends.  A
layer's self time is its span's duration minus its children's; the program
is single-threaded, so children never overlap.
"""

from __future__ import annotations

import os
import statistics
import time
from dataclasses import dataclass, field

import numpy as np

from entrolab import dynamics, ensemble, fokker_planck, io, scenarios, schrodinger

_MODULES = {
    "scenarios": scenarios,
    "dynamics": dynamics,
    "schrodinger": schrodinger,
    "ensemble": ensemble,
    "fokker_planck": fokker_planck,
    "io": io,
    "numpy": np,
}

TIMING = ("calls", "self_s", "p50_ms", "p95_ms")
IO_STATS = ("calls", "self_s", "bytes", "mb_per_s")

# (module, function, stats).  `fields` is not wrapped: its stencils are
# imported by name into every caller and are timed inside them.
TARGETS = (
    ("scenarios", "load_scenario", ("self_s",)),
    ("scenarios", "run", ("self_s",)),
    ("scenarios", "compare", ("self_s",)),
    ("scenarios", "gauge_check", ("self_s",)),
    ("dynamics", "coupled_step", TIMING),
    ("dynamics", "coupled_stability_limit", ("calls", "self_s")),
    ("dynamics", "energy", ("self_s",)),
    ("schrodinger", "unitary_step", TIMING),
    ("schrodinger", "nonlinear_step", TIMING),
    ("schrodinger", "from_wavefunction", ("self_s",)),
    ("schrodinger", "wavefunction_energy_breakdown", ("self_s",)),
    ("ensemble", "step_ensemble", ("calls", "self_s", "p50_ms", "walker_steps_per_s")),
    ("ensemble", "estimate_density", ("self_s",)),
    ("fokker_planck", "fp_step", TIMING),
    ("fokker_planck", "fp_stability_limit", ("self_s",)),
    ("io", "save_scalar_field", IO_STATS),
    ("io", "save_complex_field", IO_STATS),
    ("io", "save_series", IO_STATS),
    ("io", "save_summary", IO_STATS),
    ("numpy", "savetxt", IO_STATS),
    ("io", "load_scalar_field", IO_STATS),
    ("io", "load_vector_field", IO_STATS),
    ("io", "load_series", IO_STATS),
    ("numpy", "loadtxt", IO_STATS),
)

# self-time share of each layer; numpy.savetxt/loadtxt count as io
LAYERS = ("scenarios", "dynamics", "schrodinger", "ensemble", "fokker_planck", "io")

UNITS = {
    "calls": "count",
    "self_s": "s",
    "p50_ms": "ms",
    "p95_ms": "ms",
    "bytes": "bytes",
    "mb_per_s": "MB/s",
    "walker_steps_per_s": "1/s",
    "self_frac": "fraction",
}


def metric_names():
    """Per-layer metric names and units, in reporting order."""
    names = [(f"{m}.{f}.{s}", UNITS[s]) for m, f, stats in TARGETS for s in stats]
    names += [(f"{layer}.self_frac", UNITS["self_frac"]) for layer in LAYERS]
    names.append(("trace.overhead_frac", "fraction"))
    return names


def _file_bytes(path):
    total = 0
    for p in (os.fspath(path), os.fspath(path) + ".meta.json"):
        if os.path.exists(p):
            total += os.path.getsize(p)
    return total


@dataclass
class Span:
    name: str
    start: float
    rep: int
    parent: int | None
    end: float = 0.0
    child_s: float = 0.0
    bytes: int = 0
    walkers: int = 0


@dataclass
class Tracer:
    spans: list = field(default_factory=list)
    rep: int = 0
    _stack: list = field(default_factory=list)
    _saved: list = field(default_factory=list)

    def _wrap(self, name, fn, is_io):
        def traced(*args, **kwargs):
            parent = self._stack[-1] if self._stack else None
            span = Span(name, 0.0, self.rep, parent)
            self.spans.append(span)
            self._stack.append(len(self.spans) - 1)
            span.start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                self._stack.pop()
                if parent is not None:
                    self.spans[parent].child_s += span.end - span.start
                if is_io and args and isinstance(args[0], (str, os.PathLike)):
                    span.bytes = _file_bytes(args[0])
                if name == "ensemble.step_ensemble":
                    span.walkers = args[0].walkers

        return traced

    def install(self):
        for mod_name, fn_name, stats in TARGETS:
            module = _MODULES[mod_name]
            original = getattr(module, fn_name)
            self._saved.append((module, fn_name, original))
            wrapper = self._wrap(f"{mod_name}.{fn_name}", original, "bytes" in stats)
            setattr(module, fn_name, wrapper)

    def uninstall(self):
        while self._saved:
            module, fn_name, original = self._saved.pop()
            setattr(module, fn_name, original)

    def metrics(self, reps, traced_wall_s):
        """Per-repetition layer metrics from the spans of `reps` repetitions."""
        by_name = {}
        for span in self.spans:
            by_name.setdefault(span.name, []).append(span)
        out = {}
        layer_self = dict.fromkeys(LAYERS, 0.0)
        for mod_name, fn_name, stats in TARGETS:
            name = f"{mod_name}.{fn_name}"
            spans = by_name.get(name, [])
            durations = [s.end - s.start for s in spans]
            self_s = sum(d - s.child_s for d, s in zip(durations, spans)) / reps
            layer = "io" if mod_name == "numpy" else mod_name
            layer_self[layer] += self_s
            total_s = sum(durations)
            values = {
                "calls": len(spans) / reps,
                "self_s": self_s,
                "p50_ms": 1e3 * statistics.median(durations) if durations else 0.0,
                "p95_ms": 1e3 * float(np.percentile(durations, 95)) if durations else 0.0,
                "bytes": sum(s.bytes for s in spans) / reps,
                "mb_per_s": sum(s.bytes for s in spans) / 1e6 / total_s if total_s else 0.0,
                "walker_steps_per_s": sum(s.walkers for s in spans) / total_s if total_s else 0.0,
            }
            for stat in stats:
                out[f"{name}.{stat}"] = values[stat]
        for layer in LAYERS:
            out[f"{layer}.self_frac"] = layer_self[layer] / traced_wall_s
        return out
