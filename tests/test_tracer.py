"""The benchmark's tracer wraps entrolab functions by name; each must exist."""

import os

PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "perfbench")


def test_tracer_installs_and_uninstalls(monkeypatch):
    monkeypatch.syspath_prepend(PERFBENCH)
    from tracer import _MODULES, TARGETS, Tracer

    originals = {(m, f): getattr(_MODULES[m], f) for m, f, _ in TARGETS}
    tracer = Tracer()
    try:
        tracer.install()
        for (m, f), original in originals.items():
            assert getattr(_MODULES[m], f) is not original
    finally:
        tracer.uninstall()
    for (m, f), original in originals.items():
        assert getattr(_MODULES[m], f) is original


def test_tracer_records_each_layer_of_a_run_and_a_compare(monkeypatch, tmp_path):
    """Spans appear only where callers look a traced name up at call time;
    a name bound at import time would record nothing here."""
    monkeypatch.syspath_prepend(PERFBENCH)
    from tracer import Tracer

    from entrolab import scenarios

    def cfg(engine):
        return {
            "name": engine,
            "space": {"dim": 1, "extent": 12.0, "points": 64},
            "potentials": {"V": {"type": "harmonic", "omega": 1.0}},
            "run": {"engine": engine, "dt": 0.002, "steps": 4, "snapshot_stride": 2},
        }

    tracer = Tracer()
    try:
        tracer.install()
        for engine in ("coupled", "schrodinger"):
            scenarios.run(scenarios.scenario_from_dict(cfg(engine)), str(tmp_path / engine))
        scenarios.compare(str(tmp_path / "coupled"), str(tmp_path / "schrodinger"), ["rho_l2"])
    finally:
        tracer.uninstall()
    recorded = {span.name for span in tracer.spans}
    for name in (
        "scenarios.run",
        "scenarios.compare",
        "dynamics.coupled_step",
        "schrodinger.unitary_step",
        "io.save_scalar_field",
        "io.load_scalar_field",
    ):
        assert name in recorded, name
