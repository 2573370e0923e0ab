"""The benchmark's tracer wraps entrolab functions by name; each must exist."""

import ast
import importlib
import os

import numpy as np

PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "perfbench")


def test_every_name_the_benchmark_looks_up_exists():
    """`--trace 1` wraps each (module, function) of perfbench/tracer.py's
    TARGETS, and perfbench/micro.py builds params with
    PhysicalParams.from_masses.  The targets are read from the file's text,
    so deleting a name the benchmark needs fails here, not only in CI."""
    with open(os.path.join(PERFBENCH, "tracer.py")) as fh:
        tree = ast.parse(fh.read())
    (node,) = [n for n in tree.body if isinstance(n, ast.Assign)
               and any(getattr(t, "id", None) == "TARGETS" for t in n.targets)]
    targets = [(row.elts[0].value, row.elts[1].value) for row in node.value.elts]
    assert ("schrodinger", "nonlinear_step") in targets
    for module, name in targets:
        owner = importlib.import_module(module if module == "numpy" else f"entrolab.{module}")
        assert callable(getattr(owner, name, None)), f"{module}.{name}"

    from entrolab.fields import PhysicalParams

    built = PhysicalParams.from_masses(masses=(1.0, 2.0), eta=0.5, tau=0.2, beta=0.7)
    assert np.array_equal(built.masses, [1.0, 2.0]) and built.sigma_sq == (0.1, 0.05)


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
    a name bound at import time would record nothing here.  V is a
    hand-written CSV input, so the CSV reader is traced too."""
    monkeypatch.syspath_prepend(PERFBENCH)
    from tracer import Tracer

    from entrolab import scenarios
    from entrolab.fields import ScalarField

    from conftest import write_grid_csv

    grid = {"dim": 1, "extent": 12.0, "points": 64}
    space = scenarios.scenario_from_dict(
        {"name": "grid", "space": grid, "run": {"engine": "coupled"}}).space
    v_path = str(tmp_path / "V.csv")
    write_grid_csv(v_path, ScalarField(space, 0.5 * space.meshes[0] ** 2))

    def cfg(engine):
        return {
            "name": engine,
            "space": grid,
            "potentials": {"V": {"type": "file", "file": v_path}},
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
        "numpy.loadtxt",
    ):
        assert name in recorded, name
