"""What importing the package loads, each case in a fresh interpreter.

The package root exports nothing, and scipy is loaded only by the one
command that uses it, `maxent-audit` (the kernel's root finder); `compare ks`
computes its p-value with numpy alone.
"""

import os
import subprocess
import sys

import entrolab

SRC = os.path.dirname(os.path.dirname(os.path.abspath(entrolab.__file__)))


def loaded_by(module, code=""):
    """The names in sys.modules after a fresh interpreter imports `module`
    and runs `code`."""
    path = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
    out = subprocess.run(
        [sys.executable, "-c", f"import sys, {module}\n{code}\nprint(*sorted(sys.modules))"],
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True,
        text=True,
        check=True,
    )
    return set(out.stdout.split())


def test_the_package_root_loads_no_submodule():
    assert not {m for m in loaded_by("entrolab") if m.startswith("entrolab.")}


def test_the_cli_loads_no_scipy_stats_optimize_or_kernel():
    loaded = loaded_by("entrolab.cli")
    assert "entrolab.scenarios" in loaded
    assert not loaded & {"scipy.stats", "scipy.optimize", "entrolab.kernel"}


def test_compare_ks_loads_no_scipy(tmp_path):
    """A small ensemble / fokker-planck pair, run and then compared by ks
    through the API and the CLI in one fresh interpreter, passes without
    loading any scipy module."""
    ens, fp = str(tmp_path / "ensemble"), str(tmp_path / "fokker-planck")
    code = f"""
import contextlib, io
from entrolab import cli
from entrolab.scenarios import compare, run, scenario_from_dict
for engine, out in (("ensemble", {ens!r}), ("fokker-planck", {fp!r})):
    run(scenario_from_dict({{
        "name": engine,
        "space": {{"dim": 1, "extent": 12.0, "points": 64}},
        "entropy": {{"type": "sine", "amplitude": 0.2, "mode": 1}},
        "run": {{"engine": engine, "steps": 10, "walkers": 2000, "seed": 5, "dt": 0.002}},
    }}), out)
assert compare({ens!r}, {fp!r}, ["ks"]).passed
with contextlib.redirect_stdout(io.StringIO()):
    assert cli.main(["compare", {ens!r}, {fp!r}, "--metrics", "ks"]) == 0
"""
    loaded = loaded_by("entrolab.scenarios", code)
    assert "entrolab.ensemble" in loaded
    assert not {m for m in loaded if m.startswith("scipy")}
