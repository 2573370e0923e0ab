"""What importing the package loads, each case in a fresh interpreter.

The package root exports nothing, and no command loads scipy: the kernel
finds its roots by bisection and `compare ks` computes its p-value with
numpy alone.
"""

import json
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


def test_the_cli_and_the_kernel_load_no_scipy():
    loaded = loaded_by("entrolab.cli, entrolab.kernel")
    assert "entrolab.scenarios" in loaded
    assert not {m for m in loaded if m.startswith("scipy")}


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


def test_maxent_audit_and_compare_ks_run_with_scipy_blocked(tmp_path):
    """With scipy blocked in sys.modules, so that importing it raises,
    `maxent-audit` and a small ensemble / fokker-planck pair compared by ks
    run through `cli.main` and exit 0."""
    cfgs = {
        "audit": {
            "space": {"dim": 1, "extent": 10.0, "points": 128},
            "entropy": {"type": "sine", "amplitude": 0.4, "mode": 1},
            "run": {"engine": "fokker-planck", "dt": 0.1 / 40.0, "steps": 5, "seed": 11},
        },
        **{
            engine: {
                "space": {"dim": 1, "extent": 12.0, "points": 64},
                "entropy": {"type": "sine", "amplitude": 0.2, "mode": 1},
                "run": {"engine": engine, "steps": 10, "walkers": 2000, "seed": 5, "dt": 0.002},
            }
            for engine in ("ensemble", "fokker-planck")
        },
    }
    paths = {}
    for name, cfg in cfgs.items():
        paths[name] = str(tmp_path / f"{name}.json")
        with open(paths[name], "w") as fh:
            json.dump({"name": name, **cfg}, fh)
    out = {name: str(tmp_path / name) for name in cfgs}
    runs = [(paths[engine], out[engine]) for engine in ("ensemble", "fokker-planck")]
    code = f"""
import contextlib, io
sys.modules["scipy"] = None
from entrolab import cli
with contextlib.redirect_stdout(io.StringIO()):
    assert cli.main(["maxent-audit", {paths["audit"]!r}, "--trials", "100",
                     "--out", {out["audit"]!r}]) == 0
    for cfg, outdir in {runs!r}:
        assert cli.main(["evolve", cfg, "--out", outdir]) == 0
    assert cli.main(["compare", {out["ensemble"]!r}, {out["fokker-planck"]!r},
                     "--metrics", "ks"]) == 0
"""
    loaded = loaded_by("entrolab", code)
    assert {"entrolab.kernel", "entrolab.ensemble"} <= loaded
