"""What importing the package loads, each case in a fresh interpreter.

The package root exports nothing, and scipy is loaded only by the two
commands that use it (`compare ks` and `maxent-audit`).
"""

import os
import subprocess
import sys

import entrolab

SRC = os.path.dirname(os.path.dirname(os.path.abspath(entrolab.__file__)))


def loaded_by(module):
    """The names in sys.modules after a fresh interpreter imports `module`."""
    path = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
    out = subprocess.run(
        [sys.executable, "-c", f"import sys, {module}; print(*sorted(sys.modules))"],
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
