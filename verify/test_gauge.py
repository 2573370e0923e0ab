"""Gauge covariance of the coupled and Cayley engines on a 1D scenario.

Run with the other slow checks as

    PYTHONPATH=src python -m pytest -q verify

`gauge_check` evolves a scenario with beta = 0.7 and a constant A next to
its twin under chi = 0.8 sin(2 pi x / L) and reports the largest density
and phase gaps over 400 steps.  Each gap is bounded by 2 * the value this
code gave when the check was written, and each verdict must be the one it
gave then.  The coupled engine's density gap, 1.26e-7, fails the 1e-8
default: its vacuum phase fill rewrites phi, which is not gauge covariant.
The test pins that gap until the fill is made covariant.
"""

import pytest

from entrolab.scenarios import gauge_check, scenario_from_dict


def cfg(engine):
    return {
        "name": f"gauge-{engine}",
        "space": {"dim": 1, "extent": 20.0, "points": 256},
        "params": {"eta": 1.0, "tau": 0.1, "masses": 1.0, "beta": 0.7},
        "initial": {"type": "gaussian", "center": -2.0, "width": 1.0, "momentum": 0.5},
        "potentials": {
            "V": {"type": "harmonic", "omega": 1.0},
            "A": {"type": "constant", "value": 0.4},
        },
        "run": {"engine": engine, "steps": 400, "snapshot_stride": 50},
    }


@pytest.mark.parametrize(
    "engine, rho_gap, phase_gap, passed",
    [("coupled", 1.2638e-7, 4.3004e-6, False), ("schrodinger", 1.2129e-14, 1.2092e-14, True)],
)
def test_gauge_twin_gaps(engine, rho_gap, phase_gap, passed, tmp_path):
    rep = gauge_check(scenario_from_dict(cfg(engine)), chi_amplitude=0.8, chi_mode=1, outdir=str(tmp_path))
    assert rep["dt"] == pytest.approx(2.4001536e-3, rel=1e-6)
    assert rep["rho_gap_max"] <= 2 * rho_gap
    assert rep["phase_gap_max"] <= 2 * phase_gap
    assert rep["passed"] is passed
