"""Scaling audit toward the classical limit on a 1D harmonic scenario.

Run with the other slow checks as

    PYTHONPATH=src python -m pytest -q verify

`classical_limit` sweeps one coupling and reports the Hamilton-Jacobi
residual of one coupled step and the walker noise variance per unit time.
The eta sweep must show the residual quadratic in eta and the variance
linear in it; the mu sweep must show the residual vanishing with the
osmotic coupling while the variance stays put.  Each reported value is
bounded by 2 * the value this code gave when the check was written, and
each check's verdict must be the one it gave then.
"""

import pytest

from entrolab.scenarios import classical_limit, scenario_from_dict

CFG = {
    "name": "classical-sweep",
    "space": {"dim": 1, "extent": 20.0, "points": 256},
    "params": {"eta": 1.0, "tau": 0.1, "masses": 1.0},
    "initial": {"type": "gaussian", "center": 0.0, "width": 1.0, "momentum": 0.3},
    "potentials": {"V": {"type": "harmonic", "omega": 1.0}},
    "run": {"engine": "coupled", "steps": 10, "walkers": 200000, "seed": 7},
}


def assert_within_twice(values, written):
    assert len(values) == len(written)
    for value, w in zip(values, written):
        assert 0.0 <= value <= 2 * w


@pytest.fixture(scope="module")
def scenario():
    return scenario_from_dict(CFG)


def test_eta_sweep_residual_quadratic_and_variance_linear(scenario):
    rep = classical_limit(scenario, eta_scales=(1.0, 0.5, 0.25))
    checks = rep["checks"]
    assert checks["residual_quadratic_in_eta"]["passed"]
    assert checks["residual_quadratic_in_eta"]["value"] <= 2 * 8.4975e-7
    assert checks["variance_linear_in_eta"]["passed"]
    assert checks["variance_linear_in_eta"]["value"] <= 2 * 2.2205e-16  # one ulp
    assert_within_twice(rep["residuals"], [2.163685e-1, 5.409216e-2, 1.352304e-2])
    assert_within_twice([v[0] for v in rep["variances"]], [9.975366e-1, 4.987683e-1, 2.493841e-1])
    assert rep["passed"]


def test_mu_sweep_residual_vanishes_and_variance_persists(scenario):
    rep = classical_limit(scenario, mu_scales=(1.0, 0.5, 0.25, 0.125))
    checks = rep["checks"]
    assert checks["residual_vanishes_with_mu"]["passed"]
    assert checks["residual_vanishes_with_mu"]["value"] <= 2 * 0.12499967
    assert checks["variance_persists"]["passed"]
    assert checks["variance_persists"]["value"] == 0.0  # mu never enters the walker step
    assert_within_twice(
        rep["residuals"], [2.163685e-1, 1.081842e-1, 5.409206e-2, 2.704599e-2]
    )
    assert rep["passed"]
