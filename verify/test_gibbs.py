"""Maximum-entropy optimality of the exact one-step kernel.

Run with the other slow checks as

    PYTHONPATH=src python -m pytest -q verify

`maxent_audit` builds the kernel at the box centre of a 1D sine-entropy
scenario and tries 1000 constrained perturbations of it.  The largest
entropy gain of a perturbation, `max_gap`, is negative when none beats the
kernel.  Each gap is bounded by half its value when the check was written
(at most twice as close to zero), and each verdict must be the one it gave
then.
"""

import pytest

from entrolab.scenarios import maxent_audit, scenario_from_dict


def cfg(name, amplitude, mode, dt):
    return {
        "name": name,
        "space": {"dim": 1, "extent": 10.0, "points": 128},
        "params": {"eta": 1.0, "tau": 0.1, "masses": 1.0},
        "entropy": {"type": "sine", "amplitude": amplitude, "mode": mode},
        "initial": {"type": "uniform"},
        "potentials": {},
        "run": {"engine": "fokker-planck", "dt": dt, "steps": 10, "seed": 11},
    }


@pytest.mark.parametrize(
    "name, amplitude, mode, alpha, max_gap",
    [("gibbs-a", 0.4, 1, 40.0, -6.4110e-6), ("gibbs-b", 0.2, 2, 150.0, -5.9459e-10)],
)
def test_exact_kernel_beats_every_perturbation(name, amplitude, mode, alpha, max_gap):
    sc = scenario_from_dict(cfg(name, amplitude, mode, 0.1 / alpha))
    rep = maxent_audit(sc, trials=1000, tolerance=1e-9)
    assert rep["alpha"] == pytest.approx(alpha, rel=1e-12)
    assert rep["skipped"] == 0
    assert rep["max_gap"] <= 0.5 * max_gap
    assert rep["passed"]
