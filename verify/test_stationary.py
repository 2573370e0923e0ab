"""A resting packet is held in place by the entropy its own state defines.

Run with the other slow checks as

    PYTHONPATH=src python -m pytest -q verify

With S = phi + log sqrt(rho) (`entropy: from_initial`) the Fokker-Planck
drift of a packet at rest, phi = 0, balances its diffusion, so the density
stays where it started.  A uniform entropy has no drift and lets the same
packet spread.  The setting is 1D, 256 points on an extent of 20, a width-1
Gaussian at rest, 500 fokker-planck steps at dt 0.002.  The L1 drift of the
density from the start is bounded by 2 * the value this code gave when the
check was written (0.0146); a uniform entropy moved it by 0.332.
"""

import os

from entrolab import io
from entrolab.fields import l1_distance
from entrolab.scenarios import run, scenario_from_dict


def l1_drift(tmp_path, entropy):
    sc = scenario_from_dict({
        "name": f"rest-{entropy}",
        "space": {"dim": 1, "extent": 20.0, "points": 256},
        "params": {"eta": 1.0, "tau": 0.1, "masses": 1.0},
        "entropy": {"type": entropy},
        "initial": {"type": "gaussian", "center": 0.0, "width": 1.0},
        "potentials": {},
        "run": {"engine": "fokker-planck", "dt": 0.002, "steps": 500, "snapshot_stride": 500},
    })
    outdir = str(tmp_path / entropy)
    assert run(sc, outdir)["passed"]
    final = io.load_scalar_field(os.path.join(outdir, "rho_000001.npy"))
    return l1_distance(final, sc.initial.rho)


def test_entropy_from_the_initial_state_holds_a_resting_packet(tmp_path):
    assert l1_drift(tmp_path, "from_initial") <= 2 * 0.0146
    # without that entropy the same packet spreads by an order of magnitude more
    assert l1_drift(tmp_path, "uniform") >= 0.5 * 0.332
