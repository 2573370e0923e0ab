"""2D accuracy of the coupled and Cayley engines against a spectral reference.

Slow (a few seconds) and outside the tier-1 testpaths; run it as

    PYTHONPATH=src python -m pytest -q verify/test_reference_2d.py

The input is the `coupled-2d` benchmark physics without its jitter: a 128^2
periodic box of extent 20, the harmonic well omega = 1, a width-1 Gaussian
packet at (-2, 0) with momentum (0.3, 0), 200 steps of dt = 5.96e-3 with a
snapshot every 50.  The reference is Strang split-step Fourier with
eta = m = 1: a half kick exp(-i V h/2), the exact kinetic phase
exp(-i k^2 h/2) by FFT, another half kick, 200 substeps h per snapshot
interval.  Its own time error is far below the engines' spatial error, so
each engine's density L2 gap to it (the `rho_l2` metric) is that engine's
error.  Each bound is 2 * the value this code gave when the check was
written, so a change that more than doubles an engine's error fails.
"""

import math

import numpy as np
import pytest

from entrolab import io
from entrolab.fields import ScalarField, l2_distance
from entrolab.scenarios import run, scenario_from_dict

DT, STEPS, STRIDE = 5.96e-3, 200, 50
SUBSTEPS = 200  # reference substeps per snapshot interval

# rho_l2 against the reference at t = 0, 0.298, 0.596, 0.894 and 1.192.  At
# t = 0 both sides hold the same Gaussian, normalized two ways; that gap is
# bounded by ROUNDING, not by twice its value.
ERROR = {
    "coupled": (7.0e-17, 3.16e-4, 1.13e-3, 2.70e-3, 4.41e-3),
    "schrodinger": (5.7e-17, 2.59e-4, 1.40e-3, 5.27e-3, 1.58e-2),
}
ROUNDING = 1e-15
# The reference's largest move when h is halved (at t = 1.192) was 1.33e-7,
# four orders below the engines' errors; the engines' own dt (50 substeps per
# interval) moves it 2.7e-6.
REFERENCE_TIME_ERROR = 2 * 1.33e-7


def scenario(engine):
    return scenario_from_dict({
        "name": f"reference-2d-{engine}",
        "space": {"dim": 2, "extent": 20.0, "points": 128, "boundary": "periodic"},
        "params": {"eta": 1.0, "tau": 0.1, "masses": 1.0},
        "initial": {"type": "gaussian", "center": [-2.0, 0.0], "width": 1.0,
                    "momentum": [0.3, 0.0]},
        "potentials": {"V": {"type": "harmonic", "omega": 1.0}},
        "run": {"engine": engine, "dt": DT, "steps": STEPS, "snapshot_stride": STRIDE},
    })


def reference_densities(space, V, substeps):
    """|psi|^2 of the split-step solution at each snapshot time."""
    x, y = space.meshes
    psi = np.exp(-((x + 2.0) ** 2 + y**2) / 4.0 + 0.3j * (x + 2.0))
    psi /= math.sqrt(float((np.abs(psi) ** 2).sum()) * space.cell_volume)
    h = DT * STRIDE / substeps
    k = [2.0 * np.pi * np.fft.fftfreq(n, d) for n, d in zip(space.points, space.spacings)]
    kinetic = np.exp(-0.5j * h * np.add.outer(k[0] ** 2, k[1] ** 2))
    kick = np.exp(-0.5j * h * V)
    out = [np.abs(psi) ** 2]
    for _ in range(STEPS // STRIDE):
        for _ in range(substeps):
            psi = kick * np.fft.ifft2(kinetic * np.fft.fft2(kick * psi))
        out.append(np.abs(psi) ** 2)
    return [ScalarField(space, rho) for rho in out]


def engine_densities(engine, outdir):
    run(scenario(engine), outdir)
    tags = [f"{i:06d}" for i in range(STEPS // STRIDE + 1)]
    if engine == "coupled":
        return [io.load_scalar_field(f"{outdir}/rho_{tag}.npy") for tag in tags]
    psis = [io.load_complex_field(f"{outdir}/psi_{tag}.npy") for tag in tags]
    return [ScalarField(psi.space, np.abs(psi.values) ** 2) for psi in psis]


@pytest.fixture(scope="module")
def reference():
    sc = scenario("coupled")
    return reference_densities(sc.space, sc.potential.values, SUBSTEPS)


def test_reference_is_converged_in_time(reference):
    sc = scenario("coupled")
    finer = reference_densities(sc.space, sc.potential.values, 2 * SUBSTEPS)
    moves = [l2_distance(a, b) for a, b in zip(reference, finer)]
    assert max(moves) < REFERENCE_TIME_ERROR, moves


@pytest.mark.parametrize("engine", ERROR)
def test_engine_density_tracks_the_reference(reference, engine, tmp_path):
    gaps = [l2_distance(a, b) for a, b in zip(engine_densities(engine, str(tmp_path)), reference)]
    bounds = [max(2.0 * e, ROUNDING) for e in ERROR[engine]]
    assert all(g < b for g, b in zip(gaps, bounds)), (gaps, bounds)
