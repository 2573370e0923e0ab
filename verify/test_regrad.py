"""Regraduation: the mu != m flows against the linear flow.

Run with the other slow checks as

    PYTHONPATH=src python -m pytest -q verify

A 1D Gaussian at rest (512 points on a 30-wide box, free, osmotic ratio 4,
so kappa = 1/2) is evolved three ways.  (a) Stepping 50 coupled steps and
then regraduating must give the same state, bit for bit, as regraduating
first and stepping after; the map sends mu to m and eta to 2 eta.  (b) The
coupled nonlinear run to t = 2, regraduated, is compared with 4000 linear
Cayley steps of the regraduated initial state, densities and phases on the
support.  (c) The nonlinear engine, which steps the linear Cayley flow in
regraduated units, runs the same scenario through `scenarios.run` in 4000
steps; its psi snapshot, sqrt(rho) exp(i kappa phi), is compared with the
exact spectral propagation of the regraduated initial state, in density and
in psi modulo the global phase.  Each gap is bounded by 2 * the value this
code gave when the check was written.  Wall times are not asserted.
"""

import numpy as np
import pytest

from entrolab.dynamics import ManifoldState, coupled_stability_limit, coupled_step, regraduate
from entrolab.fields import (
    ComplexField,
    ConfigSpace,
    PhysicalParams,
    ScalarField,
    normalize_density,
)
from entrolab.io import load_complex_field
from entrolab.scenarios import run, scenario_from_dict
from entrolab.schrodinger import WaveFunction, phase_aligned_distance, to_wavefunction, unitary_step

T = 2.0
CAYLEY_STEPS = 4000
# (c)'s gaps to the spectral truth when written: the Cayley symbol's error
RHO_GAP = 6.252003e-5
PSI_GAP = 3.503676e-4


def l2(a, b, space):
    return float(np.sqrt(np.sum((a - b) ** 2) * space.cell_volume))


@pytest.fixture(scope="module")
def setup():
    params = PhysicalParams([1.0], eta=1.0, osmotic_ratio=4.0, tau=0.1)
    space = ConfigSpace(dim=1, extents=30.0, points=512, sigma_sq=params.sigma_sq)
    x = space.meshes[0]
    rho = normalize_density(ScalarField(space, np.exp(-(x**2) / 2.0)))
    state0 = ManifoldState(rho=rho, phi=ScalarField(space, np.zeros(space.shape)))
    V = ScalarField(space, np.zeros(space.shape))
    return params, space, state0, V, 0.4 * coupled_stability_limit(state0, params)


@pytest.fixture(scope="module")
def linear_run(setup):
    params, space, state0, V, _ = setup
    lin_state, lin_params = regraduate(state0, params)
    w = to_wavefunction(lin_state)
    for _ in range(CAYLEY_STEPS):
        w = unitary_step(w, lin_params, V, T / CAYLEY_STEPS)
    return w


def test_regraduation_commutes_with_the_coupled_flow(setup):
    params, space, state0, V, dt = setup
    assert params.kappa == 0.5
    after = state0
    for _ in range(50):
        after = coupled_step(after, params, V, dt)
    a, lin_params = regraduate(after, params)
    b, _ = regraduate(state0, params)
    for _ in range(50):
        b = coupled_step(b, lin_params, V, dt)
    assert np.array_equal(lin_params.osmotic_masses, [1.0])
    assert lin_params.eta == 2.0
    assert np.abs(a.rho.values - b.rho.values).max() == 0.0
    assert np.abs(a.phi.values - b.phi.values).max() == 0.0


def test_coupled_nonlinear_run_matches_the_linear_run(setup, linear_run):
    params, space, state0, V, dt = setup
    n = int(np.ceil(T / dt))
    assert n == 3641
    s = state0
    for _ in range(n):
        s = coupled_step(s, params, V, T / n)
    s_reg, _ = regraduate(s, params)
    ref = linear_run.psi.values
    assert l2(s_reg.rho.values, np.abs(ref) ** 2, space) <= 2 * 3.511091e-5

    # phase agreement on the support, modulo the global phase
    mask = s_reg.rho.values > 1e-6 * s_reg.rho.values.max()
    psi = np.sqrt(s_reg.rho.values) * np.exp(1j * s_reg.phi.values)
    aligned = psi * np.exp(-1j * np.angle(np.vdot(ref[mask], psi[mask])))
    gap = np.abs(np.angle(aligned[mask] * np.conj(ref[mask])))
    assert gap.max() <= 2 * 6.152665e-2


def test_nonlinear_engine_matches_the_spectral_truth(setup, tmp_path):
    params, space, state0, V, _ = setup
    sc = scenario_from_dict({
        "name": "regrad",
        "space": {"dim": 1, "extent": 30.0, "points": 512},
        "params": {"eta": 1.0, "tau": 0.1, "masses": 1.0, "osmotic_ratio": 4.0},
        "initial": {"type": "gaussian", "center": 0.0, "width": 1.0},
        "run": {"engine": "nonlinear", "dt": T / CAYLEY_STEPS, "steps": CAYLEY_STEPS,
                "snapshot_stride": CAYLEY_STEPS},
    })
    assert np.array_equal(sc.initial.rho.values, state0.rho.values)
    summary = run(sc, str(tmp_path))
    assert summary["kappa"] == 0.5 and summary["snapshot_times"][-1] == pytest.approx(T)
    psi = load_complex_field(tmp_path / "psi_000001.npy").values

    # free flow in regraduated units: i eta' dPsi'/dt = -(eta'^2 / 2m) Psi'',
    # exact on every Fourier mode of the initial Psi' = sqrt(rho)
    lin_state, lin_params = regraduate(state0, params)
    k = 2.0 * np.pi * np.fft.fftfreq(space.points[0], d=space.spacings[0])
    rate = lin_params.eta * k**2 / (2.0 * lin_params.masses[0])
    truth = np.fft.ifft(np.exp(-1j * rate * T) * np.fft.fft(to_wavefunction(lin_state).psi.values))

    assert l2(np.abs(psi) ** 2, np.abs(truth) ** 2, space) <= 2 * RHO_GAP
    gap = phase_aligned_distance(
        WaveFunction(ComplexField(space, psi)), WaveFunction(ComplexField(space, truth))
    )
    assert gap <= 2 * PSI_GAP
