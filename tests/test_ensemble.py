import math

import numpy as np
import pytest

from entrolab import ensemble as ens
from entrolab.errors import ConfigError
from entrolab.fields import ScalarField, axis_gradient, clamped_log
from entrolab.fokker_planck import drift_velocity

from conftest import gaussian_density, make_params, make_space, zero_field


def test_from_density_counts_and_determinism():
    p = make_params()
    space = make_space(10.0, 64, p)
    rho = gaussian_density(space, 0.0, 1.0)
    a = ens.Ensemble.from_density(rho, 5000, dt=0.01, seed=9)
    b = ens.Ensemble.from_density(rho, 5000, dt=0.01, seed=9)
    assert a.walkers == 5000
    assert np.array_equal(a.positions, b.positions)
    c = ens.Ensemble.from_density(rho, 5000, dt=0.01, seed=10)
    assert not np.array_equal(a.positions, c.positions)


def test_positions_are_wrapped():
    p = make_params()
    space = make_space(10.0, 64, p)
    e = ens.Ensemble(space, np.array([[7.3], [-6.1]]), 0.01, np.random.default_rng(0))
    assert np.all(np.abs(e.positions) <= 5.0)


def test_bad_shapes_rejected():
    p = make_params()
    space = make_space(10.0, 64, p)
    with pytest.raises(ConfigError):
        ens.Ensemble(space, np.zeros((10, 2)), 0.01, np.random.default_rng(0))
    with pytest.raises(ConfigError):
        ens.Ensemble(space, np.zeros((10, 1)), -0.1, np.random.default_rng(0))


def test_estimate_density_normalized():
    p = make_params()
    space = make_space(10.0, 64, p)
    rho = gaussian_density(space, 0.0, 1.0)
    e = ens.Ensemble.from_density(rho, 20000, dt=0.01, seed=1)
    est = ens.estimate_density(e)
    assert est.integral() == pytest.approx(1.0, abs=1e-12)


def test_pure_diffusion_variance_rate():
    """With flat entropy the cloud diffuses at variance rate eta/m per axis."""
    p = make_params(masses=(2.0,), eta=1.0, tau=0.1)
    space = make_space(40.0, 128, p)
    rho = gaussian_density(space, 0.0, 0.25)
    S = zero_field(space)
    dt = 0.005
    e = ens.Ensemble.from_density(rho, 100_000, dt, seed=4)
    v0 = e.positions.var()
    steps = 40
    for _ in range(steps):
        e = ens.step_ensemble(e, S, p)
    rate = (e.positions.var() - v0) / (steps * dt)
    # sampling noise on the variance is ~ var * sqrt(2/W)
    assert rate == pytest.approx(p.eta_over_m[0], rel=0.02)


def test_forward_drift_matches_velocity_field():
    p = make_params(tau=0.1)
    space = make_space(12.0, 32, p)
    x = space.meshes[0]
    S = ScalarField(space, 0.25 * np.sin(2.0 * math.pi * x / 12.0))
    rho = gaussian_density(space, 0.0, 1.0)
    before = ens.Ensemble.from_density(rho, 100_000, dt=0.01, seed=2)
    after = ens.step_ensemble(before, S, p)
    est = ens.empirical_forward_drift(before, after)
    b = drift_velocity(S, p).components[0]
    ok = est.reliable_cells(500)
    assert ok.sum() >= 10
    resid = np.abs(est.drift.components[0] - b)[ok]
    assert np.all(resid <= 4.0 * est.stderr[0][ok])


def test_backward_drift_shifted_by_log_density_gradient():
    """Conditioning on the arrival cell biases the drift by (eta/m) dlog rho."""
    p = make_params(tau=0.1)
    space = make_space(12.0, 32, p)
    x = space.meshes[0]
    S = ScalarField(space, 0.25 * np.sin(2.0 * math.pi * x / 12.0))
    rho = gaussian_density(space, 0.0, 1.0)
    before = ens.Ensemble.from_density(rho, 200_000, dt=0.02, seed=3)
    after = ens.step_ensemble(before, S, p)
    est = ens.empirical_backward_drift(before, after)
    b = drift_velocity(S, p).components[0]
    dlog = axis_gradient(ScalarField(space, clamped_log(rho.values)), 0)
    b_star = b - p.eta_over_m[0] * dlog
    ok = est.reliable_cells(200)
    frac = np.mean(
        np.abs(est.drift.components[0] - b_star)[ok] <= 3.0 * est.stderr[0][ok]
    )
    assert frac >= 0.95


def test_sampling_l1_bound_formula():
    p = make_params()
    space = make_space(10.0, 16, p)
    rho = gaussian_density(space, 0.0, 1.0)
    w = 4000
    probs = rho.values * space.cell_volume
    expect = float(np.sqrt(2.0 * probs * (1.0 - probs) / (math.pi * w)).sum())
    assert ens.sampling_l1_bound(rho, w) == pytest.approx(expect, rel=1e-12)


def test_sampling_l1_bound_predicts_histogram_error():
    """The bound is the expected multinomial L1 gap; draws should hover near
    it, not above 1.5x of it."""
    p = make_params()
    space = make_space(10.0, 32, p)
    rho = gaussian_density(space, 0.0, 1.0)
    w = 50_000
    bound = ens.sampling_l1_bound(rho, w)
    gaps = []
    for seed in range(5):
        e = ens.Ensemble.from_density(rho, w, dt=0.01, seed=seed)
        est = ens.estimate_density(e)
        gaps.append(float(np.abs(est.values - rho.values).sum() * space.cell_volume))
    mean_gap = np.mean(gaps)
    assert 0.5 * bound <= mean_gap <= 1.5 * bound
