import hashlib
import math

import numpy as np
import pytest

from entrolab import ensemble as ens
from entrolab.errors import ConfigError
from entrolab.fields import (
    PERIODIC,
    REFLECTING,
    ConfigSpace,
    PhysicalParams,
    ScalarField,
    axis_gradient,
    clamped_log,
    normalize_density,
)
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


def test_non_finite_positions_rejected():
    p = make_params()
    space = make_space(10.0, 64, p)
    pos = np.zeros((10, 1))
    pos[[2, 7], 0] = [np.nan, -np.inf]
    with pytest.raises(ConfigError, match="2 of 10 walker coordinates are not finite"):
        ens.Ensemble(space, pos, 0.01, np.random.default_rng(0))


# sha256 of the final positions after 20 steps; they were computed with the
# remainder-on-every-point wrap and the per-corner ravel_multi_index
# interpolation, so any change of the step's arithmetic shows here.  The
# fields are polynomials, so no transcendental function enters the bits.
STEP_BITS = {
    (1, PERIODIC): "ec91c10f33697907c9b9474c9a08a3d0dfd9cc053817c1d8864fa1b902d709b2",
    (1, REFLECTING): "24a0993b796ab763b0f20765ad3d62c4b0e946a5d8ff143aa8523f415c1bf90d",
    (2, PERIODIC): "39ff4f27c9854ab573cbdb4c73304f337a5d22ecae9362272675aa3b9d5b03b2",
    (2, REFLECTING): "7d5135ddfa209388b55f5a97696467c147442ad25c8f28d8ebc516de92f01933",
    (3, PERIODIC): "b120e1146b487bfb87d8143663cdb2a642f5bad93b3708fdb6179f7ed2631c92",
    (3, REFLECTING): "8222087c291ad3eab643933f7b066f85f16e32d234ee1223a37728c0fc4bdb41",
}


@pytest.mark.parametrize("boundary", [PERIODIC, REFLECTING])
@pytest.mark.parametrize("dim", [1, 2, 3])
def test_step_ensemble_bits_are_pinned(dim, boundary):
    p = PhysicalParams([1.0, 2.0, 0.5][:dim], eta=1.0, tau=0.1)
    space = ConfigSpace(dim=dim, extents=(6.0, 5.0, 4.0)[:dim], points=(48, 20, 12)[:dim],
                        boundary=boundary, sigma_sq=p.sigma_sq)
    u = [m / L for m, L in zip(space.meshes, space.extents)]
    S = ScalarField(space, sum(3.0 * x**2 + (a + 1) * x**3 for a, x in enumerate(u)))
    # nonzero on the walls, so walkers start next to them and cross them
    rho = normalize_density(ScalarField(space, np.prod([1.2 - 4.0 * x**2 for x in u], axis=0)))
    e = ens.Ensemble.from_density(rho, 3000, dt=0.01, seed=7)
    for _ in range(20):
        e = ens.step_ensemble(e, S, p)
    digest = hashlib.sha256(e.positions.tobytes()).hexdigest()
    assert digest == STEP_BITS[dim, boundary]


def test_estimate_density_normalized():
    p = make_params()
    space = make_space(10.0, 64, p)
    rho = gaussian_density(space, 0.0, 1.0)
    e = ens.Ensemble.from_density(rho, 20000, dt=0.01, seed=1)
    est = ens.estimate_density(e)
    assert est.integral() == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize(
    "extents, points, boundary",
    [((20.0,), (256,), PERIODIC), ((8.0, 5.0), (24, 10), PERIODIC),
     ((8.0, 5.0), (24, 10), REFLECTING), ((3.0, 4.0, 5.0), (6, 8, 10), PERIODIC)],
    ids=["1d", "2d", "2d-reflecting", "3d"],
)
def test_estimate_density_matches_the_edge_histogram(extents, points, boundary):
    """The walker-cell rule (cell_index + bincount) counts as np.histogramdd
    over the linspace cell edges does, bit for bit, on a non-square grid."""
    space = ConfigSpace(dim=len(points), extents=extents, points=points, boundary=boundary)
    rng = np.random.default_rng(4)
    e = ens.Ensemble(space, rng.normal(0.0, 1.5, (50_000, space.dim)), 0.01, rng)
    edges = [np.linspace(-L / 2, L / 2, n + 1) for L, n in zip(extents, points)]
    counts, _ = np.histogramdd(e.positions, bins=edges)
    expected = counts / (e.walkers * space.cell_volume)
    assert np.array_equal(ens.estimate_density(e).values, expected)


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
