"""Walker ensembles and the Fokker-Planck stepper against each other and theory.

Run with the other slow checks as

    PYTHONPATH=src python -m pytest -q verify

Three criteria, each value bounded by 2 * the value this code gave when the
check was written, and each criterion as stated:

- Pure diffusion from a narrow 1D Gaussian: the variance grows at the rate
  eta/m = 1 to within 1% at every time over a decade, t = 0.01 .. 0.1.
- 1e5 walkers and the Fokker-Planck density on a sine entropy after 500
  steps: their L1 gap is at most 1.5 times the expected multinomial gap.
- The backward drift estimated from 2e5 walkers equals b - (eta/m) dlog rho
  within 3 standard errors in at least 95% of the cells with 200 samples.

Wall times are not asserted.
"""

import math

import numpy as np

from entrolab import ensemble as ens, fokker_planck as fp
from entrolab.fields import (
    ConfigSpace,
    PhysicalParams,
    ScalarField,
    axis_gradient,
    clamped_log,
    density_moments,
    l1_distance,
    normalize_density,
)


def setup(extent, points):
    params = PhysicalParams([1.0], eta=1.0, osmotic_ratio=1.0, tau=0.1)
    space = ConfigSpace(dim=1, extents=extent, points=points, sigma_sq=params.sigma_sq)
    return params, space, space.meshes[0]


def test_diffusion_variance_grows_at_eta_over_m():
    params, space, x = setup(8.0, 512)
    rho = normalize_density(ScalarField(space, np.exp(-(x**2) / (2.0 * 0.05))))
    S = ScalarField(space, np.zeros(space.shape))
    limit = fp.fp_stability_limit(S, params, None, rho)
    dt = 0.0001
    assert dt < limit <= 2 * 1.752336e-4
    _, var0 = density_moments(rho)
    t, worst = 0.0, 0.0
    for t_target in [0.01 * 10 ** (k / 4.0) for k in range(5)]:
        while t < t_target - 1e-12:
            rho = fp.fp_step(rho, S, params, dt)
            t += dt
        _, var = density_moments(rho)
        worst = max(worst, abs((var[0] - var0[0]) / t - 1.0))
    assert worst <= min(0.01, 2 * 1.942890e-14)


def test_walkers_match_fokker_planck_within_the_sampling_bound():
    params, space, x = setup(20.0, 100)
    S = ScalarField(space, 0.3 * np.sin(2.0 * math.pi * x / 20.0))
    rho = normalize_density(ScalarField(space, np.exp(-(x**2) / 2.0)))
    dt = 0.4 * fp.fp_stability_limit(S, params, None, rho)
    assert dt <= 2 * 0.008416
    cloud = ens.Ensemble.from_density(rho, 100_000, dt, seed=42)
    for _ in range(500):
        cloud = ens.step_ensemble(cloud, S, params)
        rho = fp.fp_step(rho, S, params, dt)
    gap = l1_distance(ens.estimate_density(cloud), rho)
    bound = ens.sampling_l1_bound(rho, cloud.walkers)
    assert gap <= 2 * 0.020664
    assert bound <= 2 * 0.018876
    assert gap / bound <= 1.5


def test_backward_drift_identity():
    params, space, x = setup(12.0, 64)
    S = ScalarField(space, 0.25 * np.sin(2.0 * math.pi * x / 12.0))
    rho = normalize_density(ScalarField(space, np.exp(-(x**2) / 2.0)))
    before = ens.Ensemble.from_density(rho, 200_000, 0.02, seed=3)
    est = ens.empirical_backward_drift(before, ens.step_ensemble(before, S, params))
    dlog = axis_gradient(ScalarField(space, clamped_log(rho.values)), 0)
    b_star = fp.drift_velocity(S, params).components[0] - params.eta_over_m[0] * dlog
    cells = est.reliable_cells(200)
    assert cells.sum() == 32
    z = np.abs(est.drift.components[0] - b_star)[cells] / est.stderr[0][cells]
    assert (z <= 3.0).mean() >= 0.95
    assert z.max() <= 2 * 1.465863
