"""Moments of the exact one-step kernel against the Gaussian step.

Run with the other slow checks as

    PYTHONPATH=src python -m pytest -q verify

On a 1D sine entropy, the exact maximum-entropy kernel at one source cell
is built for alpha = 8, 16, 32, 64 (dt = tau / alpha).  Its mean
displacement and its variance are compared with the drift and covariance of
`gaussian_step_moments`, each gap taken per unit dt.  Each gap is bounded
by 2 * the value this code gave when the check was written.  Halving dt
must halve each gap: the successive ratios lie in [1.9, 2.2], first-order
convergence with room for the variance ratio of 1.99.
"""

import math

import numpy as np
import pytest

from entrolab.fields import ConfigSpace, PhysicalParams, ScalarField
from entrolab.kernel import (
    build_exact_kernel,
    gaussian_step_moments,
    kernel_mean_displacement,
    kernel_step_sq,
)

ALPHAS = (8.0, 16.0, 32.0, 64.0)
# (mean gap / dt, variance gap / dt) per alpha when the check was written
GAPS = ((6.99e-4, 4.27e-3), (3.45e-4, 2.15e-3), (1.70e-4, 1.08e-3), (8.26e-5, 5.39e-4))


@pytest.fixture(scope="module")
def gaps():
    params = PhysicalParams([1.0], eta=1.0, osmotic_ratio=1.0, tau=0.5)
    space = ConfigSpace(dim=1, extents=12.0, points=512, sigma_sq=params.sigma_sq)
    S = ScalarField(space, 0.4 * np.sin(2.0 * math.pi * space.meshes[0] / 12.0))
    source = (200,)
    rows = []
    for alpha in ALPHAS:
        dt = params.tau / alpha
        kern = build_exact_kernel(S, source, alpha)
        mean = kernel_mean_displacement(kern)
        drift, cov = gaussian_step_moments(S, params, dt)
        var = kernel_step_sq(kern) * params.sigma_sq[0] - mean[0] ** 2
        rows.append(
            (abs(mean[0] - drift.components[0][source]) / dt, abs(var - cov[0]) / dt)
        )
    return rows


@pytest.mark.parametrize("i", range(len(ALPHAS)), ids=[f"alpha{a:.0f}" for a in ALPHAS])
def test_kernel_moment_gaps_per_dt(gaps, i):
    mean_gap, var_gap = gaps[i]
    assert mean_gap <= 2 * GAPS[i][0]
    assert var_gap <= 2 * GAPS[i][1]


@pytest.mark.parametrize("i", range(1, len(ALPHAS)), ids=[f"alpha{a:.0f}" for a in ALPHAS[1:]])
def test_kernel_moment_gaps_converge_at_first_order(gaps, i):
    for moment in (0, 1):
        assert 1.9 <= gaps[i - 1][moment] / gaps[i][moment] <= 2.2
