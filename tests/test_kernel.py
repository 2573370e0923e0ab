import math
import re

import numpy as np
import pytest

from entrolab.errors import AlphaSolveError
from entrolab.fields import ScalarField, VectorField
from entrolab.kernel import (
    build_exact_kernel,
    gaussian_step_moments,
    gibbs_optimality_certificate,
    kernel_mean_displacement,
    kernel_step_sq,
    solve_alpha,
)

from conftest import make_params, make_space


def sine_entropy(space, amplitude=0.4, mode=1):
    x = space.meshes[0]
    L = space.extents[0]
    return ScalarField(space, amplitude * np.sin(2.0 * math.pi * mode * x / L))


def test_kernel_row_is_a_distribution():
    p = make_params(tau=0.5)
    space = make_space(12.0, 256, p)
    S = sine_entropy(space)
    kern = build_exact_kernel(S, (128,), 16.0)
    assert kern.probs.sum() == pytest.approx(1.0, abs=1e-12)
    assert kern.probs.min() >= 0.0
    assert kern.alpha == 16.0


def test_step_sq_shrinks_with_alpha():
    p = make_params(tau=0.5)
    space = make_space(12.0, 256, p)
    S = sine_entropy(space)
    vals = [
        kernel_step_sq(build_exact_kernel(S, (128,), a))
        for a in (4.0, 16.0, 64.0)
    ]
    assert vals[0] > vals[1] > vals[2] > 0.0


def test_solve_alpha_roundtrip():
    p = make_params(tau=0.5)
    space = make_space(12.0, 512, p)
    S = sine_entropy(space)
    target = kernel_step_sq(build_exact_kernel(S, (200,), 24.0))
    alpha = solve_alpha(S, (200,), target)
    assert alpha == pytest.approx(24.0, rel=1e-6)
    kern = build_exact_kernel(S, (200,), solve_alpha(S, (200,), target))
    assert kernel_step_sq(kern) == pytest.approx(target, rel=1e-8)


def test_solve_alpha_reports_achievable_range():
    p = make_params(tau=0.5)
    space = make_space(12.0, 128, p)
    S = sine_entropy(space)
    with pytest.raises(AlphaSolveError) as exc:
        solve_alpha(S, (64,), 1e9)  # larger than the box supports
    assert exc.value.achievable is not None


def test_gaussian_step_moments_identity():
    p = make_params(masses=(2.0,), eta=1.5, tau=0.25, beta=0.6)
    space = make_space(12.0, 256, p)
    S = sine_entropy(space, amplitude=0.3)
    A = VectorField(space, np.full((1,) + space.shape, 0.4))
    dt = 0.01
    drift, cov = gaussian_step_moments(S, p, dt, A)
    x = space.meshes[0]
    k = 2.0 * math.pi / 12.0
    dS = 0.3 * k * np.cos(k * x)
    expect = (p.eta / 2.0) * (dS - 0.6 * 0.4) * dt
    # gradient is the second-order stencil, so compare against it exactly
    from entrolab.fields import axis_gradient

    expect_stencil = (p.eta / 2.0) * (axis_gradient(S, 0) - 0.6 * 0.4) * dt
    assert np.allclose(drift.components[0], expect_stencil, atol=1e-15)
    assert np.abs(drift.components[0] - expect).max() < 1e-4 * dt + np.abs(expect).max() * 1e-2
    assert cov[0] == pytest.approx(p.eta / 2.0 * dt)


def test_kernel_moments_approach_gaussian_law():
    """Single refinement pair; the full convergence sweep is an acceptance test."""
    p = make_params(tau=0.5)
    space = make_space(12.0, 512, p)
    S = sine_entropy(space, amplitude=0.4)
    source = (200,)
    gaps = []
    for alpha in (16.0, 32.0):
        dt = p.tau / alpha
        kern = build_exact_kernel(S, source, alpha)
        mean = kernel_mean_displacement(kern)
        drift, cov = gaussian_step_moments(S, p, dt)
        mean_gap = abs(mean[0] - drift.components[0][source]) / dt
        var = kernel_step_sq(kern) * p.sigma_sq[0] - mean[0] ** 2
        var_gap = abs(var - cov[0]) / dt
        gaps.append((mean_gap, var_gap))
    assert gaps[0][0] / gaps[1][0] >= 1.7
    assert gaps[0][1] / gaps[1][1] >= 1.7


def test_em_coupling_shifts_the_mean():
    p = make_params(tau=0.5, beta=0.8)
    space = make_space(12.0, 512, p)
    S = sine_entropy(space, amplitude=0.2)
    A = VectorField(space, np.full((1,) + space.shape, 0.3))
    alpha = 64.0
    plain = build_exact_kernel(S, (256,), alpha)
    em = build_exact_kernel(S, (256,), alpha, A=A, beta=p.beta)
    dt = p.tau / alpha
    shift = kernel_mean_displacement(em)[0] - kernel_mean_displacement(plain)[0]
    # a constant A subtracts (eta/m) beta A dt from the mean, to O(dt^2)
    expect = -p.eta_over_m[0] * p.beta * 0.3 * dt
    assert shift == pytest.approx(expect, rel=0.05)


def test_em_constraint_value_is_recorded():
    p = make_params(tau=0.5, beta=0.8)
    space = make_space(12.0, 256, p)
    S = sine_entropy(space, amplitude=0.2)
    A = VectorField(space, np.full((1,) + space.shape, 0.3))
    kern = build_exact_kernel(S, (128,), 32.0, A=A, beta=p.beta)
    assert kern.beta == 0.8
    assert kern.vector_potential is A


def test_certificate_passes_on_exact_kernel():
    p = make_params(tau=0.1)
    space = make_space(10.0, 128, p)
    S = sine_entropy(space, amplitude=0.4)
    kern = build_exact_kernel(S, (64,), 40.0)
    cert = gibbs_optimality_certificate(S, kern, trials=100, rng_seed=11)
    assert cert.passed
    assert cert.max_gap <= 1e-9
    assert cert.skipped == 0


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_certificate_tilts_ignore_dead_cells():
    """A kernel row with hard zeros (cutoff tail) must not trip the tilt
    solver: dead cells carry no weight and cannot be resurrected."""
    p = make_params(tau=0.1)
    space = make_space(10.0, 256, p)
    S = sine_entropy(space, amplitude=0.2, mode=2)
    # large alpha concentrates the row so most of the box is exactly zero
    kern = build_exact_kernel(S, (128,), 150.0)
    assert (kern.probs == 0.0).any()
    cert = gibbs_optimality_certificate(S, kern, trials=200, rng_seed=5)
    assert cert.skipped == 0
    assert cert.passed


def _kernel_case():
    p = make_params(tau=0.5)
    space = make_space(12.0, 256, p)
    return p, space, sine_entropy(space)


def _space_3d():
    p = make_params(masses=(1.0, 1.0, 1.0), tau=0.5)
    return ScalarField(make_space(12.0, 8, p, dim=3), np.zeros((8, 8, 8)))


# refusal -> (a call that makes it, its error type, its message)
KERNEL_REFUSALS = {
    "source-of-two-indices-in-1d": (
        lambda: build_exact_kernel(_kernel_case()[2], (1, 2), 16.0),
        ValueError, "source needs 1 indices, got 2"),
    "source-outside-the-grid": (
        lambda: build_exact_kernel(_kernel_case()[2], (256,), 16.0),
        ValueError, "source (256,) outside the grid"),
    "a-row-in-3d": (
        lambda: build_exact_kernel(_space_3d(), (4, 4, 4), 16.0),
        ValueError, "exact kernel rows are limited to dim <= 2"),
    "zero-alpha": (
        lambda: build_exact_kernel(_kernel_case()[2], (128,), 0.0),
        ValueError, "alpha must be positive"),
    "charge-without-a-vector-potential": (
        lambda: build_exact_kernel(_kernel_case()[2], (128,), 16.0, beta=0.5),
        ValueError, "EM constraint given but no vector potential"),
    "zero-dt-moments": (
        lambda: gaussian_step_moments(_kernel_case()[2], _kernel_case()[0], 0.0),
        ValueError, "dt must be positive"),
    "a-step-under-one-cell": (
        lambda: solve_alpha(_kernel_case()[2], (128,), 1e-9),
        AlphaSolveError, "target_step_sq=1e-09 is below one-cell resolution"),
}


@pytest.mark.parametrize("case", sorted(KERNEL_REFUSALS))
def test_the_kernel_refuses_what_it_cannot_build(case):
    call, error, message = KERNEL_REFUSALS[case]
    with pytest.raises(error, match=f"^{re.escape(message)}"):
        call()
