import math

import numpy as np
import pytest

from entrolab import fokker_planck as fp
from entrolab.dynamics import AMP_RATIO_LIMIT, clipped_amplitude_curvature
from entrolab.errors import StabilityError
from entrolab.fields import (
    REFLECTING,
    ConfigSpace,
    ScalarField,
    VectorField,
    axis_gradient,
    clamped_log,
    density_moments,
    l2_distance,
    normalize_density,
)

from conftest import field_l2, gaussian_density, make_params, make_space, zero_field


def sine_entropy(space, amplitude, mode=1):
    x = space.meshes[0]
    return ScalarField(
        space, amplitude * np.sin(2.0 * math.pi * mode * x / space.extents[0])
    )


def test_velocity_decomposition_identity():
    p = make_params(masses=(2.0,), eta=1.5, tau=0.2)
    space = make_space(12.0, 128, p)
    S = sine_entropy(space, 0.3)
    # drift = (eta/m) dS/dx on the stencil
    assert np.allclose(
        fp.drift_velocity(S, p).components[0], p.eta_over_m[0] * axis_gradient(S, 0)
    )


def test_fp_step_conserves_mass():
    p = make_params(tau=0.1)
    space = make_space(12.0, 128, p)
    S = sine_entropy(space, 0.3)
    rho = gaussian_density(space, 0.0, 1.0)
    dt = 0.25 * fp.fp_stability_limit(S, p)
    stepped = fp.fp_step(rho, S, p, dt)
    assert stepped.integral() == pytest.approx(1.0, abs=1e-12)
    assert stepped.values.min() >= 0.0


def test_fp_step_enforces_stability_bound():
    p = make_params(tau=0.1)
    space = make_space(12.0, 128, p)
    S = sine_entropy(space, 0.3)
    rho = gaussian_density(space, 0.0, 1.0)
    limit = fp.fp_stability_limit(S, p, safety=1.0)
    with pytest.raises(StabilityError) as exc:
        fp.fp_step(rho, S, p, 1.5 * limit)
    assert exc.value.dt_max == pytest.approx(limit)


def test_pure_diffusion_variance_growth_is_exact():
    """Flat entropy: d var/dt = eta/m on the discrete scheme as well."""
    p = make_params(tau=0.1)
    space = make_space(8.0, 256, p)
    rho = gaussian_density(space, 0.0, 0.05)
    S = zero_field(space)
    dt = 1e-4
    _, v0 = density_moments(rho)
    for _ in range(100):
        rho = fp.fp_step(rho, S, p, dt)
    _, v1 = density_moments(rho)
    growth = (v1[0] - v0[0]) / (100 * dt)
    assert growth == pytest.approx(p.eta_over_m[0], abs=1e-10)


def fp_step_continuity(rho, S, p, dt, A=None):
    """One Heun step of the continuity form, advecting with v = b + u and no
    diffusion term: the independent discretization fp_step is held to.  The
    osmotic velocity is rebuilt from the stage density, so the two forms
    agree to the scheme's order on smooth data."""
    space = rho.space

    def rhs(values):
        u = fp.osmotic_velocity(ScalarField(space, values), p).components
        v = fp.drift_velocity(S, p, A).components + u
        return fp._drift_diffusion_rhs(values, v, np.zeros(space.dim), space)

    k1 = rhs(rho.values)
    k2 = rhs(np.maximum(rho.values + dt * k1, 0.0))
    return fp._finish_step(space, rho.values + 0.5 * dt * (k1 + k2))


def test_two_fp_forms_agree_on_smooth_data():
    """Drift-diffusion and continuity forms are independent discretizations
    of the same flow; they must agree to scheme order, and the agreement is
    the cross-check that keeps either one honest."""
    p = make_params(tau=0.1)
    space = make_space(12.0, 128, p)
    S = sine_entropy(space, 0.3)
    a = gaussian_density(space, 0.0, 1.0)
    b = gaussian_density(space, 0.0, 1.0)
    dt = 0.2 * fp.fp_stability_limit(S, p, rho=a)
    for _ in range(50):
        a = fp.fp_step(a, S, p, dt)
        b = fp_step_continuity(b, S, p, dt)
    assert l2_distance(a, b) < 2e-3


def test_equilibrium_is_stationary():
    """rho proportional to exp(2S) balances drift against diffusion."""
    p = make_params(tau=0.1)
    space = make_space(10.0, 128, p)
    S = sine_entropy(space, 0.4)
    rho = normalize_density(ScalarField(space, np.exp(2.0 * S.values)))
    # fp_step's drift-diffusion stencil is not equilibrium-exact, so the
    # state creeps toward the discrete fixed point; it must stay at the
    # stencil's O(dx^2) distance, not wander off
    dt = 0.3 * fp.fp_stability_limit(S, p)
    stepped = fp.fp_step(rho, S, p, dt)
    assert field_l2(stepped.values, rho.values, space) < 1e-5
    r = stepped
    for _ in range(499):
        r = fp.fp_step(r, S, p, dt)
    assert field_l2(r.values, rho.values, space) < 1e-3


def test_stability_limit_scales_with_grid():
    p = make_params(tau=0.1)
    coarse = make_space(12.0, 64, p)
    fine = make_space(12.0, 128, p)
    lim_c = fp.fp_stability_limit(sine_entropy(coarse, 0.3), p)
    lim_f = fp.fp_stability_limit(sine_entropy(fine, 0.3), p)
    assert lim_c / lim_f == pytest.approx(4.0, rel=0.2)


# ---------------------------------------------------------------------------
# reflecting boxes: every stencil against the pad/concatenate form


def _take(v, axis, sl):
    idx = [slice(None)] * v.ndim
    idx[axis] = sl
    return v[tuple(idx)]


def _padded_neighbours(v, axis):
    """Values at i+1 and i-1 from a one-cell even (symmetric) pad."""
    width = [(0, 0)] * v.ndim
    width[axis] = (1, 1)
    p = np.pad(v, width, mode="symmetric")
    return _take(p, axis, slice(2, None)), _take(p, axis, slice(None, -2))


def _concat_right(v, axis):
    return np.concatenate([_take(v, axis, slice(1, None)), _take(v, axis, slice(-1, None))], axis=axis)


def _padded_gradient(v, space):
    comps = []
    for a in range(space.dim):
        plus, minus = _padded_neighbours(v, a)
        comps.append((plus - minus) / (2.0 * space.spacings[a]))
    return np.stack(comps)


def _padded_face_div(flux, axis, dx):
    flux = flux.copy()
    _take(flux, axis, slice(-1, None))[...] = 0.0
    left = np.concatenate(
        [np.zeros_like(_take(flux, axis, slice(0, 1))), _take(flux, axis, slice(None, -1))], axis=axis
    )
    return (flux - left) / dx


def _padded_rhs(rho, comps, diffusion, space):
    rhs = np.zeros_like(rho)
    for a in range(space.dim):
        dx = space.spacings[a]
        rho_r = _concat_right(rho, a)
        face = 0.5 * (comps[a] + _concat_right(comps[a], a))
        flux = face * np.where(face > 0.0, rho, rho_r)
        if diffusion is not None:
            flux = flux - diffusion[a] * (rho_r - rho) / dx
        rhs -= _padded_face_div(flux, a, dx)
    return rhs


def _padded_velocities(rho, S, p, A):
    shape = (-1,) + (1,) * S.space.dim
    b = p.eta_over_m.reshape(shape) * (_padded_gradient(S.values, S.space) - p.beta * A.components)
    if rho is None:
        return b
    u = -(0.5 * p.eta_over_m).reshape(shape) * _padded_gradient(clamped_log(rho), S.space)
    return b + u


def _padded_limit(S, p, A, rho=None):
    space = S.space
    comps = _padded_velocities(rho, S, p, A)
    rate = sum(2.0 * (0.5 * p.eta_over_m[a]) / space.spacings[a] ** 2 for a in range(space.dim))
    for a in range(space.dim):
        face = 0.5 * (comps[a] + _concat_right(comps[a], a))
        rate += float(np.abs(face).max()) / space.spacings[a]
    return 0.9 / rate


def _padded_finish(space, raw):
    return normalize_density(ScalarField(space, np.maximum(raw, 0.0))).values


def _padded_fp_step(rho, S, p, A, dt):
    b = _padded_velocities(None, S, p, A)
    D = 0.5 * p.eta_over_m
    k1 = _padded_rhs(rho, b, D, S.space)
    k2 = _padded_rhs(rho + dt * k1, b, D, S.space)
    return _padded_finish(S.space, rho + 0.5 * dt * (k1 + k2))


def _padded_fp_step_continuity(rho, S, p, A, dt):
    def rhs(values):
        return _padded_rhs(values, _padded_velocities(values, S, p, A), None, S.space)

    k1 = rhs(rho)
    k2 = rhs(np.maximum(rho + dt * k1, 0.0))
    return _padded_finish(S.space, rho + 0.5 * dt * (k1 + k2))


@pytest.mark.parametrize("dim", [1, 2])
def test_reflecting_box_matches_padded_stencils(dim):
    """On a reflecting box the neighbour past a wall is the edge cell itself
    and no flux crosses a wall; every stencil must give the bits of the
    explicit pad/concatenate form of that rule."""
    p = make_params(masses=(1.0, 2.0)[:dim], beta=0.6)
    space = ConfigSpace(
        dim=dim, extents=(8.0, 6.0)[:dim], points=(24, 16)[:dim],
        boundary=REFLECTING, sigma_sq=p.sigma_sq,
    )
    x = space.meshes
    rng = np.random.default_rng(3)
    S = ScalarField(space, 0.3 * np.sin(x[0]) + 0.2 * x[0] + (0.1 * x[-1] ** 2 if dim > 1 else 0.0))
    A = VectorField(space, np.stack([0.4 * np.cos(x[-1]) + 0.1 * x[a] for a in range(dim)]))
    rho0 = gaussian_density(space, (1.0, -0.5)[:dim], 1.5).values

    noise = rng.uniform(0.01, 1.0, space.shape)  # ratios well past AMP_RATIO_LIMIT
    for a in range(dim):
        dx = space.spacings[a]
        plus, minus = _padded_neighbours(noise, a)
        f = ScalarField(space, noise)
        assert np.array_equal(axis_gradient(f, a), (plus - minus) / (2.0 * dx))
        curvature = (np.minimum(plus / noise, AMP_RATIO_LIMIT)
                     + np.minimum(minus / noise, AMP_RATIO_LIMIT) - 2.0) / dx**2
        assert np.array_equal(clipped_amplitude_curvature(noise, space, np.eye(dim)[a]), curvature)

    rho = ScalarField(space, rho0)
    assert fp.fp_stability_limit(S, p, A) == _padded_limit(S, p, A)
    assert fp.fp_stability_limit(S, p, A, rho=rho) == _padded_limit(S, p, A, rho0)

    dt = 0.5 * _padded_limit(S, p, A, rho0)
    a, ref_a = rho, rho0
    b, ref_b = rho, rho0
    for _ in range(20):
        a, ref_a = fp.fp_step(a, S, p, dt, A), _padded_fp_step(ref_a, S, p, A, dt)
        b, ref_b = fp_step_continuity(b, S, p, dt, A), _padded_fp_step_continuity(ref_b, S, p, A, dt)
        assert np.array_equal(a.values, ref_a)
        assert np.array_equal(b.values, ref_b)
    assert not np.array_equal(a.values, rho0)  # the flow moved mass
