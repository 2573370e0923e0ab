"""Density evolution: drift, osmotic, and current velocities, and an
explicit finite-volume Fokker-Planck stepper.

The density obeys

    d rho / dt = -sum_a d/dx_a (b_a rho) + sum_a D_a d^2 rho / dx_a^2

with drift b_a = (eta/m_a)(dS/dx_a - beta A_a) and diffusion coefficient
D_a = eta / (2 m_a) per axis.  Equivalently it is a continuity equation with
the current velocity v_a = b_a + u_a, where u_a = -(eta/2 m_a) d(log rho)/dx_a
is the osmotic velocity.  The stepper integrates the first form; the tests
step the second as an independent cross-check.

The stepper is flux-form finite volume: upwinded advection plus centered
diffusion, advanced with Heun's two-stage scheme.  Flux differencing makes
discrete mass conservation exact (telescoping sums on periodic boxes, zero
wall fluxes on reflecting ones).  Stray negatives from the upwind stage are
clipped to zero and the density renormalized; the clipped mass is logged.
"""

from __future__ import annotations

import logging

import numpy as np

from .errors import StabilityError
from .fields import (
    PERIODIC,
    PhysicalParams,
    ScalarField,
    VectorField,
    clamped_log,
    gradient,
    normalize_density,
    require_same_grid,
    shift,
)

log = logging.getLogger(__name__)


def covariant_gradient(S: ScalarField, params: PhysicalParams, A: VectorField | None = None) -> np.ndarray:
    """dS/dx_a - beta A_a, one row per axis (raw array); A must share S's grid."""
    require_same_grid(S, A, "the vector potential lives on a different grid")
    g = gradient(S).components
    return g if A is None else g - params.beta * A.components


def drift_velocity(S: ScalarField, params: PhysicalParams, A: VectorField | None = None) -> VectorField:
    """b_a = (eta/m_a)(dS/dx_a - beta A_a)."""
    params.matches_space(S.space)
    scale = params.eta_over_m.reshape((-1,) + (1,) * S.space.dim)
    return VectorField(S.space, scale * covariant_gradient(S, params, A))


def osmotic_velocity(rho: ScalarField, params: PhysicalParams) -> VectorField:
    """u_a = -(eta / 2 m_a) d(log rho)/dx_a, on the clamped logarithm."""
    params.matches_space(rho.space)
    logrho = ScalarField(rho.space, clamped_log(rho.values))
    g = gradient(logrho).components
    scale = (0.5 * params.eta_over_m).reshape((-1,) + (1,) * rho.space.dim)
    return VectorField(rho.space, -scale * g)


# ---------------------------------------------------------------------------
# flux-form plumbing


def _face_div(flux, axis, dx, boundary):
    """(F_{i+1/2} - F_{i-1/2}) / dx given F at faces i+1/2.

    On a reflecting box the right wall face is zeroed, and the wrap carries
    that zero into the left wall face, so no flux crosses either wall.
    """
    if boundary != PERIODIC:
        flux = flux.copy()
        np.moveaxis(flux, axis, 0)[-1] = 0.0
    return (flux - shift(flux, axis, -1, PERIODIC)) / dx


def _drift_diffusion_rhs(rho_values, b_comps, diffusion, space):
    rhs = np.zeros_like(rho_values)
    for a in range(space.dim):
        dx = space.spacings[a]
        rho_r = shift(rho_values, a, 1, space.boundary)
        b_face = 0.5 * (b_comps[a] + shift(b_comps[a], a, 1, space.boundary))
        upwind = np.where(b_face > 0.0, rho_values, rho_r)
        flux = b_face * upwind - diffusion[a] * (rho_r - rho_values) / dx
        rhs -= _face_div(flux, a, dx, space.boundary)
    return rhs


def fp_stability_limit(
    S: ScalarField,
    params: PhysicalParams,
    A: VectorField | None = None,
    rho: ScalarField | None = None,
    safety: float = 0.9,
) -> float:
    """Largest admissible explicit step: diffusion plus advection rates.

    If rho is given, the continuity-form current velocity is also included,
    which matters when osmotic speeds exceed the bare drift.
    """
    comps = drift_velocity(S, params, A).components
    if rho is not None:
        comps = comps + osmotic_velocity(rho, params).components
    return _stability_limit(comps, S.space, params, safety)


def _stability_limit(comps, space, params, safety):
    """fp_stability_limit for the velocity comps (components)."""
    rate = 0.0
    for a in range(space.dim):
        D = 0.5 * params.eta_over_m[a]
        rate += 2.0 * D / space.spacings[a] ** 2
    for a in range(space.dim):
        face = 0.5 * (comps[a] + shift(comps[a], a, 1, space.boundary))
        rate += float(np.abs(face).max()) / space.spacings[a]
    return safety / rate


def _finish_step(space, raw_values):
    clipped = np.minimum(raw_values, 0.0)
    lost = float(clipped.sum()) * space.cell_volume
    if lost < 0.0:
        log.debug("fp_step clipped negative mass %.3e", -lost)
    return normalize_density(ScalarField(space, np.maximum(raw_values, 0.0)))


def fp_step(
    rho: ScalarField,
    S: ScalarField,
    params: PhysicalParams,
    dt: float,
    A: VectorField | None = None,
) -> ScalarField:
    """One Heun step of the drift-diffusion form; its drift also gives the
    explicit bound it checks dt against."""
    params.matches_space(rho.space)
    space = rho.space
    require_same_grid(rho, S, "entropy field lives on a different grid")
    b = drift_velocity(S, params, A).components
    limit = _stability_limit(b, space, params, safety=1.0)
    if dt > limit:
        raise StabilityError(f"dt={dt:g} exceeds the explicit bound {limit:g}", dt_max=limit)
    D = 0.5 * params.eta_over_m
    k1 = _drift_diffusion_rhs(rho.values, b, D, space)
    mid = rho.values + dt * k1
    k2 = _drift_diffusion_rhs(mid, b, D, space)
    return _finish_step(space, rho.values + 0.5 * dt * (k1 + k2))
