"""Coupled density/phase dynamics on the statistical manifold.

The state is a pair (rho, phi).  The density moves along the current
velocity v_a = (eta/m_a)(dphi/dx_a - beta A_a) by the continuity equation,
and the phase obeys a Hamilton-Jacobi equation with an osmotic correction:

    eta dphi/dt + sum_a (eta^2 / 2 m_a)(dphi/dx_a - beta A_a)^2 + V
        - sum_a (mu_a eta^2 / 2 m_a^2) (d^2 sqrt(rho)/dx_a^2) / sqrt(rho) = 0 .

Together these conserve the functional

    E = int rho [ sum_a (eta^2/2 m_a)(dphi_a - beta A_a)^2
                + sum_a (mu_a eta^2 / 8 m_a^2)(dlog rho / dx_a)^2 + V ]

for static potentials.  When mu_a = m_a the pair is the polar form of a
linear wave equation; general mu is handled by the same stepper and can be
mapped onto the linear case by the rescaling in regraduate().

Time stepping is a symmetric (Strang) composition: half step of rho, full
step of phi against the half-stepped density, half step of rho with the new
phase.  Each substep uses the explicit midpoint rule, so the whole step is
second order in dt and second order in dx (central fluxes).  The composition
is the kick-drift-kick pattern of a canonically conjugate pair, which keeps
linearized modes neutrally stable up to the dispersion bound reported by
coupled_stability_limit; periodic boxes only.

The polar form is singular where rho -> 0, and five guards keep the
vacuum from poisoning the supported region; none of them engages on cells
that carry measurable mass.  (1) The density entering the osmotic force
is clamped at DENSITY_REL_FLOOR times its peak and the stencil's
amplitude ratios are clipped, so the force is zero deep in empty regions
and bounded across unresolved jumps.  (2) Continuity faces steeper than
FACE_RATIO_LIMIT in density fall back from central to donor-cell flux, so
cliffs diffuse monotonically instead of ringing negative.  (3) The energy
integrand and the stability estimate ignore cells below the support
floor, SUPPORT_REL_FLOOR times the peak density: the phase has meaning only
through the current where rho > 0, and velocities over empty cells move
nothing.  (4)
After every step the phase below the support floor is rewritten from the
support boundary: in 1D a smooth blend of slope-tapered extensions from
both ends of each gap; in 2D and 3D layer by layer outward, each cell the
mean of its already-filled nearest neighbours.  Phase kinks seeded at the
clamp edge would otherwise grow and creep back into the support through
the kinetic term, and any jump inside the fill would act as a convergent
velocity that compresses trace density into fake mass.  (5) Density
below VACUUM_FLUSH_FLOOR times the peak is flushed to exact zero,
removing the seed such compression would feed on.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import ConfigError, StabilityError
from .fields import (
    DENSITY_REL_FLOOR,
    PERIODIC,
    ConfigSpace,
    PhysicalParams,
    ScalarField,
    VectorField,
    axis_gradient,
    clamped_log,
    gradient,
    normalize_density,
    require_periodic,
    require_same_grid,
    shift,
)
from .fokker_planck import _face_div, covariant_gradient, drift_velocity


@dataclass(frozen=True, eq=False)
class ManifoldState:
    rho: ScalarField
    phi: ScalarField
    time: float = 0.0

    def __post_init__(self):
        require_same_grid(self.rho, self.phi, "rho and phi live on different grids", ConfigError)

    @property
    def space(self) -> ConfigSpace:
        return self.rho.space


@dataclass(frozen=True)
class EnergyBreakdown:
    current_term: float
    osmotic_term: float
    potential_term: float

    @property
    def total(self):
        return self.current_term + self.osmotic_term + self.potential_term


# relative density level that counts as dynamical support; kept well above
# the clamp floor so the clamped osmotic shell lies entirely in the vacuum
SUPPORT_REL_FLOOR = 1e-8
# density this far below the peak is flushed to exact zero after each step;
# trace amounts left in the vacuum are the seed that convergent filled-phase
# velocities can compress back up into fake mass islands
VACUUM_FLUSH_FLOOR = 1e-14


def _mass_mask(rho_values):
    """Support = the cells at or above SUPPORT_REL_FLOOR times the peak density.

    Support is a property of the density alone: a floor-level cell counts
    whether or not it touches the bulk.
    """
    return rho_values >= SUPPORT_REL_FLOOR * rho_values.max()


def _extend_phase_into_vacuum(phi_values, rho_values):
    """Extend the phase from the support boundary into sub-floor cells.

    The phase carries no information where there is no density, but evolving
    it there lets the clamped osmotic term build phase kinks at the clamp
    edge that creep back into the support through the kinetic term.  Each
    vacuum cell is instead rewritten from the support boundary (guard (4)
    of the module docstring).  In 2D and 3D each vacuum cell's layer is its
    periodic taxicab distance to the support, computed once per step; layer
    by layer, a cell takes the mean of its neighbours in the layer below,
    summed from +0.0 in neighbour-table order.  The fill is linear in the
    phase values, so it commutes with the coupling-rescaling map; no cell
    that carries mass is touched.
    """
    mask = _mass_mask(rho_values)
    if mask.all():
        return phi_values
    if phi_values.ndim == 1:
        return _linear_fill_1d(phi_values, mask)
    layer = _support_distance(mask).ravel()
    order = np.argsort(layer, kind="stable")  # support first, then layer by layer
    bounds = np.cumsum(np.bincount(layer)).tolist()
    nb = np.take(_neighbor_table(mask.shape), order, axis=1)
    below = (layer.take(nb) == layer[order] - 1).sum(axis=0)  # neighbours in the layer below
    out = np.where(mask.ravel(), phi_values.ravel(), 0.0)  # unfilled cells hold +0.0
    for lo, hi in zip(bounds[:-1], bounds[1:]):
        # the sum starts at +0.0, so it is never -0.0, and an unfilled
        # neighbour's +0.0 leaves its bits as skipping that neighbour would
        total = np.add.reduce(out.take(nb[:, lo:hi]), axis=0, initial=0.0)
        out[order[lo:hi]] = total / below[lo:hi]
    return out.reshape(mask.shape)


def _support_distance(mask):
    """Periodic taxicab distance of each cell to the nearest True cell.

    Per axis, one forward and one backward running minimum over two periods
    carry the distance along that axis; in turn over the axes they give the
    taxicab distance.  int16 while every intermediate fits."""
    far = sum(mask.shape)  # beyond every distance on the grid
    dtype = np.int16 if 3 * far <= np.iinfo(np.int16).max else np.int32
    dist = np.where(mask, 0, far).astype(dtype)
    for axis, n in enumerate(mask.shape):
        d = np.moveaxis(dist, axis, 0)
        ramp = np.arange(2 * n, dtype=dtype).reshape((-1,) + (1,) * (mask.ndim - 1))
        twice = np.concatenate([d, d])
        ahead = np.minimum.accumulate(twice - ramp, axis=0) + ramp
        behind = np.minimum.accumulate((twice + ramp)[::-1], axis=0)[::-1] - ramp
        dist = np.moveaxis(np.minimum(ahead[n:], behind[:n]), 0, axis)
    return dist


@functools.lru_cache(maxsize=8)
def _neighbor_table(shape):
    """Flat indices of each cell's periodic neighbours, one row per side:
    axis 0 from i-1, axis 0 from i+1, axis 1 from i-1, ...  Cached, read-only."""
    idx = np.arange(math.prod(shape)).reshape(shape)
    table = np.stack([np.roll(idx, s, axis=a).ravel() for a in range(len(shape)) for s in (1, -1)])
    table.setflags(write=False)
    return table


def _edge_slope(phi, m, i, inward):
    """Per-cell phase increment at a support boundary cell, one-sided.

    Averaged over up to three cells into the support to keep a single noisy
    boundary value from steering the whole fill ramp.
    """
    n = m.size
    for k in (3, 2, 1):
        if all(m[(i + inward * t) % n] for t in range(1, k + 1)):
            d = (phi[(i + inward * k) % n] - phi[i]) / k
            return d if inward > 0 else -d
    return 0.0


# the fill ramp's slope decays by this factor per cell, so the extension
# goes flat within ~10 cells and deep-vacuum fill ramps cannot advect the
# floor-level leakage into puddles where two ramps meet
FILL_SLOPE_DECAY = 0.7


def _linear_fill_1d(phi_values, mask):
    n = mask.size
    shift = int(np.argmax(mask))  # rotate a supported cell to index 0
    m = np.roll(mask, -shift)
    phi = np.roll(phi_values, -shift).copy()
    r = FILL_SLOPE_DECAY
    edges = np.flatnonzero(m[:-1] != m[1:])  # last index of each run
    # runs alternate supported / vacuum starting supported; pair them up
    for start, stop in zip(edges[::2], np.append(edges[1::2], n - 1)):
        left = start  # last supported cell before the gap
        right = (stop + 1) % n  # first supported cell after the gap
        gap = stop - start
        slope_l = _edge_slope(phi, m, left, -1)
        slope_r = _edge_slope(phi, m, right, +1)
        # Blend the two tapered branches with a smoothstep weight instead of
        # letting them meet at a point: a meeting-point jump is a convergent
        # velocity singularity that compresses whatever trace density sits
        # in the gap at an unbounded rate.
        k = np.arange(1, gap + 1)
        branch_l = phi[left] + slope_l * (1.0 - r**k) / (1.0 - r)
        branch_r = phi[right] - slope_r * (1.0 - r ** (gap + 1 - k)) / (1.0 - r)
        s = k / (gap + 1.0)
        w = 1.0 - s * s * (3.0 - 2.0 * s)
        phi[left + 1 : stop + 1] = w * branch_l + (1.0 - w) * branch_r
    return np.roll(phi, shift)


# neighbor amplitude ratios above this are unresolved jumps, not tails: a
# resolved exponential tail changes by e^{|dlog rho| dx / 2} per cell.  The
# curvature of a jump is clipped to the stencil scale instead of diverging
# as (amp_live / amp_floor) / dx^2.
AMP_RATIO_LIMIT = 8.0


def clipped_amplitude_curvature(amp, space, coeffs):
    """sum_a coeffs[a] (second difference of amp along axis a) / amp, the
    neighbor amplitude ratios clipped at AMP_RATIO_LIMIT; amp must be clamped
    positive by the caller."""
    out = np.zeros(space.shape)
    for a in range(space.dim):
        curvature = (
            np.minimum(shift(amp, a, 1, space.boundary) / amp, AMP_RATIO_LIMIT)
            + np.minimum(shift(amp, a, -1, space.boundary) / amp, AMP_RATIO_LIMIT)
            - 2.0
        ) / space.spacings[a] ** 2
        out += coeffs[a] * curvature
    return out


def quantum_potential(rho: ScalarField, params: PhysicalParams) -> ScalarField:
    """The osmotic curvature term sum_a (mu_a eta^2 / 2 m_a^2) Lap_a sqrt(rho)/sqrt(rho).

    The density is clamped at DENSITY_REL_FLOOR relative to its peak before
    the ratio is formed, so the term is zero deep in empty regions, and the
    neighbor amplitude ratios entering the second difference are clipped at
    AMP_RATIO_LIMIT, so it stays bounded across unresolved cliffs.  On
    resolved profiles neither guard engages and the term is the plain
    three-point ratio.
    """
    params.matches_space(rho.space)
    amp = np.sqrt(np.maximum(rho.values, DENSITY_REL_FLOOR * rho.values.max()))
    coeffs = params.osmotic_masses * params.eta**2 / (2.0 * params.masses**2)
    return ScalarField(rho.space, clipped_amplitude_curvature(amp, rho.space, coeffs))


def energy(
    state: ManifoldState,
    params: PhysicalParams,
    V: ScalarField,
    A: VectorField | None = None,
) -> EnergyBreakdown:
    """Midpoint-rule energy integrals; empty cells contribute nothing."""
    params.matches_space(state.space)
    space = state.space
    rho = state.rho.values
    mask = _mass_mask(rho)
    weight = np.where(mask, rho, 0.0) * space.cell_volume

    gphi = covariant_gradient(state.phi, params, A)
    current = 0.0
    for a in range(space.dim):
        coeff = params.eta**2 / (2.0 * params.masses[a])
        current += coeff * float((weight * gphi[a] ** 2).sum())

    glog = gradient(ScalarField(space, clamped_log(rho))).components
    osmotic = 0.0
    for a in range(space.dim):
        coeff = params.osmotic_masses[a] * params.eta**2 / (8.0 * params.masses[a] ** 2)
        osmotic += coeff * float((weight * glog[a] ** 2).sum())

    potential = float((weight * V.values).sum())
    return EnergyBreakdown(current_term=current, osmotic_term=osmotic, potential_term=potential)


# ---------------------------------------------------------------------------
# stepping


def _kinetic(g, params):
    """sum_a eta^2 / (2 m_a) g_a^2 for a covariant gradient g of the phase."""
    kinetic = np.zeros(g.shape[1:])
    for a in range(g.shape[0]):
        kinetic += (params.eta**2 / (2.0 * params.masses[a])) * g[a] ** 2
    return kinetic


def _phi_step(rho_values, phi, kinetic, params, V, A, dt):
    """phi advanced by one explicit midpoint step with rho frozen, so both
    stages share one quantum potential; kinetic is phi's _kinetic term."""
    q = quantum_potential(ScalarField(phi.space, rho_values), params).values
    mid = ScalarField(phi.space, phi.values + 0.5 * dt * ((q - kinetic - V.values) / params.eta))
    kinetic_mid = _kinetic(covariant_gradient(mid, params, A), params)
    return phi.values + dt * ((q - kinetic_mid - V.values) / params.eta)


# faces with a density ratio above this are advected donor-cell instead of
# centrally: central fluxes ring on unresolved cliffs, the ringing clips
# negative, and the clipping sharpens the cliff into an exact-zero wall
FACE_RATIO_LIMIT = math.exp(1.5)


def _rho_halfstep(rho_values, v, space, half_dt):
    """rho advanced by one explicit midpoint step of -sum_a d(rho v_a)/dx_a
    in flux form, the drift velocity v and its face values v_face frozen for
    both stages.  Faces steeper than FACE_RATIO_LIMIT in density fall back
    from the central flux to donor-cell, which diffuses a cliff monotonically
    instead of ringing; resolved mass-carrying regions never trigger it."""
    v_face = [0.5 * (v[a] + shift(v[a], a, 1, PERIODIC)) for a in range(space.dim)]

    def rhs(rho):
        out = np.zeros(space.shape)
        for a in range(space.dim):
            cell_flux = rho * v[a]
            rho_plus = shift(rho, a, 1, PERIODIC)
            face = cell_flux + shift(cell_flux, a, 1, PERIODIC)  # face[i]: between i, i+1
            face *= 0.5
            steep = np.flatnonzero(
                (rho > FACE_RATIO_LIMIT * rho_plus) | (rho_plus > FACE_RATIO_LIMIT * rho)
            )
            vf = v_face[a].ravel()[steep]
            donor = np.where(vf > 0.0, rho.ravel()[steep], rho_plus.ravel()[steep])
            face.ravel()[steep] = donor * vf
            out -= _face_div(face, a, space.spacings[a], PERIODIC)
        return out

    mid = rho_values + 0.5 * half_dt * rhs(rho_values)
    return rho_values + half_dt * rhs(mid)


def coupled_stability_limit(
    state: ManifoldState,
    params: PhysicalParams,
    A: VectorField | None = None,
    safety: float = 0.8,
) -> float:
    """Admissible dt: dispersion of the osmotic term plus advection.

    The stiffest linearized mode oscillates at
    omega_max = sum_a sqrt(mu_a/m_a) (eta / 2 m_a) lambda_a with lambda_a the
    largest stencil eigenvalue 4/dx_a^2; the kick-drift-kick composition is
    neutrally stable for omega dt <= 2.  Advection speeds are measured only
    where the density carries mass (velocity over empty cells moves nothing).
    """
    v = drift_velocity(state.phi, params, A).components
    return _stability_limit(state.rho.values, v, state.space, params, safety)


def _stability_limit(rho_values, v, space, params, safety):
    """coupled_stability_limit for the drift velocity v (components) of the phase."""
    root_ratio = math.sqrt(params.osmotic_ratio)
    omega = 0.0
    for a in range(space.dim):
        omega += root_ratio * (params.eta / (2.0 * params.masses[a])) * 4.0 / space.spacings[a] ** 2
    mask = _mass_mask(rho_values)
    rate = 0.5 * omega
    for a in range(space.dim):
        vmax = float(np.abs(v[a])[mask].max()) if mask.any() else 0.0
        rate += vmax / space.spacings[a]
    return safety / rate


def coupled_step(
    state: ManifoldState,
    params: PhysicalParams,
    V: ScalarField,
    dt: float,
    A: VectorField | None = None,
) -> ManifoldState:
    """One symmetric split step: rho half, phi full, rho half.  One gradient
    g of the phase serves the bound, the first rho half step and the phi
    step's first stage; each phi step builds q once, each rho half step its
    v_face once."""
    params.matches_space(state.space)
    require_periodic(state.space, "the coupled solver")
    space = state.space
    g = covariant_gradient(state.phi, params, A)
    v = params.eta_over_m.reshape((-1,) + (1,) * space.dim) * g
    kinetic = _kinetic(g, params)
    del g  # not kept alive through the rho half step
    limit = _stability_limit(state.rho.values, v, space, params, safety=1.0)
    if dt > limit:
        raise StabilityError(f"dt={dt:g} exceeds the split-step bound {limit:g}", dt_max=limit)

    rho_half = _rho_halfstep(state.rho.values, v, space, 0.5 * dt)
    rho_half = np.maximum(rho_half, 0.0)
    phi_new = ScalarField(space, _phi_step(rho_half, state.phi, kinetic, params, V, A, dt))
    v_new = drift_velocity(phi_new, params, A).components
    rho_new = _rho_halfstep(rho_half, v_new, space, 0.5 * dt)
    rho_new = np.maximum(rho_new, 0.0)
    rho_new[rho_new < VACUUM_FLUSH_FLOOR * rho_new.max()] = 0.0
    rho_new = normalize_density(ScalarField(space, rho_new))
    phi_out = ScalarField(space, _extend_phase_into_vacuum(phi_new.values, rho_new.values))
    return ManifoldState(rho=rho_new, phi=phi_out, time=state.time + dt)


# ---------------------------------------------------------------------------
# diagnostics


def energy_rate_audit(times, totals, imposed) -> float:
    """The largest mismatch between dE/dt along a run's snapshots and the
    imposed power int rho dV/dt, relative to a rate scale.

    The inputs are three numbers per snapshot: its time, the energy total
    the run wrote (the functional its engine conserves, with the run's
    static A, which imposes no power) and the imposed power.  No field is
    needed: a driven V(x, t) = V0(x) (a + b t) has dV/dt = b V0, so the run
    records the power b int rho V0 with each energy row.  For a static V
    every power is zero and the audit reduces to an energy-drift audit.
    Rates are compared at the interior snapshots, normalized by
    max(|imposed power|, |E(0)| / duration) so both the driven and the
    static cases read as relative numbers.
    """
    times, totals, imposed = (np.asarray(x, dtype=float) for x in (times, totals, imposed))
    if times.size < 3:
        raise ValueError("need at least three snapshots for centered rates")
    if not totals.size == imposed.size == times.size:
        raise ValueError("totals and imposed must align with the times")

    numeric = (totals[2:] - totals[:-2]) / (times[2:] - times[:-2])
    imposed = imposed[1:-1]
    duration = times[-1] - times[0]
    scale = max(float(np.abs(imposed).max()), abs(totals[0]) / duration)
    if scale == 0.0:
        scale = 1.0
    return float(np.abs(numeric - imposed).max() / scale)


def hamilton_jacobi_residual(
    before: ManifoldState,
    after: ManifoldState,
    params: PhysicalParams,
    V: ScalarField,
) -> float:
    """Mass-weighted L2 norm of the classical Hamilton-Jacobi left-hand side.

    The action is eta * phi; its time derivative comes from differencing the
    two snapshots, the spatial terms from the midpoint fields.  The weight
    rho keeps the norm insensitive to cells that carry no probability (the
    phase of an empty cell is unobservable).  For states evolved by
    coupled_step the residual equals the osmotic curvature term up to scheme
    error, so it shrinks as eta^2 (or linearly in mu) toward the classical
    limit.
    """
    params.matches_space(before.space)
    span = after.time - before.time
    if span <= 0:
        raise ValueError("snapshots must be time-ordered")
    space = before.space
    phi_mid = 0.5 * (before.phi.values + after.phi.values)
    rho_mid = 0.5 * (before.rho.values + after.rho.values)
    lhs = params.eta * (after.phi.values - before.phi.values) / span + V.values
    phi_field = ScalarField(space, phi_mid)
    for a in range(space.dim):
        g = axis_gradient(phi_field, a)
        lhs = lhs + (params.eta**2 / (2.0 * params.masses[a])) * g**2
    weight = np.where(_mass_mask(rho_mid), rho_mid, 0.0)
    return math.sqrt(float((weight * lhs**2).sum()) * space.cell_volume)


def regraduate(state: ManifoldState, params: PhysicalParams, kappa: float | None = None):
    """Rescale (phi, eta, tau, mu) leaving the physical trajectory invariant.

    phi' = kappa phi, eta' = eta/kappa, tau' = kappa tau, osmotic_ratio' =
    kappa^2 osmotic_ratio (so mu' = kappa^2 mu); masses and A = eta tau / 2,
    hence the metric, are untouched.  With kappa = sqrt(A/B) the rescaled
    osmotic masses equal the masses: the polar form of the linear equation.

    The charge coupling carries inverse action units, so it rescales as
    beta' = kappa beta; the drift combination grad(phi) - beta A then picks
    up a uniform factor kappa and the velocity field is left untouched.
    """
    if kappa is None:
        kappa = params.kappa
    if kappa <= 0:
        raise ConfigError("kappa must be positive")
    new_params = replace(
        params,
        eta=params.eta / kappa,
        osmotic_ratio=kappa**2 * params.osmotic_ratio,
        tau=kappa * params.tau,
        beta=kappa * params.beta,
    )
    new_phi = ScalarField(state.space, kappa * state.phi.values)
    return ManifoldState(rho=state.rho, phi=new_phi, time=state.time), new_params
