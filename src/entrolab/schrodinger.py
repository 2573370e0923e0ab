"""The reference wavefunction solver on the grid.

The map Psi = sqrt(rho) exp(i phi) turns the coupled density/phase equations
into a single complex equation

    i eta dPsi/dt = sum_a [ -(eta^2/2 m_a) d^2/dx_a^2 ] Psi + V Psi
                  + sum_a (eta^2/2 m_a)(1 - mu_a/m_a) [d^2|Psi|/dx_a^2 / |Psi|] Psi

which is linear exactly when mu_a = m_a.  The linear propagator implemented
here is the second-order Cayley (implicit half-step) scheme, factored per
axis with a palindromic sweep and potential half-phases, so each step is
norm-preserving to solver roundoff and second order in dt.

Magnetic coupling uses link phases: the hopping term from cell i to i+1 on
axis a is multiplied by exp(-i beta l), with l the line integral of A_a
across that face.  Links are built from the spectral antiderivative of A, so
a gauge transformation A -> A + grad(chi) (spectral gradient, periodic boxes)
shifts every link by exactly chi(i+1) - chi(i).  The transformed Hamiltonian
is then exactly unitarily equivalent to the original and gauge checks hold to
roundoff rather than to scheme order.  Each axis solve is one batched FFT: a
gauge by the cumulative link phase gives every hop on a periodic line the
same twist, the line's holonomy over its cell count, so the line's hopping
operator is circulant and the Cayley factor is diagonal in Fourier space.

A and V are static over a run (a driven potential is a new ScalarField each
step), so what is built from them lives in one weak memo keyed on the field:
V's half-kick phase, A's face links and the energy's hop phases, and each
axis's sweep operators, kept on A when there is one and else on V, which
every step has.  That is sound because fields are immutable values (the
fields.py contract): code that needs another A or V builds a new field, and
an entry dies with its field.
Each slot keeps only the value built for its last scalars, so a caller that
varies dt rebuilds instead of growing the memo.

There is one stepper, the linear one.  A mu != m flow is the linear flow in
regraduated units (dynamics.regraduate: phi' = kappa phi, eta' = eta/kappa,
beta' = kappa beta, kappa = sqrt(m/mu)), which leaves rho, the velocity and
the energy functional unchanged; the nonlinear engine steps Psi' =
sqrt(rho) exp(i kappa phi) with unitary_step under the regraduated params.
"""

from __future__ import annotations

import math
import weakref
from dataclasses import dataclass

import numpy as np

from .dynamics import EnergyBreakdown, ManifoldState
from .errors import ConfigError, DegenerateDensityError
from .fields import (
    ComplexField,
    ConfigSpace,
    PhysicalParams,
    ScalarField,
    VectorField,
    require_periodic,
    require_same_grid,
)


@dataclass(frozen=True, eq=False)
class WaveFunction:
    psi: ComplexField
    time: float = 0.0

    @property
    def space(self) -> ConfigSpace:
        return self.psi.space


def to_wavefunction(state: ManifoldState) -> WaveFunction:
    amp = np.sqrt(np.maximum(state.rho.values, 0.0))
    return WaveFunction(
        psi=ComplexField(state.space, amp * np.exp(1j * state.phi.values)),
        time=state.time,
    )


def probability_density(w: WaveFunction) -> ScalarField:
    return ScalarField(w.space, np.abs(w.psi.values) ** 2)


def from_wavefunction(w: WaveFunction) -> ManifoldState:
    """The polar split: rho = |Psi|^2 and phi = angle(Psi), in (-pi, pi]."""
    psi = w.psi.values
    if not np.abs(psi).max() > 0.0:
        raise DegenerateDensityError("wavefunction vanishes everywhere")
    rho, phi = ScalarField(w.space, np.abs(psi) ** 2), ScalarField(w.space, np.angle(psi))
    return ManifoldState(rho=rho, phi=phi, time=w.time)


# ---------------------------------------------------------------------------
# spectral helpers (periodic boxes)


def _axis_wavenumbers(space, axis):
    n = space.points[axis]
    dx = space.spacings[axis]
    return 2.0 * math.pi * np.fft.fftfreq(n, d=dx)


def _reshape_k(k, axis, dim):
    shape = [1] * dim
    shape[axis] = k.size
    return k.reshape(shape)


def spectral_gradient(chi: ScalarField) -> VectorField:
    """Exact band-limited gradient; the inverse of the link antiderivative."""
    require_periodic(chi.space, "the spectral gradient")
    space = chi.space
    comps = []
    for a in range(space.dim):
        k = _reshape_k(_axis_wavenumbers(space, a), a, space.dim)
        comps.append(np.real(np.fft.ifft(1j * k * np.fft.fft(chi.values, axis=a), axis=a)))
    return VectorField(space, np.stack(comps))


def _face_links(space: ConfigSpace, A: VectorField):
    """Line integrals of A across each cell face, axis by axis.

    link_a[i] integrates A_a from center i to center i+1 along axis a: the
    spectral antiderivative handles the fluctuating part exactly and the
    line mean contributes mean * dx.
    """
    links = []
    for a in range(space.dim):
        vals = A.components[a]
        dx = space.spacings[a]
        mean = vals.mean(axis=a, keepdims=True)
        fluct = vals - mean
        k = _reshape_k(_axis_wavenumbers(space, a), a, space.dim)
        with np.errstate(divide="ignore", invalid="ignore"):
            inv = np.where(k == 0.0, 0.0, 1.0 / np.where(k == 0.0, 1.0, k))
        F = np.real(np.fft.ifft(np.fft.fft(fluct, axis=a) * (-1j) * inv, axis=a))
        links.append(np.roll(F, -1, axis=a) - F + mean * dx)
    return links


def gauge_transform(w: WaveFunction, A: VectorField | None, chi: ScalarField, beta: float):
    """Psi' = exp(i beta chi) Psi and A' = A + grad(chi) (spectral gradient)."""
    require_periodic(w.space, "gauge transformation")
    require_same_grid(w, chi, "chi lives on a different grid", ConfigError)
    psi_new = ComplexField(w.space, w.psi.values * np.exp(1j * beta * chi.values))
    grad_chi = spectral_gradient(chi)
    if A is None:
        A_new = grad_chi
    else:
        A_new = VectorField(w.space, A.components + grad_chi.components)
    return WaveFunction(psi=psi_new, time=w.time), A_new


# ---------------------------------------------------------------------------
# Cayley kinetic sweeps


def _cayley_factor(n, axis, dim, h, c, twist=0.0):
    """(1 - i h lam / 2) / (1 + i h lam / 2) over the sweep's Fourier modes,
    with lam = 2c(1 - cos(k - twist)) the eigenvalues of the line's twisted
    circulant hopping operator."""
    j = _reshape_k(np.arange(n), axis, dim)
    lam = 2.0 * c * (1.0 - np.cos(2.0 * math.pi * j / n - twist))
    return (1.0 - 0.5j * h * lam) / (1.0 + 0.5j * h * lam)


def _sweep_operators(space, params, axis, h, link):
    """Gauge phases, their conjugates and the Cayley factor of one axis sweep.

    The sweep solves (1 + i h H_a / 2 eta) psi' = (1 - i h H_a / 2 eta) psi
    with H_a the periodic hopping operator for that axis, link phases
    included.  The gauge alpha_j = sum_{i<j} beta link_i - j Theta/n, with
    Theta = beta sum link the holonomy of the line, gives every hop the same
    twist exp(-i Theta/n); H_a is then circulant with eigenvalues
    2c(1 - cos(k - Theta/n)), so the factor is diagonal in Fourier space and
    one batched FFT solves every line of the axis.  Without links there is
    no gauge (None) and no twist.
    """
    n = space.points[axis]
    c = params.eta / (2.0 * params.masses[axis] * space.spacings[axis] ** 2)
    if link is None:
        return None, None, _cayley_factor(n, axis, space.dim, h, c)
    j = _reshape_k(np.arange(n), axis, space.dim)
    bl = params.beta * link
    twist = bl.sum(axis=axis, keepdims=True) / n
    gauge = np.exp(1j * (np.cumsum(bl, axis=axis) - bl - j * twist))
    return gauge, np.conj(gauge), _cayley_factor(n, axis, space.dim, h, c, twist)


# field (V or A) -> {slot: (key, value)}; fields hash by identity
_BUILT = weakref.WeakKeyDictionary()


def _built(field, slot, key, build):
    """The value of `field`'s slot as built for key; on a miss, build()
    replaces the slot's last value."""
    slots = _BUILT.setdefault(field, {})
    cached = slots.get(slot)
    if cached is None or cached[0] != key:
        cached = slots[slot] = (key, build())
    return cached[1]


def _half_kick(values, dt, eta):
    """exp(-i dt V / 2 eta), the phase of half a step of the potential."""
    return np.exp(-0.5j * dt * values / eta)


def _cayley_axis_sweep(psi, axis, operators):
    """One Cayley half-implicit kinetic step along a single axis."""
    gauge, conj_gauge, factor = operators
    if gauge is None:
        return np.fft.ifft(factor * np.fft.fft(psi, axis=axis), axis=axis)
    return gauge * np.fft.ifft(factor * np.fft.fft(conj_gauge * psi, axis=axis), axis=axis)


def _kinetic_palindrome(psi, space, params, dt, V, A):
    # the sweep operators are kept on A when there is one, else on V; the key
    # holds every scalar _sweep_operators reads, and the grid's shape is the field's
    holder, links = V, (None,) * space.dim
    if A is not None:
        holder, links = A, _built(A, "links", None, lambda: _face_links(space, A))

    def sweep(psi, axis, h):
        key = (h, params.beta, params.eta, params.masses[axis], space.spacings[axis])
        operators = _built(
            holder, ("sweep", axis), key,
            lambda: _sweep_operators(space, params, axis, h, links[axis]),
        )
        return _cayley_axis_sweep(psi, axis, operators)

    dim = space.dim
    for a in range(dim - 1):
        psi = sweep(psi, a, 0.5 * dt)
    psi = sweep(psi, dim - 1, dt)
    for a in range(dim - 2, -1, -1):
        psi = sweep(psi, a, 0.5 * dt)
    return psi


def unitary_step(
    w: WaveFunction,
    params: PhysicalParams,
    V: ScalarField,
    dt: float,
    A: VectorField | None = None,
) -> WaveFunction:
    """One linear, norm-preserving split step (potential half-phases around
    a palindromic per-axis Cayley kinetic sweep).

    The half-kick factor multiplies from the left: complex products are not
    commutative bit for bit, so the operand order is part of the result.
    """
    params.matches_space(w.space)
    require_periodic(w.space, "the wavefunction solver")
    require_same_grid(w, A, "the vector potential lives on a different grid")
    space = w.space
    kick = _built(V, "kick", (dt, params.eta), lambda: _half_kick(V.values, dt, params.eta))
    psi = _kinetic_palindrome(kick * w.psi.values, space, params, dt, V, A)
    return WaveFunction(psi=ComplexField(space, kick * psi), time=w.time + dt)


# The benchmark's tracer times the nonlinear engine's steps under this name,
# which the engine looks up at call time; the step itself is unitary_step.
nonlinear_step = unitary_step


def wavefunction_energy_breakdown(
    w: WaveFunction,
    params: PhysicalParams,
    V: ScalarField,
    A: VectorField | None = None,
) -> EnergyBreakdown:
    """Energy of the wave state split into current/osmotic/potential parts.

    Built from the same hopping stencil the stepper uses, via the face-sum
    identity <T_a> = c_a sum_faces |psi_+ e^{-i beta theta} - psi|^2.  The
    amplitude part of <T_a> is reweighted by mu_a / m_a, so the total is
    <T + V> plus an osmotic-mismatch correction that vanishes when mu = m:
    then it is plain <H>, the functional unitary_step conserves.  A
    nonlinear run passes its regraduated params, whose mu' = m, and the
    functional is the same number in either units.
    """
    params.matches_space(w.space)
    require_same_grid(w, A, "the vector potential lives on a different grid")
    space = w.space
    psi = w.psi.values
    vol = space.cell_volume
    hops = None
    if A is not None:
        links = _built(A, "links", None, lambda: _face_links(space, A))
        hops = _built(A, "hops", params.beta,
                      lambda: [np.exp(-1j * params.beta * link) for link in links])
    amp = np.abs(psi)
    current = 0.0
    osmotic = 0.0
    for a in range(space.dim):
        dx = space.spacings[a]
        c = params.eta**2 / (2.0 * params.masses[a] * dx**2)
        hop = np.roll(psi, -1, a)
        if hops is not None:
            hop = hops[a] * hop
        t_a = c * float((np.abs(hop - psi) ** 2).sum()) * vol
        f_a = c * float(((np.roll(amp, -1, a) - amp) ** 2).sum()) * vol
        current += t_a - f_a
        osmotic += params.osmotic_ratio * f_a
    potential = float((V.values * amp**2).sum()) * vol
    return EnergyBreakdown(current, osmotic, potential)


def phase_aligned_distance(a: WaveFunction, b: WaveFunction) -> float:
    """L2 distance between wavefunctions minimized over a global phase.

    Computed as a pointwise difference against the optimally rotated b, not
    via the inner-product identity sqrt(2 - 2|<a,b>|), which cannot resolve
    distances below sqrt(machine epsilon).
    """
    require_same_grid(a, b, "wavefunctions live on different grids", ConfigError)
    vol = a.space.cell_volume
    inner = complex((np.conj(a.psi.values) * b.psi.values).sum() * vol)
    rot = np.conj(inner) / abs(inner) if inner != 0.0 else 1.0
    gap = a.psi.values - rot * b.psi.values
    return math.sqrt(float((np.abs(gap) ** 2).sum()) * vol)
