import gc
import math
import os
import weakref

import numpy as np
import pytest

from entrolab import dynamics as dyn
from entrolab import scenarios
from entrolab import schrodinger as schro
from entrolab.errors import DegenerateDensityError
from entrolab.fields import ScalarField, VectorField

from conftest import (
    field_l2,
    gaussian_density,
    make_params,
    make_space,
    rest_state,
    zero_field,
)


def harmonic(space):
    return ScalarField(space, 0.5 * space.meshes[0] ** 2)


def coherent_state(space, center=1.0):
    return dyn.ManifoldState(
        rho=gaussian_density(space, center, 0.5), phi=zero_field(space), time=0.0
    )


def test_polar_roundtrip():
    p = make_params()
    space = make_space(12.0, 256, p)
    x = space.meshes[0]
    st = dyn.ManifoldState(
        gaussian_density(space, 0.5, 0.8),
        ScalarField(space, 0.3 * np.sin(2.0 * math.pi * x / 12.0)),
        time=1.25,
    )
    w = schro.to_wavefunction(st)
    back = schro.from_wavefunction(w)
    assert back.time == st.time
    assert field_l2(back.rho.values, st.rho.values, space) < 1e-13
    # phase agrees where there is mass to carry it
    mask = st.rho.values > 1e-6 * st.rho.values.max()
    gap = np.angle(np.exp(1j * (back.phi.values - st.phi.values)))
    assert np.abs(gap[mask]).max() < 1e-12


def test_probability_density_normalized():
    p = make_params()
    space = make_space(12.0, 256, p)
    w = schro.to_wavefunction(coherent_state(space))
    rho = schro.probability_density(w)
    assert rho.integral() == pytest.approx(1.0, abs=1e-12)


def test_unitary_step_preserves_norm_and_energy():
    """The norm is exact (the step is a Cayley rotation); the energy drifts
    only at the splitting's O(dt^2)."""
    p = make_params()
    space = make_space(12.0, 256, p)
    V = harmonic(space)
    w = schro.to_wavefunction(coherent_state(space))
    e0 = schro.wavefunction_energy_breakdown(w, p, V).total
    n0 = w.psi.norm_sq()

    drifts = {}
    for dt, n in ((0.01, 100), (0.002, 500)):
        w = schro.to_wavefunction(coherent_state(space))
        for _ in range(n):
            w = schro.unitary_step(w, p, V, dt)
        assert w.psi.norm_sq() == pytest.approx(n0, rel=1e-13)
        drifts[dt] = abs(schro.wavefunction_energy_breakdown(w, p, V).total - e0) / abs(e0)
    assert drifts[0.002] < 1e-6
    assert drifts[0.01] / drifts[0.002] > 10.0  # second order in dt


def test_coherent_state_returns_after_a_period():
    """In the oscillator a displaced ground-state packet is periodic with
    period 2 pi; the density must come home."""
    p = make_params()
    space = make_space(12.0, 256, p)
    V = harmonic(space)
    w0 = schro.to_wavefunction(coherent_state(space))
    n = 2000
    dt = 2.0 * math.pi / n
    w = w0
    for _ in range(n):
        w = schro.unitary_step(w, p, V, dt)
    rho0 = schro.probability_density(w0)
    rho1 = schro.probability_density(w)
    assert field_l2(rho1.values, rho0.values, space) < 5e-4


def test_free_packet_spreading_matches_analytic():
    p = make_params()
    space = make_space(30.0, 512, p)
    V = zero_field(space)
    w = schro.to_wavefunction(rest_state(space, 0.0, 1.0))
    T, n = 1.0, 500
    for _ in range(n):
        w = schro.unitary_step(w, p, V, T / n)
    s2 = 1.0 + (T / 2.0) ** 2  # var(t) = s0^2 + (eta t / 2 m s0)^2 ... at s0^2=1
    x = space.meshes[0]
    expect = np.exp(-(x**2) / (2.0 * s2)) / math.sqrt(2.0 * math.pi * s2)
    assert field_l2(schro.probability_density(w).values, expect, space) < 2e-4


def test_wavefunction_energy_breakdown_plane_wave():
    """A lattice plane wave has flat amplitude: zero osmotic term, and a
    kinetic term given by the discrete dispersion 2 c (1 - cos k dx)."""
    p = make_params(masses=(2.0,), eta=1.5, osmotic_ratio=3.0)
    space = make_space(12.0, 128, p)
    x = space.meshes[0]
    k = 2.0 * math.pi * 3.0 / 12.0
    psi = np.exp(1j * k * x) / math.sqrt(12.0)
    w = schro.WaveFunction(
        psi=schro.ComplexField(space, psi.astype(complex)), time=0.0
    )
    V = zero_field(space)
    e = schro.wavefunction_energy_breakdown(w, p, V)
    dx = space.spacings[0]
    c = p.eta**2 / (2.0 * p.masses[0] * dx**2)
    expect = c * 2.0 * (1.0 - math.cos(k * dx))  # times unit norm
    assert e.osmotic_term == pytest.approx(0.0, abs=1e-12)
    assert e.potential_term == 0.0
    assert e.current_term == pytest.approx(expect, rel=1e-12)


def test_wavefunction_energy_breakdown_matches_polar_energy():
    """The face-sum split and the polar-form integrals are two routes to the
    same functional; on smooth data they agree to stencil order."""
    p = make_params(osmotic_ratio=2.0)
    space = make_space(12.0, 512, p)
    x = space.meshes[0]
    st = dyn.ManifoldState(
        gaussian_density(space, 0.5, 0.8),
        ScalarField(space, 0.2 * np.sin(2.0 * math.pi * x / 12.0)),
        time=0.0,
    )
    V = harmonic(space)
    e_polar = dyn.energy(st, p, V)
    e_wave = schro.wavefunction_energy_breakdown(schro.to_wavefunction(st), p, V)
    assert e_wave.potential_term == pytest.approx(e_polar.potential_term, rel=1e-6)
    assert e_wave.current_term == pytest.approx(e_polar.current_term, rel=2e-3)
    assert e_wave.osmotic_term == pytest.approx(e_polar.osmotic_term, rel=2e-3)


def test_phase_aligned_distance_resolves_below_sqrt_epsilon():
    """The naive identity sqrt(2 - 2|<a,b>|) bottoms out at sqrt(machine
    epsilon); the pointwise form must see a 1e-12 perturbation."""
    p = make_params()
    space = make_space(12.0, 256, p)
    w = schro.to_wavefunction(coherent_state(space))
    rotated = schro.WaveFunction(
        psi=schro.ComplexField(space, w.psi.values * np.exp(1j * 0.37)), time=0.0
    )
    assert schro.phase_aligned_distance(w, rotated) < 1e-14

    bumped_vals = w.psi.values.copy()
    bumped_vals[100] += 1e-12
    bumped = schro.WaveFunction(psi=schro.ComplexField(space, bumped_vals), time=0.0)
    d = schro.phase_aligned_distance(w, bumped)
    assert 1e-14 < d < 1e-11


def test_phase_aligned_distance_orthogonal_states():
    p = make_params()
    space = make_space(12.0, 256, p)
    x = space.meshes[0]
    a = schro.WaveFunction(
        psi=schro.ComplexField(
            space, (np.exp(1j * 2.0 * math.pi * x / 12.0) / math.sqrt(12.0)).astype(complex)
        ),
        time=0.0,
    )
    b = schro.WaveFunction(
        psi=schro.ComplexField(
            space, (np.exp(1j * 4.0 * math.pi * x / 12.0) / math.sqrt(12.0)).astype(complex)
        ),
        time=0.0,
    )
    # orthogonal unit vectors sit at distance sqrt(2) regardless of rotation
    assert schro.phase_aligned_distance(a, b) == pytest.approx(math.sqrt(2.0), rel=1e-12)


def test_gauge_transform_is_exactly_unitary_dynamics():
    """Stepping the gauge twin and transforming the result must agree with
    transforming first and stepping in the twin potentials, to roundoff."""
    p = make_params(beta=0.7)
    space = make_space(20.0, 256, p)
    x = space.meshes[0]
    V = harmonic(space)
    A = VectorField(space, np.full((1,) + space.shape, 0.4))
    chi = ScalarField(space, 0.8 * np.sin(2.0 * math.pi * x / 20.0))

    st = dyn.ManifoldState(
        gaussian_density(space, -2.0, 1.0),
        ScalarField(space, 0.5 * x * 0.0),  # rest start
        0.0,
    )
    w = schro.to_wavefunction(st)
    w_twin, A_twin = schro.gauge_transform(w, A, chi, p.beta)

    dt = 0.01
    for _ in range(100):
        w = schro.unitary_step(w, p, V, dt, A)
        w_twin = schro.unitary_step(w_twin, p, V, dt, A_twin)

    w_mapped, _ = schro.gauge_transform(w, A, chi, p.beta)
    assert schro.phase_aligned_distance(w_mapped, w_twin) < 1e-12


def test_gauge_transform_without_a_vector_potential():
    """With no A the twin's A is the spectral gradient of chi itself."""
    p = make_params(beta=0.7)
    space = make_space(20.0, 64, p)
    chi = ScalarField(space, 0.8 * np.sin(2.0 * math.pi * space.meshes[0] / 20.0))
    phi = ScalarField(space, 0.3 * space.meshes[0])
    w = schro.to_wavefunction(dyn.ManifoldState(gaussian_density(space, -2.0, 1.0), phi))
    w_twin, A_twin = schro.gauge_transform(w, None, chi, p.beta)
    assert np.array_equal(A_twin.components, schro.spectral_gradient(chi).components)
    # d(chi)/dx = 0.8 (2 pi / 20) cos(2 pi x / 20), band-limited, so exact to roundoff
    k = 2.0 * math.pi / 20.0
    assert np.abs(A_twin.components[0] - 0.8 * k * np.cos(k * space.meshes[0])).max() < 1e-13
    assert np.array_equal(w_twin.psi.values, w.psi.values * np.exp(1j * p.beta * chi.values))
    assert w_twin.time == w.time


def _dense_hopping(space, p, axis, link):
    """The periodic hopping matrix of one axis on the flattened grid, with
    hop i -> i+1 weighted by exp(-i beta link_i) (link None: no phases)."""
    n = int(np.prod(space.shape))
    c = p.eta / (2.0 * p.masses[axis] * space.spacings[axis] ** 2)
    idx = np.arange(n).reshape(space.shape)
    fwd = np.roll(idx, -1, axis).ravel()
    phase = np.ones(n) if link is None else np.exp(-1j * p.beta * link).ravel()
    H = 2.0 * c * np.eye(n, dtype=complex)
    H[np.arange(n), fwd] -= c * phase
    H[fwd, np.arange(n)] -= c * np.conj(phase)
    return H


@pytest.mark.parametrize("shape", [(16,), (12, 10)], ids=["1d", "2d"])
def test_cayley_sweep_matches_dense_solve(shape):
    """Every axis sweep equals (I + ihH/2)^-1 (I - ihH/2) psi, with and
    without nonuniform link phases whose lines carry nonzero holonomy."""
    dim = len(shape)
    p = make_params(masses=(1.0, 1.5)[:dim], beta=0.7)
    space = make_space((8.0, 6.0)[:dim], shape, p, dim=dim)
    x = space.meshes
    kx = 2.0 * math.pi / space.extents[0]
    if dim == 1:
        comps = [0.6 + 0.5 * np.sin(kx * x[0])]
    else:
        ky = 2.0 * math.pi / space.extents[1]
        # curl A = d_x A_1 - d_y A_0 != 0, and every line's holonomy differs
        comps = [0.6 + 0.5 * np.sin(ky * x[1]) + 0.3 * np.cos(kx * x[0]),
                 -0.4 + 0.7 * np.cos(kx * x[0]) + 0.2 * np.sin(ky * x[1])]
    links = schro._face_links(space, VectorField(space, np.stack(comps)))
    rng = np.random.default_rng(7)
    psi = rng.normal(size=shape) + 1j * rng.normal(size=shape)
    h = 0.3
    eye = np.eye(psi.size)
    for axis in range(dim):
        for link in (None, links[axis]):
            holonomy = 0.0 if link is None else p.beta * link.sum(axis=axis)
            assert link is None or np.all(np.abs(holonomy) > 0.1)
            H = _dense_hopping(space, p, axis, link)
            expect = np.linalg.solve(eye + 0.5j * h * H, (eye - 0.5j * h * H) @ psi.ravel())
            ops = schro._sweep_operators(space, p, axis, h, link)
            got = schro._cayley_axis_sweep(psi, axis, ops)
            assert np.abs(got.ravel() - expect).max() <= 1e-13


# The gauge operators are memoized per A object.  The reference below is the
# uncached step they replaced: links and sweep operators rebuilt on every call.


def _uncached_face_links(space, A):
    links = []
    for a in range(space.dim):
        vals = A.components[a]
        dx = space.spacings[a]
        mean = vals.mean(axis=a, keepdims=True)
        fluct = vals - mean
        k = schro._reshape_k(schro._axis_wavenumbers(space, a), a, space.dim)
        with np.errstate(divide="ignore", invalid="ignore"):
            inv = np.where(k == 0.0, 0.0, 1.0 / np.where(k == 0.0, 1.0, k))
        F = np.real(np.fft.ifft(np.fft.fft(fluct, axis=a) * (-1j) * inv, axis=a))
        links.append(np.roll(F, -1, axis=a) - F + mean * dx)
    return links


def _uncached_sweep(psi, space, params, axis, h, link, beta):
    n = space.points[axis]
    c = params.eta / (2.0 * params.masses[axis] * space.spacings[axis] ** 2)
    j = schro._reshape_k(np.arange(n), axis, space.dim)
    bl = beta * link
    twist = bl.sum(axis=axis, keepdims=True) / n
    gauge = np.exp(1j * (np.cumsum(bl, axis=axis) - bl - j * twist))
    lam = 2.0 * c * (1.0 - np.cos(2.0 * math.pi * j / n - twist))
    factor = (1.0 - 0.5j * h * lam) / (1.0 + 0.5j * h * lam)
    return gauge * np.fft.ifft(factor * np.fft.fft(np.conj(gauge) * psi, axis=axis), axis=axis)


def _uncached_step(w, p, V, dt, A):
    """The 2D unitary step: half-phase, sweeps on axes 0, 1, 0, half-phase."""
    links = _uncached_face_links(w.space, A)
    psi = np.exp(-0.5j * dt * V.values / p.eta) * w.psi.values
    for axis, h in ((0, 0.5 * dt), (1, dt), (0, 0.5 * dt)):
        psi = _uncached_sweep(psi, w.space, p, axis, h, links[axis], p.beta)
    psi = np.exp(-0.5j * dt * V.values / p.eta) * psi
    return schro.WaveFunction(psi=schro.ComplexField(w.space, psi), time=w.time + dt)


def _curl_case(phase=0.0):
    """A 2D packet and an A with nonzero curl whose lines carry holonomy."""
    p = make_params(masses=(1.0, 1.5), beta=0.7)
    space = make_space((8.0, 6.0), (32, 24), p, dim=2)
    x, y = space.meshes
    kx, ky = 2.0 * math.pi / 8.0, 2.0 * math.pi / 6.0
    comps = np.stack([0.6 + 0.5 * np.sin(ky * y + phase) + 0.3 * np.cos(kx * x),
                      -0.4 + 0.7 * np.cos(kx * x + phase) + 0.2 * np.sin(ky * y)])
    st = dyn.ManifoldState(
        gaussian_density(space, (0.5, -0.3), 0.6),
        ScalarField(space, 0.8 * np.sin(kx * x)),
        time=0.0,
    )
    V = ScalarField(space, 0.5 * (x**2 + y**2))
    return p, space, schro.to_wavefunction(st), V, VectorField(space, comps)


def test_gauge_memo_steps_equal_uncached_steps():
    p, space, w0, V, A = _curl_case()
    dt = 0.01
    w, w_ref, w_fresh = w0, w0, w0
    for _ in range(10):
        w = schro.unitary_step(w, p, V, dt, A)
        w_ref = _uncached_step(w_ref, p, V, dt, A)
        # a new A object per step misses the memo every time
        w_fresh = schro.unitary_step(
            w_fresh, p, V, dt, VectorField(space, A.components.copy())
        )
    assert np.array_equal(w.psi.values, w_ref.psi.values)
    assert np.array_equal(w_fresh.psi.values, w_ref.psi.values)


def test_gauge_memo_is_keyed_on_the_vector_potential_and_the_step():
    p, space, w0, V, A = _curl_case()
    _, _, _, _, B = _curl_case(phase=0.9)
    w_a = schro.unitary_step(w0, p, V, 0.01, A)
    w_b = schro.unitary_step(w0, p, V, 0.01, B)
    assert not np.array_equal(w_a.psi.values, w_b.psi.values)
    # switching A, dt or beta between steps must rebuild, never reuse
    p_weak = make_params(masses=(1.0, 1.5), beta=0.3)
    w, w_ref = w0, w0
    for pk, dt, Ak in ((p, 0.01, A), (p, 0.01, B), (p, 0.02, A), (p_weak, 0.02, A)):
        w = schro.unitary_step(w, pk, V, dt, Ak)
        w_ref = _uncached_step(w_ref, pk, V, dt, Ak)
        assert np.array_equal(w.psi.values, w_ref.psi.values)


def test_gauge_memo_entry_dies_with_its_vector_potential():
    p, space, w0, V, A = _curl_case()
    schro.unitary_step(w0, p, V, 0.01, A)
    entry = schro._BUILT[A]
    alive = weakref.ref(A)
    del A
    gc.collect()
    assert alive() is None
    assert not any(held is entry for held in schro._BUILT.values())


def test_energy_breakdown_with_memo_equals_uncached(monkeypatch):
    p, space, w0, V, A = _curl_case()
    w = schro.unitary_step(w0, p, V, 0.01, A)  # the memo now holds A's links
    cached = schro.wavefunction_energy_breakdown(w, p, V, A)
    monkeypatch.setattr(schro, "_built", lambda field, slot, key, build: build())
    uncached = schro.wavefunction_energy_breakdown(w, p, V, A)
    assert cached == uncached


def test_energy_hop_memo_is_keyed_on_beta(monkeypatch):
    """The energy's hop phases exp(-i beta link) are kept on A for one beta:
    switching beta between calls must rebuild them, never reuse."""
    p, space, w, V, A = _curl_case()
    p_weak = make_params(masses=(1.0, 1.5), beta=0.3)
    cached = [schro.wavefunction_energy_breakdown(w, pk, V, A) for pk in (p, p_weak, p)]
    assert cached[0] != cached[1]
    monkeypatch.setattr(schro, "_built", lambda field, slot, key, build: build())
    assert cached == [schro.wavefunction_energy_breakdown(w, pk, V, A) for pk in (p, p_weak, p)]


# V's half-kick phase is memoized per V object, and without A each sweep's
# Cayley factor per set of scalars.  The reference rebuilds both every step.


def _uncached_free_step(w, p, V, dt):
    """The A-free unitary step: half-phase, palindromic sweeps, half-phase."""
    space = w.space
    dim = space.dim
    inner = [(a, 0.5 * dt) for a in range(dim - 1)]
    sweeps = inner + [(dim - 1, dt)] + inner[::-1]
    psi = np.exp(-0.5j * dt * V.values / p.eta) * w.psi.values
    for axis, h in sweeps:
        n = space.points[axis]
        c = p.eta / (2.0 * p.masses[axis] * space.spacings[axis] ** 2)
        j = schro._reshape_k(np.arange(n), axis, dim)
        lam = 2.0 * c * (1.0 - np.cos(2.0 * math.pi * j / n))
        factor = (1.0 - 0.5j * h * lam) / (1.0 + 0.5j * h * lam)
        psi = np.fft.ifft(factor * np.fft.fft(psi, axis=axis), axis=axis)
    psi = np.exp(-0.5j * dt * V.values / p.eta) * psi
    return schro.WaveFunction(psi=schro.ComplexField(space, psi), time=w.time + dt)


def _free_case(dim, eta=1.0, tau=0.1):
    """A moving packet in a harmonic well on a small periodic box."""
    p = make_params(masses=(1.0, 1.5, 0.8)[:dim], eta=eta, tau=tau)
    space = make_space((8.0, 6.0, 7.0)[:dim], (32, 24, 10)[:dim], p, dim=dim)
    rho = gaussian_density(space, (0.5, -0.3, 0.2)[:dim], 0.6)
    phase = 0.8 * np.sin(2.0 * math.pi * space.meshes[0] / 8.0)
    st = dyn.ManifoldState(rho, ScalarField(space, phase), time=0.0)
    V = ScalarField(space, 0.5 * sum(x**2 for x in space.meshes))
    return p, space, schro.to_wavefunction(st), V


@pytest.mark.parametrize("dim", [1, 2, 3], ids=["1d", "2d", "3d"])
def test_kick_memo_steps_equal_uncached_steps(dim):
    p, space, w0, V = _free_case(dim)
    dt = 0.01
    w, w_ref, w_fresh = w0, w0, w0
    for _ in range(10):
        w = schro.unitary_step(w, p, V, dt)
        w_ref = _uncached_free_step(w_ref, p, V, dt)
        # a new V object per step misses the memo every time
        w_fresh = schro.unitary_step(w_fresh, p, ScalarField(space, V.values.copy()), dt)
    assert np.array_equal(w.psi.values, w_ref.psi.values)
    assert np.array_equal(w_fresh.psi.values, w_ref.psi.values)


def test_kick_memo_is_keyed_on_the_potential_and_the_step():
    p, space, w0, V = _free_case(2)
    W = ScalarField(space, 0.3 * space.meshes[0] ** 2)
    # eta 2 with tau 0.05 keeps sigma_sq, hence the grid
    p_eta, _, _, _ = _free_case(2, eta=2.0, tau=0.05)
    assert not np.array_equal(
        schro.unitary_step(w0, p, V, 0.01).psi.values,
        schro.unitary_step(w0, p, W, 0.01).psi.values,
    )
    # switching V, dt or eta between steps must rebuild, never reuse
    w, w_ref = w0, w0
    for pk, dt, Vk in ((p, 0.01, V), (p, 0.01, W), (p, 0.02, V), (p_eta, 0.02, V), (p, 0.02, V)):
        w = schro.unitary_step(w, pk, Vk, dt)
        w_ref = _uncached_free_step(w_ref, pk, Vk, dt)
        assert np.array_equal(w.psi.values, w_ref.psi.values)


def test_kick_memo_entry_dies_with_its_potential():
    p, space, w0, V = _free_case(2)
    schro.unitary_step(w0, p, V, 0.01)
    entry = schro._BUILT[V]
    alive = weakref.ref(V)
    del V
    gc.collect()
    assert alive() is None
    assert not any(held is entry for held in schro._BUILT.values())


def _wave_scenario(time_scale):
    return scenarios.scenario_from_dict({
        "name": "kick-memo",
        "space": {"dim": 1, "extent": 12.0, "points": 128},
        "params": {"eta": 1.0, "tau": 0.1, "masses": 1.0},
        "initial": {"type": "gaussian", "center": 0.5, "width": 1.0, "momentum": 0.4},
        "potentials": {"V": {"type": "harmonic", "omega": 1.0, "time_scale": time_scale}},
        "run": {"engine": "schrodinger", "dt": 0.01, "steps": 30, "snapshot_stride": 10},
    })


@pytest.mark.parametrize("time_scale", [[2.0, 0.0], [1.0, 0.5]], ids=["static", "driven"])
def test_engine_steps_equal_the_per_step_reference(time_scale):
    """A static V is resolved once per run, a driven one per step; both give
    the bits of stepping with V at each step's midpoint."""
    sc = _wave_scenario(time_scale)
    dt = scenarios.resolve_dt(sc)
    w, advance, _ = scenarios._engine(sc, dt, None)
    w_ref = w
    for step in range(1, sc.steps + 1):
        w = advance(w, step)
        w_ref = _uncached_free_step(w_ref, sc.params, sc.potential_at((step - 0.5) * dt), dt)
    assert np.array_equal(w.psi.values, w_ref.psi.values)


@pytest.mark.parametrize("time_scale", [[2.0, 0.0], [1.0, 0.5]], ids=["static", "driven"])
def test_a_static_potential_builds_its_kick_phase_once_per_run(monkeypatch, tmp_path, time_scale):
    calls = []
    half_kick = schro._half_kick
    monkeypatch.setattr(schro, "_half_kick", lambda *args: calls.append(1) or half_kick(*args))
    sc = _wave_scenario(time_scale)
    scenarios.run(sc, str(tmp_path))
    # a driven V is one field per step: its second half-kick reuses the first
    assert len(calls) == (1 if sc.static_potential else sc.steps)


def test_nonlinear_engine_at_equal_masses_writes_the_schrodinger_bytes(tmp_path):
    """At osmotic_ratio 1 the regraduation has kappa = 1 and maps every value
    exactly, so the nonlinear engine's snapshots and series are the
    schrodinger engine's, byte for byte, vector potential included."""
    cfg = {
        "name": "equal-masses",
        "space": {"dim": 2, "extent": [8.0, 6.0], "points": [32, 24]},
        "params": {"eta": 1.0, "tau": 0.1, "masses": [1.0, 1.5], "beta": 0.7},
        "initial": {"type": "gaussian", "center": [0.5, -0.3], "width": 0.8,
                    "momentum": [0.4, -0.2]},
        "potentials": {"V": {"type": "harmonic", "omega": 1.0},
                       "A": {"type": "constant", "value": [0.3, -0.2]}},
        "run": {"engine": "schrodinger", "dt": 0.01, "steps": 30, "snapshot_stride": 10},
    }
    for engine in ("schrodinger", "nonlinear"):
        cfg["run"]["engine"] = engine
        assert scenarios.run(scenarios.scenario_from_dict(cfg), str(tmp_path / engine))["passed"]
    names = sorted(os.listdir(tmp_path / "schrodinger"))
    assert names == sorted(os.listdir(tmp_path / "nonlinear"))
    written = [n for n in names if n.endswith((".csv", ".npy"))]
    assert {"series.csv", "energy.csv", "psi_000003.npy"} <= set(written)
    for name in written:
        assert (tmp_path / "schrodinger" / name).read_bytes() == (
            tmp_path / "nonlinear" / name
        ).read_bytes(), name


def test_regraduated_step_conserves_the_nonlinear_energy():
    """A mu != m state steps as the linear flow in regraduated units, where
    its energy functional is plain <H> and unitary_step conserves it."""
    p = make_params(osmotic_ratio=4.0)
    space = make_space(12.0, 256, p)
    V = harmonic(space)
    st = coherent_state(space)
    dt = 0.3 * dyn.coupled_stability_limit(st, p)
    st_reg, p_reg = dyn.regraduate(st, p)
    assert p_reg.eta == 2.0 and p_reg.osmotic_ratio == 1.0
    w = schro.to_wavefunction(st_reg)
    e0 = schro.wavefunction_energy_breakdown(w, p_reg, V).total
    n0 = w.psi.norm_sq()
    for _ in range(400):
        w = schro.unitary_step(w, p_reg, V, dt)
    assert w.psi.norm_sq() == pytest.approx(n0, rel=1e-12)
    assert schro.wavefunction_energy_breakdown(w, p_reg, V).total == pytest.approx(e0, rel=1e-7)


def test_spectral_gradient_exact_on_modes():
    p = make_params()
    space = make_space(12.0, 128, p)
    x = space.meshes[0]
    k = 2.0 * math.pi * 2.0 / 12.0
    chi = ScalarField(space, np.sin(k * x))
    g = schro.spectral_gradient(chi)
    assert np.abs(g.components[0] - k * np.cos(k * x)).max() < 1e-11


@pytest.mark.parametrize("dim", [1, 2], ids=["1d", "2d"])
def test_the_polar_split_refuses_a_wavefunction_that_vanishes(dim):
    """An all-zero psi has no density to normalize and no phase."""
    p = make_params(masses=(1.0,) * dim)
    space = make_space(12.0, 16, p, dim=dim)
    w = schro.WaveFunction(schro.ComplexField(space, np.zeros(space.shape)))
    with pytest.raises(DegenerateDensityError, match="^wavefunction vanishes everywhere$"):
        schro.from_wavefunction(w)
