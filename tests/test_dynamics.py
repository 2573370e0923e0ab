import collections
import math

import numpy as np
import pytest

from entrolab import dynamics as dyn, ensemble as ens, fokker_planck as fp, schrodinger as schro
from entrolab.errors import GridMismatchError, StabilityError
from entrolab.fokker_planck import drift_velocity
from entrolab.fields import (
    ScalarField,
    VectorField,
    axis_gradient,
    normalize_density,
)
from entrolab.scenarios import gauge_check, scenario_from_dict

from conftest import (
    field_l2,
    gaussian_density,
    make_params,
    make_space,
    rest_state,
    zero_field,
)


def harmonic(space, omega=1.0):
    return ScalarField(space, 0.5 * omega**2 * space.meshes[0] ** 2)


# ---------------------------------------------------------------------------
# pointwise operators


def test_quantum_potential_gaussian_analytic():
    """For a Gaussian, (d2 sqrt(rho)/dx2)/sqrt(rho) = (x-c)^2/4s^4 - 1/2s^2."""
    p = make_params(masses=(1.0,), eta=1.0, osmotic_ratio=2.0)
    space = make_space(20.0, 512, p)
    rho = gaussian_density(space, 0.0, 1.0)
    Q = dyn.quantum_potential(rho, p)
    x = space.meshes[0]
    coeff = p.osmotic_masses[0] * p.eta**2 / (2.0 * p.masses[0] ** 2)
    expect = coeff * (x**2 / 4.0 - 0.5)
    core = np.abs(x) < 3.0
    assert np.abs(Q.values - expect)[core].max() < 2e-3


def test_quantum_potential_bounded_across_cliffs():
    """The amplitude-ratio clip keeps Q finite and bounded over a density
    cliff that the grid cannot resolve."""
    p = make_params()
    space = make_space(10.0, 128, p)
    v = np.full(space.shape, 1e-300)
    v[30:40] = 1.0
    rho = ScalarField(space, v)
    Q = dyn.quantum_potential(rho, p)
    dx = space.spacings[0]
    coeff = p.osmotic_masses[0] * p.eta**2 / (2.0 * p.masses[0] ** 2)
    cap = coeff * (2.0 * dyn.AMP_RATIO_LIMIT + 2.0) / dx**2
    assert np.all(np.isfinite(Q.values))
    assert np.abs(Q.values).max() <= cap


def test_current_velocity_with_vector_potential():
    p = make_params(masses=(2.0,), eta=1.5, beta=0.7)
    space = make_space(12.0, 128, p)
    x = space.meshes[0]
    phi = ScalarField(space, 0.3 * np.sin(2.0 * math.pi * x / 12.0))
    A = VectorField(space, np.full((1,) + space.shape, 0.4))
    v = drift_velocity(phi, p, A)
    expect = p.eta_over_m[0] * (axis_gradient(phi, 0) - 0.7 * 0.4)
    assert np.allclose(v.components[0], expect)


def test_energy_breakdown_terms():
    p = make_params()
    space = make_space(12.0, 256, p)
    rho_uniform = normalize_density(ScalarField(space, np.ones(space.shape)))
    x = space.meshes[0]
    k = 2.0 * math.pi / 12.0
    phi = ScalarField(space, 0.5 * np.sin(k * x))
    V = harmonic(space)
    e = dyn.energy(dyn.ManifoldState(rho_uniform, phi, 0.0), p, V)
    # uniform density: osmotic term vanishes, potential is the plain average
    assert e.osmotic_term == pytest.approx(0.0, abs=1e-15)
    assert e.potential_term == pytest.approx(
        float((V.values * rho_uniform.values).sum()) * space.cell_volume
    )
    grad_sq = axis_gradient(phi, 0) ** 2
    expect_current = (
        p.eta**2
        / (2.0 * p.masses[0])
        * float((rho_uniform.values * grad_sq).sum())
        * space.cell_volume
    )
    assert e.current_term == pytest.approx(expect_current)
    assert e.total == pytest.approx(e.current_term + e.osmotic_term + e.potential_term)


def test_energy_osmotic_scales_with_mass_ratio():
    p1 = make_params(osmotic_ratio=1.0)
    p4 = make_params(osmotic_ratio=4.0)
    space = make_space(12.0, 256, p1)
    st = rest_state(space, 0.0, 0.8)
    V = zero_field(space)
    e1 = dyn.energy(st, p1, V)
    e4 = dyn.energy(st, p4, V)
    assert e4.osmotic_term == pytest.approx(4.0 * e1.osmotic_term, rel=1e-12)


# ---------------------------------------------------------------------------
# vacuum guards


def test_mass_mask_is_the_density_floor():
    """Support is a property of the density alone: every cell at or above
    the floor counts, whether or not it is connected to the bulk."""
    p = make_params()
    space = make_space(10.0, 128, p)
    v = np.zeros(space.shape)
    v[20:40] = 1.0
    v[80] = 5.0 * dyn.SUPPORT_REL_FLOOR  # a floor-level crumb
    v[90] = 0.99 * dyn.SUPPORT_REL_FLOOR  # just below the floor
    mask = dyn._mass_mask(v)
    assert np.array_equal(np.flatnonzero(mask), np.r_[20:40, 80])


def test_mass_mask_joins_regions_across_the_seam():
    p = make_params()
    space = make_space(10.0, 128, p)
    v = np.zeros(space.shape)
    v[:10] = 1e-6  # loose tail wrapping the seam
    v[-10:] = 1.0  # core on the other side
    mask = dyn._mass_mask(v)
    assert mask[:10].all() and mask[-10:].all()


def test_phase_fill_is_continuous_and_tapered():
    p = make_params()
    space = make_space(10.0, 128, p)
    v = np.zeros(space.shape)
    v[10:50] = 1.0
    x = space.meshes[0]
    phi = np.where(v > 0, 3.0 * x, 0.0)
    filled = dyn._extend_phase_into_vacuum(phi, v)
    assert np.all(np.isfinite(filled))
    # support values untouched
    assert np.array_equal(filled[10:50], phi[10:50])
    # the fill cannot jump by more than the largest edge slope anywhere
    jumps = np.abs(np.diff(filled))
    dx_slope = abs(phi[11] - phi[10])
    assert jumps.max() <= 1.05 * max(dx_slope, np.abs(np.diff(phi[10:50])).max())


def _reference_fill_1d(phi_values, mask):
    """The per-cell loop the vectorized 1D fill must reproduce bit for bit."""
    n = mask.size
    shift = int(np.argmax(mask))
    m = np.roll(mask, -shift)
    phi = np.roll(phi_values, -shift).copy()
    r = dyn.FILL_SLOPE_DECAY
    edges = np.flatnonzero(m[:-1] != m[1:])
    for start, stop in zip(edges[::2], np.append(edges[1::2], n - 1)):
        left, right, gap = start, (stop + 1) % n, stop - start
        slope_l = dyn._edge_slope(phi, m, left, -1)
        slope_r = dyn._edge_slope(phi, m, right, +1)
        for k in range(1, gap + 1):
            j = gap + 1 - k
            branch_l = phi[left] + slope_l * (1.0 - r**k) / (1.0 - r)
            branch_r = phi[right] - slope_r * (1.0 - r**j) / (1.0 - r)
            s = k / (gap + 1.0)
            w = 1.0 - s * s * (3.0 - 2.0 * s)
            phi[left + k] = w * branch_l + (1.0 - w) * branch_r
    return np.roll(phi, shift)


def _reference_fill_nd(phi_values, mask, sides=(1, -1)):
    """The whole-grid dilation sweep the frontier-layer fill must reproduce
    bit for bit; sides=(1, -1) takes each axis's i-1 neighbour first."""
    filled = mask.copy()
    out = np.where(mask, phi_values, 0.0)
    while not filled.all():
        acc = np.zeros_like(out)
        cnt = np.zeros(out.shape)
        for a in range(out.ndim):
            for s in sides:
                take = ~filled & np.roll(filled, s, axis=a)
                acc[take] += np.roll(out, s, axis=a)[take]
                cnt[take] += 1.0
        newly = cnt > 0
        out[newly] = acc[newly] / cnt[newly]
        filled |= newly
    return out


def test_phase_fill_1d_matches_the_per_cell_loop():
    """Gaps of width 1, 7 and 10, support runs of one and two cells, where
    _edge_slope falls back below three cells, and a gap across the seam long
    enough that FILL_SLOPE_DECAY**k underflows.  The fill raises r to an
    array of k with np.power and the loop with Python's pow; the two may
    differ in the last bit of r**k, and the output must not."""
    support = np.zeros(2400, dtype=bool)
    support[2:10] = support[20] = support[22:24] = support[31:51] = True
    rho = np.where(support, 1.0, 0.0)
    phi = np.random.default_rng(11).normal(scale=3.0, size=support.size)
    assert np.array_equal(dyn._mass_mask(rho), support)
    filled = dyn._extend_phase_into_vacuum(phi, rho)
    assert np.array_equal(filled, _reference_fill_1d(phi, support))
    assert np.array_equal(filled[support], phi[support])


def test_phase_fill_2d_matches_the_whole_grid_sweep():
    support = np.zeros((12, 10), dtype=bool)
    support[3:6, 2:5] = True
    support[4, 5] = True
    support[np.ix_([10, 11, 0], [7, 8])] = True  # across the axis-0 seam
    phi = np.random.default_rng(5).normal(scale=2.0, size=support.shape)
    rho = np.where(support, 1.0, 0.0)
    assert np.array_equal(dyn._mass_mask(rho), support)
    filled = dyn._extend_phase_into_vacuum(phi, rho)
    assert np.array_equal(filled, _reference_fill_nd(phi, support))
    # the case is sensitive to the summation order: i+1 first rounds otherwise
    assert not np.array_equal(filled, _reference_fill_nd(phi, support, sides=(-1, 1)))


def test_phase_fill_3d_matches_the_whole_grid_sweep():
    support = np.zeros((6, 5, 4), dtype=bool)
    support[1:3, 1:4, 0:2] = True
    support[2, 2, 2] = True
    phi = np.random.default_rng(8).normal(size=support.shape)
    rho = np.where(support, 1.0, 0.0)
    filled = dyn._extend_phase_into_vacuum(phi, rho)
    assert np.array_equal(filled, _reference_fill_nd(phi, support))


def _frontier_fill(phi_values, mask):
    """The frontier fill the layer-indexed fill replaced: each pass finds the
    unfilled cells next to filled ones, fills them from their filled
    neighbours, and de-duplicates the cells one layer further out."""
    nbr = dyn._neighbor_table(mask.shape)
    filled = mask.ravel().copy()
    out = np.where(filled, phi_values.ravel(), 0.0)
    owner = np.empty(filled.size, dtype=np.intp)
    front = np.flatnonzero(~filled & filled[nbr].any(axis=0))
    while front.size:
        nb = nbr[:, front]
        acc = np.zeros(front.size)
        for vals in out[nb]:
            acc += vals
        out[front] = acc / filled[nb].sum(axis=0)
        filled[front] = True
        ahead = nb[~filled[nb]]
        owner[ahead] = np.arange(ahead.size)
        front = ahead[owner[ahead] == np.arange(ahead.size)]
    return out.reshape(mask.shape)


def _bfs_distance(mask):
    """Graph distance to the support over the neighbour table, one BFS."""
    nbr = dyn._neighbor_table(mask.shape)
    dist = np.where(mask.ravel(), 0, -1)
    queue = collections.deque(np.flatnonzero(mask).tolist())
    while queue:
        cell = queue.popleft()
        for other in nbr[:, cell].tolist():
            if dist[other] < 0:
                dist[other] = dist[cell] + 1
                queue.append(other)
    return dist.reshape(mask.shape)


def _island_mask(rng, shape):
    """A few box islands at random origins, wrapped around the grid, so that
    some cross the periodic seam; the first always starts on the last cell."""
    mask = np.zeros(shape, dtype=bool)
    for k in range(int(rng.integers(2, 5))):
        origin = [n - 1 for n in shape] if k == 0 else [int(rng.integers(n)) for n in shape]
        box = [(o + np.arange(int(rng.integers(1, 4)))) % n for o, n in zip(origin, shape)]
        mask[np.ix_(*box)] = True
    return mask


@pytest.mark.parametrize("shape", [(23, 17), (31, 8), (9, 7, 11), (6, 10, 5)])
def test_phase_fill_matches_the_frontier_fill_bit_for_bit(shape):
    rng = np.random.default_rng(sum(shape))
    for _ in range(6):
        mask = _island_mask(rng, shape)
        phi = rng.normal(scale=3.0, size=shape)
        phi[rng.random(shape) < 0.3] = -0.0
        rho = np.where(mask, 1.0, 0.0)
        assert np.array_equal(dyn._mass_mask(rho), mask)
        filled = dyn._extend_phase_into_vacuum(phi, rho)
        assert np.array_equal(filled.view(np.int64), _frontier_fill(phi, mask).view(np.int64))
        assert np.array_equal(dyn._support_distance(mask), _bfs_distance(mask))


def test_coupled_step_flushes_vacuum_dust():
    p = make_params()
    space = make_space(20.0, 256, p)
    st = rest_state(space, 0.0, 0.5)
    dt = 0.4 * dyn.coupled_stability_limit(st, p)
    out = dyn.coupled_step(st, p, zero_field(space), dt)
    live = out.rho.values[out.rho.values > 0.0]
    assert live.min() >= dyn.VACUUM_FLUSH_FLOOR * out.rho.values.max()


# ---------------------------------------------------------------------------
# stepping


def test_coupled_step_conserves_mass():
    p = make_params()
    space = make_space(12.0, 256, p)
    st = rest_state(space, 0.5, 0.8)
    V = harmonic(space)
    dt = 0.4 * dyn.coupled_stability_limit(st, p)
    for _ in range(20):
        st = dyn.coupled_step(st, p, V, dt)
    assert st.rho.integral() == pytest.approx(1.0, abs=1e-12)
    assert st.time == pytest.approx(20 * dt)


def test_uniform_state_is_stationary():
    p = make_params()
    space = make_space(12.0, 128, p)
    rho = normalize_density(ScalarField(space, np.ones(space.shape)))
    st = dyn.ManifoldState(rho, zero_field(space), 0.0)
    dt = 0.4 * dyn.coupled_stability_limit(st, p)
    out = dyn.coupled_step(st, p, zero_field(space), dt)
    assert field_l2(out.rho.values, rho.values, space) < 1e-14
    assert np.abs(out.phi.values - st.phi.values).max() < 1e-14


def test_ground_state_is_stationary():
    """The oscillator ground state (var = eta / 2 m omega) should only move
    at scheme order over many steps."""
    p = make_params()
    space = make_space(12.0, 256, p)
    st = rest_state(space, 0.0, 0.5)
    V = harmonic(space)
    dt = 0.4 * dyn.coupled_stability_limit(st, p)
    out = st
    for _ in range(100):
        out = dyn.coupled_step(out, p, V, dt)
    assert field_l2(out.rho.values, st.rho.values, space) < 1e-5
    e0 = dyn.energy(st, p, V)
    e1 = dyn.energy(out, p, V)
    assert abs(e1.total - e0.total) / abs(e0.total) < 1e-8


@pytest.mark.parametrize("dim, points", [(1, 256), (2, 64)])
def test_unresolved_cliff_runs_with_the_amplitude_ratio_clip(dim, points):
    """A top-hat at rest is a cliff the grid cannot resolve.  The
    amplitude-ratio clip keeps the stability bound near its initial value;
    without it the bound collapses to ~1e-9 within a few steps and
    coupled_step raises StabilityError."""
    p = make_params(masses=(1.0,) * dim)
    space = make_space(20.0, points, p, dim=dim)
    r_sq = sum(m**2 for m in space.meshes)
    rho = normalize_density(ScalarField(space, (r_sq < 4.0).astype(float)))
    st = dyn.ManifoldState(rho, zero_field(space), 0.0)
    dt = 0.25 * dyn.coupled_stability_limit(st, p)
    for _ in range(40):
        st = dyn.coupled_step(st, p, zero_field(space), dt)
    assert st.rho.integral() == pytest.approx(1.0, abs=1e-12)


def test_coupled_step_rejects_unstable_dt():
    p = make_params()
    space = make_space(12.0, 128, p)
    st = rest_state(space, 0.0, 0.8)
    limit = dyn.coupled_stability_limit(st, p, safety=1.0)
    with pytest.raises(StabilityError):
        dyn.coupled_step(st, p, zero_field(space), 3.0 * limit)


def test_coupled_step_builds_each_field_once(monkeypatch):
    """One covariant gradient per phase plus one for the phi step's second
    stage (the bound, the first rho half step and the first stage share the
    first), one quantum potential per phase step, and no call of the public
    bound."""
    calls = collections.Counter()

    def counted(module, name):
        inner = getattr(module, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return inner(*args, **kwargs)

        return wrapper

    for module, name in (
        (dyn, "covariant_gradient"),
        (fp, "covariant_gradient"),
        (dyn, "quantum_potential"),
        (dyn, "coupled_stability_limit"),
    ):
        monkeypatch.setattr(module, name, counted(module, name))
    p = make_params(masses=(1.0, 1.0))
    space = make_space(12.0, 32, p, dim=2)
    rho = gaussian_density(space, (0.5, -0.5), 0.8)
    phi = ScalarField(space, 0.4 * np.sin(2.0 * math.pi * space.meshes[0] / 12.0))
    st = dyn.ManifoldState(rho, phi, 0.0)
    dyn.coupled_step(st, p, harmonic(space), 1e-3)
    assert calls == {"covariant_gradient": 3, "quantum_potential": 1}


def test_stability_limit_scales_with_grid():
    p = make_params()
    coarse = make_space(12.0, 64, p)
    fine = make_space(12.0, 128, p)
    lim_c = dyn.coupled_stability_limit(rest_state(coarse, 0.0, 0.8), p)
    lim_f = dyn.coupled_stability_limit(rest_state(fine, 0.0, 0.8), p)
    assert 3.0 < lim_c / lim_f < 5.0


def test_energy_conserved_by_coupled_flow():
    p = make_params()
    space = make_space(12.0, 256, p)
    st = rest_state(space, 1.0, 0.5)  # displaced packet, oscillates
    V = harmonic(space)
    dt = 0.4 * dyn.coupled_stability_limit(st, p)
    e0 = dyn.energy(st, p, V).total
    out = st
    for _ in range(200):
        out = dyn.coupled_step(out, p, V, dt)
    e1 = dyn.energy(out, p, V).total
    assert abs(e1 - e0) / abs(e0) < 1e-6


@pytest.mark.parametrize(
    "step",
    [
        lambda st, p, V, A: dyn.coupled_step(st, p, V, 1e-3, A),
        lambda st, p, V, A: dyn.energy(st, p, V, A),
        lambda st, p, V, A: schro.unitary_step(schro.to_wavefunction(st), p, V, 1e-3, A),
        lambda st, p, V, A: schro.wavefunction_energy_breakdown(schro.to_wavefunction(st), p, V, A),
        lambda st, p, V, A: fp.fp_step(st.rho, st.phi, p, 1e-4, A),
        lambda st, p, V, A: ens.step_ensemble(
            ens.Ensemble.from_density(st.rho, 100, 1e-3), st.phi, p, A
        ),
    ],
    ids=["coupled_step", "energy", "unitary_step", "wavefunction_energy", "fp_step",
         "step_ensemble"],
)
def test_engines_refuse_a_vector_potential_on_another_grid(step):
    p = make_params(beta=0.7)
    st = rest_state(make_space(20.0, 64, p))
    A = VectorField(make_space(16.0, 64, p), np.full((1, 64), 0.4))
    with pytest.raises(GridMismatchError, match="vector potential"):
        step(st, p, zero_field(st.space), A)


def test_energy_rate_audit_static_potential():
    p = make_params()
    space = make_space(12.0, 256, p)
    V = harmonic(space)
    st = rest_state(space, 1.0, 0.5)
    dt = 0.4 * dyn.coupled_stability_limit(st, p)
    states = [st]
    for _ in range(40):
        states.append(dyn.coupled_step(states[-1], p, V, dt))
    mismatch = dyn.energy_rate_audit(
        [s.time for s in states], [dyn.energy(s, p, V).total for s in states],
        np.zeros(len(states)),
    )
    assert mismatch < 1e-4


def test_energy_rate_audit_driven_potential():
    """With V ramping in time, dE/dt must track int rho dV/dt."""
    p = make_params()
    space = make_space(12.0, 256, p)
    st = rest_state(space, 0.0, 0.5)
    dt = 0.3 * dyn.coupled_stability_limit(st, p)
    states = [st]
    v_series = [ScalarField(space, harmonic(space).values * (1.0 + 0.0))]
    t = 0.0
    for _ in range(60):
        v_mid = ScalarField(
            space, harmonic(space).values * (1.0 + 0.5 * (t + 0.5 * dt))
        )
        states.append(dyn.coupled_step(states[-1], p, v_mid, dt))
        t += dt
        v_series.append(ScalarField(space, harmonic(space).values * (1.0 + 0.5 * t)))
    V0 = harmonic(space).values
    mismatch = dyn.energy_rate_audit(
        [s.time for s in states],
        [dyn.energy(s, p, v).total for s, v in zip(states, v_series)],
        # dV/dt = 0.5 V0, so the imposed power is 0.5 int rho V0
        [0.5 * float((s.rho.values * V0).sum()) * space.cell_volume for s in states],
    )
    assert mismatch < 0.05


def test_hamilton_jacobi_residual_drops_with_eta():
    p1 = make_params(eta=1.0)
    dt = 0.3 * dyn.coupled_stability_limit(
        rest_state(make_space(20.0, 256, p1), 0.0, 1.0), p1
    )

    def residual(params):
        # sigma^2 = eta tau / m, so each eta gets its own metric tag
        space = make_space(20.0, 256, params)
        st = rest_state(space, 0.0, 1.0)
        nxt = dyn.coupled_step(st, params, harmonic(space), dt)
        return dyn.hamilton_jacobi_residual(st, nxt, params, harmonic(space))

    r1 = residual(p1)
    r2 = residual(make_params(eta=0.5))
    # the quantum correction enters at eta^2
    assert r2 < 0.30 * r1


# ---------------------------------------------------------------------------
# regraduation


def test_regraduate_parameter_map():
    p = make_params(osmotic_ratio=4.0, tau=0.1, beta=0.6)
    space = make_space(12.0, 128, p)
    st = rest_state(space, 0.0, 1.0)
    st2, p2 = dyn.regraduate(st, p)
    k = p.kappa
    assert k == pytest.approx(0.5)
    assert p2.eta == pytest.approx(p.eta / k)
    assert p2.tau == pytest.approx(k * p.tau)
    assert p2.beta == pytest.approx(k * p.beta)
    assert np.allclose(p2.osmotic_masses, p.osmotic_masses * k**2)
    assert np.allclose(p2.masses, p.masses)
    assert np.allclose(p2.sigma_sq, p.sigma_sq)
    assert p2.kappa == pytest.approx(1.0)
    assert np.array_equal(st2.rho.values, st.rho.values)
    assert np.array_equal(st2.phi.values, k * st.phi.values)


def test_regraduate_preserves_velocity_and_osmotic_energy():
    p = make_params(osmotic_ratio=4.0, beta=0.8)
    space = make_space(12.0, 128, p)
    x = space.meshes[0]
    phi = ScalarField(space, 0.4 * np.sin(2.0 * math.pi * x / 12.0))
    st = dyn.ManifoldState(gaussian_density(space, 0.0, 1.0), phi, 0.0)
    A = VectorField(space, np.full((1,) + space.shape, 0.3))
    st2, p2 = dyn.regraduate(st, p)
    v1 = drift_velocity(st.phi, p, A)
    v2 = drift_velocity(st2.phi, p2, A)
    assert np.array_equal(v1.components, v2.components)  # powers of two: exact
    V = zero_field(space)
    e1 = dyn.energy(st, p, V, A)
    e2 = dyn.energy(st2, p2, V, A)
    assert e2.total == pytest.approx(e1.total, rel=1e-14)


def test_regraduate_commutes_with_flow():
    """Scaling then evolving equals evolving then scaling.  kappa = 1/2 is a
    power of two, so the two paths agree bit for bit."""
    p = make_params(osmotic_ratio=4.0, tau=0.1)
    space = make_space(30.0, 128, p)
    st0 = rest_state(space, 0.0, 1.0)
    V = zero_field(space)
    dt = 0.4 * dyn.coupled_stability_limit(st0, p)

    a = st0
    for _ in range(5):
        a = dyn.coupled_step(a, p, V, dt)
    a_reg, p_lin = dyn.regraduate(a, p)

    b, p_lin2 = dyn.regraduate(st0, p)
    for _ in range(5):
        b = dyn.coupled_step(b, p_lin2, V, dt)

    assert p_lin.eta == p_lin2.eta
    assert np.array_equal(a_reg.rho.values, b.rho.values)
    assert np.array_equal(a_reg.phi.values, b.phi.values)


@pytest.mark.parametrize("k", [0.5, 0.3, 1.7, 3.0])
def test_regraduate_by_k_then_by_its_inverse_returns_the_constants(k):
    p = make_params(masses=(1.0, 2.5), eta=1.3, osmotic_ratio=4.0, tau=0.1, beta=0.6)
    st = rest_state(make_space(12.0, 32, p, dim=2), 0.0, 1.0)
    there, p_k = dyn.regraduate(st, p, kappa=k)
    _, back = dyn.regraduate(there, p_k, kappa=1.0 / k)
    for name in ("eta", "tau", "osmotic_ratio", "beta"):
        assert getattr(back, name) == pytest.approx(getattr(p, name), rel=1e-15, abs=0.0)


def test_regraduate_rejects_bad_kappa():
    p = make_params(osmotic_ratio=4.0)
    space = make_space(12.0, 128, p)
    st = rest_state(space, 0.0, 1.0)
    with pytest.raises(Exception):
        dyn.regraduate(st, p, kappa=0.0)


# ---------------------------------------------------------------------------
# gauge behavior of the coupled engine


def test_coupled_engine_gauge_tolerant(tmp_path):
    """The coupled stepper is gauge covariant up to its vacuum scheme: the
    phase fill below the support floor is not gauge equivariant, so the twin
    gap sits above roundoff but far below physical scales.  The exact-to-
    roundoff statement lives with the unitary engine (acceptance test)."""
    cfg = {
        "name": "gauge-coupled",
        "space": {"dim": 1, "extent": 20.0, "points": 256},
        "params": {"eta": 1.0, "tau": 0.1, "masses": 1.0, "beta": 0.7},
        "initial": {"type": "gaussian", "center": -2.0, "width": 1.0, "momentum": 0.5},
        "potentials": {
            "V": {"type": "harmonic", "omega": 1.0},
            "A": {"type": "constant", "value": 0.4},
        },
        "run": {"engine": "coupled", "steps": 150, "snapshot_stride": 50},
    }
    sc = scenario_from_dict(cfg)
    rep = gauge_check(
        sc, chi_amplitude=0.8, chi_mode=1, outdir=str(tmp_path), tolerance=1e-5
    )
    assert rep["rho_gap_max"] < 1e-6
    assert rep["phase_gap_max"] < 2e-5
    assert rep["passed"]
