import hashlib
import math
import os
import sys
import threading
import tracemalloc

import numpy as np
import pytest

from entrolab import ensemble as ens, io
from entrolab.errors import ConfigError, EntrolabError
from entrolab.fields import (
    BLOCK,
    PERIODIC,
    REFLECTING,
    ConfigSpace,
    PhysicalParams,
    ScalarField,
    VectorField,
    axis_gradient,
    clamped_log,
    normalize_density,
)
from entrolab.fokker_planck import drift_velocity
from entrolab.scenarios import compare

from conftest import gaussian_density, make_params, make_space, remainder_wrap, zero_field


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


# sha256 of the final positions after 20 steps with a vector potential: a
# constant A in 1D and a polynomial one in 2D, so the beta A drift term
# enters the bits that STEP_BITS pins without it.
ENSEMBLE_BITS = {
    1: "76d260d2de8302c64d4451cf39d0ae8eb5869d4fb6e7cdc3326bb695e7884d5b",
    2: "04354b2878061bdc52fb05ec786e9306268b470f0006d0d627cf32913de928d6",
}


@pytest.mark.parametrize("dim", [1, 2])
def test_step_ensemble_with_a_vector_potential_bits_are_pinned(dim):
    p = PhysicalParams([1.0, 2.0][:dim], eta=1.0, tau=0.1, beta=0.7)
    space = ConfigSpace(dim=dim, extents=(6.0, 5.0)[:dim], points=(48, 20)[:dim],
                        sigma_sq=p.sigma_sq)
    u = [m / L for m, L in zip(space.meshes, space.extents)]
    S = ScalarField(space, sum(3.0 * x**2 + (a + 1) * x**3 for a, x in enumerate(u)))
    A = VectorField(space, [0.3 + (a + 1) * u[dim - 1 - a] ** 2 for a in range(dim)])
    rho = normalize_density(ScalarField(space, np.prod([1.2 - 4.0 * x**2 for x in u], axis=0)))
    e = ens.Ensemble.from_density(rho, 3000, dt=0.01, seed=11)
    for _ in range(20):
        e = ens.step_ensemble(e, S, p, A)
    digest = hashlib.sha256(e.positions.tobytes()).hexdigest()
    assert digest == ENSEMBLE_BITS[dim]


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


def _one_shot_interpolation(field, pos):
    """interpolate_vector over every walker in one pass: the padded corner
    table, the fractional cell coordinates and each corner's gather and
    weight taken over the whole cloud."""
    space, dim = field.space, field.space.dim
    f = np.empty((dim, len(pos)))
    for a in range(dim):
        np.add(pos[:, a], 0.5 * space.extents[a], out=f[a])
        f[a] /= space.spacings[a]
    f -= 0.5
    floor = np.floor(f)
    base = floor.astype(np.intp)
    frac = f - floor
    lower = 1.0 - frac
    mode = "wrap" if space.boundary == PERIODIC else "edge"
    padded = np.pad(field.components, [(0, 0)] + [(1, 1)] * dim, mode=mode)
    table = padded.reshape(dim, -1)
    strides = [padded.strides[a + 1] // padded.itemsize for a in range(dim)]
    low = base[-1] + sum(base[a] * strides[a] for a in range(dim - 1))
    out = np.zeros((dim, len(pos)))
    for corner in range(1 << dim):
        hi = [(corner >> a) & 1 for a in range(dim)]
        weight = frac[0] if hi[0] else lower[0]
        for a in range(1, dim):
            weight = weight * (frac[a] if hi[a] else lower[a])
        values = table.take(low + sum((1 + h) * s for h, s in zip(hi, strides)), axis=1)
        values *= weight
        out += values
    return out.T


@pytest.mark.parametrize("with_A", [False, True], ids=["no-A", "A"])
@pytest.mark.parametrize("boundary", [PERIODIC, REFLECTING])
@pytest.mark.parametrize("dim", [1, 2, 3])
@pytest.mark.parametrize("walkers", [0, 1, BLOCK - 1, BLOCK, BLOCK + 1, 2 * BLOCK + 3])
def test_block_edges_keep_the_bits(walkers, dim, boundary, with_A):
    """Sampling and two steps, a block at a time, equal one pass over the
    whole cloud with one full-shape draw per step, bit for bit, for walker
    counts on and either side of the block edges."""
    p = PhysicalParams([1.0, 2.0, 0.5][:dim], eta=1.0, tau=0.1, beta=0.7 if with_A else 0.0)
    space = ConfigSpace(dim=dim, extents=(6.0, 5.0, 4.0)[:dim], points=(24, 10, 8)[:dim],
                        boundary=boundary, sigma_sq=p.sigma_sq)
    u = [m / L for m, L in zip(space.meshes, space.extents)]
    S = ScalarField(space, sum(3.0 * x**2 + (a + 1) * x**3 for a, x in enumerate(u)))
    A = VectorField(space, [0.3 + (a + 1) * u[dim - 1 - a] ** 2 for a in range(dim)]) if with_A else None
    # nonzero on the walls, so walkers start next to them and cross them
    rho = normalize_density(ScalarField(space, np.prod([1.2 - 4.0 * x**2 for x in u], axis=0)))
    e = ens.Ensemble.from_density(rho, walkers, dt=0.01, seed=13)

    rng = np.random.default_rng(13)
    p_cells = rho.values.ravel()
    counts = rng.multinomial(walkers, p_cells / p_cells.sum())
    centers = np.stack([m.ravel() for m in space.meshes], axis=1)
    pos = centers[np.repeat(np.arange(p_cells.size), counts)]
    pos = remainder_wrap(space, pos + rng.uniform(-0.5, 0.5, pos.shape) * np.asarray(space.spacings))
    assert e.positions.shape == (walkers, dim)
    assert np.array_equal(e.positions, pos)

    b = drift_velocity(S, p, A)
    for _ in range(2):
        e = ens.step_ensemble(e, S, p, A)
        new = _one_shot_interpolation(b, pos)
        new *= 0.01
        new += pos
        noise = rng.standard_normal(pos.shape)
        noise *= np.sqrt(p.eta_over_m * 0.01)
        new += noise
        pos = remainder_wrap(space, new)
        assert np.array_equal(e.positions, pos)


def _walker_case():
    """A 2D polynomial entropy and 2 * BLOCK + 3 walkers that start next to the walls."""
    p = PhysicalParams([1.0, 2.0], eta=1.0, tau=0.1)
    space = ConfigSpace(dim=2, extents=(6.0, 5.0), points=(24, 10), sigma_sq=p.sigma_sq)
    u = [m / L for m, L in zip(space.meshes, space.extents)]
    S = ScalarField(space, sum(3.0 * x**2 + (a + 1) * x**3 for a, x in enumerate(u)))
    rho = normalize_density(ScalarField(space, np.prod([1.2 - 4.0 * x**2 for x in u], axis=0)))
    return p, S, ens.Ensemble.from_density(rho, 2 * BLOCK + 3, dt=0.01, seed=13)


def test_a_step_leaves_no_thread_behind():
    """Each step owns its noise worker and joins it before it returns."""
    p, S, e = _walker_case()
    before = threading.active_count()
    ens.step_ensemble(e, S, p)
    assert threading.active_count() == before


class _FailingGenerator:
    def standard_normal(self, *args, **kwargs):
        raise RuntimeError("no noise today")


def test_the_noise_worker_error_reaches_the_caller():
    p, S, e = _walker_case()
    e = ens.Ensemble(e.space, e.positions, e.dt, _FailingGenerator())
    before = threading.active_count()
    with pytest.raises(RuntimeError, match="^no noise today$"):
        ens.step_ensemble(e, S, p)
    assert threading.active_count() == before


def test_a_refused_step_leaves_the_generator_where_it_was():
    """The noise worker starts only after the step's inputs pass their
    checks: an entropy or a vector potential on another grid, or params of
    another dimension, refuse the step before a number is drawn."""
    p, S, e = _walker_case()
    other = ConfigSpace(dim=2, extents=(6.0, 5.0), points=(12, 10), sigma_sq=p.sigma_sq)
    refusals = [
        (ScalarField(other, np.zeros(other.shape)), p, None),
        (S, p, VectorField(other, np.zeros((2,) + other.shape))),
        (S, PhysicalParams([1.0], eta=1.0, tau=0.1), None),
    ]
    state = e.rng.bit_generator.state
    for S_k, p_k, A_k in refusals:
        with pytest.raises(EntrolabError):
            ens.step_ensemble(e, S_k, p_k, A_k)
        assert e.rng.bit_generator.state == state


def test_steps_under_a_short_switch_interval_keep_the_bits():
    """20 steps with the interpreter switching threads every microsecond
    equal the serial reference, one full-shape draw per step after the
    drift, bit for bit; the steps run in a thread joined with a timeout."""
    p, S, e = _walker_case()
    space, pos = e.space, e.positions
    rng = np.random.default_rng()
    rng.bit_generator.state = e.rng.bit_generator.state
    b = drift_velocity(S, p)
    for _ in range(20):
        new = _one_shot_interpolation(b, pos)
        new *= 0.01
        new += pos
        noise = rng.standard_normal(pos.shape)
        noise *= np.sqrt(p.eta_over_m * 0.01)
        new += noise
        pos = remainder_wrap(space, new)

    clouds = [e]

    def steps():
        for _ in range(20):
            clouds.append(ens.step_ensemble(clouds[-1], S, p))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        runner = threading.Thread(target=steps, daemon=True)
        runner.start()
        runner.join(timeout=120.0)
    finally:
        sys.setswitchinterval(interval)
    assert not runner.is_alive()
    assert len(clouds) == 21
    assert np.array_equal(clouds[-1].positions, pos)


def _peak_above_start(fn):
    """tracemalloc's peak while fn() runs, above what was traced at its start."""
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        fn()
        return tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("dim", [1, 2])
def test_the_walker_path_holds_no_full_size_temporaries(tmp_path, dim):
    """At 2e5 walkers every per-walker temporary holds one block: a step or a
    sampling peaks at its result and the wrapped copy of it, the density
    estimate and the ks comparison at about one positions array."""
    walkers = 200_000
    p = PhysicalParams([1.0] * dim, eta=1.0, tau=0.1)
    space = ConfigSpace(dim=dim, extents=20.0, points=(256,) if dim == 1 else (64, 64),
                        sigma_sq=p.sigma_sq)
    S = ScalarField(space, 0.5 * np.sin(2.0 * np.pi * space.meshes[0] / 10.0))
    rho = gaussian_density(space, 0.0, 4.0)
    e = ens.Ensemble.from_density(rho, walkers, dt=0.001, seed=3)
    os.makedirs(tmp_path / "walkers")
    os.makedirs(tmp_path / "density")
    io.save_array(tmp_path / "walkers" / "final_positions.npy", e.positions)
    io.save_scalar_field(tmp_path / "density" / "rho_000000.npy", rho)
    peaks = {
        "step_ensemble": _peak_above_start(lambda: ens.step_ensemble(e, S, p)),
        "from_density": _peak_above_start(
            lambda: ens.Ensemble.from_density(rho, walkers, dt=0.001, seed=3)),
        "estimate_density": _peak_above_start(lambda: ens.estimate_density(e)),
        "compare ks": _peak_above_start(
            lambda: compare(str(tmp_path / "walkers"), str(tmp_path / "density"), ["ks"])),
    }
    bounds = {"step_ensemble": 2.5, "from_density": 2.5, "estimate_density": 1.5,
              "compare ks": 1.5}
    ratios = {name: peak / e.positions.nbytes for name, peak in peaks.items()}
    assert all(ratios[name] <= bounds[name] for name in bounds), ratios


def _cloud(walkers, seed=0):
    p = make_params()
    space = make_space(12.0, 64, p)
    return ens.Ensemble.from_density(gaussian_density(space, 0.0, 1.0), walkers, 0.01, seed=seed)


# refusal -> (a call that makes it, its message); each is a ConfigError
ENSEMBLE_REFUSALS = {
    "sampling-a-massless-density": (
        lambda: ens.Ensemble.from_density(zero_field(make_space(12.0, 64, make_params())),
                                          100, 0.01),
        "cannot sample from a density with no mass"),
    "the-density-of-no-walkers": (
        lambda: ens.estimate_density(_cloud(0)),
        "need at least one walker"),
    "drift-of-unpaired-walkers": (
        lambda: ens.empirical_forward_drift(_cloud(100), _cloud(200)),
        "ensembles must pair walkers one to one"),
}


@pytest.mark.parametrize("case", sorted(ENSEMBLE_REFUSALS))
def test_the_ensemble_refuses_what_it_cannot_sample(case):
    call, message = ENSEMBLE_REFUSALS[case]
    with pytest.raises(ConfigError, match=f"^{message}$"):
        call()
