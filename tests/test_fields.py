import dataclasses
import math
from types import SimpleNamespace

import numpy as np
import pytest

from entrolab.errors import ConfigError, DegenerateDensityError, GridMismatchError
from entrolab.fields import (
    PERIODIC,
    REFLECTING,
    ConfigSpace,
    PhysicalParams,
    ScalarField,
    VectorField,
    axis_gradient,
    clamped_log,
    density_moments,
    entropy_field,
    gradient,
    interpolate_vector,
    l1_distance,
    l2_distance,
    normalize_density,
)

from conftest import gaussian_density, make_params, make_space


def test_space_geometry():
    p = make_params()
    space = make_space(10.0, 50, p)
    assert space.spacings[0] == pytest.approx(0.2)
    assert space.cell_volume == pytest.approx(0.2)
    assert space.shape == (50,)
    assert space.size == 50
    x = space.axis_coords(0)
    # cell centers, symmetric about the origin
    assert x[0] == pytest.approx(-5.0 + 0.1)
    assert x[-1] == pytest.approx(5.0 - 0.1)


def test_space_2d_geometry():
    p = make_params(masses=(1.0, 2.0))
    space = ConfigSpace(dim=2, extents=(8.0, 4.0), points=(32, 16), sigma_sq=p.sigma_sq)
    assert space.shape == (32, 16)
    assert space.cell_volume == pytest.approx(0.25 * 0.25)
    assert space.meshes[0].shape == (32, 16)


def test_space_rejects_bad_config():
    p = make_params()
    with pytest.raises(ConfigError):
        ConfigSpace(dim=0, extents=10.0, points=32, sigma_sq=p.sigma_sq)
    with pytest.raises(ConfigError):
        ConfigSpace(dim=1, extents=10.0, points=3, sigma_sq=p.sigma_sq)
    with pytest.raises(ConfigError):
        ConfigSpace(dim=1, extents=-1.0, points=32, sigma_sq=p.sigma_sq)


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf, 0.0, -1.0])
@pytest.mark.parametrize("name", ["extents", "sigma_sq"])
def test_space_refuses_a_bad_extent_or_metric_naming_the_values(name, value):
    """NaN once passed the `<= 0` test, and a sidecar can spell Infinity."""
    kwargs = {"dim": 2, "extents": 10.0, "points": 32, "sigma_sq": 0.1, name: (1.0, value)}
    with pytest.raises(ConfigError, match=rf"^{name} must be finite and positive, got \(1.0, "):
        ConfigSpace(**kwargs)


@pytest.mark.parametrize(
    "kwargs, name, shown",
    [({"dim": 1, "points": 64.9}, "points", "64.9"),
     ({"dim": 2, "points": (64, 32.5)}, "points", "32.5"),
     ({"dim": 1, "points": math.nan}, "points", "nan"),
     ({"dim": 2.5, "points": 64}, "dim", "2.5"),
     ({"dim": "two", "points": 64}, "dim", "'two'")],
    ids=["points", "points-per-axis", "points-nan", "dim", "dim-text"],
)
def test_space_refuses_a_grid_size_that_is_not_whole(kwargs, name, shown):
    """int() used to truncate 64.9 to a 64-point grid; a float dim raised a
    bare TypeError."""
    with pytest.raises(ConfigError, match=rf"^{name} must be a whole number, got {shown}$"):
        ConfigSpace(extents=10.0, **kwargs)


def test_space_takes_whole_floats_as_ints():
    """YAML may spell a grid size 128.0; it is the same grid as 128."""
    space = ConfigSpace(dim=2.0, extents=10.0, points=(128.0, 64))
    assert space.dim == 2 and type(space.dim) is int
    assert space.points == (128, 64) and all(type(n) is int for n in space.points)
    assert space.same_grid(ConfigSpace(dim=2, extents=10.0, points=(128, 64)))


def test_wrap_and_min_image():
    p = make_params()
    space = make_space(10.0, 64, p)
    pos = np.array([[5.3], [-5.3], [4.9]])
    wrapped = space.wrap(pos)
    assert wrapped[0, 0] == pytest.approx(-4.7)
    assert wrapped[1, 0] == pytest.approx(4.7)
    assert wrapped[2, 0] == pytest.approx(4.9)
    # a displacement across the seam folds back to the short way around
    delta = space.min_image(np.array([[9.8]]))
    assert delta[0, 0] == pytest.approx(-0.2)


def test_cell_index_roundtrip():
    p = make_params()
    space = make_space(10.0, 64, p)
    x = space.axis_coords(0)
    idx = space.cell_index(x.reshape(-1, 1))
    assert np.array_equal(idx[:, 0], np.arange(64))


def test_same_grid():
    p = make_params()
    a = make_space(10.0, 64, p)
    b = make_space(10.0, 64, p)
    c = make_space(10.0, 32, p)
    assert a.same_grid(b)
    assert not a.same_grid(c)


def test_params_from_masses_identities():
    p = make_params(masses=(1.0, 4.0), eta=2.0, osmotic_ratio=3.0, tau=0.5)
    # A = eta tau / 2, sigma_a^2 = 2A/m_a = eta tau / m_a
    assert p.sigma_sq == (2.0 * 0.5 / 1.0, 2.0 * 0.5 / 4.0)
    assert np.allclose(p.sigma_sq, [1.0, 0.25])
    assert np.allclose(p.masses, [1.0, 4.0])
    assert np.allclose(p.osmotic_masses, [3.0, 12.0])
    assert p.kappa == pytest.approx(math.sqrt(1.0 / 3.0))
    assert np.allclose(p.eta_over_m, [2.0, 0.5])


def _eight_field_derivation(masses, eta, ratio, tau):
    """sigma_sq, osmotic masses and kappa as the older eight-field params
    built them from masses, eta, the ratio and tau."""
    m = np.atleast_1d(np.asarray(masses, dtype=float))
    a_coeff = 0.5 * eta * tau
    sigma_sq = tuple(float(s) for s in (2.0 * a_coeff / mi for mi in m))
    return sigma_sq, float(ratio) * m, math.sqrt(a_coeff / (a_coeff * ratio))


def test_params_hold_only_the_five_set_numbers():
    names = [f.name for f in dataclasses.fields(PhysicalParams)]
    assert names == ["masses", "eta", "osmotic_ratio", "tau", "beta"]


@pytest.mark.parametrize("masses", [(1.0,), (1.0, 4.0), (0.3, 2.0, 7.0)])
@pytest.mark.parametrize(
    "eta, tau, ratio",
    [(1.0, 0.1, 1.0), (2.0, 0.5, 3.0), (0.37, 0.013, 0.25), (1.7, 2.3, 0.61), (1e-3, 40.0, 7.0)],
)
def test_params_derive_the_older_constants_bit_for_bit(masses, eta, tau, ratio):
    p = PhysicalParams(masses, eta=eta, osmotic_ratio=ratio, tau=tau)
    sigma_sq, osmotic_masses, kappa = _eight_field_derivation(masses, eta, ratio, tau)
    assert p.sigma_sq == sigma_sq
    assert np.array_equal(p.osmotic_masses, osmotic_masses)
    assert p.kappa == pytest.approx(kappa, rel=1e-15, abs=0.0)
    assert p.dim == len(masses)


@pytest.mark.parametrize(
    "value", [math.nan, math.inf, -math.inf, 0.0, -1.0],
    ids=["nan", "inf", "-inf", "zero", "negative"],
)
@pytest.mark.parametrize("name", ["masses", "eta", "osmotic_ratio", "tau"])
def test_params_refuse_a_bad_value_naming_its_field(name, value):
    kwargs = {"masses": (1.0, value)} if name == "masses" else {"masses": (1.0,), name: value}
    with pytest.raises(ConfigError, match=rf"^{name} must be"):
        PhysicalParams(**kwargs)


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf], ids=["nan", "inf", "-inf"])
def test_params_refuse_a_non_finite_charge(value):
    with pytest.raises(ConfigError, match=r"^beta must be finite"):
        PhysicalParams((1.0,), beta=value)


def test_params_take_any_finite_charge_and_refuse_a_mass_table():
    assert PhysicalParams((1.0,), beta=0.0).beta == 0.0
    assert PhysicalParams((1.0,), beta=-0.7).beta == -0.7
    with pytest.raises(ConfigError, match=r"^masses must be"):
        PhysicalParams([[1.0, 2.0]])


def test_params_matches_space():
    p = make_params()
    space = make_space(10.0, 64, p)
    p.matches_space(space)  # silent on agreement
    other = make_params(tau=0.2)
    with pytest.raises(GridMismatchError):
        other.matches_space(space)


def test_normalize_density():
    p = make_params()
    space = make_space(10.0, 64, p)
    rho = normalize_density(ScalarField(space, np.full(space.shape, 3.7)))
    assert rho.integral() == pytest.approx(1.0, abs=1e-14)
    with pytest.raises(DegenerateDensityError):
        normalize_density(ScalarField(space, np.full(space.shape, -1.0)))
    with pytest.raises(DegenerateDensityError):
        normalize_density(ScalarField(space, np.zeros(space.shape)))


def test_clamped_log_floors_dead_cells():
    v = np.array([1.0, 0.0, 1e-30])
    out = clamped_log(v)
    assert out[0] == 0.0
    assert out[1] == out[2] == pytest.approx(math.log(1e-12))
    with pytest.raises(DegenerateDensityError):
        clamped_log(np.zeros(3))


def test_entropy_field_combines_phase_and_half_log_density():
    p = make_params()
    space = make_space(10.0, 64, p)
    rho = gaussian_density(space, 0.0, 1.0)
    phi = ScalarField(space, 0.3 * np.sin(2.0 * math.pi * space.meshes[0] / 10.0))
    S = entropy_field(rho, phi)
    expect = phi.values + 0.5 * clamped_log(rho.values)
    assert np.allclose(S.values, expect)


def test_gradient_second_order_on_sine():
    p = make_params()
    errs = {}
    for n in (64, 128):
        space = make_space(2.0 * math.pi, n, p)
        x = space.meshes[0]
        f = ScalarField(space, np.sin(3.0 * x))
        g = axis_gradient(f, 0)
        errs[n] = np.abs(g - 3.0 * np.cos(3.0 * x)).max()
    assert errs[128] < 2e-2
    assert errs[64] / errs[128] == pytest.approx(4.0, rel=0.1)


def test_gradient_requires_matching_dims():
    p = make_params()
    space = make_space(10.0, 64, p)
    f = ScalarField(space, np.zeros(space.shape))
    g = gradient(f)
    assert g.components.shape == (1, 64)


def test_density_moments_gaussian():
    p = make_params()
    space = make_space(20.0, 256, p)
    rho = gaussian_density(space, 1.5, 0.8)
    com, var = density_moments(rho)
    assert com[0] == pytest.approx(1.5, abs=1e-8)
    assert var[0] == pytest.approx(0.8, abs=1e-6)


def test_distances():
    p = make_params()
    space = make_space(10.0, 64, p)
    a = gaussian_density(space, 0.0, 1.0)
    b = gaussian_density(space, 0.5, 1.0)
    assert l1_distance(a, a) == 0.0
    assert l2_distance(a, a) == 0.0
    assert l1_distance(a, b) > 0.0
    with pytest.raises(GridMismatchError):
        l2_distance(a, gaussian_density(make_space(10.0, 32, p), 0.0, 1.0))


def test_interpolate_scalar_hits_grid_points():
    p = make_params()
    space = make_space(10.0, 64, p)
    rho = gaussian_density(space, 0.0, 1.0)
    x = space.axis_coords(0)
    vals = interpolate_vector(VectorField(space, rho.values[None]), x.reshape(-1, 1))[:, 0]
    assert np.allclose(vals, rho.values, atol=1e-14)


def test_interpolate_scalar_linear_between_cells():
    p = make_params()
    space = make_space(10.0, 64, p)
    x = space.axis_coords(0)
    f = np.sin(2.0 * math.pi * x / 10.0)
    mid = (x[:-1] + x[1:]) / 2.0
    vals = interpolate_vector(VectorField(space, f[None]), mid.reshape(-1, 1))[:, 0]
    assert np.allclose(vals, 0.5 * (f[:-1] + f[1:]), atol=1e-14)


def test_interpolate_vector_periodic_seam():
    p = make_params()
    space = make_space(10.0, 64, p)
    x = space.axis_coords(0)
    comp = np.cos(2.0 * math.pi * x / 10.0)
    field = VectorField(space, comp.reshape(1, -1))
    # query just past the last cell center: wraps onto the first cell
    q = np.array([[x[-1] + 0.5 * space.spacings[0]]])
    got = interpolate_vector(field, q)[0, 0]
    assert got == pytest.approx(0.5 * (comp[-1] + comp[0]), abs=1e-14)


def _per_component_interpolation(space, components, positions):
    """The earlier interpolation, one component at a time with a hand-written
    reflecting fold, kept as the bitwise reference."""

    def fold_reflect(idx, n):
        idx = np.where(idx < 0, -1 - idx, idx)
        return np.where(idx >= n, 2 * n - 1 - idx, idx)

    pos = positions.reshape(-1, space.dim)
    out = np.empty_like(pos)
    for c in range(space.dim):
        base = np.empty(pos.shape, dtype=np.intp)
        frac = np.empty(pos.shape)
        for a in range(space.dim):
            f = (pos[:, a] - (-0.5 * space.extents[a])) / space.spacings[a] - 0.5
            base[:, a] = np.floor(f).astype(np.intp)
            frac[:, a] = f - base[:, a]
        acc = np.zeros(pos.shape[0])
        for corner in range(1 << space.dim):
            weight = np.ones(pos.shape[0])
            gather = []
            for a in range(space.dim):
                hi = (corner >> a) & 1
                idx = base[:, a] + hi
                n = space.points[a]
                gather.append(idx % n if space.boundary == PERIODIC else fold_reflect(idx, n))
                weight *= frac[:, a] if hi else (1.0 - frac[:, a])
            acc += weight * components[c][tuple(gather)]
        out[:, c] = acc
    return out


def _in_box_points(space, rng, count):
    """Random points through space.wrap, plus points on and a rounding
    error either side of every wall."""
    ext = np.asarray(space.extents)
    pts = [rng.uniform(-0.5, 0.5, size=(count, space.dim)) * ext]
    for a in range(space.dim):
        for wall in (-0.5 * ext[a], 0.5 * ext[a]):
            edge = rng.uniform(-0.5, 0.5, size=(60, space.dim)) * ext
            edge[:, a] = wall + rng.choice([-1e-15, 0.0, 1e-15], size=60) * ext[a]
            pts.append(edge)
    return space.wrap(np.concatenate(pts))


@pytest.mark.parametrize("boundary", [PERIODIC, REFLECTING])
@pytest.mark.parametrize("dim", [1, 2, 3])
def test_interpolate_vector_matches_per_component_interpolation(dim, boundary):
    rng = np.random.default_rng(10 * dim + (boundary == REFLECTING))
    points = {1: (37,), 2: (16, 11), 3: (8, 6, 5)}[dim]
    space = ConfigSpace(dim=dim, extents=(7.3, 4.0, 5.5)[:dim], points=points, boundary=boundary)
    field = VectorField(space, rng.normal(size=(dim,) + space.shape))
    pos = _in_box_points(space, rng, 4000)
    got = interpolate_vector(field, pos)
    assert np.array_equal(got, _per_component_interpolation(space, field.components, pos))


@pytest.mark.parametrize("boundary", [PERIODIC, REFLECTING])
def test_wrap_is_idempotent(boundary):
    rng = np.random.default_rng(3)
    for dim in (1, 2, 3):
        space = ConfigSpace(dim=dim, extents=20.0, points=16, boundary=boundary)
        x = rng.normal(0.0, 20.0, size=(20000, dim))
        # on, and a rounding error either side of, both walls
        x[:3000] = rng.choice([-10.0, 10.0], size=(3000, dim)) + rng.choice(
            [-1e-14, -1e-15, 0.0, 1e-15, 1e-14], size=(3000, dim)
        )
        once = space.wrap(x)
        assert np.array_equal(space.wrap(once), once)
        if boundary == PERIODIC:
            assert once.max() < 10.0


def _remainder_wrap(space, positions):
    """ConfigSpace.wrap as the remainder rule taken on every point, kept as
    the bitwise reference for the off-box-only remainder."""
    pos = np.array(positions, dtype=float, copy=True).reshape(-1, space.dim)
    for a in range(space.dim):
        lo = -0.5 * space.extents[a]
        L = space.extents[a]
        if space.boundary == PERIODIC:
            r = (pos[:, a] - lo) % L
            pos[:, a] = np.where(r < L, r, 0.0) + lo
        else:
            y = (pos[:, a] - lo) % (2.0 * L)
            pos[:, a] = lo + np.where(y > L, 2.0 * L - y, y)
    return pos


@pytest.mark.parametrize("boundary", [PERIODIC, REFLECTING])
@pytest.mark.parametrize("dim", [1, 2, 3])
def test_wrap_matches_remainder_rule(dim, boundary):
    rng = np.random.default_rng(20 + dim)
    ext = np.array((7.3, 4.0, 5.5)[:dim])
    space = ConfigSpace(dim=dim, extents=tuple(ext), points=16, boundary=boundary)
    x = rng.uniform(-4.0, 4.0, size=(6000, dim)) * ext  # several periods out
    x[:2000] = rng.uniform(-0.5, 0.5, size=(2000, dim)) * ext  # in the box
    # on each wall and one ulp either side, on every axis at once
    walls = np.concatenate([-0.5 * ext, 0.5 * ext]).reshape(2, dim)
    ulps = [np.nextafter(walls, -np.inf), np.nextafter(walls, np.inf)]
    signed = np.repeat([[-0.0], [np.inf], [-np.inf]], dim, axis=1)
    x = np.concatenate([x, walls, *ulps, signed])
    with np.errstate(invalid="ignore"):  # inf % L
        got = space.wrap(x)
        want = _remainder_wrap(space, x)
    assert np.array_equal(got.view(np.int64), want.view(np.int64))
    if boundary == PERIODIC:
        assert np.all(got[-1] == -0.5 * ext)  # -inf lands on the lower wall


@pytest.mark.parametrize("boundary", [PERIODIC, REFLECTING])
@pytest.mark.parametrize("dim", [1, 2])
def test_interpolate_vector_refuses_points_past_the_padding(dim, boundary):
    """A point two cells past a wall would index beyond the padded table."""
    space = ConfigSpace(dim=dim, extents=(6.0, 4.0)[:dim], points=(12, 8)[:dim], boundary=boundary)
    field = VectorField(space, np.ones((dim,) + space.shape))
    for a in range(dim):
        for wall in (-1.0, 1.0):
            pos = np.zeros((3, dim))
            pos[1, a] = wall * (0.5 * space.extents[a] + 2.0 * space.spacings[a])
            with pytest.raises(ConfigError, match=f"axis {a}"):
                interpolate_vector(field, pos)


@pytest.mark.parametrize(
    "ours, grid",
    [
        ((0.1, 0.2), (0.1, 0.2)),
        ((1e-3 + 0.99e-8,), (1e-3,)),  # inside the 1e-8 atol
        ((1e-3 + 1.01e-8,), (1e-3,)),  # outside it
        ((1e6 + 1.00e-6,), (1e6,)),  # inside atol + rtol * 1e6
        ((1e6 + 1.02e-6,), (1e6,)),  # outside it
        ((1e6, 0.1), (1e6, 0.1 + 2e-8)),  # one axis outside
        ((1.0,), (1.0, 1.0)),  # dim mismatch
        ((math.inf,), (math.inf,)),
        ((math.inf,), (1.0,)),
        ((1.0,), (math.inf,)),
        ((math.nan,), (math.nan,)),
        ((1.7e308,), (1e-3,)),  # |a - b| stays finite
    ],
)
def test_matches_space_agrees_with_allclose(ours, grid):
    space = SimpleNamespace(dim=len(grid), sigma_sq=grid)
    expect = len(ours) == len(grid) and bool(np.allclose(ours, grid, rtol=1e-12))
    params = SimpleNamespace(sigma_sq=ours)
    try:
        PhysicalParams.matches_space(params, space)
        got = True
    except GridMismatchError:
        got = False
    assert got == expect
