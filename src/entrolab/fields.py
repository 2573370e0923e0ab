"""Grids, sampled fields, and discrete calculus on regular boxes.

Everything downstream (transition kernels, walker ensembles, the density and
phase solvers) shares the conventions fixed here:

* cell-centered uniform grids over [-L/2, L/2) per axis,
* midpoint-rule integrals (sum of cell values times cell volume),
* one neighbour rule, shift(): the value at i +/- 1 wraps on a periodic box
  and is the edge cell itself past a reflecting wall (even extension); every
  boundary-aware stencil (differences, osmotic curvature, Fokker-Planck
  fluxes) is built on it, and fokker_planck._face_div passes no flux
  through a reflecting wall,
* second-order central differences respecting the boundary condition,
* multilinear interpolation (interpolate_vector) of in-box positions only:
  callers wrap first, as the Ensemble constructor does; the corners come
  from one table padded by a cell per side, with periodic copies on a
  periodic box and edge copies on a reflecting one,
* a diagonal configuration-space metric with weight 1/sigma_a^2 per axis,
  so the squared step length of a displacement dx is sum_a dx_a^2/sigma_a^2.

Axes play the role of particle coordinates: an axis with its own sigma_a^2
carries its own mass.  Axes belonging to identical particles should share one
sigma_sq value; that is a modeling convention, not something enforced here.

Fields are treated as immutable values: operations return new instances and
never mutate the wrapped arrays in place.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import ConfigError, DegenerateDensityError, GridMismatchError

PERIODIC = "periodic"
REFLECTING = "reflecting"
BOUNDARIES = (PERIODIC, REFLECTING)

# Relative floor used whenever log(rho) or 1/sqrt(rho) is needed: cells below
# floor * max(rho) are clamped there.  Cells that far down carry no mass worth
# resolving, and the clamp keeps osmotic velocities finite at exact zeros.
DENSITY_REL_FLOOR = 1e-12

# Absolute guard so log() never sees an exact zero even when the caller asks
# for an (almost) unclamped logarithm.
LOG_ABS_GUARD = 1e-300


def _whole(value, name):
    """A whole number (64, or 64.0 as YAML may give it) as an int; anything
    else raises ConfigError naming `name`, where int() would truncate."""
    try:
        number = float(value)
    except (TypeError, ValueError):
        number = math.nan
    if not number.is_integer():
        raise ConfigError(f"{name} must be a whole number, got {value!r}")
    return int(number)


def _as_tuple(value, dim, kind=float, name="value"):
    """Broadcast a scalar or sequence to a per-axis tuple of length dim; an
    entry that is not a number raises ConfigError naming `name`."""
    try:
        seq = tuple(kind(v) for v in ([value] * dim if np.isscalar(value) else value))
    except (TypeError, ValueError):
        raise ConfigError(f"{name} must be a number or a list of numbers, got {value!r}") from None
    if len(seq) != dim:
        raise ConfigError(f"{name} needs 1 or {dim} entries, got {len(seq)}")
    return seq


@dataclass(frozen=True, eq=False)
class ConfigSpace:
    """A regular box: extents, point counts, boundary rule, metric weights."""

    dim: int
    extents: tuple
    points: tuple
    boundary: str = PERIODIC
    sigma_sq: tuple = None

    def __post_init__(self):
        object.__setattr__(self, "dim", _whole(self.dim, "dim"))
        if self.dim < 1 or self.dim > 3:
            raise ConfigError(f"dim must be 1, 2, or 3, got {self.dim}")
        object.__setattr__(self, "extents", _as_tuple(self.extents, self.dim, float, "extents"))
        points = _as_tuple(self.points, self.dim, lambda n: _whole(n, "points"), "points")
        object.__setattr__(self, "points", points)
        sig = self.sigma_sq if self.sigma_sq is not None else 1.0
        object.__setattr__(self, "sigma_sq", _as_tuple(sig, self.dim, float, "sigma_sq"))
        if self.boundary not in BOUNDARIES:
            raise ConfigError(f"boundary must be one of {BOUNDARIES}, got {self.boundary!r}")
        if not all(math.isfinite(L) and L > 0 for L in self.extents):
            raise ConfigError(f"extents must be finite and positive, got {self.extents}")
        if any(n < 4 for n in self.points):
            raise ConfigError("need at least 4 points per axis")
        if not all(math.isfinite(s) and s > 0 for s in self.sigma_sq):
            raise ConfigError(f"sigma_sq must be finite and positive, got {self.sigma_sq}")

    @cached_property
    def spacings(self):
        return tuple(L / n for L, n in zip(self.extents, self.points))

    @cached_property
    def cell_volume(self):
        return float(np.prod(self.spacings))

    @property
    def shape(self):
        return self.points

    @property
    def size(self):
        return int(np.prod(self.points))

    def axis_coords(self, axis):
        """Cell centers along one axis: -L/2 + (i + 1/2) dx."""
        L, n = self.extents[axis], self.points[axis]
        dx = L / n
        return -0.5 * L + (np.arange(n) + 0.5) * dx

    @cached_property
    def meshes(self):
        """Full coordinate arrays, one grid-shaped array per axis."""
        axes = [self.axis_coords(a) for a in range(self.dim)]
        return tuple(np.meshgrid(*axes, indexing="ij")) if self.dim > 1 else (axes[0],)

    def wrap(self, positions):
        """Map arbitrary points back into the box (wrap or reflect).

        Idempotent: wrap(wrap(x)) == wrap(x) bit for bit.  A periodic axis
        maps into [-L/2, L/2); a point a rounding error below -L/2 has
        remainder L, which is the lower wall, not the upper one.  The
        remainder is taken only for points off the box (r = x + L/2 outside
        [0, L), or [0, L] when reflecting): on the box it is r itself, so
        every point still comes out as its remainder plus -L/2.
        """
        pos = np.asarray(positions, dtype=float).reshape(-1, self.dim)
        out = np.empty(pos.shape)
        for a in range(self.dim):
            lo = -0.5 * self.extents[a]
            L = self.extents[a]
            r = pos[:, a] - lo
            if self.boundary == PERIODIC:
                off = np.flatnonzero(~((r >= 0.0) & (r < L)))
                y = r[off] % L
                r[off] = np.where(y < L, y, 0.0)
            else:
                # fold repeatedly: period-2L sawtooth gives specular reflection
                off = np.flatnonzero(~((r >= 0.0) & (r <= L)))
                y = r[off] % (2.0 * L)
                r[off] = np.where(y > L, 2.0 * L - y, y)
            np.add(r, lo, out=out[:, a])
        return out

    def min_image(self, delta):
        """Displacements under the boundary rule (minimum image if periodic)."""
        d = np.array(delta, dtype=float, copy=True)
        if self.boundary == PERIODIC:
            ext = np.asarray(self.extents)
            d -= ext * np.round(d / ext)
        return d

    def cell_index(self, positions):
        """Integer cell indices (W, dim) for in-box positions, as the
        Ensemble constructor leaves them; nothing is wrapped here, and a
        point outside the box clips to the edge cell."""
        pos = np.asarray(positions, dtype=float)
        idx = np.empty(pos.shape, dtype=np.intp)
        for a in range(self.dim):
            lo = -0.5 * self.extents[a]
            dx = self.spacings[a]
            idx[:, a] = np.clip(((pos[:, a] - lo) / dx).astype(np.intp), 0, self.points[a] - 1)
        return idx

    def same_grid(self, other):
        return (
            self.dim == other.dim
            and self.extents == other.extents
            and self.points == other.points
            and self.boundary == other.boundary
            and self.sigma_sq == other.sigma_sq
        )


def _check_same_space(a, b):
    if not a.space.same_grid(b.space):
        raise GridMismatchError("fields live on different grids")


@dataclass(frozen=True, eq=False)
class ScalarField:
    space: ConfigSpace
    values: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        if v.shape != self.space.shape:
            raise GridMismatchError(f"values shape {v.shape} != grid shape {self.space.shape}")
        object.__setattr__(self, "values", v)

    def integral(self):
        return float(self.values.sum()) * self.space.cell_volume


@dataclass(frozen=True, eq=False)
class VectorField:
    """One component per axis, stored as an array of shape (dim, *grid)."""

    space: ConfigSpace
    components: np.ndarray

    def __post_init__(self):
        c = np.asarray(self.components, dtype=float)
        if c.shape != (self.space.dim,) + self.space.shape:
            raise GridMismatchError(
                f"components shape {c.shape} != {(self.space.dim,) + self.space.shape}"
            )
        object.__setattr__(self, "components", c)


@dataclass(frozen=True, eq=False)
class ComplexField:
    space: ConfigSpace
    values: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.values, dtype=complex)
        if v.shape != self.space.shape:
            raise GridMismatchError(f"values shape {v.shape} != grid shape {self.space.shape}")
        object.__setattr__(self, "values", v)

    def norm_sq(self):
        return float((np.abs(self.values) ** 2).sum()) * self.space.cell_volume


@dataclass(frozen=True, eq=False)
class PhysicalParams:
    """The five numbers a scenario sets: masses m_a (one per axis), the
    fluctuation constant eta, one shared osmotic_ratio mu_a / m_a (the
    couplings admit a single B), the step time tau and the charge beta.  With
    A = eta tau / 2 the rest follows: sigma_a^2 = 2 A / m_a, mu_a = ratio m_a
    (B = ratio A), and eta / m_a = sigma_a^2 / tau, the diffusion velocity
    scale per axis."""

    masses: np.ndarray
    eta: float = 1.0
    osmotic_ratio: float = 1.0
    tau: float = 1.0
    beta: float = 0.0

    def __post_init__(self):
        m = np.atleast_1d(np.asarray(self.masses, dtype=float))
        if m.ndim != 1 or not np.all(np.isfinite(m) & (m > 0)):
            raise ConfigError(f"masses must be a 1-D array of finite positive numbers, got {m}")
        object.__setattr__(self, "masses", m)
        for name in ("eta", "osmotic_ratio", "tau", "beta"):
            value = float(getattr(self, name))
            rule = "finite" if name == "beta" else "finite and positive"
            if not (math.isfinite(value) and (value > 0.0 or name == "beta")):
                raise ConfigError(f"{name} must be {rule}, got {value}")
            object.__setattr__(self, name, value)

    # The constructor under its older name; perfbench/micro.py is its one caller.
    from_masses = classmethod(lambda cls, *args, **kwargs: cls(*args, **kwargs))

    @cached_property
    def sigma_sq(self):
        """Metric weights sigma_a^2 = 2 A / m_a, one per axis."""
        a = 0.5 * self.eta * self.tau
        return tuple(2.0 * a / m for m in self.masses.tolist())

    @cached_property
    def osmotic_masses(self):
        """mu_a = osmotic_ratio * m_a."""
        return self.osmotic_ratio * self.masses

    @property
    def dim(self):
        return self.masses.size

    @property
    def kappa(self):
        """Rescaling factor sqrt(A / B) that maps osmotic masses onto the masses."""
        return math.sqrt(1.0 / self.osmotic_ratio)

    @property
    def eta_over_m(self):
        """Diffusion velocity scale sigma_a^2 / tau, one entry per axis."""
        return self.eta / self.masses

    def matches_space(self, space):
        """Refuse a grid whose sigma_sq is not np.allclose(..., rtol=1e-12) to
        ours, decided per axis in plain Python: the engines check every step."""
        if len(self.sigma_sq) != space.dim or not all(
            a == b or (math.isfinite(a - b) and abs(a - b) <= 1e-8 + 1e-12 * abs(b))
            for a, b in zip(self.sigma_sq, space.sigma_sq)
        ):
            raise GridMismatchError("params.sigma_sq disagrees with the grid's sigma_sq")


# ---------------------------------------------------------------------------
# discrete calculus


def shift(values: np.ndarray, axis: int, step: int, boundary: str) -> np.ndarray:
    """Values at i + step (step = +1 or -1) along one axis: wrapped on a
    periodic box, the edge cell itself past a reflecting wall."""
    if boundary == PERIODIC:
        return np.roll(values, -step, axis)
    v = np.moveaxis(values, axis, 0)
    out = np.concatenate([v[1:], v[-1:]]) if step > 0 else np.concatenate([v[:1], v[:-1]])
    return np.moveaxis(out, 0, axis)


def axis_gradient(f: ScalarField, axis: int) -> np.ndarray:
    """Second-order central difference along one axis (raw array)."""
    v, b = f.values, f.space.boundary
    return (shift(v, axis, 1, b) - shift(v, axis, -1, b)) / (2.0 * f.space.spacings[axis])


def gradient(f: ScalarField) -> VectorField:
    comps = np.stack([axis_gradient(f, a) for a in range(f.space.dim)])
    return VectorField(f.space, comps)


# ---------------------------------------------------------------------------
# densities


def normalize_density(rho: ScalarField) -> ScalarField:
    """Rescale to unit integral.  Degenerate input is an error, not a fix-up."""
    v = rho.values
    scale = float(np.abs(v).max()) if v.size else 0.0
    if float(v.min()) < -1e-14 * scale:
        raise DegenerateDensityError("density has negative entries")
    v = np.maximum(v, 0.0)  # forgive roundoff-scale negatives only
    total = v.sum() * rho.space.cell_volume
    if not np.isfinite(total) or total <= 0.0:
        raise DegenerateDensityError("density has zero or non-finite total mass")
    return ScalarField(rho.space, v / total)


def clamped_log(values: np.ndarray) -> np.ndarray:
    """log with a relative floor: cells below DENSITY_REL_FLOOR * max are clamped."""
    vmax = float(np.max(values))
    if vmax <= 0.0:
        raise DegenerateDensityError("cannot take log of a nonpositive field")
    floor = max(DENSITY_REL_FLOOR * vmax, LOG_ABS_GUARD)
    return np.log(np.maximum(values, floor))


def entropy_field(rho: ScalarField, phi: ScalarField) -> ScalarField:
    """Entropy that drives short steps: S = phi + log sqrt(rho)."""
    _check_same_space(rho, phi)
    return ScalarField(rho.space, phi.values + 0.5 * clamped_log(rho.values))


def density_moments(rho: ScalarField):
    """Center of mass and variance per axis under the midpoint rule.

    Coordinates are the raw cell centers; on periodic boxes this is only
    meaningful while the mass stays away from the wrap seam.
    """
    w = rho.values * rho.space.cell_volume
    total = w.sum()
    com = np.empty(rho.space.dim)
    var = np.empty(rho.space.dim)
    for a in range(rho.space.dim):
        x = rho.space.meshes[a]
        com[a] = (w * x).sum() / total
        var[a] = (w * (x - com[a]) ** 2).sum() / total
    return com, var


def l1_distance(a: ScalarField, b: ScalarField) -> float:
    _check_same_space(a, b)
    return float(np.abs(a.values - b.values).sum()) * a.space.cell_volume


def l2_distance(a: ScalarField, b: ScalarField) -> float:
    _check_same_space(a, b)
    return math.sqrt(float(((a.values - b.values) ** 2).sum()) * a.space.cell_volume)


# ---------------------------------------------------------------------------
# sampling fields at off-grid points


def interpolate_vector(field: VectorField, positions: np.ndarray) -> np.ndarray:
    """Multilinear interpolation of every component at (W, dim) positions.

    Positions must lie in the box, as ConfigSpace.wrap leaves them; corner
    cells then fall in [-1, n], and a point further out raises ConfigError.
    The corners are read from one table padded by a cell per side: periodic
    copies on a periodic box, edge copies on a reflecting one (-1 -> 0,
    n -> n-1), which is the even extension of the data that the difference
    stencils see.
    """
    space = field.space
    pos = np.asarray(positions, dtype=float).reshape(-1, space.dim)
    # fractional cell coordinates, one contiguous row per axis
    f = np.empty((space.dim, pos.shape[0]))
    for a in range(space.dim):
        np.add(pos[:, a], 0.5 * space.extents[a], out=f[a])
        f[a] /= space.spacings[a]
    f -= 0.5
    floor = np.floor(f)
    base = floor.astype(np.intp)
    frac = f - floor
    lower = 1.0 - frac
    for a in range(space.dim):
        if base[a].size and (base[a].min() < -1 or base[a].max() >= space.points[a]):
            raise ConfigError(f"interpolate_vector needs in-box positions (axis {a}); wrap first")
    mode = "wrap" if space.boundary == PERIODIC else "edge"
    padded = np.pad(field.components, [(0, 0)] + [(1, 1)] * space.dim, mode=mode)
    table = padded.reshape(space.dim, -1)
    strides = [padded.strides[a + 1] // padded.itemsize for a in range(space.dim)]
    # cell c sits at c + 1 in the padded table: low is the flat index of
    # base - 1, so corner base + hi is at low + sum((1 + hi) * strides)
    low = base[-1]
    for a in range(space.dim - 1):
        low = low + base[a] * strides[a]
    out = np.zeros((space.dim, pos.shape[0]))
    for corner in range(1 << space.dim):
        hi = [(corner >> a) & 1 for a in range(space.dim)]
        weight = frac[0] if hi[0] else lower[0]
        for a in range(1, space.dim):
            weight = weight * (frac[a] if hi[a] else lower[a])
        values = table.take(low + sum((1 + h) * s for h, s in zip(hi, strides)), axis=1)
        values *= weight
        out += values
    return out.T
