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
* one block rule, blocks(): per-walker loops take BLOCK walkers at a time, so
  no temporary beside a (W, dim) result holds more than a block,
* multilinear interpolation (interpolate_vector) of in-box positions only:
  callers wrap first, as the Ensemble constructor does; the corners come
  from one table padded by a cell per side, with periodic copies on a
  periodic box and edge copies on a reflecting one,
* a diagonal configuration-space metric with weight 1/sigma_a^2 per axis,
  so the squared step length of a displacement dx is sum_a dx_a^2/sigma_a^2,
* one number rule, number() and per_axis(): every number from outside the
  program (a scenario key, a sidecar entry, a dataclass field, a check's
  tolerance or sweep) is a finite float or int, never a boolean, and never a
  fraction where a count is due; a refusal is a ConfigError naming the key,
* one grid rule, require_same_grid(): two fields an operation combines must
  live on one grid, and require_periodic() refuses a reflecting box where a
  solver needs a periodic one.

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

BLOCK = 5120  # (3, BLOCK) float64 is 120 KiB: under glibc's 128 KiB mmap threshold


def blocks(n):
    """Slices that cover range(n), BLOCK items each (the last may be short)."""
    return [slice(i, i + BLOCK) for i in range(0, n, BLOCK)]


def number(value, name, kind=float):
    """The number rule: `value` as a finite `kind` (float or int).  A
    boolean, NaN, an infinity, a fraction where kind is int, and anything
    kind() refuses raise ConfigError naming `name`."""
    if isinstance(value, (bool, np.bool_)):
        raise ConfigError(f"{name} must be a number, got {value!r}")
    if kind is int and isinstance(value, (float, np.floating)) and not float(value).is_integer():
        raise ConfigError(f"{name} must be a whole number, got {value!r}")
    try:
        out = kind(value)
    except (TypeError, ValueError):
        raise ConfigError(f"{name} must be a number, got {value!r}") from None
    if not math.isfinite(out):
        raise ConfigError(f"{name} must be finite, got {out!r}")
    return out


def dimension(value, name="dim"):
    """A box's dimension under the number rule: a whole number 1, 2 or 3."""
    dim = number(value, name, int)
    if dim < 1 or dim > 3:
        raise ConfigError(f"{name} must be 1, 2, or 3, got {dim}")
    return dim


def per_axis(value, dim, name, kind=float):
    """One number for every axis, or a list of dim numbers, as a dim-tuple
    under the number rule."""
    if not isinstance(value, (list, tuple, np.ndarray)):
        return (number(value, name, kind),) * dim
    values = tuple(number(v, name, kind) for v in value)
    if len(values) != dim:
        raise ConfigError(f"{name} needs {dim} entries, got {len(values)}")
    return values


@dataclass(frozen=True, eq=False)
class ConfigSpace:
    """A regular box: extents, point counts, boundary rule, metric weights."""

    dim: int
    extents: tuple
    points: tuple
    boundary: str = PERIODIC
    sigma_sq: tuple = None

    def __post_init__(self):
        dim = dimension(self.dim)
        object.__setattr__(self, "dim", dim)
        object.__setattr__(self, "extents", per_axis(self.extents, dim, "extents"))
        object.__setattr__(self, "points", per_axis(self.points, dim, "points", int))
        sig = self.sigma_sq if self.sigma_sq is not None else 1.0
        object.__setattr__(self, "sigma_sq", per_axis(sig, dim, "sigma_sq"))
        if self.boundary not in BOUNDARIES:
            raise ConfigError(f"boundary must be one of {BOUNDARIES}, got {self.boundary!r}")
        if min(self.extents) <= 0:
            raise ConfigError(f"extents must be finite and positive, got {self.extents}")
        if min(self.points) < 4:
            raise ConfigError("need at least 4 points per axis")
        if min(self.sigma_sq) <= 0:
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
            np.subtract(pos[:, a], lo, out=out[:, a])  # r, formed in its output column
            for s in blocks(len(pos)):
                r = out[s, a]
                if r.min() >= 0.0 and r.max() < L:  # a NaN fails this too
                    continue
                if self.boundary == PERIODIC:
                    off = np.flatnonzero(~((r >= 0.0) & (r < L)))
                    y = r[off] % L
                    r[off] = np.where(y < L, y, 0.0)
                else:
                    # fold repeatedly: period-2L sawtooth gives specular reflection
                    off = np.flatnonzero(~((r >= 0.0) & (r <= L)))
                    y = r[off] % (2.0 * L)
                    r[off] = np.where(y > L, 2.0 * L - y, y)
            np.add(out[:, a], lo, out=out[:, a])
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


def require_same_grid(a, b, message="fields live on different grids", error=GridMismatchError):
    """The grid rule: a and b (fields, ensembles or wave functions; None, an
    absent vector potential, passes) must live on one grid, or error(message)
    is raised."""
    if a is not None and b is not None and not a.space.same_grid(b.space):
        raise error(message)


def require_periodic(space, what):
    """Spectral, circulant and roll-based solvers assume a periodic box."""
    if space.boundary != PERIODIC:
        raise ConfigError(f"{what} needs a periodic box")


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
        masses = self.masses
        if not isinstance(masses, (list, tuple, np.ndarray)):
            masses = [masses]
        masses = [number(m, "masses") for m in masses]
        if any(m <= 0.0 for m in masses):
            raise ConfigError(f"masses must be positive, got {masses}")
        object.__setattr__(self, "masses", np.array(masses))
        for name in ("eta", "osmotic_ratio", "tau", "beta"):
            value = number(getattr(self, name), name)
            if value <= 0.0 and name != "beta":
                raise ConfigError(f"{name} must be positive, got {value}")
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
    require_same_grid(rho, phi)
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
    require_same_grid(a, b)
    return float(np.abs(a.values - b.values).sum()) * a.space.cell_volume


def l2_distance(a: ScalarField, b: ScalarField) -> float:
    require_same_grid(a, b)
    return math.sqrt(float(((a.values - b.values) ** 2).sum()) * a.space.cell_volume)


# ---------------------------------------------------------------------------
# sampling fields at off-grid points


def interpolate_vector(field: VectorField, positions: np.ndarray) -> np.ndarray:
    """Multilinear interpolation of every component at (W, dim) positions.

    Positions must lie in the box, as ConfigSpace.wrap leaves them; corner
    cells then fall in [-1, n], and a point further out raises ConfigError.
    Block by block, the corners are read from one table padded by a cell per
    side: periodic copies on a periodic box, edge copies on a reflecting one
    (-1 -> 0, n -> n-1), the even extension the difference stencils see.
    """
    space = field.space
    pos = np.asarray(positions, dtype=float).reshape(-1, space.dim)
    for a in range(space.dim):
        # the cell coordinate f below is monotone in x, so its extremes decide
        ends = np.array([pos[:, a].min(initial=np.inf), pos[:, a].max(initial=-np.inf)])
        ends = (ends + 0.5 * space.extents[a]) / space.spacings[a] - 0.5
        if not (ends[0] >= -1.0 and ends[1] < space.points[a]):
            raise ConfigError(f"interpolate_vector needs in-box positions (axis {a}); wrap first")
    mode = "wrap" if space.boundary == PERIODIC else "edge"
    padded = np.pad(field.components, [(0, 0)] + [(1, 1)] * space.dim, mode=mode)
    table = padded.reshape(space.dim, -1)
    strides = [padded.strides[a + 1] // padded.itemsize for a in range(space.dim)]
    out = np.zeros((space.dim, pos.shape[0]))
    for blk in blocks(pos.shape[0]):
        x, acc = pos[blk], out[:, blk]
        # fractional cell coordinates, one contiguous row per axis
        f = np.empty((space.dim, x.shape[0]))
        for a in range(space.dim):
            np.add(x[:, a], 0.5 * space.extents[a], out=f[a])
            f[a] /= space.spacings[a]
        f -= 0.5
        floor = np.floor(f)
        base = floor.astype(np.intp)
        frac = f - floor
        lower = 1.0 - frac
        # cell c sits at c + 1 in the padded table: low is the flat index of
        # base - 1, so corner base + hi is at low + sum((1 + hi) * strides)
        low = base[-1]
        for a in range(space.dim - 1):
            low = low + base[a] * strides[a]
        for corner in range(1 << space.dim):
            hi = [(corner >> a) & 1 for a in range(space.dim)]
            weight = frac[0] if hi[0] else lower[0]
            for a in range(1, space.dim):
                weight = weight * (frac[a] if hi[a] else lower[a])
            values = table.take(low + sum((1 + h) * s for h, s in zip(hi, strides)), axis=1)
            values *= weight
            acc += values
    return out.T
