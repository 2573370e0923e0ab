"""Stochastic walker ensembles.

Walkers realize the short-step law directly: each step displaces every
walker by the drift (eta/m_a)(dS/dx_a - beta A_a) dt plus independent
Gaussian noise of per-axis variance (eta/m_a) dt.  Histogramming the cloud
recovers the density the deterministic solver evolves, and conditional step
averages recover the forward and backward drift fields.

One walker-cell rule serves both: a walker at x sits in cell
floor((x_a + L_a/2) / dx_a) per axis, clipped to the grid
(`ConfigSpace.cell_index`), and cells are counted with `np.bincount` over
their row-major numbers.

Positions are wrapped into the box once, by the Ensemble constructor, so
every walker step wraps exactly once and interpolation always sees in-box
points; the wrapped array is read-only, so no later edit can move a walker
off the box.  The constructor refuses non-finite coordinates, so a NaN or
infinite drift fails the step instead of leaving walkers on a wall.

Memory: loops take `fields.BLOCK` walkers at a time (a block's draws are the
next rows of one full-shape draw, so no bit moves).  A step holds its noise
and its drift*dt + x, two positions-sized arrays, and then the wrapped copy
in place of the second: at 2e5 walkers it peaks at 2.24x its positions above
its input (2.5x tested), and takes about 1.2 minor page faults per step.

Concurrency: one worker thread per step draws the step's noise, one
full-shape `standard_normal` into one buffer, so the generator yields its
numbers in the order a serial draw would; nothing else touches the
generator during the step.  The worker starts only after the checks on the
step's inputs (grid, params, drift), so a step they refuse leaves the
generator where it was, and it is joined before the step returns, on error
too, with its error raised to the caller.  The module keeps no pool and
starts no thread at import.

Reproducibility: every ensemble owns a seeded generator; equal seeds and
inputs give bit-identical trajectories.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError
from .fields import (
    ConfigSpace,
    PhysicalParams,
    ScalarField,
    VectorField,
    blocks,
    interpolate_vector,
    require_same_grid,
)
from .fokker_planck import drift_velocity

MIN_CELL_SAMPLES = 20


@dataclass(eq=False)
class Ensemble:
    space: ConfigSpace
    positions: np.ndarray  # (walkers, dim)
    dt: float
    rng: np.random.Generator
    time: float = 0.0

    def __post_init__(self):
        pos = np.asarray(self.positions, dtype=float)
        if pos.ndim != 2 or pos.shape[1] != self.space.dim:
            raise ConfigError(
                f"positions must have shape (walkers, {self.space.dim}), got {pos.shape}"
            )
        if not self.dt > 0.0:
            raise ConfigError("dt must be positive")
        # min and max are finite only if every coordinate is: NaN propagates
        if pos.size and not (np.isfinite(pos.min()) and np.isfinite(pos.max())):
            bad = pos.size - np.count_nonzero(np.isfinite(pos))
            raise ConfigError(f"{bad} of {pos.size} walker coordinates are not finite")
        self.positions = self.space.wrap(pos)
        self.positions.setflags(write=False)  # an edit could put a walker off the box

    @property
    def walkers(self) -> int:
        return self.positions.shape[0]

    @classmethod
    def from_density(cls, rho: ScalarField, walkers: int, dt: float, seed=0):
        """Sample walkers from a grid density: multinomial over cells, then a
        uniform jitter inside each cell."""
        space = rho.space
        rng = np.random.default_rng(seed)
        p = np.maximum(rho.values, 0.0).ravel()
        total = p.sum()
        if not total > 0.0:
            raise ConfigError("cannot sample from a density with no mass")
        counts = rng.multinomial(walkers, p / total)
        centers = np.stack([m.ravel() for m in space.meshes], axis=1)
        pos = np.repeat(centers, counts, axis=0)
        for s in blocks(walkers):  # the jitter, drawn and added a block at a time
            pos[s] += rng.uniform(-0.5, 0.5, size=pos[s].shape) * np.asarray(space.spacings)
        return cls(space, pos, dt, rng)


def step_ensemble(
    e: Ensemble,
    S: ScalarField,
    params: PhysicalParams,
    A: VectorField | None = None,
) -> Ensemble:
    """Advance every walker by drift*dt plus Gaussian noise; the Ensemble
    constructor wraps the result back into the box.

    A worker draws the noise while this thread interpolates the drift and
    forms drift*dt + x; IEEE addition commutes, so noise*c + (drift*dt + x)
    has the bits of the serial (drift*dt + x) + noise*c.
    """
    require_same_grid(e, S, "entropy field lives on a different grid")
    params.matches_space(e.space)
    drift = drift_velocity(S, params, A)
    noise = np.empty(e.positions.shape)
    with ThreadPoolExecutor(max_workers=1, thread_name_prefix="walker-noise") as worker:
        drawn = worker.submit(e.rng.standard_normal, noise.shape, out=noise)
        step = interpolate_vector(drift, e.positions)
        for s in blocks(e.walkers):
            step[s] *= e.dt
            step[s] += e.positions[s]
        drawn.result()
    # noise * sqrt(eta/m dt) + (drift * dt + x), in the noise buffer a block at a time
    scale = np.sqrt(params.eta_over_m * e.dt)
    for s in blocks(e.walkers):
        noise[s] *= scale
        noise[s] += step[s]
    del step  # freed before the constructor's wrapped copy: two full-size arrays at a time
    return Ensemble(e.space, noise, e.dt, e.rng, e.time + e.dt)


def _flat_cells(space: ConfigSpace, positions: np.ndarray) -> np.ndarray:
    """Row-major number of the cell each in-box walker sits in."""
    flat = np.empty(len(positions), dtype=np.intp)
    for s in blocks(len(positions)):
        flat[s] = np.ravel_multi_index(tuple(space.cell_index(positions[s]).T), space.shape)
    return flat


def estimate_density(e: Ensemble) -> ScalarField:
    """Cell-count histogram of the walkers, normalized to unit integral."""
    if e.walkers < 1:
        raise ConfigError("need at least one walker")
    space = e.space
    counts = np.bincount(_flat_cells(space, e.positions), minlength=space.size)
    return ScalarField(space, counts.reshape(space.shape) / (e.walkers * space.cell_volume))


@dataclass(frozen=True, eq=False)
class DriftEstimate:
    drift: VectorField  # NaN in cells with no samples
    stderr: np.ndarray  # per-axis standard error, NaN where undefined
    samples_per_cell: np.ndarray

    def reliable_cells(self, min_samples: int = MIN_CELL_SAMPLES) -> np.ndarray:
        return self.samples_per_cell >= min_samples


def _conditional_drift(e_before: Ensemble, e_after: Ensemble, conditioning: np.ndarray):
    space = e_before.space
    if e_after.walkers != e_before.walkers:
        raise ConfigError("ensembles must pair walkers one to one")
    require_same_grid(e_before, e_after, "ensembles live on different grids")
    dt = e_before.dt
    # Min-image displacement: the physical step, not the wrapped coordinate gap.
    velocity = space.min_image(e_after.positions - e_before.positions) / dt

    flat = _flat_cells(space, conditioning)
    n_cells = space.size

    counts = np.bincount(flat, minlength=n_cells).astype(float)
    dim = space.dim
    sums = np.empty((dim, n_cells))
    sq_sums = np.empty((dim, n_cells))
    for a in range(dim):
        sums[a] = np.bincount(flat, weights=velocity[:, a], minlength=n_cells)
        sq_sums[a] = np.bincount(flat, weights=velocity[:, a] ** 2, minlength=n_cells)

    with np.errstate(invalid="ignore", divide="ignore"):
        mean = sums / counts
        var = (sq_sums - counts * mean**2) / (counts - 1.0)
        stderr = np.sqrt(np.maximum(var, 0.0) / counts)
    mean[:, counts == 0] = np.nan
    stderr[:, counts < 2] = np.nan

    shape = (dim,) + space.shape
    return DriftEstimate(
        drift=VectorField(space, mean.reshape(shape)),
        stderr=stderr.reshape(shape),
        samples_per_cell=counts.reshape(space.shape).astype(int),
    )


def empirical_forward_drift(e_before: Ensemble, e_after: Ensemble) -> DriftEstimate:
    """Mean step velocity conditioned on the cell the walker started from."""
    return _conditional_drift(e_before, e_after, e_before.positions)


def empirical_backward_drift(e_before: Ensemble, e_after: Ensemble) -> DriftEstimate:
    """Mean step velocity conditioned on the cell the walker arrived in.

    For a diffusing cloud this is NOT the forward drift: conditioning on the
    destination biases toward steps that climbed the density gradient, and
    the two estimates differ by (eta/m) d(log rho)/dx per axis.
    """
    return _conditional_drift(e_before, e_after, e_after.positions)


def sampling_l1_bound(rho: ScalarField, walkers: int) -> float:
    """Expected L1 gap between a multinomial histogram and its target.

    Each cell of probability p contributes E|f - p| = sqrt(2 p (1-p) / (pi W))
    in the normal approximation; the sum bounds the expected L1 error of the
    empirical density.
    """
    p = np.maximum(rho.values, 0.0) * rho.space.cell_volume
    p = p / p.sum()
    return float(np.sqrt(2.0 * p * (1.0 - p) / (np.pi * walkers)).sum())
