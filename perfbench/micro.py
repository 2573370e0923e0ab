"""Microbenchmarks of the public hot kernels on fixed inputs.

Each kernel is called repeatedly on the same input, outside the timed
end-to-end repetitions, and reported as the median milliseconds per call.
The inputs do not depend on the seed.
"""

from __future__ import annotations

import itertools
import math
import os
import statistics
import time

import numpy as np

from entrolab import dynamics, ensemble, io, schrodinger
from entrolab.fields import ComplexField, ConfigSpace, PhysicalParams, ScalarField, VectorField

from workloads import EXTENT, ETA, MASS, TAU, auto_dt_wave, cell_centres, curl_field, gaussian_packet

SECONDS_PER_KERNEL = 0.4
MIN_CALLS = 5

KERNELS = (
    "coupled_step.1d-256",
    "coupled_step.1d-4096",
    "coupled_step.2d-128",
    "unitary_step.2d-128",
    "unitary_step.2d-128-A",
    "step_ensemble.1d-256-1e5",
    "step_ensemble.2d-128-1e5",
    "save_scalar_field.2d-128",
    "save_complex_field.2d-128",
)


def metric_names():
    return [(f"micro.{k}.p50_ms", "ms") for k in KERNELS]


def _grid(dim, n):
    space = ConfigSpace(
        dim=dim,
        extents=(EXTENT,) * dim,
        points=(n,) * dim,
        sigma_sq=(ETA * TAU / MASS,) * dim,
        boundary="periodic",
    )
    x = cell_centres(n)
    meshes = tuple(np.meshgrid(*([x] * dim), indexing="ij"))
    return space, meshes


def _packet(dim, n):
    """Harmonic-well Gaussian packet in motion, and half its stable dt."""
    space, meshes = _grid(dim, n)
    centre, momentum = (-2.0, 0.0)[:dim], (0.3, 0.0)[:dim]
    log_rho, phi = gaussian_packet(meshes, centre, 1.0, momentum)
    rho = np.exp(log_rho)
    rho /= rho.sum() * space.cell_volume
    state = dynamics.ManifoldState(ScalarField(space, rho), ScalarField(space, phi), 0.0)
    V = ScalarField(space, sum(0.5 * MASS * x**2 for x in meshes) + np.zeros(space.shape))
    dt = auto_dt_wave(meshes, centre, 1.0, momentum, EXTENT / n)
    return space, meshes, state, V, dt


def _time(fn):
    fn()  # warm caches and lazy set-up
    samples = []
    stop = time.perf_counter() + SECONDS_PER_KERNEL
    while len(samples) < MIN_CALLS or time.perf_counter() < stop:
        t0 = time.perf_counter()
        fn()
        samples.append(time.perf_counter() - t0)
    return 1e3 * statistics.median(samples)


def _kernels(tmpdir):
    params1 = PhysicalParams.from_masses(masses=(MASS,), eta=ETA, tau=TAU)
    params2 = PhysicalParams.from_masses(masses=(MASS, MASS), eta=ETA, tau=TAU)
    params2_a = PhysicalParams.from_masses(masses=(MASS, MASS), eta=ETA, tau=TAU, beta=0.7)
    for dim, n in ((1, 256), (1, 4096), (2, 128)):
        _, _, state, V, dt = _packet(dim, n)
        params = params1 if dim == 1 else params2
        yield f"coupled_step.{dim}d-{n}", lambda s=state, p=params, V=V, dt=dt: (
            dynamics.coupled_step(s, p, V, dt)
        )

    space, meshes, state, V, dt = _packet(2, 128)
    w = schrodinger.to_wavefunction(state)
    A = VectorField(space, curl_field(meshes, 0.0))
    yield "unitary_step.2d-128", lambda: schrodinger.unitary_step(w, params2, V, dt)
    yield "unitary_step.2d-128-A", lambda: schrodinger.unitary_step(w, params2_a, V, dt, A)

    for dim, n, params in ((1, 256, params1), (2, 128, params2)):
        space, meshes = _grid(dim, n)
        S = ScalarField(space, 0.5 * np.sin(2.0 * math.pi * 2 * meshes[0] / EXTENT))
        rho = ScalarField(space, np.full(space.shape, 1.0 / np.prod(space.extents)))
        cloud = ensemble.Ensemble.from_density(rho, 100_000, 0.002, seed=0)
        yield f"step_ensemble.{dim}d-{n}-1e5", lambda c=cloud, S=S, p=params: (
            ensemble.step_ensemble(c, S, p)
        )

    space, meshes = _grid(2, 128)
    values = np.exp(-(meshes[0] ** 2 + meshes[1] ** 2) / 2.0)
    scalar = ScalarField(space, values)
    complex_ = ComplexField(space, values * np.exp(0.3j * meshes[0]))
    # a fresh file per call, as in a run: overwriting a file is several times
    # slower on some filesystems and is not what the engines do
    paths = (os.path.join(tmpdir, f"field{i}.csv") for i in itertools.count())
    yield "save_scalar_field.2d-128", lambda: io.save_scalar_field(next(paths), scalar)
    yield "save_complex_field.2d-128", lambda: io.save_complex_field(next(paths), complex_)


def run(tmpdir):
    """{metric name: median ms per call} for every kernel in KERNELS."""
    os.makedirs(tmpdir, exist_ok=True)
    return {f"micro.{name}.p50_ms": _time(fn) for name, fn in _kernels(tmpdir)}
