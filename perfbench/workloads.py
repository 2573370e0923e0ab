"""The benchmark's four workloads: input generation and operation sequences.

Every input is generated here from the seed, so the program under test only
ever sees the files this module writes: one YAML scenario per engine leg and,
for `gauge-2d-A`, a vector-potential CSV in the documented grid format.  The
seed sets small jitters of the packet centre and momentum, the phase of the
A field and the walker seed; everything else is fixed.

Each scenario states `dt` explicitly.  `auto_dt_wave` and `auto_dt_fp`
reproduce the `dt: auto` rule the program had when the benchmark was written
(half the stability bound at t=0), so a later change to that rule cannot
silently change a workload.

Operations go through the public Python API (`scenarios.load_scenario`,
`run`, `compare`, `gauge_check`), looked up on the module at call time so
the tracer's wrappers see them.
"""

from __future__ import annotations

import json
import math
import os

import numpy as np
import yaml

from entrolab import scenarios

WORKLOADS = ("coupled-2d", "gauge-2d-A", "snapshots-2d", "transport-1d")

EXTENT = 20.0
GRID_2D = 128
GRID_1D = 256
ETA = 1.0
TAU = 0.1
MASS = 1.0
SUPPORT_REL_FLOOR = 1e-8  # density mask used by the stability bound
LOG_REL_FLOOR = 1e-12  # clamp of log(rho) in the osmotic velocity


def cell_centres(n, extent=EXTENT):
    dx = extent / n
    return -0.5 * extent + (np.arange(n) + 0.5) * dx


def _central_diff(values, axis, dx):
    return (np.roll(values, -1, axis) - np.roll(values, 1, axis)) / (2.0 * dx)


def gaussian_packet(meshes, centre, width, momentum):
    """log-density and phase of the scenario's `initial: gaussian` packet."""
    log_rho = sum(-((x - c) ** 2) / (2.0 * width**2) for x, c in zip(meshes, centre))
    phi = sum(p * (x - c) / ETA for x, c, p in zip(meshes, centre, momentum))
    return log_rho, phi


def auto_dt_wave(meshes, centre, width, momentum, dx, osmotic_ratio=1.0, beta=0.0, A=None):
    """Half the coupled/Cayley stability bound at t=0: osmotic dispersion
    plus the largest current speed over the support."""
    log_rho, phi = gaussian_packet(meshes, centre, width, momentum)
    rho = np.exp(log_rho)
    mask = rho >= SUPPORT_REL_FLOOR * rho.max()
    dim = len(meshes)
    omega = dim * math.sqrt(osmotic_ratio) * (ETA / (2.0 * MASS)) * 4.0 / dx**2
    rate = 0.5 * omega
    for a in range(dim):
        g = _central_diff(phi, a, dx)
        if A is not None:
            g = g - beta * A[a]
        rate += float(np.abs((ETA / MASS) * g)[mask].max()) / dx
    return 0.5 / rate


def auto_dt_fp(x, centre, width, entropy, dx):
    """Half the explicit Fokker-Planck bound at t=0 in 1D: diffusion plus the
    largest face speed of drift and osmotic velocity."""
    log_rho, _ = gaussian_packet((x,), (centre,), width, (0.0,))
    rho = np.exp(log_rho)
    rho = rho / (rho.sum() * dx)
    clamped = np.log(np.maximum(rho, LOG_REL_FLOOR * rho.max()))
    speed = (ETA / MASS) * _central_diff(entropy, 0, dx) - 0.5 * (ETA / MASS) * _central_diff(
        clamped, 0, dx
    )
    face = 0.5 * (speed + np.roll(speed, -1))
    rate = 2.0 * 0.5 * (ETA / MASS) / dx**2 + float(np.abs(face).max()) / dx
    return 0.5 / rate


def curl_field(meshes, phase):
    """Smooth periodic A with curl: each component varies across the other axis."""
    k = 2.0 * math.pi / EXTENT
    X, Y = meshes
    return np.stack([0.5 * np.sin(k * Y + phase), 0.5 * np.cos(k * X + phase)])


def write_vector_csv(path, meshes, components):
    """Grid CSV plus `.meta.json` sidecar, the format `io.load_vector_field` reads."""
    dim = len(meshes)
    cols = [m.ravel() for m in meshes] + [c.ravel() for c in components]
    header = ",".join([f"axis{a}" for a in range(dim)] + [f"component{a}" for a in range(dim)])
    np.savetxt(path, np.stack(cols, axis=1), fmt="%.17g", delimiter=",", header=header, comments="")
    points = [int(m.shape[a]) for a, m in enumerate(meshes)]
    meta = {
        "dim": dim,
        "extents": [EXTENT] * dim,
        "points": points,
        "boundary": "periodic",
        "sigma_sq": [ETA * TAU / MASS] * dim,
    }
    with open(path + ".meta.json", "w") as fh:
        json.dump(meta, fh, indent=2)
        fh.write("\n")


def _scenario(name, dim, points, params, initial, potentials, run, entropy=None):
    cfg = {
        "name": name,
        "space": {"dim": dim, "extent": EXTENT, "points": points, "boundary": "periodic"},
        "params": {"eta": ETA, "tau": TAU, "masses": MASS, **params},
        "initial": initial,
        "potentials": potentials,
        "run": run,
    }
    if entropy is not None:
        cfg["entropy"] = entropy
    return cfg


def generate(workload, seed, indir):
    """Write the workload's inputs for `seed` into `indir`.

    Returns {leg: scenario path}.  Equal seeds give byte-identical files.
    """
    rng = np.random.default_rng([seed, WORKLOADS.index(workload)])
    centre = [-2.0 + rng.uniform(-0.1, 0.1), rng.uniform(-0.1, 0.1)]
    momentum = [0.3 + rng.uniform(-0.02, 0.02), 0.0]
    a_phase = rng.uniform(0.0, 2.0 * math.pi)
    walker_seed = int(rng.integers(2**31))
    x2 = cell_centres(GRID_2D)
    meshes = tuple(np.meshgrid(x2, x2, indexing="ij"))
    dx2 = EXTENT / GRID_2D
    packet = {"type": "gaussian", "center": centre, "width": 1.0, "momentum": momentum}
    harmonic = {"V": {"type": "harmonic", "omega": 1.0}}
    configs = {}

    if workload == "coupled-2d":
        dt = auto_dt_wave(meshes, centre, 1.0, momentum, dx2)
        for engine in ("coupled", "schrodinger"):
            run = {"engine": engine, "dt": dt, "steps": 200, "snapshot_stride": 50}
            configs[engine] = _scenario(engine, 2, GRID_2D, {}, packet, harmonic, run)

    elif workload == "gauge-2d-A":
        beta = 0.7
        A = curl_field(meshes, a_phase)
        write_vector_csv(os.path.join(indir, "A.csv"), meshes, A)
        dt = auto_dt_wave(meshes, centre, 1.0, momentum, dx2, beta=beta, A=A)
        run = {"engine": "schrodinger", "dt": dt, "steps": 80, "snapshot_stride": 20}
        potentials = dict(harmonic, A={"type": "file", "file": "A.csv"})
        configs["gauge"] = _scenario("gauge", 2, GRID_2D, {"beta": beta}, packet, potentials, run)

    elif workload == "snapshots-2d":
        ratio = 0.5
        dt = auto_dt_wave(meshes, centre, 1.0, momentum, dx2, osmotic_ratio=ratio)
        run = {"engine": "nonlinear", "dt": dt, "steps": 40, "snapshot_stride": 1}
        params = {"osmotic_ratio": ratio}
        configs["nonlinear"] = _scenario("nonlinear", 2, GRID_2D, params, packet, harmonic, run)

    elif workload == "transport-1d":
        x1 = cell_centres(GRID_1D)
        amplitude, mode = 0.5, 2
        entropy = amplitude * np.sin(2.0 * math.pi * mode * x1 / EXTENT)
        c1 = rng.uniform(-0.2, 0.2)
        dt = auto_dt_fp(x1, c1, 2.0, entropy, EXTENT / GRID_1D)
        initial = {"type": "gaussian", "center": c1, "width": 2.0}
        s_cfg = {"type": "sine", "amplitude": amplitude, "mode": mode}
        for engine in ("fokker-planck", "ensemble"):
            run = {
                "engine": engine,
                "dt": dt,
                "steps": 200,
                "snapshot_stride": 50,
                "seed": walker_seed,
                "walkers": 200_000,
            }
            configs[engine] = _scenario(engine, 1, GRID_1D, {}, initial, {}, run, entropy=s_cfg)
    else:
        raise ValueError(f"unknown workload {workload!r}")

    paths = {}
    for leg, cfg in configs.items():
        path = os.path.join(indir, f"{leg}.yaml")
        with open(path, "w") as fh:
            yaml.safe_dump(cfg, fh, sort_keys=True)
        paths[leg] = path
    return paths


def operations(workload, configs, outdir, op):
    """Run one repetition of the workload through `op(kind, fn, *args)`.

    `op` calls `fn`, counts it, and returns its result (None if it raised),
    so a failing operation is recorded and the repetition goes on.
    """
    out = lambda leg: os.path.join(outdir, leg)  # noqa: E731

    if workload == "coupled-2d":
        sc_c = op("load", scenarios.load_scenario, configs["coupled"])
        sc_s = op("load", scenarios.load_scenario, configs["schrodinger"])
        op("run", scenarios.run, sc_c, out("coupled"))
        op("run", scenarios.run, sc_s, out("schrodinger"))
        op("compare", scenarios.compare, out("coupled"), out("schrodinger"), ["rho_l2"])
    elif workload == "gauge-2d-A":
        sc = op("load", scenarios.load_scenario, configs["gauge"])
        op("gauge_check", scenarios.gauge_check, sc, 0.8, 1, out("gauge"))
    elif workload == "snapshots-2d":
        sc = op("load", scenarios.load_scenario, configs["nonlinear"])
        op("run", scenarios.run, sc, out("nonlinear"))
    elif workload == "transport-1d":
        sc_f = op("load", scenarios.load_scenario, configs["fokker-planck"])
        sc_e = op("load", scenarios.load_scenario, configs["ensemble"])
        op("run", scenarios.run, sc_f, out("fokker-planck"))
        op("run", scenarios.run, sc_e, out("ensemble"))
        op("compare", scenarios.compare, out("ensemble"), out("fokker-planck"), ["ks"])
    else:
        raise ValueError(f"unknown workload {workload!r}")
