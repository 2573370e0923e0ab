"""Scenario configuration, engine orchestration, and run comparison.

A scenario is a YAML file with five sections.  Everything is optional except
`name` and `run.engine`, the one choice with no neutral default:

    name: free-packet
    space:    {dim, extent, points, boundary}
    params:   {eta, tau, masses, osmotic_ratio, beta}
    entropy:  {type: uniform|linear|sine|from_initial, slope, amplitude, mode}
    initial:  {type: gaussian|plane_wave|uniform|file, center, width,
               momentum, mode, rho_file, phi_file}
    potentials:
      V: {type: none|harmonic|linear|file, omega, center, slope, file,
          time_scale: [a, b] | T}    # V(x, t) = V(x) * (a + b t)
      A: {type: none|constant|pure_gauge|file, value, chi_amplitude,
          chi_mode, file}
    run:      {engine: ensemble|fokker-planck|coupled|schrodinger|nonlinear,
               dt, steps, snapshot_stride, seed, walkers, energy_tolerance}

A scalar `time_scale: T` (T > 0) is the time over which V doubles, i.e.
`[1, 1/T]`; it applies to every V type.  Unknown keys are rejected, naming
the offending path, and so is a number that is not finite: every config
number must be finite.  A field section takes only the keys its type reads
(the first type listed is the default); a key that another type reads is
refused too: `entropy.amplitude does not apply to entropy.type 'uniform'`.
`dt: auto` (the default) picks half the engine's reported stability limit,
its safety factor included (0.8 for the wave engines, 0.9 for fokker-planck
and ensemble).  Every run writes CSV snapshots, a moments series, an energy
audit where energy is defined, and a summary.json echoing the fully resolved
configuration, so a run is reproducible from its artifacts alone.  A
snapshot CSV is its value columns in row-major order, and its `.meta.json`
sidecar states the grid; coordinates come from `io.load_*(path).space.meshes`.
Readers also accept leading `axis<k>` coordinate columns, as older runs and
hand-written inputs carry them.
A snapshot is one file: the density `rho_<tag>.csv` for fokker-planck,
ensemble and coupled, the wave function `psi_<tag>.csv` for schrodinger and
nonlinear.  The nonlinear engine (osmotic_ratio != 1) is the linear one in
regraduated units (`dynamics.regraduate`), so its psi is sqrt(rho)
exp(i kappa phi), kappa = 1/sqrt(osmotic_ratio), and its summary.json states
kappa; a plane_wave start must then wind kappa * mode whole turns around the
box.  By the Born rule a wave function's density is rho = |psi|^2, so
`compare` derives a wave run's rho from its psi, with the expression the wave
engines use; psi round-trips exactly, so the derived rho keeps its bits.
A parsed `Scenario` is an immutable value that checks its own run settings;
an override is a new value, `dataclasses.replace(sc, seed=...)`, checked again.
"""

from __future__ import annotations

import glob
import logging
import math
import os
from dataclasses import dataclass, replace

import numpy as np
import yaml

from . import dynamics, ensemble as ens, fokker_planck as fp, io, schrodinger as schro
from .errors import ConfigError, GridMismatchError
from .fields import (
    PERIODIC,
    ComplexField,
    ConfigSpace,
    PhysicalParams,
    ScalarField,
    VectorField,
    density_moments,
    entropy_field,
    gradient,
    interpolate_vector,
    l1_distance,
    l2_distance,
    normalize_density,
)

logger = logging.getLogger(__name__)

ENGINES = ("ensemble", "fokker-planck", "coupled", "schrodinger", "nonlinear")

# One versioned metric table, (default tolerance, note); every comparison
# report cites it.  Each tolerance is a ceiling except the KS p-value's.
METRICS = {
    # density L2 gap between independent solvers at reference resolution
    "rho_l2": (1e-3, "cross-solver density budget at reference resolution"),
    # looser than L2 because L1 accumulates over all cells
    "rho_l1": (5e-3, "cross-solver density budget, L1 form"),
    "psi_l2": (2e-3, "wavefunction gap modulo the undetermined global phase"),
    # per-axis absolute gaps along the series
    "variance": (1e-2, "second-moment trajectory agreement"),
    "center_of_mass": (1e-2, "first-moment trajectory agreement"),
    "energy": (1e-4, "relative energy trajectory agreement"),
    "ks": (1e-2, "KS p-value floor for walker samples against a density"),
}


# ---------------------------------------------------------------------------
# strict-key config parsing

# Each field section's types, the first being the default, and the keys each
# type reads; time_scale drives every V, V(x, t) = V(x) (a + b t).
_FIELD_TYPES = {
    "entropy": {"uniform": (), "linear": ("slope",), "sine": ("amplitude", "mode"),
                "from_initial": ()},
    "initial": {"gaussian": ("center", "width", "momentum"), "plane_wave": ("mode",),
                "uniform": (), "file": ("rho_file", "phi_file")},
    "potentials.V": {"none": ("time_scale",), "harmonic": ("omega", "center", "time_scale"),
                     "linear": ("slope", "time_scale"), "file": ("file", "time_scale")},
    "potentials.A": {"none": (), "constant": ("value",),
                     "pure_gauge": ("chi_amplitude", "chi_mode"), "file": ("file",)},
}
_SCHEMA = {
    "name": None,
    "space": {"dim", "extent", "points", "boundary"},
    "params": {"eta", "tau", "masses", "osmotic_ratio", "beta"},
    "entropy": _FIELD_TYPES["entropy"],
    "initial": _FIELD_TYPES["initial"],
    "potentials": {"V": _FIELD_TYPES["potentials.V"], "A": _FIELD_TYPES["potentials.A"]},
    "run": {
        "engine",
        "dt",
        "steps",
        "snapshot_stride",
        "seed",
        "walkers",
        "energy_tolerance",
    },
}


def _section(node, schema, path, base_dir):
    """The mapping `node` (None reads as empty) with only the schema's keys:
    each nested section read in turn, a field section by its type."""
    node = {} if node is None else node
    if not isinstance(node, dict):
        raise ConfigError(f"{path} must be a mapping")
    if path in _FIELD_TYPES:
        return _field_section(node, schema, path, base_dir)
    for key in node:
        if key not in schema:
            raise ConfigError(f"unknown key '{path}.{key}'")
    if isinstance(schema, dict):
        return {
            key: node.get(key) if keys is None else _section(
                node.get(key), keys, key if path == "config" else f"{path}.{key}", base_dir
            )
            for key, keys in schema.items()
        }
    return dict(node)


def _field_section(node, types, path, base_dir):
    """A field section: its type (the table's first if none is named), only
    the keys that type reads, file paths joined to base_dir."""
    kind = node.get("type", next(iter(types)))
    if not isinstance(kind, str) or kind not in types:
        raise ConfigError(f"{path}.type '{kind}' not recognized")
    out = {"type": kind}
    for key, value in node.items():
        if key == "type":
            continue
        if not any(key in keys for keys in types.values()):
            raise ConfigError(f"unknown key '{path}.{key}'")
        if key not in types[kind]:
            raise ConfigError(f"{path}.{key} does not apply to {path}.type '{kind}'")
        if key in ("rho_file", "phi_file", "file"):
            if not isinstance(value, str):
                raise ConfigError(f"{path}.{key} must be a file path, got {value!r}")
            value = os.path.join(base_dir, value)
        out[key] = value
    return out


def _number(value, path, kind=float):
    """The one conversion of a config number; anything else, NaN and the
    infinities included, names its key."""
    if kind is int and isinstance(value, float) and not value.is_integer():
        raise ConfigError(f"{path} must be a whole number, got {value!r}")
    try:
        number = kind(value)
    except (TypeError, ValueError):
        raise ConfigError(f"{path} must be a number, got {value!r}") from None
    if not math.isfinite(number):
        raise ConfigError(f"{path} must be finite, got {number!r}")
    return number


def _numbers(value, path, kind=float):
    """A number, or a list converted entry by entry."""
    if isinstance(value, (list, tuple)):
        return [_number(v, path, kind) for v in value]
    return _number(value, path, kind)


def _per_axis(value, dim, path):
    value = _numbers(value, path)
    if isinstance(value, list):
        if len(value) != dim:
            raise ConfigError(f"{path} needs {dim} entries, got {len(value)}")
        return tuple(value)
    return (value,) * dim


@dataclass(frozen=True, eq=False)
class Scenario:
    name: str
    space: ConfigSpace
    params: PhysicalParams
    entropy: ScalarField
    initial: dynamics.ManifoldState
    potential: ScalarField
    time_scale: tuple  # (a, b): V(x, t) = potential * (a + b t)
    vector_potential: VectorField | None
    engine: str
    dt: float | None  # None = auto from the stability estimate
    steps: int
    snapshot_stride: int
    seed: int
    walkers: int
    energy_tolerance: float
    sources: dict  # entropy, initial, potentials as read; types, paths, time_scale resolved

    def __post_init__(self):
        if self.engine not in ENGINES:
            rule = "is required" if self.engine is None else f"must be one of {ENGINES}"
            raise ConfigError(f"run.engine {rule}")
        if self.dt is not None and self.dt <= 0:
            raise ConfigError("run.dt must be positive or 'auto'")
        for key in ("steps", "snapshot_stride", "walkers"):
            if getattr(self, key) <= 0:
                raise ConfigError(f"run.{key} must be positive")
        for key in ("seed", "energy_tolerance"):
            if not getattr(self, key) >= 0:
                raise ConfigError(f"run.{key} must be at least 0, got {getattr(self, key)}")

    def potential_at(self, t: float) -> ScalarField:
        a, b = self.time_scale
        return ScalarField(self.space, self.potential.values * (a + b * t))

    @property
    def static_potential(self) -> bool:
        return self.time_scale[1] == 0.0

    @property
    def echo(self) -> dict:
        """The fully resolved configuration that summary.json records."""
        return {
            "name": self.name,
            "space": {
                "dim": self.space.dim,
                "extent": list(self.space.extents),
                "points": list(self.space.points),
                "boundary": self.space.boundary,
            },
            "params": {
                "eta": self.params.eta,
                "tau": self.params.tau,
                "masses": self.params.masses.tolist(),
                "osmotic_ratio": self.params.osmotic_ratio,
                "beta": self.params.beta,
            },
            **self.sources,
            "run": {
                "engine": self.engine,
                "dt": "auto" if self.dt is None else self.dt,
                "steps": self.steps,
                "snapshot_stride": self.snapshot_stride,
                "seed": self.seed,
                "walkers": self.walkers,
                "energy_tolerance": self.energy_tolerance,
            },
        }


def _in_section(section, build, *args, **kwargs):
    """Build a dataclass; its ConfigError is re-raised naming the YAML section."""
    try:
        return build(*args, **kwargs)
    except ConfigError as exc:
        raise ConfigError(f"{section}: {exc}") from None


def _sine(space, amplitude, mode):
    """amplitude * sin(2 pi mode x0 / L0), a field along axis 0."""
    return ScalarField(
        space, amplitude * np.sin(2.0 * math.pi * mode * space.meshes[0] / space.extents[0])
    )


def _grid_file(cfg, key, section, space, load):
    """The field in the file cfg[key] names, which must lie on space's grid."""
    if key not in cfg:
        raise ConfigError(f"{section}.{key} is required when {section}.type is 'file'")
    loaded = load(cfg[key])
    if not loaded.space.same_grid(space):
        raise ConfigError(f"{section}.{key} grid does not match space")
    return loaded


def _build_entropy(cfg, space, initial):
    kind = cfg["type"]
    x = space.meshes
    if kind == "uniform":
        values = np.zeros(space.shape)
    elif kind == "linear":
        slope = _per_axis(cfg.get("slope", 0.0), space.dim, "entropy.slope")
        values = sum(k * x[a] for a, k in enumerate(slope))
    elif kind == "sine":
        amp = _number(cfg.get("amplitude", 0.1), "entropy.amplitude")
        mode = _number(cfg.get("mode", 1), "entropy.mode", int)
        return _sine(space, amp, mode)
    else:  # from_initial
        return entropy_field(initial.rho, initial.phi)
    return ScalarField(space, np.asarray(values, dtype=float))


def _build_initial(cfg, space, eta):
    kind = cfg["type"]
    x = space.meshes
    if kind == "gaussian":
        center = _per_axis(cfg.get("center", 0.0), space.dim, "initial.center")
        width = _per_axis(cfg.get("width", 1.0), space.dim, "initial.width")
        if any(w <= 0 for w in width):
            raise ConfigError("initial.width must be positive")
        momentum = _per_axis(cfg.get("momentum", 0.0), space.dim, "initial.momentum")
        log_rho = sum(
            -((x[a] - center[a]) ** 2) / (2.0 * width[a] ** 2) for a in range(space.dim)
        )
        rho = normalize_density(ScalarField(space, np.exp(log_rho)))
        phi_vals = sum(
            momentum[a] * (x[a] - center[a]) / eta for a in range(space.dim)
        )
        phi = ScalarField(space, np.asarray(phi_vals, dtype=float) + np.zeros(space.shape))
    elif kind == "plane_wave":
        mode = _number(cfg.get("mode", 1), "initial.mode", int)
        k = 2.0 * math.pi * mode / space.extents[0]
        volume = float(np.prod(space.extents))
        rho = ScalarField(space, np.full(space.shape, 1.0 / volume))
        phi = ScalarField(space, k * x[0])
    elif kind == "uniform":
        volume = float(np.prod(space.extents))
        rho = ScalarField(space, np.full(space.shape, 1.0 / volume))
        phi = ScalarField(space, np.zeros(space.shape))
    else:  # file
        rho = _grid_file(cfg, "rho_file", "initial", space, io.load_scalar_field)
        rho = normalize_density(ScalarField(space, rho.values))
        if "phi_file" in cfg:
            phi = _grid_file(cfg, "phi_file", "initial", space, io.load_scalar_field)
            phi = ScalarField(space, phi.values)
        else:
            phi = ScalarField(space, np.zeros(space.shape))
    return dynamics.ManifoldState(rho=rho, phi=phi, time=0.0)


def _build_potential(cfg, space, masses):
    kind = cfg["type"]
    x = space.meshes
    if kind == "none":
        values = np.zeros(space.shape)
    elif kind == "harmonic":
        omega = _number(cfg.get("omega", 1.0), "potentials.V.omega")
        center = _per_axis(cfg.get("center", 0.0), space.dim, "potentials.V.center")
        values = sum(
            0.5 * masses[a] * omega**2 * (x[a] - center[a]) ** 2
            for a in range(space.dim)
        )
    elif kind == "linear":
        slope = _per_axis(cfg.get("slope", 0.0), space.dim, "potentials.V.slope")
        values = sum(k * x[a] for a, k in enumerate(slope))
    else:  # file
        values = _grid_file(cfg, "file", "potentials.V", space, io.load_scalar_field).values
    values = np.asarray(values, dtype=float) + np.zeros(space.shape)
    return ScalarField(space, values), _time_scale(cfg.get("time_scale", [1.0, 0.0]))


def _time_scale(scale):
    """(a, b) with V(x, t) = V(x) (a + b t); a scalar T means (1, 1/T)."""
    if isinstance(scale, (int, float)) and not isinstance(scale, bool):
        scale = _number(scale, "potentials.V.time_scale")
        if scale <= 0:
            raise ConfigError("potentials.V.time_scale as a scalar must be a positive time")
        return (1.0, 1.0 / scale)
    if not isinstance(scale, (list, tuple)) or len(scale) != 2:
        raise ConfigError(
            "potentials.V.time_scale must be a [constant, rate] pair or a positive time"
        )
    return tuple(_numbers(scale, "potentials.V.time_scale"))


def _build_vector_potential(cfg, space):
    kind = cfg["type"]
    if kind == "none":
        return None
    if kind == "constant":
        value = _per_axis(cfg.get("value", 0.0), space.dim, "potentials.A.value")
        comps = np.stack([np.full(space.shape, v) for v in value])
        return VectorField(space, comps)
    if kind == "pure_gauge":
        amp = _number(cfg.get("chi_amplitude", 1.0), "potentials.A.chi_amplitude")
        mode = _number(cfg.get("chi_mode", 1), "potentials.A.chi_mode", int)
        return schro.spectral_gradient(_sine(space, amp, mode))
    loaded = _grid_file(cfg, "file", "potentials.A", space, io.load_vector_field)  # type file
    return VectorField(space, loaded.components)


def load_scenario(path) -> Scenario:
    with open(path) as fh:
        raw = yaml.safe_load(fh)
    return scenario_from_dict(raw, base_dir=os.path.dirname(path))


def scenario_from_dict(raw: dict, base_dir: str = ".") -> Scenario:
    cfg = _section(raw, _SCHEMA, "config", base_dir)
    name = cfg["name"]
    if not name or not isinstance(name, str):
        raise ConfigError("config.name is required")
    p_cfg, s_cfg, r_cfg = cfg["params"], cfg["space"], cfg["run"]

    eta = _number(p_cfg.get("eta", 1.0), "params.eta")
    tau = _number(p_cfg.get("tau", 0.1), "params.tau")
    beta = _number(p_cfg.get("beta", 0.0), "params.beta")
    dim = _number(s_cfg.get("dim", 1), "space.dim", int)
    masses = _per_axis(p_cfg.get("masses", 1.0), dim, "params.masses")
    ratio = _numbers(p_cfg.get("osmotic_ratio", 1.0), "params.osmotic_ratio")
    if isinstance(ratio, list):
        if len(set(ratio)) != 1:
            raise ConfigError("params.osmotic_ratio must be a single shared value")
        ratio = ratio[0]

    params = _in_section(
        "params",
        PhysicalParams,
        masses=masses, eta=eta, osmotic_ratio=ratio, tau=tau, beta=beta,
    )
    space = _in_section(
        "space",
        ConfigSpace,
        dim=dim,
        extents=_numbers(s_cfg.get("extent", 20.0), "space.extent"),
        points=_numbers(s_cfg.get("points", 256), "space.points", int),
        sigma_sq=params.sigma_sq,
        boundary=s_cfg.get("boundary", PERIODIC),
    )
    initial = _build_initial(cfg["initial"], space, eta)
    entropy = _build_entropy(cfg["entropy"], space, initial)
    potentials = cfg["potentials"]
    potential, time_scale = _build_potential(potentials["V"], space, masses)
    vector_potential = _build_vector_potential(potentials["A"], space)
    potentials["V"]["time_scale"] = list(time_scale)  # the resolved pair, for the echo

    steps = _number(r_cfg.get("steps", 100), "run.steps", int)
    if r_cfg.get("engine") == "coupled" and ratio != 1.0:
        logger.info(
            "scenario %s: coupled engine with osmotic_ratio != 1; the nonlinear engine,"
            " the linear wave solver in regraduated units, is the matching oracle",
            name,
        )

    return Scenario(
        name=name,
        space=space,
        params=params,
        entropy=entropy,
        initial=initial,
        potential=potential,
        time_scale=time_scale,
        vector_potential=vector_potential,
        engine=r_cfg.get("engine"),
        dt=None if r_cfg.get("dt") in (None, "auto") else _number(r_cfg["dt"], "run.dt"),
        steps=steps,
        snapshot_stride=_number(
            r_cfg.get("snapshot_stride", max(1, steps // 10)), "run.snapshot_stride", int
        ),
        seed=_number(r_cfg.get("seed", 0), "run.seed", int),
        walkers=_number(r_cfg.get("walkers", 100_000), "run.walkers", int),
        energy_tolerance=_number(
            r_cfg.get("energy_tolerance", METRICS["energy"][0]), "run.energy_tolerance"
        ),
        sources={key: cfg[key] for key in ("entropy", "initial", "potentials")},
    )


# ---------------------------------------------------------------------------
# running


def resolve_dt(sc: Scenario) -> float:
    if sc.dt is not None:
        return sc.dt
    if sc.engine in ("coupled", "nonlinear", "schrodinger"):
        limit = dynamics.coupled_stability_limit(sc.initial, sc.params, sc.vector_potential)
    else:
        limit = fp.fp_stability_limit(
            sc.entropy, sc.params, sc.vector_potential, sc.initial.rho
        )
    if math.isnan(limit):
        raise ConfigError(
            "run.dt cannot be 'auto': the stability bound is NaN, so a scenario field"
            " (initial data, entropy or A) is not finite"
        )
    if not math.isfinite(limit):
        raise ConfigError(
            "run.dt cannot be 'auto' for a scenario with no dynamical rate; set it explicitly"
        )
    return 0.5 * limit


def _check(values, tolerance) -> dict:
    """The verdict on every value a check measured: the largest must meet the
    tolerance.  np.max propagates a NaN, and a NaN meets no tolerance."""
    value = float(np.max(values))
    return {"value": value, "tolerance": tolerance, "passed": value <= tolerance}


def _engine(sc: Scenario, dt: float, A: VectorField | None):
    """One engine as (initial state, advance(state, step), snapshot(state, step)).

    advance takes the state after step - 1 to the state after step, with V
    at the step's midpoint.  snapshot returns (t, rho, energy breakdown or
    None, psi or None); the breakdown is the functional the engine conserves.
    A static V is resolved once and the same field goes to every step and
    snapshot, so the wave engines build its phase factor once per run; a
    driven V is a new field at every time.
    """
    params = sc.params
    static_V = sc.potential_at(0.0) if sc.static_potential else None

    def v_at(t):
        return sc.potential_at(t) if static_V is None else static_V

    def v_mid(step):
        return v_at((step - 0.5) * dt)

    if sc.engine == "fokker-planck":
        return (
            sc.initial.rho,
            lambda rho, step: fp.fp_step(rho, sc.entropy, params, dt, A),
            lambda rho, step: (step * dt, rho, None, None),
        )
    if sc.engine == "ensemble":
        return (
            ens.Ensemble.from_density(sc.initial.rho, sc.walkers, dt, seed=sc.seed),
            lambda cloud, step: ens.step_ensemble(cloud, sc.entropy, params, A),
            lambda cloud, step: (cloud.time, ens.estimate_density(cloud), None, None),
        )
    if sc.space.boundary != PERIODIC:
        # refused here, before a run or check creates its output directory
        raise ConfigError(f"the {sc.engine} engine needs a periodic box")
    if sc.engine == "coupled":
        # phi = k x winds 2 pi mode around the box, and the engine, which
        # differences phi itself, would read the seam as a jump
        if sc.sources["initial"]["type"] == "plane_wave" and sc.initial.phi.values.any():
            raise ConfigError("the coupled engine needs a phase that does not wind around the"
                              " box, as a plane_wave of nonzero mode does")
        return (
            sc.initial,
            lambda st, step: dynamics.coupled_step(st, params, v_mid(step), dt, A),
            lambda st, step: (
                st.time, st.rho,
                dynamics.energy(st, params, v_at(st.time), A), None,
            ),
        )
    initial, wave_params = sc.initial, params
    if sc.engine == "nonlinear":
        # the mu != m flow is the linear one in regraduated units, stepped and
        # audited as Psi' = sqrt(rho) exp(i kappa phi): rho = |Psi'|^2 and the
        # energy keep their values, but Psi' is periodic only if kappa phi
        # winds whole turns around the box, and a plane wave's phi winds `mode`
        if sc.sources["initial"]["type"] == "plane_wave":
            turns = params.kappa * sc.sources["initial"].get("mode", 1)
            if abs(turns - round(turns)) > 1e-9 * max(1.0, abs(turns)):
                raise ConfigError("the nonlinear engine needs a plane_wave whose regraduated phase"
                                  f" winds whole turns around the box; kappa * mode = {turns:g}")
        initial, wave_params = dynamics.regraduate(initial, params)
    return (
        schro.to_wavefunction(initial),
        lambda w, step: (
            schro.nonlinear_step if sc.engine == "nonlinear" else schro.unitary_step
        )(w, wave_params, v_mid(step), dt, A),
        lambda w, step: (
            w.time, schro.probability_density(w),
            schro.wavefunction_energy_breakdown(w, wave_params, v_at(w.time), A), w.psi,
        ),
    )


def _trajectory(sc: Scenario, state, advance):
    """Yield (step, state, snapshot due) for step 0 and every step after it."""
    yield 0, state, True
    for step in range(1, sc.steps + 1):
        state = advance(state, step)
        yield step, state, step % sc.snapshot_stride == 0 or step == sc.steps


def _save_failure(outdir, sc: Scenario, dt, last_step, exc):
    """The summary.json of a run or check that raised after `last_step`."""
    io.save_summary(
        os.path.join(outdir, "summary.json"),
        {"status": "failed", "error": {"type": type(exc).__name__, "message": str(exc)},
         "last_step": last_step, "dt": dt, "config": sc.echo},
    )


def run(sc: Scenario, outdir) -> dict:
    """Execute the scenario and write snapshots, series, audit, summary."""
    dt = resolve_dt(sc)
    state, advance, snapshot = _engine(sc, dt, sc.vector_potential)
    os.makedirs(outdir, exist_ok=True)
    dim = sc.space.dim

    snap_times = []
    moment_rows = []
    energy_rows = []
    norm_gaps = []
    powers = []  # the imposed power b int rho V0 of a driven V, per energy row

    def record(t, rho, breakdown, psi):
        com, var = density_moments(rho)
        moment_rows.append([t, rho.integral(), *var, *com])
        tag = f"{len(snap_times):06d}"
        snap_times.append(t)
        if psi is None:
            io.save_scalar_field(os.path.join(outdir, f"rho_{tag}.csv"), rho)
        else:  # rho = |psi|^2 is derived where it is read
            io.save_complex_field(os.path.join(outdir, f"psi_{tag}.csv"), psi)
            norm_gaps.append(abs(psi.norm_sq() - 1.0))
        if breakdown is not None:
            energy_rows.append(
                [t, breakdown.current_term, breakdown.osmotic_term,
                 breakdown.potential_term, breakdown.total]
            )
            if not sc.static_potential:  # V = V0 (a + b t), so dV/dt = b V0
                v0 = float((rho.values * sc.potential.values).sum()) * sc.space.cell_volume
                powers.append(sc.time_scale[1] * v0)

    last_step = 0  # the last step the engine completed
    try:
        for last_step, state, due in _trajectory(sc, state, advance):
            if due:
                record(*snapshot(state, last_step))
        if sc.engine == "ensemble":
            io.save_series(
                os.path.join(outdir, "final_positions.csv"),
                [f"axis{a}" for a in range(dim)],
                state.positions,
            )
    except Exception as exc:
        _save_failure(outdir, sc, dt, last_step, exc)
        raise

    io.save_series(
        os.path.join(outdir, "series.csv"),
        ["t", "mass"] + [f"variance{a}" for a in range(dim)] + [f"com{a}" for a in range(dim)],
        moment_rows,
    )
    if energy_rows:
        io.save_series(
            os.path.join(outdir, "energy.csv"),
            ["t", "current", "osmotic", "potential", "total"],
            energy_rows,
        )

    mass_gaps = [abs(row[1] - 1.0) for row in moment_rows]
    checks = {"mass_conservation": _check(mass_gaps, 1e-10)}
    if norm_gaps:
        checks["norm_conservation"] = _check(norm_gaps, 1e-10 * max(sc.steps, 1))
    totals = np.array([row[4] for row in energy_rows])
    if energy_rows and sc.static_potential:
        scale = max(abs(totals[0]), 1e-30)
        checks["energy_drift"] = _check(np.abs(totals - totals[0]) / scale, sc.energy_tolerance)
    if len(energy_rows) >= 3 and not sc.static_potential:
        mismatch = dynamics.energy_rate_audit(snap_times, totals, powers)
        checks["energy_rate_audit"] = _check(mismatch, 0.05)

    summary = {
        "name": sc.name,
        "engine": sc.engine,
        "dt": dt,
        "steps": sc.steps,
        "seed": sc.seed,
        "status": "completed",
        "snapshot_times": [float(t) for t in snap_times],
        "checks": checks,
        "passed": bool(all(c["passed"] for c in checks.values())),
        "config": sc.echo,
    }
    if energy_rows:
        summary["final_energy"] = float(energy_rows[-1][4])
    if sc.engine == "nonlinear":  # its psi snapshots hold sqrt(rho) exp(i kappa phi)
        summary["kappa"] = sc.params.kappa
    io.save_summary(os.path.join(outdir, "summary.json"), summary)
    return summary


# ---------------------------------------------------------------------------
# comparison


@dataclass(frozen=True)
class MetricResult:
    name: str
    values: tuple
    tolerance: float

    def _worst_of(self, values) -> float:
        # the KS p-value is a floor, every other metric a ceiling; np.min and
        # np.max propagate a NaN, so a NaN value is the worst of all
        return float(np.min(values) if self.name == "ks" else np.max(values))

    @property
    def worst(self) -> float:
        """The value the tolerance is judged on."""
        return self._worst_of(self.values)

    @property
    def passed(self) -> bool:
        """The tolerance is met when it is the worst of itself and the values."""
        return self._worst_of((*self.values, self.tolerance)) == self.tolerance

    @property
    def note(self) -> str:
        return METRICS[self.name][1]


@dataclass(frozen=True)
class ComparisonReport:
    metrics: tuple

    @property
    def passed(self) -> bool:
        return all(m.passed for m in self.metrics)

    def to_dict(self):
        return {
            "passed": self.passed,
            "metrics": {
                m.name: {
                    "values": list(m.values),
                    "tolerance": m.tolerance,
                    "passed": m.passed,
                    "note": m.note,
                }
                for m in self.metrics
            },
        }


def _born_density(path):
    """rho = |psi|^2 from a psi snapshot, the expression the wave engines use."""
    return schro.probability_density(schro.WaveFunction(io.load_complex_field(path)))


def _snapshots(run_dir, kind):
    """tag -> (path, load) for each `kind` ("rho" or "psi") snapshot of a run.
    A density is the run's `rho_<tag>.csv`, or else |psi|^2 of `psi_<tag>.csv`."""
    sources = (
        [("psi", _born_density), ("rho", io.load_scalar_field)]  # a rho file wins
        if kind == "rho" else [("psi", io.load_complex_field)]
    )
    return {
        os.path.basename(path)[len(prefix) + 1 : -len(".csv")]: (path, load)
        for prefix, load in sources
        for path in glob.glob(os.path.join(run_dir, f"{prefix}_*.csv"))
    }


def _snapshot_gaps(dir_a, dir_b, kind, distance):
    """distance(a, b) for each `kind` snapshot the two runs share."""
    found_a, found_b = _snapshots(dir_a, kind), _snapshots(dir_b, kind)
    common = sorted(found_a.keys() & found_b.keys())
    if not common:
        raise ConfigError(f"no matching {kind} snapshots between {dir_a} and {dir_b}")
    gaps = []
    for tag in common:
        (path_a, load_a), (path_b, load_b) = found_a[tag], found_b[tag]
        a, b = load_a(path_a), load_b(path_b)
        if not a.space.same_grid(b.space):
            raise GridMismatchError(f"snapshot {tag}: grids differ")
        gaps.append(distance(a, b))
    return gaps


def _psi_distance(a, b):
    return schro.phase_aligned_distance(schro.WaveFunction(a), schro.WaveFunction(b))


def _series_columns(dir_path, wanted_prefix):
    header, rows = io.load_series(os.path.join(dir_path, "series.csv"))
    cols = [i for i, h in enumerate(header) if h.startswith(wanted_prefix)]
    return rows[:, cols]


def _check_time_alignment(dir_a, dir_b):
    """Refuse to compare a failed run, or snapshots taken at different times."""
    times = []
    for d in (dir_a, dir_b):
        path = os.path.join(d, "summary.json")
        summary = io.load_summary(path) if os.path.exists(path) else {}
        if summary.get("status") == "failed":
            error = summary.get("error", {})
            raise ConfigError(
                f"{d} holds a failed run (last_step {summary.get('last_step')}, "
                f"{error.get('type')}: {error.get('message')}); it cannot be compared"
            )
        # a bare directory (no run summary) has no times: compare by index
        times.append(np.asarray(summary.get("snapshot_times", ()), dtype=float))
    ta, tb = times
    n = min(ta.size, tb.size)
    if n and np.any(np.abs(ta[:n] - tb[:n]) > 1e-9 * np.maximum(1.0, np.abs(ta[:n]))):
        raise ConfigError(
            "snapshot times differ between the runs; rerun with matching dt, "
            "steps, and snapshot_stride"
        )


def compare(dir_a, dir_b, metrics, tolerances=None) -> ComparisonReport:
    """Metric-by-metric comparison of two run directories."""
    if not metrics:
        raise ConfigError("compare needs at least one metric")
    tolerances = tolerances or {}
    for name, tol in tolerances.items():
        if name not in METRICS:
            raise ConfigError(f"tolerance for unknown metric '{name}'")
        if not (math.isfinite(tol) and tol >= 0.0):
            raise ConfigError(f"tolerance for '{name}' must be finite and >= 0, got {tol}")
    _check_time_alignment(dir_a, dir_b)
    results = []
    for metric in metrics:
        if metric not in METRICS:
            raise ConfigError(f"unknown metric '{metric}'")
        if metric in ("rho_l2", "rho_l1"):
            distance = l2_distance if metric == "rho_l2" else l1_distance
            values = _snapshot_gaps(dir_a, dir_b, "rho", distance)
        elif metric == "psi_l2":
            values = _snapshot_gaps(dir_a, dir_b, "psi", _psi_distance)
        elif metric in ("variance", "center_of_mass"):
            prefix = "variance" if metric == "variance" else "com"
            col_a = _series_columns(dir_a, prefix)
            col_b = _series_columns(dir_b, prefix)
            if col_a.shape != col_b.shape:
                raise ConfigError("series shapes differ; snapshot grids do not match")
            values = np.max(np.abs(col_a - col_b), axis=1)
        elif metric == "energy":
            _, rows_a = io.load_series(os.path.join(dir_a, "energy.csv"))
            _, rows_b = io.load_series(os.path.join(dir_b, "energy.csv"))
            if rows_a.shape != rows_b.shape:
                raise ConfigError("energy series shapes differ")
            scale = max(np.max(np.abs(rows_a[:, 4])), 1e-30)
            values = np.abs(rows_a[:, 4] - rows_b[:, 4]) / scale
        else:
            values = _ks_metric(dir_a, dir_b)
        tol = float(tolerances.get(metric, METRICS[metric][0]))
        results.append(MetricResult(metric, tuple(float(v) for v in values), tol))
    return ComparisonReport(metrics=tuple(results))


# ---------------------------------------------------------------------------
# check orchestrators (gauge, classical limit, kernel audit)


def gauge_check(sc: Scenario, chi_amplitude, chi_mode, outdir, tolerance=1e-8) -> dict:
    """Evolve a scenario and its gauge-transformed twin; report the gap.

    The twin shifts the phase by beta*chi and the vector potential by the
    gradient of chi (the discrete gradient matching the engine's own
    stencil), so the two trajectories describe identical physics and any
    density gap is pure discretization infidelity.
    """
    if sc.engine not in ("coupled", "schrodinger"):
        raise ConfigError("gauge-check needs run.engine 'coupled' or 'schrodinger'")
    beta = sc.params.beta
    if beta == 0.0:
        raise ConfigError("gauge-check needs params.beta != 0")
    chi_amplitude = _number(chi_amplitude, "chi amplitude")
    chi_mode = _number(chi_mode, "chi_mode", int)
    if chi_amplitude == 0.0 or chi_mode == 0:
        # chi = 0 makes the twin the base, and the check would test nothing
        raise ConfigError(f"chi amplitude and mode must be nonzero, got {chi_amplitude}:{chi_mode}")
    if not (math.isfinite(tolerance) and tolerance >= 0.0):
        raise ConfigError(f"tolerance must be finite and >= 0, got {tolerance}")
    space = sc.space
    chi = _sine(space, chi_amplitude, chi_mode)
    dt = resolve_dt(sc)
    A = sc.vector_potential

    rho_gaps, psi_gaps, times = [], [], []

    if sc.engine == "schrodinger":
        base = schro.to_wavefunction(sc.initial)
        twin, A_twin = schro.gauge_transform(base, A, chi, beta)
        unphase = np.exp(-1j * beta * chi.values)

        def measure(wb, wt):
            rho_b = schro.probability_density(wb)
            rho_t = schro.probability_density(wt)
            rho_gaps.append(l2_distance(rho_b, rho_t))
            aligned = schro.WaveFunction(
                ComplexField(space, wt.psi.values * unphase), wt.time
            )
            psi_gaps.append(schro.phase_aligned_distance(wb, aligned))
            times.append(wb.time)

    else:
        grad_chi = gradient(chi)
        if A is None:
            A_twin = grad_chi
        else:
            A_twin = VectorField(space, A.components + grad_chi.components)
        base = sc.initial
        twin = dynamics.ManifoldState(
            rho=base.rho,
            phi=ScalarField(space, base.phi.values + beta * chi.values),
            time=base.time,
        )

        def measure(sb, st):
            rho_gaps.append(l2_distance(sb.rho, st.rho))
            shifted = st.phi.values - beta * chi.values - sb.phi.values
            # a constant offset is the free global phase; remove it mass-weighted
            offset = float((sb.rho.values * shifted).sum() * space.cell_volume)
            w = float((sb.rho.values * (shifted - offset) ** 2).sum() * space.cell_volume)
            psi_gaps.append(math.sqrt(max(w, 0.0)))
            times.append(sb.time)

    pair = zip(
        _trajectory(sc, base, _engine(sc, dt, A)[1]),
        _trajectory(sc, twin, _engine(sc, dt, A_twin)[1]),
    )
    os.makedirs(outdir, exist_ok=True)
    last_step = 0  # the last step both trajectories completed
    try:
        for (last_step, base, due), (_, twin, _) in pair:
            if due:
                measure(base, twin)
    except Exception as exc:
        _save_failure(outdir, sc, dt, last_step, exc)
        raise

    report = {
        "name": sc.name,
        "engine": sc.engine,
        "beta": beta,
        "chi_amplitude": chi_amplitude,
        "chi_mode": chi_mode,
        "dt": dt,
        "times": [float(t) for t in times],
        "rho_gap_max": float(np.max(rho_gaps)),
        "phase_gap_max": float(np.max(psi_gaps)),
        "tolerance": tolerance,
        "passed": _check(rho_gaps + psi_gaps, tolerance)["passed"],
    }
    io.save_series(
        os.path.join(outdir, "gauge_gaps.csv"),
        ["t", "rho_gap", "phase_gap"],
        list(zip(times, rho_gaps, psi_gaps)),
    )
    io.save_summary(os.path.join(outdir, "summary.json"), report)
    return report


def _classical_residual_and_variance(sc, params, space, dt, walkers, seed):
    """One split step from the scenario's initial data: the Hamilton-Jacobi
    defect of the step, plus the per-axis noise variance of a walker step."""
    # re-hosted on space: its sigma_sq follows params through the eta sweep
    rho0 = ScalarField(space, sc.initial.rho.values)
    phi0 = ScalarField(space, sc.initial.phi.values)
    state0 = dynamics.ManifoldState(rho=rho0, phi=phi0, time=0.0)
    v_mid = ScalarField(space, sc.potential_at(0.5 * dt).values)
    state1 = dynamics.coupled_step(state0, params, v_mid, dt, None)
    residual = dynamics.hamilton_jacobi_residual(state0, state1, params, v_mid)

    entropy = ScalarField(space, sc.entropy.values)
    cloud = ens.Ensemble.from_density(rho0, walkers, dt, seed=seed)
    before = cloud.positions.copy()
    stepped = ens.step_ensemble(cloud, entropy, params)
    b = fp.drift_velocity(entropy, params)
    drift = interpolate_vector(b, before)
    noise = space.min_image(stepped.positions - before) - drift * dt
    variance = noise.var(axis=0, ddof=1) / dt
    return residual, variance


def classical_limit(
    sc: Scenario,
    eta_scales=None,
    mu_scales=None,
    outdir=None,
    walkers=None,
) -> dict:
    """Scaling audit: fluctuation-coupling sweeps toward the classical limit.

    eta sweep: the Hamilton-Jacobi residual of one coupled step must scale
    with the square of the fluctuation constant (tolerance 10%) while walker
    noise variance per unit time scales linearly (tolerance 5%).  mu sweep:
    the residual must vanish with the osmotic coupling while the noise
    variance stays put.
    """
    if (eta_scales is None) == (mu_scales is None):
        raise ConfigError("classical-limit needs exactly one of eta_scales / mu_scales")
    if sc.vector_potential is not None:
        # the steps below and the Hamilton-Jacobi residual carry no A term
        raise ConfigError("the classical-limit audit does not take a vector potential")
    key, raw = ("eta_scales", eta_scales) if eta_scales is not None else ("mu_scales", mu_scales)
    # sweep scales are not config numbers: the one rule below refuses a NaN,
    # an infinite and a non-positive scale alike
    try:
        scales = [float(s) for s in raw]
    except (TypeError, ValueError):
        raise ConfigError(f"{key} must be a number, got {list(raw)!r}") from None
    if len(scales) < 2 or scales[0] != 1.0:
        raise ConfigError(
            f"{key} must start at 1.0 (the reference) and hold at least two scales, got {scales}"
        )
    if not all(math.isfinite(s) and s > 0 for s in scales):
        raise ConfigError(f"{key} must be finite and positive, got {scales}")
    walkers = sc.walkers if walkers is None else _number(walkers, "walkers", int)
    if walkers < 1:
        raise ConfigError(f"walkers must be at least 1, got {walkers}")

    base_params = sc.params
    dt_base = resolve_dt(sc)

    rows = []
    residuals = []
    variances = []
    for s in scales:
        if eta_scales is not None:
            # phase increments go like V dt / eta: shrink dt with eta so the
            # step stays in the resolved regime across the sweep
            params_s = replace(base_params, eta=base_params.eta * s)
            dt_s = dt_base * s
        else:
            params_s = replace(base_params, osmotic_ratio=base_params.osmotic_ratio * s)
            dt_s = dt_base
        space_s = replace(sc.space, sigma_sq=params_s.sigma_sq)
        residual, variance = _classical_residual_and_variance(
            sc, params_s, space_s, dt_s, walkers, sc.seed
        )
        residuals.append(residual)
        variances.append(variance)
        rows.append([s, dt_s, residual, *variance])

    res0 = residuals[0]
    var0 = variances[0]
    checks = {}
    if eta_scales is not None:
        res_errs = [
            abs(residuals[i] / (res0 * scales[i] ** 2) - 1.0) for i in range(1, len(scales))
        ]
        var_errs = [
            np.abs(variances[i] / (var0 * scales[i]) - 1.0) for i in range(1, len(scales))
        ]
        checks["residual_quadratic_in_eta"] = _check(res_errs, 0.10)
        checks["variance_linear_in_eta"] = _check(var_errs, 0.05)
    else:
        shrink_ok = all(b <= a + 1e-30 for a, b in zip(residuals, residuals[1:]))
        tail_ratio = residuals[-1] / res0 if res0 > 0 else 0.0
        var_errs = [np.abs(variances[i] / var0 - 1.0) for i in range(1, len(scales))]
        checks["residual_vanishes_with_mu"] = {
            "value": tail_ratio,
            "tolerance": 1.2 * scales[-1],
            "passed": bool(shrink_ok and tail_ratio <= 1.2 * scales[-1]),
        }
        checks["variance_persists"] = _check(var_errs, 0.05)

    report = {
        "name": sc.name,
        "sweep": "eta" if eta_scales is not None else "mu",
        "scales": scales,
        "residuals": [float(r) for r in residuals],
        "variances": [[float(v) for v in var] for var in variances],
        "checks": checks,
        "passed": bool(all(c["passed"] for c in checks.values())),
    }
    if outdir:
        os.makedirs(outdir, exist_ok=True)
        io.save_series(
            os.path.join(outdir, "classical_limit.csv"),
            ["scale", "dt", "hj_residual"]
            + [f"noise_variance{a}" for a in range(sc.space.dim)],
            rows,
        )
        io.save_summary(os.path.join(outdir, "summary.json"), report)
    return report


def maxent_audit(sc: Scenario, trials=1000, outdir=None, tolerance=1e-9) -> dict:
    """Build the exact one-step kernel at the box center and certify it
    against constrained perturbations."""
    from . import kernel as ker  # here, not at the top: kernel loads scipy.optimize

    if sc.space.dim > 2:
        raise ConfigError("maxent-audit runs on dim <= 2 scenarios")
    trials = _number(trials, "trials", int)
    if trials < 1:
        raise ConfigError(f"trials must be at least 1, got {trials}")
    dt = resolve_dt(sc)
    alpha = sc.params.tau / dt
    source = tuple(n // 2 for n in sc.space.points)
    A = sc.vector_potential
    beta = sc.params.beta if A is not None else 0.0
    kern = ker.build_exact_kernel(sc.entropy, source, alpha, A=A, beta=beta)
    cert = ker.gibbs_optimality_certificate(
        sc.entropy,
        kern,
        trials=trials,
        rng_seed=sc.seed,
        tolerance=tolerance,
    )
    report = {
        "name": sc.name,
        "alpha": kern.alpha,
        "source": list(source),
        "trials": cert.trials,
        "skipped": cert.skipped,
        "max_gap": float(cert.max_gap),
        "tolerance": cert.tolerance,
        "passed": bool(cert.passed),
    }
    if outdir:
        os.makedirs(outdir, exist_ok=True)
        io.save_summary(os.path.join(outdir, "summary.json"), report)
    return report


def _ks_metric(dir_a, dir_b):
    """KS p-value of run-a final walker positions against run-b final density
    (its last rho snapshot, or |psi|^2 of a wave run's last psi snapshot).

    Multi-dimensional runs are projected on axis 0.  The density CDF is the
    cumulative cell mass, interpolated linearly across each cell.
    """
    from scipy import stats  # here, not at the top: scipy.stats is a heavy load

    pos_path = os.path.join(dir_a, "final_positions.csv")
    if not os.path.exists(pos_path):
        pos_path = os.path.join(dir_b, "final_positions.csv")
        dir_b = dir_a
    if not os.path.exists(pos_path):
        raise ConfigError("ks metric needs an ensemble run with final_positions.csv")
    samples = io.load_series(pos_path)[1][:, 0]
    snapshots = _snapshots(dir_b, "rho")
    if not snapshots:
        raise ConfigError(f"ks metric needs rho_*.csv or psi_*.csv snapshots in {dir_b}")
    path, load = snapshots[max(snapshots)]
    rho = load(path)
    space = rho.space
    marginal = rho.values * space.cell_volume
    for axis in range(space.dim - 1, 0, -1):
        marginal = marginal.sum(axis=axis)
    marginal = np.maximum(marginal, 0.0)
    marginal /= marginal.sum()
    edges = np.linspace(-0.5 * space.extents[0], 0.5 * space.extents[0], space.points[0] + 1)
    cdf_at_edges = np.concatenate([[0.0], np.cumsum(marginal)])

    def cdf(x):
        return np.interp(x, edges, cdf_at_edges)

    return [stats.ks_1samp(samples, cdf).pvalue]
