import dataclasses
import glob
import json
import math
import os
import re
import shutil
import sys
import threading
import time

import numpy as np
import pytest
import yaml

from entrolab import cli, io, scenarios, schrodinger as schro
from entrolab.errors import ConfigError, DegenerateDensityError, StabilityError
from entrolab.fields import (
    ConfigSpace,
    PhysicalParams,
    ScalarField,
    VectorField,
    entropy_field,
    l1_distance,
    l2_distance,
    normalize_density,
)
from entrolab.scenarios import (
    METRICS,
    classical_limit,
    compare,
    gauge_check,
    load_scenario,
    maxent_audit,
    resolve_dt,
    run,
    scenario_from_dict,
)

from conftest import write_grid_csv


def base_cfg(**overrides):
    cfg = {
        "name": "unit",
        "space": {"dim": 1, "extent": 12.0, "points": 128},
        "params": {"eta": 1.0, "tau": 0.1, "masses": 1.0},
        "initial": {"type": "gaussian", "center": 0.0, "width": 1.0},
        "potentials": {"V": {"type": "harmonic", "omega": 1.0}},
        "run": {"engine": "coupled", "steps": 40, "snapshot_stride": 10},
    }
    for key, val in overrides.items():
        # params/run/space merge (partial overrides), the rest replace
        if key in ("params", "run", "space") and isinstance(val, dict):
            cfg[key] = {**cfg[key], **val}
        else:
            cfg[key] = val
    return cfg


# ---------------------------------------------------------------------------
# parsing


def test_unknown_keys_are_rejected():
    cfg = base_cfg()
    cfg["space"]["pints"] = 128
    with pytest.raises(ConfigError, match="pints"):
        scenario_from_dict(cfg)
    cfg = base_cfg()
    cfg["typo_section"] = {}
    with pytest.raises(ConfigError):
        scenario_from_dict(cfg)


def test_unknown_engine_rejected():
    with pytest.raises(ConfigError, match="engine"):
        scenario_from_dict(base_cfg(run={"engine": "warp-drive"}))


def test_bad_initial_type_rejected():
    with pytest.raises(ConfigError):
        scenario_from_dict(base_cfg(initial={"type": "delta"}))


@pytest.mark.parametrize(
    "section, field_cfg, message",
    [
        ("entropy", {"type": "uniform", "amplitude": 0.2},
         "entropy.amplitude does not apply to entropy.type 'uniform'"),
        ("entropy", {"amplitude": 0.2},
         "entropy.amplitude does not apply to entropy.type 'uniform'"),
        ("initial", {"type": "plane_wave", "width": 2.0},
         "initial.width does not apply to initial.type 'plane_wave'"),
        ("initial", {"type": "gaussian", "phi_file": "phi.csv"},
         "initial.phi_file does not apply to initial.type 'gaussian'"),
        ("potentials", {"V": {"type": "harmonic", "slope": 0.3}},
         "potentials.V.slope does not apply to potentials.V.type 'harmonic'"),
        ("potentials", {"A": {"type": "constant", "chi_mode": 2}},
         "potentials.A.chi_mode does not apply to potentials.A.type 'constant'"),
    ],
    ids=["entropy", "entropy-default-type", "initial", "initial-file-key", "V", "A"],
)
def test_a_key_its_type_does_not_read_is_refused(tmp_path, capsys, section, field_cfg, message):
    """Such a key was once accepted and echoed into summary.json as if it acted."""
    with pytest.raises(ConfigError, match=rf"^{re.escape(message)}$"):
        scenario_from_dict(base_cfg(**{section: field_cfg}))
    cfg = write_cfg(tmp_path, name="inert", **{section: field_cfg})
    assert cli.main(["evolve", cfg, "--out", str(tmp_path / "out")]) == 2
    assert message in capsys.readouterr().err
    assert not os.path.exists(tmp_path / "out")


@pytest.mark.parametrize("V", [{"type": "none"}, {"type": "harmonic"},
                               {"type": "linear", "slope": 0.2}, {"type": "file"}])
def test_time_scale_applies_to_every_potential_type(tmp_path, V):
    space = scenario_from_dict(base_cfg()).space
    io.save_scalar_field(tmp_path / "V.npy", ScalarField(space, np.full(space.shape, 0.5)))
    if V["type"] == "file":
        V = {**V, "file": "V.npy"}
    cfg = base_cfg(potentials={"V": {**V, "time_scale": [1.0, 0.5]}})
    assert scenario_from_dict(cfg, base_dir=str(tmp_path)).time_scale == (1.0, 0.5)


@pytest.mark.parametrize(
    "section, bad",
    [
        ("space", {"dim": 0}),
        ("space", {"dim": 4}),
        ("space", {"extent": -1.0}),
        ("space", {"extent": [12.0, 12.0]}),
        ("space", {"points": [64, 64]}),
        ("space", {"boundary": "absorbing"}),
        ("params", {"eta": 0.0}),
        ("params", {"tau": -0.1}),
        ("params", {"masses": -1.0}),
        ("params", {"masses": [1.0, 1.0]}),
        ("params", {"osmotic_ratio": 0.0}),
    ],
)
def test_bad_space_and_params_name_their_section(section, bad):
    with pytest.raises(ConfigError, match=rf"^{section}\b"):
        scenario_from_dict(base_cfg(**{section: bad}))


@pytest.mark.parametrize(
    "path", ["run.steps", "run.dt", "space.extent", "params.eta", "initial.width"]
)
def test_non_numeric_value_names_its_key(tmp_path, capsys, path):
    section, key = path.split(".")
    cfg = base_cfg()
    cfg[section] = {**cfg[section], key: "ten"}
    with pytest.raises(ConfigError, match=rf"^{re.escape(path)} must be a number, got 'ten'$"):
        scenario_from_dict(cfg)
    cfg_path = tmp_path / "bad.json"
    cfg_path.write_text(json.dumps(cfg))
    assert cli.main(["evolve", str(cfg_path), "--out", str(tmp_path / "out")]) == 2
    assert f"{path} must be a number" in capsys.readouterr().err


@pytest.mark.parametrize("value", [math.nan, math.inf], ids=["nan", "inf"])
@pytest.mark.parametrize(
    "path", ["run.dt", "params.eta", "run.energy_tolerance", "potentials.V.time_scale"]
)
def test_non_finite_value_names_its_key(tmp_path, capsys, path, value):
    *sections, key = path.split(".")
    cfg = base_cfg()
    node = cfg
    for section in sections:
        node = node[section]
    node[key] = value
    with pytest.raises(ConfigError, match=rf"^{re.escape(path)} must be finite, got {value}$"):
        scenario_from_dict(cfg)
    cfg_path = tmp_path / "bad.yaml"
    cfg_path.write_text(yaml.safe_dump(cfg))  # YAML spells them .nan and .inf
    assert cli.main(["evolve", str(cfg_path), "--out", str(tmp_path / "out")]) == 2
    assert f"{path} must be finite" in capsys.readouterr().err


@pytest.mark.parametrize(
    "path", ["run.steps", "params.eta", "space.extent", "potentials.V.time_scale"]
)
def test_a_boolean_is_not_a_config_number(tmp_path, capsys, path):
    """YAML's true is no number, though int() and float() read it as 1: it
    ran one step, or read eta and the extent as 1.0.  The API names the key,
    and CLI evolve exits 2 before it writes anything."""
    *sections, key = path.split(".")
    cfg = base_cfg()
    node = cfg
    for section in sections:
        node = node[section]
    node[key] = True
    message = f"{path} must be a number, got True"
    with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
        scenario_from_dict(cfg)
    cfg_path = tmp_path / "bad.yaml"
    cfg_path.write_text(yaml.safe_dump(cfg))
    assert f"{key}: true" in cfg_path.read_text()
    assert cli.main(["evolve", str(cfg_path), "--out", str(tmp_path / "out")]) == 2
    assert message in capsys.readouterr().err
    assert not os.path.exists(tmp_path / "out")


@pytest.mark.parametrize("path, value", [("run.steps", 2.5), ("space.points", 100.7)])
def test_fractional_count_names_its_key(tmp_path, capsys, path, value):
    section, key = path.split(".")
    cfg = base_cfg()
    cfg[section] = {**cfg[section], key: value}
    with pytest.raises(
        ConfigError, match=rf"^{re.escape(path)} must be a whole number, got {value}$"
    ):
        scenario_from_dict(cfg)
    cfg_path = tmp_path / "bad.json"
    cfg_path.write_text(json.dumps(cfg))
    assert cli.main(["evolve", str(cfg_path), "--out", str(tmp_path / "out")]) == 2
    assert f"{path} must be a whole number" in capsys.readouterr().err


def test_whole_float_count_is_accepted():
    sc = scenario_from_dict(base_cfg(run={"steps": 40.0}, space={"points": 128.0}))
    assert sc.steps == 40 and sc.space.points == (128,)


def test_nonlinear_engine_runs_with_a_vector_potential(tmp_path):
    """The nonlinear engine steps the linear flow in regraduated units, where
    beta' = kappa beta carries A.  Its density follows the coupled engine's
    at the same osmotic ratio and A: the gap read 2.24e-5 when written, and
    dropping A moves the density much farther than that."""
    dirs = {}
    for engine, A in (("coupled", 0.2), ("nonlinear", 0.2), ("nonlinear", 0.0)):
        cfg = base_cfg(
            params={"beta": 0.5, "osmotic_ratio": 0.5},
            potentials={
                "V": {"type": "harmonic", "omega": 1.0},
                "A": {"type": "constant", "value": A},
            },
            run={"engine": engine, "dt": 0.004, "steps": 50, "snapshot_stride": 10},
        )
        out = dirs[engine, A] = str(tmp_path / f"{engine}-{A}")
        summary = run(scenario_from_dict(cfg), out)
        assert summary["status"] == "completed" and summary["passed"]
    assert summary["kappa"] == math.sqrt(2.0)
    gap = compare(dirs["coupled", 0.2], dirs["nonlinear", 0.2], ["rho_l2"]).metrics[0]
    assert gap.worst <= 2 * 2.24e-5
    without_a = compare(dirs["nonlinear", 0.0], dirs["nonlinear", 0.2], ["rho_l2"]).metrics[0]
    assert without_a.worst > 100 * gap.worst


def test_yaml_roundtrip(tmp_path):
    path = tmp_path / "sc.yaml"
    path.write_text(
        "name: from-file\n"
        "space: {dim: 1, extent: 12.0, points: 64}\n"
        "params: {eta: 1.0, tau: 0.1, masses: [1.0]}\n"
        "initial: {type: gaussian, center: 0.0, width: 1.0}\n"
        "potentials: {V: {type: harmonic, omega: 1.0}}\n"
        "run: {engine: coupled, steps: 5}\n"
    )
    sc = load_scenario(str(path))
    assert sc.name == "from-file"
    assert sc.space.points == (64,)
    assert sc.steps == 5


def test_initial_from_density_file(tmp_path):
    from conftest import gaussian_density, make_params, make_space

    p = make_params(tau=0.1)
    space = make_space(12.0, 64, p)
    rho = gaussian_density(space, 0.5, 0.7)
    io.save_scalar_field(tmp_path / "rho0.npy", rho)
    cfg = base_cfg(
        space={"points": 64},
        initial={"type": "file", "rho_file": "rho0.npy"},
    )
    sc = scenario_from_dict(cfg, base_dir=str(tmp_path))
    assert np.abs(sc.initial.rho.values - rho.values).max() < 1e-15


def test_initial_phase_from_file(tmp_path):
    from conftest import gaussian_density, make_params, make_space

    space = make_space(12.0, 64, make_params(tau=0.1))
    io.save_scalar_field(tmp_path / "rho0.npy", gaussian_density(space, 0.5, 0.7))
    phi = ScalarField(space, 0.4 * np.sin(2.0 * math.pi * space.meshes[0] / 12.0))
    io.save_scalar_field(tmp_path / "phi0.npy", phi)
    cfg = base_cfg(
        space={"points": 64},
        initial={"type": "file", "rho_file": "rho0.npy", "phi_file": "phi0.npy"},
        run={"engine": "schrodinger", "dt": 0.002, "steps": 2, "snapshot_stride": 2},
    )
    sc = scenario_from_dict(cfg, base_dir=str(tmp_path))
    assert np.array_equal(sc.initial.phi.values, phi.values)
    run(sc, str(tmp_path / "out"))
    psi0 = io.load_complex_field(tmp_path / "out" / "psi_000000.npy")
    # |phi| <= 0.4, so the angle of psi is phi itself
    assert np.abs(np.angle(psi0.values) - phi.values).max() < 1e-15


@pytest.mark.parametrize(
    "path, value",
    [("initial.rho_file", 3), ("initial.rho_file", None), ("initial.rho_file", ["rho0.csv"]),
     ("initial.phi_file", 3), ("potentials.V.file", 3)],
    ids=["int", "null", "list", "phi-int", "V-int"],
)
def test_non_string_file_path_names_its_key(tmp_path, capsys, path, value):
    """A file key holding no string once crashed os.path.join (exit 1), and a
    null one was read as the file `None`."""
    cfg = base_cfg(initial={"type": "file", "rho_file": "rho0.csv"},
                   potentials={"V": {"type": "file", "file": "V.csv"}})
    *sections, key = path.split(".")
    node = cfg
    for section in sections:
        node = node[section]
    node[key] = value
    message = f"{path} must be a file path, got {value!r}"
    with pytest.raises(ConfigError, match=rf"^{re.escape(message)}$"):
        scenario_from_dict(cfg)
    cfg_path = tmp_path / "bad.yaml"
    cfg_path.write_text(yaml.safe_dump(cfg))
    assert cli.main(["evolve", str(cfg_path), "--out", str(tmp_path / "out")]) == 2
    assert message in capsys.readouterr().err
    assert not os.path.exists(tmp_path / "out")


def test_summary_config_echoes_every_section(tmp_path):
    """summary.json's config is the fully resolved scenario: defaults and
    types filled in, file paths joined to the scenario's directory, V's
    scalar time_scale as its (a, b) pair, a one-entry ratio list as its value."""
    sc = scenario_from_dict(base_cfg(space={"points": 32}, params={"masses": 2.0}))
    (tmp_path / "data").mkdir()
    io.save_scalar_field(tmp_path / "data" / "rho0.npy", sc.initial.rho)
    a_path = str(tmp_path / "A.csv")
    write_grid_csv(a_path, ScalarField(sc.space, np.full(sc.space.shape, 0.3)))
    cfg = {
        "name": "echo",
        "space": {"dim": 1, "extent": 12.0, "points": 32},
        "params": {"tau": 0.1, "masses": [2.0], "osmotic_ratio": [1.0], "beta": 0.5},
        "entropy": {"type": "sine", "amplitude": 0.2},
        "initial": {"type": "file", "rho_file": "data/rho0.npy"},
        "potentials": {"V": {"type": "harmonic", "omega": 1, "time_scale": 4},
                       "A": {"type": "file", "file": "A.csv"}},
        "run": {"engine": "schrodinger", "dt": 0.001, "steps": 4, "seed": 3},
    }
    (tmp_path / "sc.yaml").write_text(yaml.safe_dump(cfg))
    run(load_scenario(str(tmp_path / "sc.yaml")), str(tmp_path / "out"))
    assert io.load_summary(tmp_path / "out" / "summary.json")["config"] == {
        "name": "echo",
        "space": {"dim": 1, "extent": [12.0], "points": [32], "boundary": "periodic"},
        "params": {"eta": 1.0, "tau": 0.1, "masses": [2.0], "osmotic_ratio": 1.0,
                   "beta": 0.5},
        "entropy": {"type": "sine", "amplitude": 0.2, "mode": 1},
        "initial": {"type": "file", "rho_file": str(tmp_path / "data" / "rho0.npy")},
        "potentials": {"V": {"type": "harmonic", "omega": 1, "center": 0.0,
                             "time_scale": [1.0, 0.25]},
                       "A": {"type": "file", "file": a_path}},
        "run": {"engine": "schrodinger", "dt": 0.001, "steps": 4, "snapshot_stride": 1,
                "seed": 3, "walkers": 100_000, "energy_tolerance": 1e-4},
    }


def test_scenario_is_a_frozen_value_that_checks_its_run_settings():
    sc = scenario_from_dict(base_cfg())
    with pytest.raises(dataclasses.FrozenInstanceError):
        sc.seed = 4
    for key in ("steps", "snapshot_stride", "walkers"):
        with pytest.raises(ConfigError, match=rf"^run\.{key} must be positive$"):
            dataclasses.replace(sc, **{key: 0})
    with pytest.raises(ConfigError, match="^run.dt must be positive or 'auto'$"):
        dataclasses.replace(sc, dt=-0.1)
    with pytest.raises(ConfigError, match="^run.engine must be one of"):
        dataclasses.replace(sc, engine="warp-drive")
    with pytest.raises(ConfigError, match="^run.engine is required$"):
        scenario_from_dict(base_cfg(run={"engine": None}))
    assert dataclasses.replace(sc, seed=5).echo["run"]["seed"] == 5
    assert sc.echo["run"]["seed"] == 0


@pytest.mark.parametrize(
    "key", ["dt", "steps", "snapshot_stride", "seed", "walkers", "energy_tolerance"]
)
def test_replace_runs_the_number_rule_on_the_run_settings(key):
    """A scenario built by dataclasses.replace reads its run settings under the
    number rule too: a boolean, NaN or a fraction for a count is refused,
    naming run.<key>, and a whole float for a count is stored as an int."""
    sc = scenario_from_dict(base_cfg(run={"dt": 0.002}))
    with pytest.raises(ConfigError, match=rf"^run\.{key} must be a number, got True$"):
        dataclasses.replace(sc, **{key: True})
    if key in ("dt", "energy_tolerance"):
        with pytest.raises(ConfigError, match=rf"^run\.{key} must be finite, got nan$"):
            dataclasses.replace(sc, **{key: math.nan})
        assert type(getattr(dataclasses.replace(sc, **{key: 1}), key)) is float
    else:
        with pytest.raises(ConfigError, match=rf"^run\.{key} must be a whole number, got 2\.5$"):
            dataclasses.replace(sc, **{key: 2.5})
        value = getattr(dataclasses.replace(sc, **{key: np.float64(7.0)}), key)
        assert value == 7 and type(value) is int


@pytest.mark.parametrize("dim", [0, 4])
def test_an_out_of_range_dim_is_named_before_any_per_axis_key(tmp_path, capsys, dim):
    """space.dim is checked before the per-axis lists are read against it, so
    a dim of 0 or 4 is not reported as a list of the wrong length."""
    cfg = base_cfg(space={"dim": dim, "extent": [12.0], "points": [128]},
                   params={"masses": [1.0]})
    message = f"space.dim must be 1, 2, or 3, got {dim}"
    with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
        scenario_from_dict(cfg)
    cfg_path = write_cfg(tmp_path, **cfg)
    assert cli.main(["evolve", cfg_path, "--out", str(tmp_path / "out")]) == 2
    assert message in capsys.readouterr().err
    assert not os.path.exists(tmp_path / "out")


def test_negative_seed_is_a_config_error(tmp_path, capsys):
    cfg = write_cfg(tmp_path, name="walkers", potentials={},
                    run={"engine": "ensemble", "dt": 0.002, "steps": 4, "walkers": 500,
                         "seed": -1})
    with pytest.raises(ConfigError, match=r"^run\.seed must be at least 0, got -1$"):
        load_scenario(cfg)
    assert cli.main(["evolve", cfg, "--out", str(tmp_path / "out")]) == 2
    assert "run.seed must be at least 0, got -1" in capsys.readouterr().err
    assert not os.path.exists(tmp_path / "out")


def test_negative_energy_tolerance_is_a_config_error(tmp_path, capsys):
    """A negative tolerance fails every energy_drift check, whatever the run does."""
    cfg = write_cfg(tmp_path, run={"energy_tolerance": -1})
    message = "run.energy_tolerance must be at least 0, got -1.0"
    with pytest.raises(ConfigError, match=rf"^{re.escape(message)}$"):
        load_scenario(cfg)
    assert cli.main(["evolve", cfg, "--out", str(tmp_path / "out")]) == 2
    assert message in capsys.readouterr().err
    assert not os.path.exists(tmp_path / "out")


@pytest.mark.parametrize("command", ["ensemble", "maxent-audit"])
def test_cli_negative_seed_override_exits_2(tmp_path, capsys, command):
    cfg = write_cfg(tmp_path, name="seeded", **AUDIT_CFG)
    code = cli.main([command, cfg, "--seed", "-5", "--out", str(tmp_path / "out")])
    assert code == 2
    assert "run.seed must be at least 0, got -5" in capsys.readouterr().err
    assert not os.path.exists(tmp_path / "out")


@pytest.mark.parametrize("engine", ["coupled", "schrodinger", "nonlinear"])
def test_wave_engines_refuse_a_reflecting_box_before_writing(tmp_path, capsys, engine):
    """The refusal once came at step 1, after the first snapshot was written."""
    cfg = write_cfg(tmp_path, name="walls", space={"boundary": "reflecting"},
                    run={"engine": engine, "dt": 0.002, "steps": 4, "walkers": 2000})
    assert cli.main(["evolve", cfg, "--out", str(tmp_path / "out")]) == 2
    assert f"the {engine} engine needs a periodic box" in capsys.readouterr().err
    assert not os.path.exists(tmp_path / "out")
    # the walkers reflect off the walls: the same file runs as an ensemble
    assert cli.main(["ensemble", cfg, "--out", str(tmp_path / "walkers")]) == 0
    assert io.load_summary(tmp_path / "walkers" / "summary.json")["status"] == "completed"


def test_coupled_engine_refuses_a_winding_phase_before_writing(tmp_path, capsys):
    """phi = 2 pi x / L winds once around the box.  The coupled engine
    differences phi itself and read the seam as a jump: on this box 20 steps
    once read energy 12.1 against 6.14 for schrodinger, and energy_drift 0.17."""
    winding = {"type": "plane_wave", "mode": 1}
    cfg = write_cfg(tmp_path, name="winding", initial=winding, run={"steps": 20})
    assert cli.main(["evolve", cfg, "--out", str(tmp_path / "out")]) == 2
    assert "the coupled engine needs a phase that does not wind" in capsys.readouterr().err
    assert not os.path.exists(tmp_path / "out")
    for engine in ("schrodinger", "nonlinear"):
        sc = scenario_from_dict(base_cfg(initial=winding, run={"engine": engine, "steps": 20}))
        assert run(sc, str(tmp_path / engine))["checks"]["energy_drift"]["value"] < 1e-9
    flat = scenario_from_dict(base_cfg(initial={"type": "plane_wave", "mode": 0},
                                       run={"steps": 20}))
    assert run(flat, str(tmp_path / "flat"))["checks"]["energy_drift"]["value"] < 1e-4


def test_nonlinear_engine_refuses_a_fractional_winding_before_writing(tmp_path, capsys):
    """The engine steps Psi' = sqrt(rho) exp(i kappa phi), which is periodic
    only if kappa * mode is whole.  Without the refusal, ratio 0.8 (kappa =
    1.118) runs silently wrong: E0 read 6.2968 against the 6.1367 of a
    stepper with an explicit osmotic potential, and max rho after 200 steps
    0.117 against 0.088.  Ratio 0.25 (kappa = 2) winds twice and runs."""
    winding = {"type": "plane_wave", "mode": 1}
    cfg = write_cfg(tmp_path, name="winding", initial=winding, params={"osmotic_ratio": 0.8},
                    run={"engine": "nonlinear", "steps": 20})
    assert cli.main(["evolve", cfg, "--out", str(tmp_path / "out")]) == 2
    assert "kappa * mode = 1.11803" in capsys.readouterr().err
    assert not os.path.exists(tmp_path / "out")
    whole = scenario_from_dict(base_cfg(initial=winding, params={"osmotic_ratio": 0.25},
                                        run={"engine": "nonlinear", "steps": 20}))
    summary = run(whole, str(tmp_path / "whole"))
    assert summary["kappa"] == 2.0
    assert summary["checks"]["energy_drift"]["value"] < 1e-9


def test_schrodinger_engine_refuses_an_osmotic_ratio_other_than_one(tmp_path, capsys):
    """unitary_step steps the ratio-1 flow, while the energy audit weights
    the osmotic term by the ratio: at ratio 0.5 such a run failed
    energy_drift at 1.47e-3 and its summary.json echoed the wrong physics.
    The scenario itself refuses it, so run, gauge_check and an engine
    override all do, before any output directory exists."""
    message = "the schrodinger engine needs params.osmotic_ratio 1, got 0.5"
    cfg = base_cfg(params={"osmotic_ratio": 0.5, "beta": 0.5}, run={"engine": "schrodinger"})
    with pytest.raises(ConfigError, match=message) as exc:
        scenario_from_dict(cfg)
    assert "'nonlinear'" in str(exc.value)
    coupled = scenario_from_dict({**cfg, "run": {**cfg["run"], "engine": "coupled"}})
    with pytest.raises(ConfigError, match=message):
        dataclasses.replace(coupled, engine="schrodinger")
    path = write_cfg(tmp_path, name="ratio", params={"osmotic_ratio": 0.5, "beta": 0.5},
                     run={"engine": "schrodinger"})
    capsys.readouterr()
    for command in (["evolve", path], ["gauge-check", path, "--chi", "0.8:1"]):
        out = tmp_path / command[0]
        assert cli.main([*command, "--out", str(out)]) == 2
        assert message in capsys.readouterr().err
        assert not os.path.exists(out)


def _x(sc):
    return sc.space.meshes[0]


# (section, field config, engine, the field it builds as (scenario) -> (got, expected))
FIELD_TYPES = {
    "entropy-linear": (
        "entropy", {"type": "linear", "slope": 0.3}, "fokker-planck",
        lambda sc: (sc.entropy.values, 0.3 * _x(sc)),
    ),
    "entropy-from_initial": (
        "entropy", {"type": "from_initial"}, "fokker-planck",
        lambda sc: (sc.entropy.values, entropy_field(sc.initial.rho, sc.initial.phi).values),
    ),
    "initial-plane_wave": (
        "initial", {"type": "plane_wave", "mode": 2}, "schrodinger",
        lambda sc: (
            np.stack([sc.initial.rho.values, sc.initial.phi.values]),
            np.stack([np.full(128, 1.0 / 12.0), 2.0 * math.pi * 2 / 12.0 * _x(sc)]),
        ),
    ),
    "V-linear": (
        "potentials", {"V": {"type": "linear", "slope": -0.2}}, "schrodinger",
        lambda sc: (sc.potential.values, -0.2 * _x(sc)),
    ),
    "A-pure_gauge": (
        "potentials", {"A": {"type": "pure_gauge", "chi_amplitude": 0.5, "chi_mode": 3}},
        "schrodinger",
        lambda sc: (
            sc.vector_potential.components[0],
            0.5 * (2.0 * math.pi * 3 / 12.0) * np.cos(2.0 * math.pi * 3 * _x(sc) / 12.0),
        ),
    ),
}


@pytest.mark.parametrize("case", sorted(FIELD_TYPES))
def test_each_field_type_builds_its_field_and_runs(tmp_path, case):
    section, field_cfg, engine, built = FIELD_TYPES[case]
    cfg = base_cfg(params={"beta": 0.7}, run={"engine": engine, "steps": 2},
                   **{section: field_cfg})
    sc = scenario_from_dict(cfg)
    got, expected = built(sc)
    np.testing.assert_allclose(got, expected, rtol=0.0, atol=1e-12)
    summary = run(sc, str(tmp_path / case))
    assert summary["status"] == "completed"
    assert summary["steps"] == 2
    assert summary["checks"]["mass_conservation"]["passed"]


def test_resolve_dt_auto_uses_half_the_bound():
    from entrolab import dynamics

    sc = scenario_from_dict(base_cfg())
    limit = dynamics.coupled_stability_limit(sc.initial, sc.params, sc.vector_potential)
    assert resolve_dt(sc) == pytest.approx(0.5 * limit)
    sc2 = scenario_from_dict(base_cfg(run={"dt": 0.001, "engine": "coupled", "steps": 1}))
    assert resolve_dt(sc2) == 0.001


# ---------------------------------------------------------------------------
# running


def test_run_writes_artifacts_and_passes_checks(tmp_path):
    sc = scenario_from_dict(base_cfg())
    summary = run(sc, str(tmp_path))
    assert summary["passed"], summary["checks"]
    assert summary["status"] == "completed"
    assert os.path.exists(tmp_path / "rho_000000.npy")
    assert os.path.exists(tmp_path / "series.csv")
    assert os.path.exists(tmp_path / "energy.csv")
    assert os.path.exists(tmp_path / "summary.json")
    assert len(summary["snapshot_times"]) == 5  # t=0 plus 40/10
    header, rows = io.load_series(tmp_path / "series.csv")
    assert header[:2] == ["t", "mass"]
    assert np.allclose(rows[:, 1], 1.0, atol=1e-12)


def test_failed_run_leaves_a_failed_summary(tmp_path):
    # dt far above the coupled engine's explicit bound: step 1 raises
    sc = scenario_from_dict(base_cfg(space={"points": 64},
                                     run={"engine": "coupled", "dt": 0.5, "steps": 5}))
    with pytest.raises(StabilityError):
        run(sc, str(tmp_path))
    assert os.path.exists(tmp_path / "rho_000000.npy")
    summary = io.load_summary(tmp_path / "summary.json")
    assert summary["status"] == "failed"
    assert summary["error"]["type"] == "StabilityError"
    assert "bound" in summary["error"]["message"]
    assert summary["last_step"] == 0
    assert summary["dt"] == 0.5
    assert summary["config"]["run"]["engine"] == "coupled"


def test_run_is_deterministic(tmp_path):
    cfg = base_cfg(
        run={"engine": "ensemble", "steps": 20, "walkers": 5000, "seed": 13,
             "snapshot_stride": 10},
        potentials={},
        entropy={"type": "sine", "amplitude": 0.2, "mode": 1},
    )
    a = run(scenario_from_dict(cfg), str(tmp_path / "a"))
    b = run(scenario_from_dict(cfg), str(tmp_path / "b"))
    assert a["checks"] == b["checks"]
    ra = (tmp_path / "a" / "rho_000002.npy").read_bytes()
    rb = (tmp_path / "b" / "rho_000002.npy").read_bytes()
    assert ra == rb
    pa = (tmp_path / "a" / "final_positions.npy").read_bytes()
    pb = (tmp_path / "b" / "final_positions.npy").read_bytes()
    assert pa == pb


def test_schrodinger_run_records_psi_and_norm(tmp_path):
    sc = scenario_from_dict(base_cfg(run={"engine": "schrodinger", "steps": 20,
                                          "snapshot_stride": 10}))
    summary = run(sc, str(tmp_path))
    assert summary["passed"], summary["checks"]
    assert os.path.exists(tmp_path / "psi_000000.npy")
    assert "norm_conservation" in summary["checks"]
    assert "energy_drift" in summary["checks"]


def test_nan_potential_fails_mass_and_norm_checks(tmp_path):
    """A NaN cell in V poisons every later snapshot; the run's conservation
    checks must fail, not keep the clean first snapshot's 0.  A V file with
    a NaN cell is refused at load, so the NaN V is built in-process."""
    sc = scenario_from_dict(base_cfg(potentials={},
                                     run={"engine": "schrodinger", "dt": 0.002, "steps": 20,
                                          "snapshot_stride": 10}))
    V = np.zeros(sc.space.shape)
    V[64] = np.nan
    sc = dataclasses.replace(sc, potential=ScalarField(sc.space, V))
    summary = run(sc, str(tmp_path / "out"))
    for name in ("mass_conservation", "norm_conservation"):
        check = summary["checks"][name]
        assert math.isnan(check["value"]) and not check["passed"], name
    assert not summary["passed"]


_NAN_A_RUN = {"engine": "ensemble", "dt": 0.005, "steps": 20, "walkers": 20000, "seed": 3,
              "snapshot_stride": 10}


def _nan_vector_potential_scenario(run_cfg=_NAN_A_RUN):
    """A 1D scenario whose A has one NaN cell: the walkers' drift there is
    NaN from the first step.  An A file with a NaN cell is refused at load,
    so the NaN A is built in-process."""
    sc = scenario_from_dict(base_cfg(params={"beta": 0.5}, potentials={},
                                     entropy={"type": "sine", "amplitude": 0.2, "mode": 1},
                                     run=run_cfg))
    A = np.zeros((1,) + sc.space.shape)
    A[0, 64] = np.nan
    return dataclasses.replace(sc, vector_potential=VectorField(sc.space, A))


def test_nan_vector_potential_fails_the_ensemble_run(tmp_path):
    """NaN walkers once landed on the lower wall and the run passed."""
    sc = _nan_vector_potential_scenario()
    with pytest.raises(ConfigError, match="walker coordinates are not finite"):
        run(sc, str(tmp_path / "out"))
    summary = io.load_summary(tmp_path / "out" / "summary.json")
    assert summary["status"] == "failed"
    assert summary["error"]["type"] == "ConfigError"
    assert summary["last_step"] == 0
    assert not os.path.exists(tmp_path / "out" / "final_positions.npy")


def test_cli_nan_vector_potential_exits_2(tmp_path, capsys, monkeypatch):
    sc = _nan_vector_potential_scenario()
    monkeypatch.setattr(scenarios, "load_scenario", lambda path: sc)
    code = cli.main(["ensemble", "nan-a.yaml", "--out", str(tmp_path / "out")])
    assert code == 2
    assert "not finite" in capsys.readouterr().err
    summary = io.load_summary(tmp_path / "out" / "summary.json")
    assert summary["status"] == "failed"
    assert summary["last_step"] == 0


def _nan_vector_potential_auto_dt_scenario(engine):
    return _nan_vector_potential_scenario(
        {"engine": engine, "steps": 20, "snapshot_stride": 10})  # dt: auto


@pytest.mark.parametrize("engine", ["fokker-planck", "coupled"])
def test_auto_dt_with_a_nan_vector_potential_names_a_non_finite_field(engine):
    """A NaN bound once read as 'no dynamical rate', sending the user after
    the wrong input."""
    sc = _nan_vector_potential_auto_dt_scenario(engine)
    with pytest.raises(ConfigError, match="the stability bound is NaN.* is not finite"):
        resolve_dt(sc)


@pytest.mark.parametrize("engine", ["fokker-planck", "coupled"])
def test_cli_auto_dt_with_a_nan_vector_potential_exits_2(tmp_path, capsys, monkeypatch, engine):
    sc = _nan_vector_potential_auto_dt_scenario(engine)
    monkeypatch.setattr(scenarios, "load_scenario", lambda path: sc)
    code = cli.main(["evolve", "nan-a-auto.yaml", "--out", str(tmp_path / "out")])
    assert code == 2
    err = capsys.readouterr().err
    assert "the stability bound is NaN" in err and "not finite" in err
    assert not os.path.exists(tmp_path / "out")


def test_time_dependent_potential_audited(tmp_path):
    cfg = base_cfg(
        potentials={"V": {"type": "harmonic", "omega": 1.0, "time_scale": 2.0}},
        run={"engine": "coupled", "steps": 60, "snapshot_stride": 5},
    )
    sc = scenario_from_dict(cfg)
    assert not sc.static_potential
    summary = run(sc, str(tmp_path))
    assert "energy_rate_audit" in summary["checks"]
    assert "energy_drift" not in summary["checks"]
    assert summary["checks"]["energy_rate_audit"]["passed"]


@pytest.mark.parametrize("engine", ["coupled", "schrodinger"])
def test_energy_rate_audit_counts_the_vector_potential(engine, tmp_path):
    # the audit reads the totals in energy.csv, which carry A; an audit that
    # drops A reads about 2e-4 on this run
    cfg = base_cfg(
        params={"beta": 0.7},
        initial={"type": "gaussian", "center": 0.0, "width": 1.0, "momentum": 0.5},
        potentials={
            "V": {"type": "harmonic", "omega": 1.0, "time_scale": 2.0},
            "A": {"type": "constant", "value": 0.4},
        },
        run={"engine": engine, "steps": 60, "snapshot_stride": 5},
    )
    summary = run(scenario_from_dict(cfg), str(tmp_path))
    assert summary["checks"]["energy_rate_audit"]["value"] < 2e-5


@pytest.mark.parametrize("engine", ["coupled", "schrodinger", "nonlinear"])
def test_driven_audit_equals_the_rebuild_from_snapshot_fields(engine, tmp_path):
    """The run records b int rho V0 per snapshot; rebuilding int rho dV/dt
    from each written density and V at the neighbouring snapshot times, as
    the audit once did, gives the same mismatch up to roundoff."""
    cfg = base_cfg(params={"osmotic_ratio": 0.8 if engine == "nonlinear" else 1.0},
                   initial={"type": "gaussian", "center": -1.0, "width": 1.0, "momentum": 0.5},
                   potentials={"V": {"type": "harmonic", "omega": 1.0, "time_scale": [0.5, -0.3]}},
                   run={"engine": engine, "steps": 60, "snapshot_stride": 5})
    sc = scenario_from_dict(cfg)
    summary = run(sc, str(tmp_path))
    t = np.array(summary["snapshot_times"])
    totals = io.load_series(tmp_path / "energy.csv")[1][:, 4]
    gaps, powers = [], []
    for k in range(1, t.size - 1):
        v_dot = (sc.potential_at(t[k + 1]).values - sc.potential_at(t[k - 1]).values)
        v_dot /= t[k + 1] - t[k - 1]
        rho = _density_of(tmp_path, f"{k:06d}")
        powers.append(float((rho.values * v_dot).sum()) * sc.space.cell_volume)
        gaps.append((totals[k + 1] - totals[k - 1]) / (t[k + 1] - t[k - 1]) - powers[-1])
    scale = max(np.abs(powers).max(), abs(totals[0]) / (t[-1] - t[0]))
    rebuilt = np.abs(gaps).max() / scale
    assert summary["checks"]["energy_rate_audit"]["value"] == pytest.approx(rebuilt, rel=1e-9)
    assert 1e-8 < rebuilt < 1e-3


def test_time_scale_scalar_is_a_positive_time():
    sc = scenario_from_dict(base_cfg(potentials={"V": {"type": "harmonic", "time_scale": 4}}))
    assert sc.time_scale == (1.0, 0.25)
    # the echo carries the resolved pair so the run is reproducible from summary.json
    assert sc.echo["potentials"]["V"]["time_scale"] == [1.0, 0.25]
    # PyYAML reads 4e0 (no decimal point) as the string '4e0'; the number rule
    # reads it as 4.0, as for every other config number.  It was once refused.
    V = yaml.safe_load("{type: harmonic, time_scale: 4e0}")
    assert scenario_from_dict(base_cfg(potentials={"V": V})).time_scale == (1.0, 0.25)
    for bad in (0, -1.0):
        with pytest.raises(ConfigError, match="time_scale"):
            scenario_from_dict(base_cfg(potentials={"V": {"time_scale": bad}}))


# ---------------------------------------------------------------------------
# comparing


def run_pair(tmp_path, engine_a="coupled", engine_b="schrodinger", dt=0.002, steps=60):
    outs = []
    for tag, engine in (("a", engine_a), ("b", engine_b)):
        cfg = base_cfg(run={"engine": engine, "dt": dt, "steps": steps,
                            "snapshot_stride": 20})
        sc = scenario_from_dict(cfg)
        out = str(tmp_path / tag)
        run(sc, out)
        outs.append(out)
    return outs


@pytest.mark.parametrize(
    "engine, written, absent",
    [("schrodinger", "psi", "rho"), ("nonlinear", "psi", "rho"), ("coupled", "rho", "psi"),
     ("fokker-planck", "rho", "psi"), ("ensemble", "rho", "psi")],
)
def test_a_run_writes_each_snapshot_once(tmp_path, engine, written, absent):
    """Wave engines write psi and no rho, since rho = |psi|^2; the rest write rho."""
    cfg = base_cfg(run={"engine": engine, "dt": 0.002, "steps": 4, "snapshot_stride": 2,
                        "walkers": 500})
    summary = run(scenario_from_dict(cfg), str(tmp_path))
    names = os.listdir(tmp_path)
    snapshots = sorted(n for n in names if n.endswith(".npy") and n[:4] in ("rho_", "psi_"))
    assert snapshots == [f"{written}_{i:06d}.npy" for i in range(len(summary["snapshot_times"]))]
    assert not any(n.startswith(f"{absent}_") for n in names)


def _density_of(run_dir, tag):
    """A snapshot's density by hand: the rho file, or |psi|^2 of the psi file."""
    rho_path = os.path.join(run_dir, f"rho_{tag}.npy")
    if os.path.exists(rho_path):
        return io.load_scalar_field(rho_path)
    psi = io.load_complex_field(os.path.join(run_dir, f"psi_{tag}.npy"))
    return ScalarField(psi.space, np.abs(psi.values) ** 2)


def _assert_density_gaps_by_hand(dir_a, dir_b):
    report = compare(dir_a, dir_b, ["rho_l2", "rho_l1"])
    tags = [f"{i:06d}" for i in range(4)]  # t = 0 and steps 20, 40, 60
    for metric, distance in zip(report.metrics, (l2_distance, l1_distance)):
        expected = tuple(
            distance(_density_of(dir_a, tag), _density_of(dir_b, tag)) for tag in tags
        )
        assert metric.values == expected
    return report


def test_compare_derives_a_wave_runs_density_from_psi(tmp_path):
    """rho_l2 and rho_l1 read a wave run's rho as |psi|^2 of its psi file,
    bit for bit."""
    dir_a, dir_b = run_pair(tmp_path)
    report = _assert_density_gaps_by_hand(dir_a, dir_b)
    assert all(0.0 <= v < 1e-4 for m in report.metrics for v in m.values)


def test_compare_reads_densities_of_two_wave_runs(tmp_path):
    """Both sides psi: two Schroedinger runs whose packets move apart."""
    dirs = []
    for tag, momentum in (("a", 0.0), ("b", 1.0)):
        cfg = base_cfg(initial={"type": "gaussian", "center": 0.0, "width": 1.0,
                                "momentum": momentum},
                       run={"engine": "schrodinger", "dt": 0.002, "steps": 60,
                            "snapshot_stride": 20})
        run(scenario_from_dict(cfg), str(tmp_path / tag))
        dirs.append(str(tmp_path / tag))
    report = _assert_density_gaps_by_hand(*dirs)
    [l2, l1] = report.metrics
    assert l2.values[0] < 1e-15 < l2.values[1] < l2.values[2] < l2.values[3]
    assert not report.passed


def _with_csv_snapshots(run_dir, dest):
    """A copy of a run directory in the layout written before snapshots were
    .npy: each snapshot a grid CSV beside its sidecar, the walkers'
    positions a CSV series headed axis<k>."""
    shutil.copytree(run_dir, dest)
    for path in glob.glob(os.path.join(dest, "*_0*.npy")):
        csv_path = path[: -len(".npy")] + ".csv"
        values = np.load(path)
        header = ["real", "imag"] if values.dtype == complex else ["value"]
        io.save_series(csv_path, header, values.reshape(-1, 1).view(float))
        os.replace(path + ".meta.json", csv_path + ".meta.json")
        os.remove(path)
    positions = os.path.join(dest, "final_positions.npy")
    if os.path.exists(positions):
        values = np.load(positions)
        io.save_series(positions[: -len(".npy")] + ".csv",
                       [f"axis{a}" for a in range(values.shape[1])], values)
        os.remove(positions)
    return str(dest)


def test_compare_refuses_a_run_written_with_csv_snapshots(tmp_path, capsys):
    """Run directories whose snapshots and positions are CSV hold none of the
    .npy files compare reads: each metric refuses them, naming what it needs,
    and the CLI exits 2.  Their grid CSVs still load as file inputs."""
    dir_a, dir_b = run_pair(tmp_path, engine_a="ensemble", engine_b="fokker-planck")
    old_a = _with_csv_snapshots(dir_a, tmp_path / "old_a")
    old_b = _with_csv_snapshots(dir_b, tmp_path / "old_b")
    assert os.path.exists(os.path.join(old_a, "final_positions.csv"))
    refusals = [
        ((old_a, dir_b), "rho_l2", f"no matching rho snapshots between {old_a} and {dir_b}"),
        ((old_a, dir_b), "ks", "ks metric needs an ensemble run with final_positions.npy"),
        ((dir_a, old_b), "ks", f"ks metric needs rho_*.npy or psi_*.npy snapshots in {old_b}"),
    ]
    for dirs, metric, message in refusals:
        with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
            compare(*dirs, [metric])
        capsys.readouterr()
        assert cli.main(["compare", *dirs, "--metrics", metric]) == 2
        assert message in capsys.readouterr().err
    for tag in ("000000", "000003"):
        old = io.load_scalar_field(os.path.join(old_b, f"rho_{tag}.csv"))
        new = io.load_scalar_field(os.path.join(dir_b, f"rho_{tag}.npy"))
        assert np.array_equal(old.values, new.values)


def test_a_runs_density_snapshot_is_another_runs_initial_file(tmp_path):
    """A run's own rho_*.npy is a valid `initial.rho_file`: the grid comes
    from its sidecar, and the second run starts from its numbers."""
    run(scenario_from_dict(base_cfg(run={"engine": "coupled", "dt": 0.002, "steps": 40,
                                         "snapshot_stride": 20})), str(tmp_path / "a"))
    path = str(tmp_path / "a" / "rho_000002.npy")
    cfg = base_cfg(initial={"type": "file", "rho_file": path},
                   run={"engine": "fokker-planck", "dt": 0.002, "steps": 2,
                        "snapshot_stride": 2})
    sc = scenario_from_dict(cfg)
    snapshot = io.load_scalar_field(path)
    assert np.array_equal(sc.initial.rho.values, normalize_density(snapshot).values)
    run(sc, str(tmp_path / "b"))
    first = io.load_scalar_field(str(tmp_path / "b" / "rho_000000.npy"))
    assert np.array_equal(first.values, sc.initial.rho.values)


def test_compare_matched_runs(tmp_path):
    dir_a, dir_b = run_pair(tmp_path)
    report = compare(dir_a, dir_b, ["rho_l2", "variance", "center_of_mass"])
    assert report.passed
    worst = {m.name: m.worst for m in report.metrics}
    assert worst["rho_l2"] < 1e-3


def test_compare_honors_tolerance_overrides(tmp_path):
    dir_a, dir_b = run_pair(tmp_path)
    report = compare(dir_a, dir_b, ["rho_l2"], tolerances={"rho_l2": 1e-15})
    assert not report.passed


def test_compare_refuses_mismatched_times(tmp_path):
    cfg_a = base_cfg(run={"engine": "coupled", "dt": 0.002, "steps": 40,
                          "snapshot_stride": 20})
    cfg_b = base_cfg(run={"engine": "coupled", "dt": 0.001, "steps": 40,
                          "snapshot_stride": 20})
    run(scenario_from_dict(cfg_a), str(tmp_path / "a"))
    run(scenario_from_dict(cfg_b), str(tmp_path / "b"))
    with pytest.raises(ConfigError, match="snapshot times"):
        compare(str(tmp_path / "a"), str(tmp_path / "b"), ["rho_l2"])


def test_compare_refuses_a_failed_run(tmp_path, capsys):
    """A run that raised leaves one snapshot and a failed summary; comparing
    against it must name the failure, not report on the snapshot."""
    good, bad = str(tmp_path / "good"), str(tmp_path / "bad")
    run(scenario_from_dict(base_cfg(run={"engine": "coupled", "dt": 0.002, "steps": 40,
                                         "snapshot_stride": 20})), good)
    with pytest.raises(StabilityError):
        run(scenario_from_dict(base_cfg(run={"engine": "coupled", "dt": 0.03, "steps": 40,
                                             "snapshot_stride": 20})), bad)
    with pytest.raises(ConfigError, match=r"bad holds a failed run \(last_step 0, StabilityError"):
        compare(good, bad, ["rho_l2"])
    capsys.readouterr()
    assert cli.main(["compare", good, bad, "--metrics", "rho_l2"]) == 2
    assert "failed run" in capsys.readouterr().err


def test_compare_fails_on_a_nan_snapshot(tmp_path, capsys):
    """One NaN cell in a middle snapshot fails rho_l2; it is not skipped.
    dir_b is a wave run, so its rho is read as |psi|^2 of its psi snapshot."""
    dir_a, dir_b = run_pair(tmp_path)
    path = os.path.join(dir_b, "psi_000002.npy")
    psi = io.load_complex_field(path)
    psi.values.real[9] = np.nan
    io.save_complex_field(path, psi)
    report = compare(dir_a, dir_b, ["rho_l2"])
    [metric] = report.metrics
    assert math.isnan(metric.values[2]) and math.isnan(metric.worst)
    assert not metric.passed and not report.passed
    capsys.readouterr()
    assert cli.main(["compare", dir_a, dir_b, "--metrics", "rho_l2"]) == 1
    assert "[FAIL]" in capsys.readouterr().out


def test_compare_refuses_an_infinite_sidecar_extent(tmp_path, capsys):
    """json reads Infinity: the grid once had an infinite cell volume, and
    compare printed worst=nan [FAIL] and exited 1."""
    dir_a, dir_b = run_pair(tmp_path)
    meta = os.path.join(dir_b, "psi_000000.npy.meta.json")
    with open(meta) as fh:
        text = fh.read()
    with open(meta, "w") as fh:
        fh.write(text.replace("12.0", "Infinity", 1))
    assert cli.main(["compare", dir_a, dir_b, "--metrics", "rho_l2"]) == 2
    assert "extents must be finite, got inf" in capsys.readouterr().err


def test_compare_refuses_an_empty_metric_list(tmp_path):
    with pytest.raises(ConfigError, match="^compare needs at least one metric$"):
        compare(str(tmp_path / "a"), str(tmp_path / "b"), [])


def test_compare_psi_requires_wave_runs(tmp_path):
    dir_a, dir_b = run_pair(tmp_path)  # coupled run has no psi snapshots
    with pytest.raises(ConfigError):
        compare(dir_a, dir_b, ["psi_l2"])


def test_compare_psi_l2_and_energy_by_hand(tmp_path):
    """psi_l2 is the phase-aligned distance of each psi pair; energy is each
    total's gap over the largest |total| of the first run."""
    dirs = []
    for tag, engine, ratio in (("a", "schrodinger", 1.0), ("b", "nonlinear", 0.8)):
        cfg = base_cfg(params={"osmotic_ratio": ratio},
                       run={"engine": engine, "dt": 0.002, "steps": 60, "snapshot_stride": 20})
        run(scenario_from_dict(cfg), str(tmp_path / tag))
        dirs.append(str(tmp_path / tag))
    psi_l2, energy = compare(*dirs, ["psi_l2", "energy"]).metrics
    psis = [[io.load_complex_field(os.path.join(d, f"psi_{i:06d}.npy")) for i in range(4)]
            for d in dirs]
    assert psi_l2.values == tuple(
        schro.phase_aligned_distance(schro.WaveFunction(a), schro.WaveFunction(b))
        for a, b in zip(*psis)
    )
    assert psi_l2.values[0] == 0.0 < psi_l2.values[1] < psi_l2.values[3]
    totals_a, totals_b = (io.load_series(os.path.join(d, "energy.csv"))[1][:, 4] for d in dirs)
    expected = np.abs(totals_a - totals_b) / np.abs(totals_a).max()
    assert energy.values == tuple(expected.tolist())
    assert energy.values[3] > 1e-6


def test_compare_ks_reads_the_walkers_from_either_run(tmp_path):
    """With the walker run given second, ks reads its positions against the
    first run's density: the same p-value as the other order."""
    for tag, engine in (("e", "ensemble"), ("f", "fokker-planck")):
        cfg = base_cfg(entropy={"type": "sine", "amplitude": 0.2, "mode": 1}, potentials={},
                       run={"engine": engine, "steps": 20, "walkers": 5000, "seed": 5,
                            "snapshot_stride": 10, "dt": 0.002})
        run(scenario_from_dict(cfg), str(tmp_path / tag))
    [forward] = compare(str(tmp_path / "e"), str(tmp_path / "f"), ["ks"]).metrics
    [backward] = compare(str(tmp_path / "f"), str(tmp_path / "e"), ["ks"]).metrics
    assert backward.values == forward.values
    assert forward.passed


def test_compare_ks_projects_a_2d_density_on_axis_0(tmp_path):
    """A 2D run's density is read as its axis-0 marginal: the p-value equals
    the one against that marginal written as a 1D density."""
    for tag, engine in (("e", "ensemble"), ("f", "fokker-planck")):
        cfg = base_cfg(space={"dim": 2, "points": [48, 16]},
                       entropy={"type": "sine", "amplitude": 0.2, "mode": 1}, potentials={},
                       run={"engine": engine, "steps": 20, "walkers": 5000, "seed": 5,
                            "snapshot_stride": 10, "dt": 0.002})
        run(scenario_from_dict(cfg), str(tmp_path / tag))
    rho = io.load_scalar_field(tmp_path / "f" / "rho_000002.npy")
    line = dataclasses.replace(rho.space, dim=1, extents=rho.space.extents[0],
                               points=rho.space.points[0], sigma_sq=rho.space.sigma_sq[0])
    (tmp_path / "m").mkdir()
    marginal = rho.values.sum(axis=1) * rho.space.spacings[1]
    io.save_scalar_field(tmp_path / "m" / "rho_000002.npy", ScalarField(line, marginal))
    [plane] = compare(str(tmp_path / "e"), str(tmp_path / "f"), ["ks"]).metrics
    [by_line] = compare(str(tmp_path / "e"), str(tmp_path / "m"), ["ks"]).metrics
    assert plane.values[0] == pytest.approx(by_line.values[0], rel=1e-9)
    assert plane.passed


def test_compare_ks_against_ensemble(tmp_path):
    cfg_e = base_cfg(
        entropy={"type": "sine", "amplitude": 0.2, "mode": 1},
        potentials={},
        run={"engine": "ensemble", "steps": 50, "walkers": 20000, "seed": 5,
             "snapshot_stride": 25, "dt": 0.002},
    )
    cfg_f = base_cfg(
        entropy={"type": "sine", "amplitude": 0.2, "mode": 1},
        potentials={},
        run={"engine": "fokker-planck", "steps": 50, "snapshot_stride": 25,
             "dt": 0.002},
    )
    run(scenario_from_dict(cfg_e), str(tmp_path / "e"))
    run(scenario_from_dict(cfg_f), str(tmp_path / "f"))
    report = compare(str(tmp_path / "e"), str(tmp_path / "f"), ["ks"])
    assert report.passed


def test_compare_ks_against_a_wave_run(tmp_path):
    """ks reads a Schroedinger run's last density as |psi|^2 of its last psi
    snapshot, the same p-value as from that density written as rho."""
    for tag, engine in (("e", "ensemble"), ("s", "schrodinger")):
        cfg = base_cfg(run={"engine": engine, "steps": 50, "walkers": 20000, "seed": 5,
                            "snapshot_stride": 25, "dt": 0.002})
        run(scenario_from_dict(cfg), str(tmp_path / tag))
    [metric] = compare(str(tmp_path / "e"), str(tmp_path / "s"), ["ks"]).metrics
    assert len(metric.values) == 1 and 0.0 <= metric.values[0] <= 1.0
    (tmp_path / "r").mkdir()
    io.save_scalar_field(tmp_path / "r" / "rho_000002.npy", _density_of(tmp_path / "s", "000002"))
    [by_rho] = compare(str(tmp_path / "e"), str(tmp_path / "r"), ["ks"]).metrics
    assert metric.values == by_rho.values


# ---------------------------------------------------------------------------
# audits


def test_gauge_check_unitary_engine(tmp_path):
    cfg = base_cfg(
        params={"beta": 0.7},
        initial={"type": "gaussian", "center": -2.0, "width": 1.0, "momentum": 0.5},
        potentials={
            "V": {"type": "harmonic", "omega": 1.0},
            "A": {"type": "constant", "value": 0.4},
        },
        run={"engine": "schrodinger", "steps": 50, "snapshot_stride": 25},
    )
    rep = gauge_check(scenario_from_dict(cfg), 0.8, 1, str(tmp_path))
    assert rep["passed"]
    assert rep["rho_gap_max"] < 1e-12
    assert rep["phase_gap_max"] < 1e-12
    assert os.path.exists(tmp_path / "gauge_gaps.csv")


def test_gauge_check_requires_charge():
    with pytest.raises(ConfigError, match="beta"):
        gauge_check(scenario_from_dict(base_cfg()), 0.8, 1, None)


@pytest.mark.parametrize("chi", [(0.0, 1), (0.8, 0)], ids=["amplitude-0", "mode-0"])
def test_gauge_check_refuses_a_zero_gauge_function(tmp_path, chi):
    """chi = 0 makes the twin the base, so the check would test nothing."""
    cfg = base_cfg(params={"beta": 0.7}, space={"points": 64},
                   run={"engine": "coupled", "steps": 10})
    with pytest.raises(ConfigError, match="chi amplitude and mode must be nonzero"):
        gauge_check(scenario_from_dict(cfg), *chi, str(tmp_path / "g"))
    assert not os.path.exists(tmp_path / "g")


def test_gauge_check_refuses_a_fractional_chi_mode(tmp_path):
    """A mode of 1.5 once ran as mode 1 and reported chi_mode: 1."""
    cfg = base_cfg(params={"beta": 0.7}, space={"points": 64},
                   run={"engine": "coupled", "steps": 10})
    with pytest.raises(ConfigError, match=r"^chi_mode must be a whole number, got 1\.5$"):
        gauge_check(scenario_from_dict(cfg), 0.8, 1.5, str(tmp_path / "g"))
    assert not os.path.exists(tmp_path / "g")


def test_failed_gauge_check_leaves_a_failed_summary(tmp_path):
    # dt far above the coupled engine's explicit bound: step 1 raises
    cfg = base_cfg(
        params={"beta": 0.7},
        space={"points": 64},
        run={"engine": "coupled", "dt": 0.5, "steps": 5},
    )
    with pytest.raises(StabilityError):
        gauge_check(scenario_from_dict(cfg), 0.8, 1, str(tmp_path))
    summary = io.load_summary(tmp_path / "summary.json")
    assert summary["status"] == "failed"
    assert summary["error"]["type"] == "StabilityError"
    assert summary["last_step"] == 0
    assert summary["dt"] == 0.5
    assert summary["config"]["run"]["engine"] == "coupled"


def _lockstep(sc, trajectories, measure):
    """The serial reference for scenarios._in_pairs: the two trajectories
    zipped, the first's step then the second's, and the error the zip raises."""
    last_step = 0
    try:
        for (last_step, first, due), (_, second, _) in zip(*trajectories):
            if due:
                measure(first, second)
    except Exception as exc:
        return last_step, exc
    return last_step, None


def _curl_gauge_scenario():
    """2D-32^2 schrodinger with a curl A (zero divergence, nonzero flux
    density) set in-process."""
    sc = scenario_from_dict(base_cfg(
        space={"dim": 2, "points": 32},
        params={"beta": 0.7},
        initial={"type": "gaussian", "center": [-1.0, 0.5], "width": 1.0,
                 "momentum": [0.5, 0.0]},
        run={"engine": "schrodinger", "steps": 30, "snapshot_stride": 7},
    ))
    x, y = sc.space.meshes
    k = 2.0 * math.pi / sc.space.extents[0]
    A = np.stack([-0.6 * np.sin(k * y), 0.6 * np.sin(k * x)])
    return dataclasses.replace(sc, vector_potential=VectorField(sc.space, A))


def _constant_gauge_scenario():
    """1D-128 coupled with a constant A."""
    return scenario_from_dict(base_cfg(
        params={"beta": 0.7},
        potentials={"V": {"type": "harmonic", "omega": 1.0},
                    "A": {"type": "constant", "value": 0.4}},
        run={"engine": "coupled", "steps": 40, "snapshot_stride": 15},
    ))


@pytest.mark.parametrize("make", [_curl_gauge_scenario, _constant_gauge_scenario],
                         ids=["schrodinger-2d-curl-A", "coupled-1d-constant-A"])
def test_gauge_check_keeps_the_bits_of_the_lockstep(tmp_path, monkeypatch, make):
    """The twin stepped on a worker, a snapshot interval at a time, gives the
    report and the gap file of the two stepped in lockstep, bit for bit."""
    before = threading.active_count()
    report = gauge_check(make(), 0.8, 1, str(tmp_path / "pairs"))
    assert threading.active_count() == before
    monkeypatch.setattr(scenarios, "_in_pairs", _lockstep)
    reference = gauge_check(make(), 0.8, 1, str(tmp_path / "lockstep"))
    assert report == reference
    assert len(report["times"]) > 3
    for name in ("gauge_gaps.csv", "summary.json"):
        pairs, lockstep = tmp_path / "pairs" / name, tmp_path / "lockstep" / name
        assert pairs.read_bytes() == lockstep.read_bytes()


def _failing_steps(monkeypatch, sc, fail_at, slow):
    """Patch the schrodinger step to raise at the step fail_at[side] names,
    the base's side told by its A; the slow side sleeps before each step, so
    the other side's failure comes first.  Returns the steps each side
    completed."""
    completed = {"base": [], "twin": []}
    unitary_step = schro.unitary_step

    def step(w, params, V, dt, A):
        side = "base" if A is sc.vector_potential else "twin"
        n = len(completed[side]) + 1
        if side == slow:
            time.sleep(0.05)
        if n == fail_at.get(side):
            raise DegenerateDensityError(f"{side} fails at step {n}")
        w = unitary_step(w, params, V, dt, A)
        completed[side].append(n)
        return w

    monkeypatch.setattr(schro, "unitary_step", step)
    return completed


@pytest.mark.parametrize("fail_at, slow, error", [
    ({"base": 3}, "twin", "base fails at step 3"),
    ({"twin": 3}, "base", "twin fails at step 3"),
    ({"base": 5, "twin": 3}, "twin", "twin fails at step 3"),
    ({"base": 3, "twin": 3}, "base", "base fails at step 3"),
], ids=["base-3", "twin-3", "base-5-twin-3", "tie-at-3"])
def test_a_gauge_check_fails_where_the_lockstep_fails(tmp_path, monkeypatch, fail_at, slow,
                                                      error):
    """The error raised is the one at the earlier step, the base's on a tie,
    even when it comes last; last_step is the last step both completed; a
    side that lags behind a failure stops within a step of it; and
    summary.json is the lockstep's."""
    sc = scenario_from_dict(base_cfg(
        space={"points": 64}, params={"beta": 0.7},
        potentials={"A": {"type": "constant", "value": 0.4}},
        run={"engine": "schrodinger", "steps": 8, "snapshot_stride": 8},
    ))
    before = threading.active_count()
    completed = _failing_steps(monkeypatch, sc, fail_at, slow)
    with pytest.raises(DegenerateDensityError, match=f"^{error}$"):
        gauge_check(sc, 0.8, 1, str(tmp_path / "pairs"))
    assert threading.active_count() == before
    assert io.load_summary(tmp_path / "pairs" / "summary.json")["last_step"] == 2
    # in the lockstep the base steps first, so it takes step 3 before the twin fails there
    assert max(completed[slow], default=0) <= {"base": 3, "twin": 2}[slow]

    monkeypatch.undo()  # the next patch wraps the engine's own step again
    monkeypatch.setattr(scenarios, "_in_pairs", _lockstep)
    _failing_steps(monkeypatch, sc, fail_at, slow)
    with pytest.raises(DegenerateDensityError, match=f"^{error}$"):
        gauge_check(sc, 0.8, 1, str(tmp_path / "lockstep"))
    assert ((tmp_path / "pairs" / "summary.json").read_bytes()
            == (tmp_path / "lockstep" / "summary.json").read_bytes())


def test_a_gauge_check_builds_each_memo_slot_once(tmp_path, monkeypatch):
    """Three checks of one scenario at once, six stepping threads on a short
    switch interval: every side steps with the scenario's one V and misses
    its half-kick at step 1, and a slow build widens the race, yet the
    memo's lock lets one thread build it.  The shared A's links are built
    once, and each twin's A's once."""
    builds = []  # list.append is atomic; a counter's += could lose an update
    half_kick, face_links = schro._half_kick, schro._face_links

    def slow_half_kick(values, dt, eta):
        builds.append("kick")
        time.sleep(0.05)
        return half_kick(values, dt, eta)

    def counted_face_links(space, A):
        builds.append("links")
        return face_links(space, A)

    monkeypatch.setattr(schro, "_half_kick", slow_half_kick)
    monkeypatch.setattr(schro, "_face_links", counted_face_links)
    sc = _curl_gauge_scenario()
    reports = []
    checks = [threading.Thread(target=lambda k=k: reports.append(
        gauge_check(sc, 0.8, 1, str(tmp_path / f"check{k}"))), daemon=True) for k in range(3)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for check in checks:
            check.start()
        for check in checks:
            check.join(timeout=120.0)
    finally:
        sys.setswitchinterval(interval)
    assert not any(check.is_alive() for check in checks)
    assert len(reports) == 3 and all(report["passed"] for report in reports)
    assert reports[0] == reports[1] == reports[2]
    assert sorted(builds) == ["kick"] + ["links"] * 4


def test_maxent_audit_small(tmp_path):
    cfg = base_cfg(
        entropy={"type": "sine", "amplitude": 0.4, "mode": 1},
        potentials={},
        run={"engine": "fokker-planck", "dt": 0.1 / 40.0, "steps": 5, "seed": 11},
    )
    rep = maxent_audit(scenario_from_dict(cfg), trials=100, outdir=str(tmp_path))
    assert rep["passed"]
    assert rep["skipped"] == 0
    assert rep["max_gap"] <= 1e-9
    assert rep["alpha"] == pytest.approx(40.0)
    # the same audit with a vector potential: the row carries the EM constraint
    cfg = base_cfg(
        space={"extent": 10.0},
        entropy={"type": "sine", "amplitude": 0.4, "mode": 1},
        params={"beta": 0.8},
        potentials={"A": {"type": "constant", "value": 0.3}},
        run={"engine": "fokker-planck", "dt": 0.1 / 40.0, "steps": 5, "seed": 11},
    )
    rep = maxent_audit(scenario_from_dict(cfg), trials=100)
    assert rep["max_gap"] == -1.033691843010942e-06
    assert rep["skipped"] == 0
    assert rep["passed"]


# ---------------------------------------------------------------------------
# CLI


def write_cfg(tmp_path, name="cli-smoke", **overrides):
    cfg = base_cfg(**overrides)
    cfg["name"] = name
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps(cfg))
    return str(path)


def test_cli_evolve_exit_zero(tmp_path, capsys):
    cfg = write_cfg(tmp_path, run={"engine": "coupled", "steps": 20,
                                   "snapshot_stride": 10})
    code = cli.main(["evolve", cfg, "--out", str(tmp_path / "out")])
    assert code == 0
    lines = capsys.readouterr().out.splitlines()
    assert any("mass_conservation" in ln and "[pass]" in ln for ln in lines)


def test_cli_evolve_respects_outdir_env(tmp_path, monkeypatch, capsys):
    cfg = write_cfg(tmp_path, name="env-out",
                    run={"engine": "coupled", "steps": 10, "snapshot_stride": 5})
    monkeypatch.setenv("ENTROLAB_OUTDIR", str(tmp_path / "envruns"))
    code = cli.main(["evolve", cfg])
    assert code == 0
    assert os.path.exists(tmp_path / "envruns" / "env-out" / "summary.json")


def test_cli_compare_exit_codes(tmp_path, capsys):
    # two engines, as in run_pair: identical runs would differ by exactly 0.0
    # and could never fail even the 1e-18 tolerance below
    cfg_a = write_cfg(tmp_path, name="cli-a", run={"engine": "coupled", "dt": 0.002,
                                                   "steps": 40, "snapshot_stride": 20})
    cfg_b = write_cfg(tmp_path, name="cli-b", run={"engine": "schrodinger", "dt": 0.002,
                                                   "steps": 40, "snapshot_stride": 20})
    assert cli.main(["evolve", cfg_a, "--out", str(tmp_path / "a")]) == 0
    assert cli.main(["evolve", cfg_b, "--out", str(tmp_path / "b")]) == 0
    capsys.readouterr()
    code = cli.main(["compare", str(tmp_path / "a"), str(tmp_path / "b"),
                     "--metrics", "rho_l2"])
    assert code == 0
    code = cli.main(["compare", str(tmp_path / "a"), str(tmp_path / "b"),
                     "--metrics", "rho_l2", "--tolerance", "rho_l2=1e-18"])
    assert code == 1
    out = capsys.readouterr().out
    assert "[FAIL]" in out


def test_cli_compare_out_writes_the_report(tmp_path, capsys):
    dir_a, dir_b = run_pair(tmp_path)
    metrics = ["rho_l2", "variance"]
    code = cli.main(["compare", dir_a, dir_b, "--metrics", *metrics,
                     "--out", str(tmp_path / "cmp")])
    assert code == 0
    written = io.load_summary(tmp_path / "cmp" / "comparison.json")
    assert written == compare(dir_a, dir_b, metrics).to_dict()
    assert written["metrics"]["rho_l2"]["note"] == METRICS["rho_l2"][1]


@pytest.mark.parametrize(
    "override",
    ["rho_l2=abc", "rho_l3=1e-3", "rho_l2=nan", "rho_l2=inf", "rho_l2=-1e-3"],
    ids=["non-numeric", "unknown-metric", "nan", "inf", "negative"],
)
def test_cli_compare_bad_tolerance_exits_2(tmp_path, capsys, override):
    cfg = write_cfg(tmp_path, run={"engine": "coupled", "steps": 10, "snapshot_stride": 5})
    assert cli.main(["evolve", cfg, "--out", str(tmp_path / "a")]) == 0
    capsys.readouterr()
    code = cli.main(["compare", str(tmp_path / "a"), str(tmp_path / "a"),
                     "--metrics", "rho_l2", "--tolerance", override])
    assert code == 2
    assert "tolerance" in capsys.readouterr().err


def test_cli_rejects_bad_config(tmp_path, monkeypatch, capsys):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"name": "bad", "space": {"dim": 1}}))
    monkeypatch.chdir(tmp_path)  # a wrongly accepted config writes ./runs/bad here
    code = cli.main(["evolve", str(path)])
    assert code == 2
    assert "error" in capsys.readouterr().err.lower()


def test_cli_gauge_check_requires_beta(tmp_path, capsys):
    cfg = write_cfg(tmp_path, name="nobeta",
                    run={"engine": "schrodinger", "steps": 10, "snapshot_stride": 5})
    code = cli.main(["gauge-check", cfg, "--chi", "0.8:1",
                     "--out", str(tmp_path / "g")])
    assert code == 2


def test_cli_gauge_check_prints_its_result_and_exit_code(tmp_path, capsys):
    cfg = write_cfg(tmp_path, name="gauge", params={"beta": 0.7},
                    potentials={"V": {"type": "harmonic"},
                                "A": {"type": "constant", "value": 0.4}},
                    run={"engine": "coupled", "steps": 20, "snapshot_stride": 10})
    for tolerance, code, mark in (("1e-08", 0, "pass"), ("0", 1, "FAIL")):
        out = tmp_path / f"g{code}"
        assert cli.main(["gauge-check", cfg, "--chi", "0.8:1", "--tolerance", tolerance,
                         "--out", str(out)]) == code
        report = io.load_summary(out / "summary.json")
        assert 0.0 < report["rho_gap_max"] < 1e-12 and report["phase_gap_max"] < 1e-12
        assert capsys.readouterr().out.splitlines() == [
            f"gauge-check gauge: rho_gap={report['rho_gap_max']:.3e} "
            f"phase_gap={report['phase_gap_max']:.3e} tolerance={tolerance} [{mark}]"
        ]


def test_cli_classical_limit_prints_its_result_and_exit_code(tmp_path, capsys):
    """The residual is linear in the osmotic coupling: it halves with mu and
    doubles when mu doubles, which fails residual_shrinks_with_mu; the tail
    ratio 2 is under its tolerance 1.2 * 2, so residual_vanishes_with_mu
    passes, as its printed value says."""
    cfg = write_cfg(tmp_path, name="classical")
    for sweep, code, lines in (
        ("1,0.5", 0, ["classical-limit classical (mu sweep): "
                      "residuals 2.163e-01 1.082e-01 [pass]",
                      "classical-limit classical: residual_shrinks_with_mu=-1.082e-01[pass] "
                      "residual_vanishes_with_mu=5.000e-01[pass] "
                      "variance_persists=0.000e+00[pass]"]),
        ("1,2", 1, ["classical-limit classical (mu sweep): "
                    "residuals 2.163e-01 4.326e-01 [FAIL]",
                    "classical-limit classical: residual_shrinks_with_mu=2.163e-01[FAIL] "
                    "residual_vanishes_with_mu=2.000e+00[pass] "
                    "variance_persists=0.000e+00[pass]"]),
    ):
        assert cli.main(["classical-limit", cfg, "--mu-sweep", sweep, "--walkers", "500",
                         "--out", str(tmp_path / f"c{code}")]) == code
        assert capsys.readouterr().out.splitlines() == lines


@pytest.mark.parametrize(
    "flag, value",
    [("--chi", "nan:1"), ("--chi", "inf:1"), ("--tolerance", "nan"), ("--tolerance", "-1")],
    ids=["chi-nan", "chi-inf", "tolerance-nan", "tolerance-negative"],
)
def test_cli_gauge_check_refuses_non_finite_input(tmp_path, capsys, flag, value):
    """Refused before any step, and before the output directory exists."""
    cfg = write_cfg(tmp_path, name="gauge", params={"beta": 0.7},
                    run={"engine": "schrodinger", "steps": 10, "snapshot_stride": 5})
    # a repeated option takes its last value
    code = cli.main(["gauge-check", cfg, "--chi", "0.8:1", flag, value,
                     "--out", str(tmp_path / "g")])
    assert code == 2
    assert value.split(":")[0] in capsys.readouterr().err
    assert not os.path.exists(tmp_path / "g")


@pytest.mark.parametrize("chi", ["0:1", "0.8:0"], ids=["amplitude-0", "mode-0"])
def test_cli_gauge_check_refuses_a_zero_gauge_function(tmp_path, capsys, chi):
    cfg = write_cfg(tmp_path, name="gauge", params={"beta": 0.7},
                    run={"engine": "schrodinger", "steps": 10, "snapshot_stride": 5})
    code = cli.main(["gauge-check", cfg, "--chi", chi, "--out", str(tmp_path / "g")])
    assert code == 2
    assert "chi amplitude and mode must be nonzero" in capsys.readouterr().err
    assert not os.path.exists(tmp_path / "g")


def test_classical_limit_refuses_vector_potential(tmp_path, capsys):
    """The audit's steps and its Hamilton-Jacobi residual carry no A term."""
    potentials = {
        "V": {"type": "harmonic", "omega": 1.0},
        "A": {"type": "constant", "value": 2.0},
    }
    sc = scenario_from_dict(base_cfg(params={"beta": 0.7}, potentials=potentials))
    with pytest.raises(ConfigError, match="vector potential"):
        classical_limit(sc, eta_scales=(1.0, 0.5))
    cfg = write_cfg(tmp_path, name="classical-A", params={"beta": 0.7}, potentials=potentials)
    code = cli.main(["classical-limit", cfg, "--eta-sweep", "1,0.5",
                     "--out", str(tmp_path / "c")])
    assert code == 2
    assert "vector potential" in capsys.readouterr().err


@pytest.mark.parametrize("flag", ["--eta-sweep", "--mu-sweep"])
@pytest.mark.parametrize("bad", ["abc", "nan", "inf"])
def test_classical_limit_refuses_bad_sweep_scales(tmp_path, capsys, flag, bad):
    """A scale that is not a finite positive number is refused before any step."""
    key = "eta_scales" if flag == "--eta-sweep" else "mu_scales"
    message = "takes comma-separated numbers" if bad == "abc" else f"{key} must be finite, got {bad}"
    api_message = "must be a number" if bad == "abc" else f"^{message}$"
    with pytest.raises(ConfigError, match=api_message):
        classical_limit(scenario_from_dict(base_cfg()), **{key: (1.0, bad)})
    cfg = write_cfg(tmp_path, name="classical")
    code = cli.main(["classical-limit", cfg, flag, f"1,{bad}", "--out", str(tmp_path / "c")])
    assert code == 2
    err = capsys.readouterr().err
    assert message in err
    if bad == "abc":
        assert flag in err


@pytest.mark.parametrize("flag", ["--eta-sweep", "--mu-sweep"])
def test_classical_limit_refuses_a_sweep_of_one_scale(tmp_path, capsys, flag):
    """The reference alone sets no scaling: refused before any step."""
    key = "eta_scales" if flag == "--eta-sweep" else "mu_scales"
    with pytest.raises(ConfigError, match="at least two scales"):
        classical_limit(scenario_from_dict(base_cfg()), **{key: (1.0,)})
    cfg = write_cfg(tmp_path, name="classical", space={"points": 64})
    code = cli.main(["classical-limit", cfg, flag, "1", "--out", str(tmp_path / "c")])
    assert code == 2
    err = capsys.readouterr().err
    assert key in err and "at least two scales" in err


AUDIT_CFG = dict(
    entropy={"type": "sine", "amplitude": 0.4, "mode": 1},
    potentials={},
    run={"engine": "fokker-planck", "dt": 0.1 / 40.0, "steps": 5, "seed": 11},
)


def test_cli_maxent_audit(tmp_path, capsys):
    cfg = write_cfg(tmp_path, name="audit", **AUDIT_CFG)
    code = cli.main(["maxent-audit", cfg, "--trials", "50",
                     "--out", str(tmp_path / "m")])
    assert code == 0
    assert "maxent-audit" in capsys.readouterr().out


@pytest.mark.parametrize("trials", [0, -3])
def test_maxent_audit_refuses_fewer_than_one_trial(tmp_path, capsys, trials):
    with pytest.raises(ConfigError, match="trials"):
        maxent_audit(scenario_from_dict(base_cfg(**AUDIT_CFG)), trials=trials)
    cfg = write_cfg(tmp_path, name="audit", **AUDIT_CFG)
    code = cli.main(["maxent-audit", cfg, "--trials", str(trials),
                     "--out", str(tmp_path / "m")])
    assert code == 2
    assert "trials" in capsys.readouterr().err


def test_maxent_audit_refuses_a_fractional_trial_count():
    with pytest.raises(ConfigError, match=r"^trials must be a whole number, got 1\.5$"):
        maxent_audit(scenario_from_dict(base_cfg(**AUDIT_CFG)), trials=1.5)


def test_cli_maxent_audit_refuses_a_kernel_that_is_not_localized(tmp_path, capsys):
    """dt = 10 makes alpha = tau / dt = 0.01, below the localization bound."""
    cfg = write_cfg(tmp_path, name="audit",
                    **{**AUDIT_CFG, "run": {**AUDIT_CFG["run"], "dt": 10.0}})
    code = cli.main(["maxent-audit", cfg, "--trials", "10", "--out", str(tmp_path / "m")])
    assert code == 2
    assert "kernel not localized: alpha=0.01 " in capsys.readouterr().err
    assert not os.path.exists(tmp_path / "m")


@pytest.mark.parametrize("walkers", [0, -5])
def test_classical_limit_refuses_fewer_than_one_walker(tmp_path, capsys, walkers):
    """An explicit walker count is used as given, never swapped for run.walkers."""
    with pytest.raises(ConfigError, match="walkers"):
        classical_limit(scenario_from_dict(base_cfg()), eta_scales=(1.0, 0.5), walkers=walkers)
    cfg = write_cfg(tmp_path, name="classical")
    code = cli.main(["classical-limit", cfg, "--eta-sweep", "1,0.5",
                     "--walkers", str(walkers), "--out", str(tmp_path / "c")])
    assert code == 2
    assert "walkers" in capsys.readouterr().err


def test_classical_limit_refuses_a_fractional_walker_count():
    with pytest.raises(ConfigError, match=r"^walkers must be a whole number, got 2\.5$"):
        classical_limit(scenario_from_dict(base_cfg()), eta_scales=(1.0, 0.5), walkers=2.5)


@pytest.mark.parametrize(
    "corrupt",
    [
        lambda line: line.rsplit(",", 1)[0] + ",abc",  # non-numeric cell
        lambda line: line + ",0.5",  # ragged row
    ],
    ids=["non-numeric", "ragged"],
)
def test_cli_evolve_malformed_field_file_exits_2(tmp_path, capsys, corrupt):
    from conftest import gaussian_density, make_params, make_space

    p = make_params(tau=0.1)
    space = make_space(12.0, 64, p)
    path = tmp_path / "rho0.csv"
    write_grid_csv(path, gaussian_density(space, 0.5, 0.7))
    lines = path.read_text().splitlines()
    lines[5] = corrupt(lines[5])
    path.write_text("\n".join(lines) + "\n")
    cfg = write_cfg(tmp_path, name="bad-file", space={"points": 64},
                    initial={"type": "file", "rho_file": str(path)})
    code = cli.main(["evolve", cfg, "--out", str(tmp_path / "out")])
    assert code == 2
    err = capsys.readouterr().err
    assert "rho0.csv" in err and "line 6" in err


@pytest.mark.parametrize(
    "extents, code, message",
    [(12.0, 0, ""),
     ("twelve", 2, "extents must be a number, got 'twelve'")],
    ids=["scalar", "string"],
)
def test_cli_evolve_reads_a_sidecar_of_scalars(tmp_path, capsys, extents, code, message):
    """A scalar sidecar entry once raised a bare TypeError, and the CLI exited 1."""
    from conftest import gaussian_density, make_params, make_space

    space = make_space(12.0, 64, make_params(tau=0.1))
    path = tmp_path / "rho0.npy"
    rho = gaussian_density(space, 0.5, 0.7)
    io.save_scalar_field(path, rho)
    meta = json.loads((tmp_path / "rho0.npy.meta.json").read_text())
    meta.update(extents=extents, points=64, sigma_sq=space.sigma_sq[0])
    (tmp_path / "rho0.npy.meta.json").write_text(json.dumps(meta))
    cfg = write_cfg(tmp_path, name="sidecar", space={"points": 64},
                    initial={"type": "file", "rho_file": str(path)},
                    run={"steps": 2, "snapshot_stride": 2})
    assert cli.main(["evolve", cfg, "--out", str(tmp_path / "out")]) == code
    assert message in capsys.readouterr().err
    if code == 0:
        first = io.load_scalar_field(tmp_path / "out" / "rho_000000.npy")
        assert np.array_equal(first.values, normalize_density(rho).values)


def test_cli_compare_ks_without_density_snapshots_exits_2(tmp_path, capsys):
    cfg = write_cfg(tmp_path, name="ens", potentials={},
                    run={"engine": "ensemble", "steps": 5, "snapshot_stride": 5,
                         "walkers": 500, "seed": 1})
    assert cli.main(["ensemble", cfg, "--out", str(tmp_path / "a")]) == 0
    (tmp_path / "b").mkdir()
    capsys.readouterr()
    code = cli.main(["compare", str(tmp_path / "a"), str(tmp_path / "b"),
                     "--metrics", "ks"])
    assert code == 2
    assert "rho_" in capsys.readouterr().err


def _ensemble_with_positions(tmp_path, edit):
    """An ensemble run in tmp_path / "a" whose final_positions.npy holds
    `edit` of its walkers' positions."""
    cfg = write_cfg(tmp_path, name="ens", potentials={},
                    run={"engine": "ensemble", "steps": 5, "snapshot_stride": 5,
                         "walkers": 500, "seed": 1})
    assert cli.main(["ensemble", cfg, "--out", str(tmp_path / "a")]) == 0
    path = str(tmp_path / "a" / "final_positions.npy")
    io.save_array(path, edit(io.load_array(path, np.float64)))
    return str(tmp_path / "a"), path


@pytest.mark.parametrize(
    "metric, name", [("variance", "series.csv"), ("center_of_mass", "series.csv"),
                     ("energy", "energy.csv")]
)
def test_compare_refuses_a_series_with_no_rows(tmp_path, capsys, metric, name):
    """A header-only series has nothing to compare (numpy's max of an empty
    array raised ValueError, and the CLI exited 1): compare refuses it,
    naming the file, and the CLI exits 2."""
    run_dirs = []
    for engine in ("coupled", "schrodinger"):
        cfg = write_cfg(tmp_path, name=engine, run={"engine": engine, "steps": 10})
        run_dirs.append(str(tmp_path / engine))
        assert cli.main(["evolve", cfg, "--out", run_dirs[-1]]) == 0
        path = os.path.join(run_dirs[-1], name)
        with open(path) as fh:
            header = fh.readline()
        with open(path, "w") as fh:
            fh.write(header)
    message = f"{os.path.join(run_dirs[0], name)} holds no rows"
    with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
        compare(*run_dirs, [metric])
    capsys.readouterr()
    assert cli.main(["compare", *run_dirs, "--metrics", metric]) == 2
    assert message in capsys.readouterr().err


def test_compare_ks_refuses_a_positions_file_with_no_rows(tmp_path, capsys):
    """A positions file of no walkers has no p-value (scipy's read NaN with a
    SmallSampleWarning): compare refuses it, naming the file, and the CLI
    exits 2."""
    run_dir, path = _ensemble_with_positions(tmp_path, lambda positions: positions[:0])
    with pytest.raises(ConfigError, match=f"^{re.escape(path)} holds no walker positions$"):
        compare(run_dir, run_dir, ["ks"])
    capsys.readouterr()
    assert cli.main(["compare", run_dir, run_dir, "--metrics", "ks"]) == 2
    assert f"{path} holds no walker positions" in capsys.readouterr().err


@pytest.mark.parametrize("cell", ["nan", "inf", "-inf"])
def test_compare_ks_refuses_a_position_that_is_not_finite(tmp_path, capsys, cell):
    """A non-finite coordinate would give a NaN p-value: compare refuses the
    file, naming it, and the CLI exits 2."""
    def corrupt(positions):
        positions[6, 0] = float(cell)
        return positions

    run_dir, path = _ensemble_with_positions(tmp_path, corrupt)
    message = f"{path} holds a coordinate that is not finite"
    with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
        compare(run_dir, run_dir, ["ks"])
    capsys.readouterr()
    assert cli.main(["compare", run_dir, run_dir, "--metrics", "ks"]) == 2
    assert message in capsys.readouterr().err


def _compare_ks_exit_and_error(tmp_path, capsys, edit):
    """Run an ensemble, rewrite the bytes of its final_positions.npy with
    `edit`, and return compare ks's exit code and stderr."""
    cfg = write_cfg(tmp_path, name="ens", potentials={},
                    run={"engine": "ensemble", "steps": 5, "snapshot_stride": 5,
                         "walkers": 500, "seed": 1})
    assert cli.main(["ensemble", cfg, "--out", str(tmp_path / "a")]) == 0
    path = tmp_path / "a" / "final_positions.npy"
    path.write_bytes(edit(path.read_bytes()))
    capsys.readouterr()
    code = cli.main(["compare", str(tmp_path / "a"), str(tmp_path / "a"),
                     "--metrics", "ks"])
    return code, capsys.readouterr().err


def test_cli_compare_ks_with_malformed_positions_exits_2(tmp_path, capsys):
    """A truncated positions file is refused, naming the file."""
    code, err = _compare_ks_exit_and_error(tmp_path, capsys, lambda raw: raw[:-8])
    assert code == 2
    assert "final_positions.npy: Failed to read all data" in err


@pytest.mark.parametrize(
    "edit, message",
    [(lambda raw: raw.replace(b"'<f8'", b"'<f4'"), "expected float64 values, found float32"),
     (lambda raw: raw.replace(b"(500, 1)", b"(500,)  "),
      "expected (walkers, dim) positions, found (500,)")],
    ids=["float32", "flat"],
)
def test_cli_compare_ks_with_positions_of_the_wrong_layout_exits_2(tmp_path, capsys,
                                                                   edit, message):
    """A positions file of the wrong dtype or shape is refused, naming the file."""
    code, err = _compare_ks_exit_and_error(tmp_path, capsys, edit)
    assert code == 2
    assert f"final_positions.npy: {message}" in err


# ---------------------------------------------------------------------------
# the number rule at every entry point, and input files that do not parse


def _gauge_scenario():
    return scenario_from_dict(base_cfg(params={"beta": 0.7}, space={"points": 32},
                                       run={"engine": "coupled", "steps": 2}))


# entry point -> (the key its refusal names, a call that passes it `value`)
NUMBER_ENTRY_POINTS = {
    "params-masses": ("masses", lambda value, tmp_path: PhysicalParams((1.0, value))),
    "params-eta": ("eta", lambda value, tmp_path: PhysicalParams((1.0,), eta=value)),
    "params-beta": ("beta", lambda value, tmp_path: PhysicalParams((1.0,), beta=value)),
    "space-extents": ("extents", lambda value, tmp_path: ConfigSpace(
        dim=2, extents=(10.0, value), points=32)),
    "space-sigma_sq": ("sigma_sq", lambda value, tmp_path: ConfigSpace(
        dim=1, extents=10.0, points=32, sigma_sq=value)),
    "compare-tolerance": ("tolerance for 'rho_l2'", lambda value, tmp_path: compare(
        str(tmp_path / "a"), str(tmp_path / "b"), ["rho_l2"], {"rho_l2": value})),
    "gauge-tolerance": ("tolerance", lambda value, tmp_path: gauge_check(
        _gauge_scenario(), 0.8, 1, str(tmp_path / "out"), tolerance=value)),
    "classical-eta_scales": ("eta_scales", lambda value, tmp_path: classical_limit(
        scenario_from_dict(base_cfg(space={"points": 32})), eta_scales=(1.0, value),
        walkers=1000)),
    "classical-mu_scales": ("mu_scales", lambda value, tmp_path: classical_limit(
        scenario_from_dict(base_cfg(space={"points": 32})), mu_scales=(1.0, value),
        walkers=1000)),
    "maxent-tolerance": ("tolerance", lambda value, tmp_path: maxent_audit(
        scenario_from_dict(base_cfg(space={"points": 32})), trials=10, tolerance=value)),
}


@pytest.mark.parametrize("value", [True, np.True_, math.nan, "ten"],
                         ids=["true", "np-true", "nan", "text"])
@pytest.mark.parametrize("entry", sorted(NUMBER_ENTRY_POINTS))
def test_every_entry_point_refuses_what_is_not_a_number(tmp_path, entry, value):
    """float() reads a boolean as 1: PhysicalParams took masses [1.0] and
    eta 1.0, compare and gauge-check a tolerance of 1.0, classical-limit the
    scale 1.0, and maxent-audit checked no tolerance at all.  Each names the
    key it refuses and writes nothing."""
    key, call = NUMBER_ENTRY_POINTS[entry]
    rule = "finite" if isinstance(value, float) else "a number"
    message = f"{key} must be {rule}, got {value!r}"
    with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
        call(value, tmp_path)
    assert not os.path.exists(tmp_path / "out")


@pytest.mark.parametrize(
    "entry", ["compare-tolerance", "gauge-tolerance", "maxent-tolerance"])
def test_a_negative_tolerance_is_refused(tmp_path, entry):
    """maxent-audit took -1, and then no certificate could pass."""
    key, call = NUMBER_ENTRY_POINTS[entry]
    with pytest.raises(ConfigError, match=f"^{re.escape(key)} must be at least 0, got -1.0$"):
        call(-1.0, tmp_path)
    assert not os.path.exists(tmp_path / "out")


@pytest.mark.parametrize(
    "argv, message",
    [(["compare", "A", "B", "--metrics", "rho_l2", "--tolerance", "rho_l2=nan"],
      "tolerance for 'rho_l2' must be finite, got nan"),
     (["gauge-check", "CFG", "--chi", "0.8:1", "--tolerance", "nan"],
      "tolerance must be finite, got nan"),
     (["classical-limit", "CFG", "--eta-sweep", "1,nan"], "eta_scales must be finite, got nan")],
    ids=["compare", "gauge-check", "classical-limit"],
)
def test_cli_refuses_a_nan_flag_naming_its_key(tmp_path, capsys, argv, message):
    """A flag's NaN reaches the number rule: exit 2, and no output directory."""
    cfg = write_cfg(tmp_path, params={"beta": 0.7}, space={"points": 32},
                    run={"engine": "coupled", "steps": 2})
    names = {"CFG": cfg, "A": str(tmp_path / "a"), "B": str(tmp_path / "b")}
    argv = [names.get(arg, arg) for arg in argv]
    out = [] if argv[0] == "compare" else ["--out", str(tmp_path / "out")]
    assert cli.main(argv + out) == 2
    assert message in capsys.readouterr().err
    assert not os.path.exists(tmp_path / "out")


def test_a_scenario_that_is_not_yaml_is_a_config_error(tmp_path, capsys):
    """yaml.YAMLError once escaped load_scenario, and the CLI printed a
    traceback and exited 1, the check-failed code."""
    path = tmp_path / "open.yaml"
    path.write_text("name: open\nspace: {dim: 1, extent: 12.0\n")
    with pytest.raises(ConfigError, match=f"^{re.escape(str(path))}: "):
        load_scenario(str(path))
    assert cli.main(["evolve", str(path), "--out", str(tmp_path / "out")]) == 2
    assert str(path) in capsys.readouterr().err
    assert not os.path.exists(tmp_path / "out")


def test_cli_refuses_a_directory_as_the_scenario(tmp_path, capsys):
    """open() of a directory raised IsADirectoryError, and the CLI exited 1."""
    (tmp_path / "cfg").mkdir()
    assert cli.main(["evolve", str(tmp_path / "cfg"), "--out", str(tmp_path / "out")]) == 2
    assert "Is a directory" in capsys.readouterr().err
    assert not os.path.exists(tmp_path / "out")


@pytest.mark.parametrize("name", ["summary.json", "rho_000000.npy.meta.json"])
def test_compare_refuses_a_json_file_that_does_not_parse(tmp_path, capsys, name):
    """json.JSONDecodeError once escaped compare, and the CLI exited 1."""
    run_dirs = []
    for label in ("a", "b"):
        cfg = write_cfg(tmp_path, name=label, space={"points": 32},
                        run={"engine": "coupled", "steps": 2})
        run_dirs.append(str(tmp_path / label))
        assert cli.main(["evolve", cfg, "--out", run_dirs[-1]]) == 0
    path = os.path.join(run_dirs[1], name)
    with open(path, "w") as fh:
        fh.write("{not json")
    with pytest.raises(ConfigError, match=f"^{re.escape(path)}: "):
        compare(*run_dirs, ["rho_l2"])
    capsys.readouterr()
    assert cli.main(["compare", *run_dirs, "--metrics", "rho_l2"]) == 2
    assert path in capsys.readouterr().err


# ---------------------------------------------------------------------------
# grid-file values, the echo's defaults, and refusals no other test reaches


@pytest.mark.parametrize("value", [math.nan, math.inf], ids=["nan", "inf"])
@pytest.mark.parametrize(
    "path", ["initial.rho_file", "initial.phi_file", "potentials.V.file", "potentials.A.file"]
)
def test_a_grid_file_value_that_is_not_finite_is_refused_at_load(tmp_path, capsys, path, value):
    """A NaN or inf cell in a file input once ran: the schrodinger engine
    wrote NaN snapshots and checks, fokker-planck and ensemble passed, and
    coupled died mid-run.  The number rule refuses it at load, naming the
    key and the file, before any output directory exists."""
    space = scenario_from_dict(base_cfg()).space
    values = np.full(space.shape, 0.1)
    good, good_a = str(tmp_path / "good.npy"), str(tmp_path / "good_a.npy")
    io.save_scalar_field(good, ScalarField(space, values))
    io._write_grid(good_a, space, values[None])
    values[64] = value
    bad = str(tmp_path / "bad.npy")
    io._write_grid(bad, space, values[None] if path.startswith("potentials.A") else values)
    cfg = base_cfg(params={"beta": 0.5},
                   initial={"type": "file", "rho_file": good, "phi_file": good},
                   potentials={"V": {"type": "file", "file": good},
                               "A": {"type": "file", "file": good_a}},
                   run={"engine": "schrodinger", "dt": 0.002, "steps": 4})
    *sections, key = path.split(".")
    node = cfg
    for section in sections:
        node = node[section]
    node[key] = bad
    message = f"{path} must be finite, got {value} in {bad}"
    with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
        scenario_from_dict(cfg)
    cfg_path = tmp_path / "bad.json"
    cfg_path.write_text(json.dumps(cfg))
    assert cli.main(["evolve", str(cfg_path), "--out", str(tmp_path / "out")]) == 2
    assert message in capsys.readouterr().err
    assert not os.path.exists(tmp_path / "out")


@pytest.mark.parametrize(
    "section, kind",
    [(section, kind) for section, types in scenarios._FIELD_TYPES.items() for kind in types],
)
def test_the_echo_states_every_default_a_field_used(tmp_path, section, kind):
    """Each field type with every key omitted: the echo lists each key the
    type reads with the default it used, and rebuilds bit-equal fields.  A
    sine entropy once echoed without amplitude and mode, a harmonic V
    without center.  A file type names its required file; phi_file, whose
    absence means a zero phase, has no default to state."""
    space = scenario_from_dict(base_cfg()).space
    values = np.exp(-0.5 * space.meshes[0] ** 2)
    path, path_a = str(tmp_path / "field.npy"), str(tmp_path / "field_a.npy")
    io.save_scalar_field(path, ScalarField(space, values))
    io._write_grid(path_a, space, values[None])
    node = {"type": kind}
    if kind == "file":
        node["rho_file" if section == "initial" else "file"] = (
            path_a if section == "potentials.A" else path
        )
    overrides = ({"potentials": {section.split(".")[1]: node}} if "." in section
                 else {section: node})
    sc = scenario_from_dict(base_cfg(**overrides))
    echoed = sc.echo
    for part in section.split("."):
        echoed = echoed[part]
    assert set(echoed) == {"type", *scenarios._FIELD_TYPES[section][kind]} - {"phi_file"}
    again = scenario_from_dict(sc.echo)
    assert again.echo == sc.echo
    for field in ("entropy", "potential"):
        assert np.array_equal(getattr(again, field).values, getattr(sc, field).values)
    for field in ("rho", "phi"):
        assert np.array_equal(getattr(again.initial, field).values,
                              getattr(sc.initial, field).values)
    assert again.time_scale == sc.time_scale
    if sc.vector_potential is None:
        assert again.vector_potential is None
    else:
        assert np.array_equal(again.vector_potential.components, sc.vector_potential.components)


@pytest.mark.parametrize(
    "field, path",
    [("entropy", "entropy"), ("initial", "initial"), ("potential", "potentials.V"),
     ("vector_potential", "potentials.A")],
)
def test_a_field_set_in_process_is_echoed_as_no_config(field, path):
    """A field set with dataclasses.replace was once echoed as the config
    field it replaced: an A set on a scenario with no A echoed
    `potentials.A: {type: none}`, and a rerun from the echo had no A.  The
    echo now states the type 'in-process', which a rerun refuses, naming
    the section; every other section is echoed as it was."""
    sc = scenario_from_dict(base_cfg(params={"beta": 0.5}))
    space = sc.space
    new = {
        "entropy": ScalarField(space, sc.entropy.values.copy()),
        "initial": dataclasses.replace(sc.initial),
        "potential": ScalarField(space, sc.potential.values.copy()),
        "vector_potential": VectorField(space, np.zeros((1,) + space.shape)),
    }[field]
    # each echo is a fresh copy, so editing `expected` leaves sc as it was
    echo = dataclasses.replace(sc, **{field: new}).echo
    expected = sc.echo
    if field == "potential":
        expected["potentials"]["V"] = {"type": "in-process", "time_scale": [1.0, 0.0]}
    elif field == "vector_potential":
        expected["potentials"]["A"] = {"type": "in-process"}
    else:
        expected[field] = {"type": "in-process"}
    assert echo == expected
    message = f"{path}.type 'in-process' not recognized"
    with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
        scenario_from_dict(echo)


def test_an_unreplaced_field_keeps_its_echo_and_time_scale_is_echoed_as_run():
    """Replacing a run setting leaves the field sections' echo as it was, and
    a time_scale set with dataclasses.replace is the one echoed: it once
    echoed the config's [1.0, 0.0] while the run drove V."""
    sc = scenario_from_dict(base_cfg())
    assert dataclasses.replace(sc, seed=5).echo == {**sc.echo, "run": {**sc.echo["run"], "seed": 5}}
    driven = dataclasses.replace(sc, time_scale=(1.0, 2.0))
    V = driven.echo["potentials"]["V"]
    assert V == {**sc.echo["potentials"]["V"], "time_scale": [1.0, 2.0]}
    assert scenario_from_dict(driven.echo).time_scale == (1.0, 2.0)


def test_an_edit_to_an_echo_reaches_no_later_echo(tmp_path):
    """Scenario.source once handed out the stored section dicts, so setting
    a key in one echo, or appending to a list in it, changed every later echo
    and the summary.json a run wrote after it."""
    sc = scenario_from_dict(base_cfg(
        params={"beta": 0.5},
        initial={"type": "gaussian", "center": [0.5], "width": 1.0},
        potentials={"V": {"type": "harmonic", "omega": 1.0},
                    "A": {"type": "constant", "value": 0.3}},
    ))
    expected = json.loads(json.dumps(sc.echo))
    echo = sc.echo
    echo["potentials"]["A"]["junk"] = 1
    echo["potentials"]["V"]["omega"] = 2.0
    echo["initial"]["center"].append(9.0)
    assert json.loads(json.dumps(sc.echo)) == expected
    run(sc, str(tmp_path / "out"))
    assert io.load_summary(tmp_path / "out" / "summary.json")["config"] == expected


@pytest.mark.parametrize(
    "time_scale, message",
    [((1.0, math.nan), "must be finite, got nan"), ((True, 0.0), "must be a number, got True"),
     ((1.0, 0.0, 2.0), "needs 2 entries, got 3")],
    ids=["nan", "boolean", "three-entries"],
)
def test_replace_runs_the_number_rule_on_time_scale(tmp_path, time_scale, message):
    """A time_scale set with dataclasses.replace is read under the number
    rule: a NaN rate once ran to the NaN checks and wrote a summary.json
    that is not valid JSON.  The refusal names the key, before any output."""
    sc = scenario_from_dict(base_cfg())
    with pytest.raises(ConfigError, match=rf"^potentials\.V\.time_scale {message}$"):
        run(dataclasses.replace(sc, time_scale=time_scale), str(tmp_path / "out"))
    assert not os.path.exists(tmp_path / "out")


def _other_grid_file(tmp_path):
    """A V file on a 64-cell grid, where base_cfg's space has 128 cells."""
    sc = scenario_from_dict(base_cfg(space={"points": 64}))
    path = str(tmp_path / "V64.npy")
    io.save_scalar_field(path, ScalarField(sc.space, np.zeros(sc.space.shape)))
    return path


# config -> (section, its bad value, the refusal); a callable value is built in tmp_path
CONFIG_REFUSALS = {
    "section-not-a-mapping": ("space", 5, "space must be a mapping"),
    "unknown-field-key": ("entropy", {"type": "sine", "slop": 0.2},
                          "unknown key 'entropy.slop'"),
    "missing-rho-file": ("initial", {"type": "file"},
                         "initial.rho_file is required when initial.type is 'file'"),
    "file-on-another-grid": (
        "potentials", lambda tmp_path: {"V": {"type": "file", "file": _other_grid_file(tmp_path)}},
        "potentials.V.file grid does not match space"),
    "zero-width": ("initial", {"type": "gaussian", "width": 0.0}, "initial.width must be positive"),
    "three-entry-time-scale": (
        "potentials", {"V": {"type": "harmonic", "time_scale": [1.0, 0.5, 0.1]}},
        "potentials.V.time_scale must be a [constant, rate] pair or a positive time"),
    "missing-name": ("name", None, "config.name is required"),
    "unequal-osmotic-ratios": ("params", {"masses": 1.0, "osmotic_ratio": [1.0, 0.5]},
                               "params.osmotic_ratio must be a single shared value"),
    # read from the config, not set by dataclasses.replace: a snapshot_stride
    # of 0 is refused, not taken for the default of a tenth of the steps
    "zero-steps": ("run", {"engine": "coupled", "steps": 0}, "run.steps must be positive"),
    "zero-snapshot-stride": ("run", {"engine": "coupled", "snapshot_stride": 0},
                             "run.snapshot_stride must be positive"),
    "zero-walkers": ("run", {"engine": "coupled", "walkers": 0}, "run.walkers must be positive"),
    "negative-dt": ("run", {"engine": "coupled", "dt": -1}, "run.dt must be positive or 'auto'"),
    # finite config numbers that build a field that is not: omega 1e200 once
    # died of an OverflowError traceback (exit 1), and omega 1e154 ran the
    # schrodinger engine on an infinite V to NaN snapshots and failed checks
    "harmonic-omega-1e200": ("potentials", {"V": {"type": "harmonic", "omega": 1e200}},
                             "potentials.V must build a finite field, got a float overflow"),
    "harmonic-omega-1e154": ("potentials", {"V": {"type": "harmonic", "omega": 1e154}},
                             "potentials.V must build a finite field, got inf"),
    "gaussian-width-1e200": ("initial", {"type": "gaussian", "width": 1e200},
                             "initial must build a finite field, got a float overflow"),
    "gaussian-momentum-1e308": ("initial", {"type": "gaussian", "momentum": 1e308},
                                "initial must build a finite field, got -inf"),
    "linear-entropy-slope-1e308": ("entropy", {"type": "linear", "slope": 1e308},
                                   "entropy must build a finite field, got -inf"),
    "pure-gauge-chi-amplitude-1e308": (
        "potentials", {"A": {"type": "pure_gauge", "chi_amplitude": 1e308}},
        "potentials.A must build a finite field, got nan"),
    "time-scale-1e-320": ("potentials", {"V": {"type": "harmonic", "time_scale": 1e-320}},
                          "potentials.V.time_scale must be finite, got inf"),
}


@pytest.mark.parametrize("case", sorted(CONFIG_REFUSALS))
def test_a_config_refusal_names_its_key(tmp_path, capsys, case):
    """Each refusal is a ConfigError with its message, through the API and
    the CLI: exit 2, and no output directory."""
    section, value, message = CONFIG_REFUSALS[case]
    cfg = base_cfg()
    cfg[section] = value(tmp_path) if callable(value) else value
    with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
        scenario_from_dict(cfg)
    cfg_path = tmp_path / "bad.json"
    cfg_path.write_text(json.dumps(cfg))
    assert cli.main(["evolve", str(cfg_path), "--out", str(tmp_path / "out")]) == 2
    assert message in capsys.readouterr().err
    assert not os.path.exists(tmp_path / "out")


def _runs_of_unequal_length(tmp_path):
    """Two coupled runs at one dt and stride, of 20 and 40 steps: their
    snapshot times agree where both have one, and their series differ in
    length."""
    for name, steps in (("a", 20), ("b", 40)):
        cfg = base_cfg(space={"points": 32}, run={"steps": steps, "dt": 0.002})
        run(scenario_from_dict(cfg), str(tmp_path / name))
    return str(tmp_path / "a"), str(tmp_path / "b")


def _unequal_series(metric):
    def call(sc, tmp_path):
        return compare(*_runs_of_unequal_length(tmp_path), [metric])
    return call


# command -> (scenario overrides, the API call, the CLI argv or None, the refusal);
# None where argparse itself refuses the input (exit 2) before the API sees it
COMMAND_REFUSALS = {
    "gauge-check-on-ensemble": (
        {"params": {"beta": 0.7}, "run": {"engine": "ensemble"}},
        lambda sc, tmp_path: gauge_check(sc, 0.8, 1, str(tmp_path / "out")),
        ["gauge-check", "CFG", "--chi", "0.8:1"],
        "gauge-check needs run.engine 'coupled' or 'schrodinger'"),
    "classical-limit-both-sweeps": (
        {}, lambda sc, tmp_path: classical_limit(sc, eta_scales=[1.0, 0.5], mu_scales=[1.0, 0.5]),
        None, "classical-limit needs exactly one of eta_scales / mu_scales"),
    "classical-limit-no-sweep": (
        {}, lambda sc, tmp_path: classical_limit(sc),
        None, "classical-limit needs exactly one of eta_scales / mu_scales"),
    "classical-limit-negative-scale": (
        {}, lambda sc, tmp_path: classical_limit(sc, eta_scales=[1.0, -0.5]),
        ["classical-limit", "CFG", "--eta-sweep", "1,-0.5"],
        "eta_scales must be positive, got [1.0, -0.5]"),
    "maxent-audit-in-3d": (
        {"space": {"dim": 3, "extent": 12.0, "points": 8}},
        lambda sc, tmp_path: maxent_audit(sc, trials=10, outdir=str(tmp_path / "out")),
        ["maxent-audit", "CFG", "--trials", "10"],
        "maxent-audit runs on dim <= 2 scenarios"),
    "compare-unknown-metric": (
        {}, lambda sc, tmp_path: compare(str(tmp_path / "a"), str(tmp_path / "b"), ["rho_l3"]),
        None, "unknown metric 'rho_l3'"),
    "compare-variance-shapes": (
        {}, _unequal_series("variance"),
        ["compare", "A", "B", "--metrics", "variance"],
        "series shapes differ; snapshot grids do not match"),
    "compare-energy-shapes": (
        {}, _unequal_series("energy"),
        ["compare", "A", "B", "--metrics", "energy"],
        "energy series shapes differ"),
}


@pytest.mark.parametrize("case", sorted(COMMAND_REFUSALS))
def test_a_command_refuses_what_it_cannot_check(tmp_path, capsys, case):
    """Each refusal is a ConfigError with its message, through the API and,
    where argparse lets the input through, the CLI: exit 2, and no output
    directory."""
    overrides, call, argv, message = COMMAND_REFUSALS[case]
    sc = scenario_from_dict(base_cfg(**overrides))
    with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
        call(sc, tmp_path)
    assert not os.path.exists(tmp_path / "out")
    if argv is None:
        return
    names = {"CFG": write_cfg(tmp_path, **overrides),
             "A": str(tmp_path / "a"), "B": str(tmp_path / "b")}
    out = str(tmp_path / "out")
    assert cli.main([names.get(arg, arg) for arg in argv] + ["--out", out]) == 2
    assert message in capsys.readouterr().err
    assert not os.path.exists(out)


@pytest.mark.parametrize(
    "argv, message",
    [(["compare", "A", "B", "--metrics", "rho_l2", "--tolerance", "rho_l2"],
      "--tolerance expects name=value, got 'rho_l2'"),
     (["gauge-check", "CFG", "--chi", "0.8"], "--chi expects AMPLITUDE:MODE, got '0.8'")],
    ids=["tolerance-without-value", "chi-without-mode"],
)
def test_cli_refuses_a_malformed_flag(tmp_path, capsys, argv, message):
    """The flag's own parse refuses it: exit 2, the flag named, and no
    output directory."""
    cfg = write_cfg(tmp_path, params={"beta": 0.7}, space={"points": 32},
                    run={"engine": "coupled", "steps": 2})
    names = {"CFG": cfg, "A": str(tmp_path / "a"), "B": str(tmp_path / "b")}
    out = str(tmp_path / "out")
    assert cli.main([names.get(arg, arg) for arg in argv] + ["--out", out]) == 2
    assert f"error: {message}" in capsys.readouterr().err
    assert not os.path.exists(out)
