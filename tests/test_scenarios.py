import json
import math
import os
import re

import numpy as np
import pytest
import yaml

from entrolab import cli, io
from entrolab.errors import ConfigError, StabilityError
from entrolab.fields import ScalarField
from entrolab.scenarios import (
    classical_limit,
    compare,
    gauge_check,
    load_scenario,
    maxent_audit,
    resolve_dt,
    run,
    scenario_from_dict,
)


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


def test_nonlinear_engine_refuses_vector_potential(tmp_path):
    cfg = base_cfg(
        params={"beta": 0.5},
        potentials={
            "V": {"type": "harmonic", "omega": 1.0},
            "A": {"type": "constant", "value": 0.2},
        },
        run={"engine": "nonlinear", "steps": 5},
    )
    sc = scenario_from_dict(cfg)
    with pytest.raises(ConfigError, match="vector potential"):
        run(sc, str(tmp_path))


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
    io.save_scalar_field(tmp_path / "rho0.csv", rho)
    cfg = base_cfg(
        space={"points": 64},
        initial={"type": "file", "rho_file": "rho0.csv"},
    )
    sc = scenario_from_dict(cfg, base_dir=str(tmp_path))
    assert np.abs(sc.initial.rho.values - rho.values).max() < 1e-15


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
    assert os.path.exists(tmp_path / "rho_000000.csv")
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
    assert os.path.exists(tmp_path / "rho_000000.csv")
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
    ra = (tmp_path / "a" / "rho_000002.csv").read_text()
    rb = (tmp_path / "b" / "rho_000002.csv").read_text()
    assert ra == rb
    pa = (tmp_path / "a" / "final_positions.csv").read_text()
    pb = (tmp_path / "b" / "final_positions.csv").read_text()
    assert pa == pb


def test_schrodinger_run_records_psi_and_norm(tmp_path):
    sc = scenario_from_dict(base_cfg(run={"engine": "schrodinger", "steps": 20,
                                          "snapshot_stride": 10}))
    summary = run(sc, str(tmp_path))
    assert summary["passed"], summary["checks"]
    assert os.path.exists(tmp_path / "psi_000000.csv")
    assert "norm_conservation" in summary["checks"]
    assert "energy_drift" in summary["checks"]


def test_nan_potential_fails_mass_and_norm_checks(tmp_path):
    """A NaN cell in V poisons every later snapshot; the run's conservation
    checks must fail, not keep the clean first snapshot's 0."""
    sc = scenario_from_dict(base_cfg())
    V = np.zeros(sc.space.shape)
    V[64] = np.nan
    v_path = tmp_path / "V.csv"
    io.save_scalar_field(v_path, ScalarField(sc.space, V))
    cfg = base_cfg(potentials={"V": {"type": "file", "file": str(v_path)}},
                   run={"engine": "schrodinger", "dt": 0.002, "steps": 20,
                        "snapshot_stride": 10})
    summary = run(scenario_from_dict(cfg), str(tmp_path / "out"))
    for name in ("mass_conservation", "norm_conservation"):
        check = summary["checks"][name]
        assert math.isnan(check["value"]) and not check["passed"], name
    assert not summary["passed"]


def _nan_vector_potential_cfg(tmp_path):
    """A 1D ensemble scenario whose A file has one NaN cell: the walkers'
    drift there is NaN from the first step."""
    sc = scenario_from_dict(base_cfg())
    A = np.zeros(sc.space.shape)
    A[64] = np.nan
    a_path = tmp_path / "A.csv"
    # a 1D vector field has one component column, as a scalar field does
    io.save_scalar_field(a_path, ScalarField(sc.space, A))
    return base_cfg(params={"beta": 0.5},
                    potentials={"A": {"type": "file", "file": str(a_path)}},
                    entropy={"type": "sine", "amplitude": 0.2, "mode": 1},
                    run={"engine": "ensemble", "dt": 0.005, "steps": 20, "walkers": 20000, "seed": 3,
                         "snapshot_stride": 10})


def test_nan_vector_potential_fails_the_ensemble_run(tmp_path):
    """NaN walkers once landed on the lower wall and the run passed."""
    sc = scenario_from_dict(_nan_vector_potential_cfg(tmp_path))
    with pytest.raises(ConfigError, match="walker coordinates are not finite"):
        run(sc, str(tmp_path / "out"))
    summary = io.load_summary(tmp_path / "out" / "summary.json")
    assert summary["status"] == "failed"
    assert summary["error"]["type"] == "ConfigError"
    assert summary["last_step"] == 0
    assert not os.path.exists(tmp_path / "out" / "final_positions.csv")


def test_cli_nan_vector_potential_exits_2(tmp_path, capsys):
    cfg = tmp_path / "nan-a.json"
    cfg.write_text(json.dumps(_nan_vector_potential_cfg(tmp_path)))
    code = cli.main(["ensemble", str(cfg), "--out", str(tmp_path / "out")])
    assert code == 2
    assert "not finite" in capsys.readouterr().err
    summary = io.load_summary(tmp_path / "out" / "summary.json")
    assert summary["status"] == "failed"
    assert summary["last_step"] == 0


def _nan_vector_potential_auto_dt_cfg(tmp_path, engine):
    cfg = _nan_vector_potential_cfg(tmp_path)
    cfg["run"] = {"engine": engine, "steps": 20, "snapshot_stride": 10}  # dt: auto
    return cfg


@pytest.mark.parametrize("engine", ["fokker-planck", "coupled"])
def test_auto_dt_with_a_nan_vector_potential_names_a_non_finite_field(tmp_path, engine):
    """A NaN bound once read as 'no dynamical rate', sending the user after
    the wrong input."""
    sc = scenario_from_dict(_nan_vector_potential_auto_dt_cfg(tmp_path, engine))
    with pytest.raises(ConfigError, match="not finite") as err:
        resolve_dt(sc)
    assert "no dynamical rate" not in str(err.value)


@pytest.mark.parametrize("engine", ["fokker-planck", "coupled"])
def test_cli_auto_dt_with_a_nan_vector_potential_exits_2(tmp_path, capsys, engine):
    cfg = tmp_path / "nan-a-auto.json"
    cfg.write_text(json.dumps(_nan_vector_potential_auto_dt_cfg(tmp_path, engine)))
    code = cli.main(["evolve", str(cfg), "--out", str(tmp_path / "out")])
    assert code == 2
    err = capsys.readouterr().err
    assert "not finite" in err and "no dynamical rate" not in err


def test_auto_dt_with_an_infinite_bound_says_there_is_no_rate(monkeypatch):
    from entrolab import dynamics

    monkeypatch.setattr(dynamics, "coupled_stability_limit", lambda *args: math.inf)
    with pytest.raises(ConfigError, match="no dynamical rate"):
        resolve_dt(scenario_from_dict(base_cfg()))


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


def test_time_scale_scalar_is_a_positive_time():
    sc = scenario_from_dict(base_cfg(potentials={"V": {"type": "harmonic", "time_scale": 4}}))
    assert sc.time_scale == (1.0, 0.25)
    # the echo carries the resolved pair so the run is reproducible from summary.json
    assert sc.echo["potentials"]["V"]["time_scale"] == [1.0, 0.25]
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
    """One NaN cell in a middle rho snapshot fails rho_l2; it is not skipped."""
    dir_a, dir_b = run_pair(tmp_path)
    path = os.path.join(dir_b, "rho_000002.csv")
    lines = open(path).read().splitlines()
    lines[10] = lines[10].rsplit(",", 1)[0] + ",nan"
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")
    report = compare(dir_a, dir_b, ["rho_l2"])
    [metric] = report.metrics
    assert math.isnan(metric.values[2]) and math.isnan(metric.worst)
    assert not metric.passed and not report.passed
    capsys.readouterr()
    assert cli.main(["compare", dir_a, dir_b, "--metrics", "rho_l2"]) == 1
    assert "[FAIL]" in capsys.readouterr().out


def test_compare_psi_requires_wave_runs(tmp_path):
    dir_a, dir_b = run_pair(tmp_path)  # coupled run has no psi snapshots
    with pytest.raises(ConfigError):
        compare(dir_a, dir_b, ["psi_l2"])


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
    assert rep["max_gap"] == -1.0336918428999198e-06
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
    message = "takes comma-separated numbers" if bad == "abc" else "finite and positive"
    api_message = "must be a number" if bad == "abc" else message
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
    io.save_scalar_field(path, gaussian_density(space, 0.5, 0.7))
    lines = path.read_text().splitlines()
    lines[5] = corrupt(lines[5])
    path.write_text("\n".join(lines) + "\n")
    cfg = write_cfg(tmp_path, name="bad-file", space={"points": 64},
                    initial={"type": "file", "rho_file": str(path)})
    code = cli.main(["evolve", cfg, "--out", str(tmp_path / "out")])
    assert code == 2
    err = capsys.readouterr().err
    assert "rho0.csv" in err and "line 6" in err


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


def test_cli_compare_ks_with_malformed_positions_exits_2(tmp_path, capsys):
    cfg = write_cfg(tmp_path, name="ens", potentials={},
                    run={"engine": "ensemble", "steps": 5, "snapshot_stride": 5,
                         "walkers": 500, "seed": 1})
    assert cli.main(["ensemble", cfg, "--out", str(tmp_path / "a")]) == 0
    path = tmp_path / "a" / "final_positions.csv"
    lines = path.read_text().splitlines()
    lines[7] = "0.25,abc"
    path.write_text("\n".join(lines) + "\n")
    capsys.readouterr()
    code = cli.main(["compare", str(tmp_path / "a"), str(tmp_path / "a"),
                     "--metrics", "ks"])
    assert code == 2
    assert "final_positions.csv, line 8" in capsys.readouterr().err
