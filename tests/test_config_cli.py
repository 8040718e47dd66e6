import hashlib
import json
import math
import os
import subprocess
import sys
import tempfile
import warnings
from dataclasses import replace
from importlib import resources
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import qndspin
from qndspin import montecarlo
from qndspin.cli import main
from qndspin.config import (
    BOUNDS,
    NULLABLE,
    PARTIAL,
    ConfigError,
    default_config,
    load_and_validate,
)
from qndspin.constants import RB87, load_constants
from qndspin.montecarlo import scenario_fig3, scenario_rotation
from qndspin.scenarios import (
    SCENARIO_NAMES,
    noise_budget_from_config,
    run_scenario,
    scenario_params_report,
)
from qndspin.spinstate import measurement_backaction, prepare_css


PACKAGED_CONSTANTS = json.loads(
    resources.files("qndspin").joinpath("data/rb87_d2.json").read_text()
)


@pytest.fixture(scope="module")
def cfg():
    return load_and_validate()


class TestConfig:
    def test_defaults_resolve_to_reference_parameters(self, cfg):
        assert cfg.couplings.antinode_cooperativity == pytest.approx(0.203, abs=0.007)
        assert cfg.n0 == pytest.approx(3.3e4, rel=0.02)
        assert cfg.probe.quantum_efficiency == 0.43
        assert cfg.pulses.composite_pi_infidelity == 0.02

    def test_missing_kappa_named(self, tmp_path):
        # absent keys fall back to defaults; an explicitly removed value
        # (null) is a violation that names the key
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"resonator": {"linewidth_mhz": None}}))
        with pytest.raises(ConfigError) as err:
            load_and_validate(path)
        assert any("linewidth_mhz" in v for v in err.value.violations)

    def test_negative_trials_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"n_trials": -5}))
        with pytest.raises(ConfigError) as err:
            load_and_validate(path)
        assert any("n_trials" in v for v in err.value.violations)

    def test_all_violations_collected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"n_trials": -5, "master_seed": -1}))
        with pytest.raises(ConfigError) as err:
            load_and_validate(path)
        assert len(err.value.violations) >= 2

    def test_partial_override_merges(self, tmp_path):
        path = tmp_path / "override.json"
        path.write_text(json.dumps({"probe": {"photons_per_measurement": 3e5}}))
        cfg = load_and_validate(path)
        assert cfg.probe.photons_per_measurement == 3e5
        assert cfg.probe.quantum_efficiency == 0.43  # default kept

    def test_b1_target_applied(self, cfg):
        from qndspin.scattering import raman_noise_coefficient

        assert raman_noise_coefficient(cfg.rates, 1.0) == pytest.approx(
            4.7e-8, rel=1e-9
        )

    @pytest.mark.parametrize("key, value", [
        ("trap_resonator", {"anything": "goes"}),
        ("resonator.mirror_curvature_mm", 25.04),
        ("resonator.free_spectral_range_mhz", 5632.0),
        ("resonator.transverse_mode_spacing_mhz", 226.3),
        ("ensemble.cloud_length_mm", 1.0),
        ("probe.pulse_duration_us", 50.0),
        ("scenarios.ramsey.precession_us", 70.0),
    ])
    def test_unread_apparatus_keys_rejected(self, key, value):
        # these settings had no reader; a config that still sets one is
        # told so instead of having it silently ignored
        path = tuple(key.split("."))
        with pytest.raises(ConfigError) as err:
            load_and_validate(overrides=_nested({path: value}))
        assert any(path[-1] in v for v in err.value.violations)

    @pytest.mark.parametrize("overrides, flagged", [
        ({"n_trials": True}, "n_trials"),
        ({"probe": {"photons_per_measurement": False}},
         "probe/photons_per_measurement"),
        ({"n_trials": 2.0}, None),
        ({"constants_file": None}, None),
        ({"scattering": {"b1_target_per_atom": None}}, None),
        ({"output_dir": None}, "output_dir"),
        ({"resonator": {"finesse": None}}, "resonator/finesse"),
        ({"bogus": 1}, "<root>"),
        ({"resonator": {"bogus": 1}}, "resonator"),
        ({"scenarios": {"fig2": {"preparation": {"bogus": 1}}}},
         "scenarios/fig2/preparation"),
        ({"scenarios": {"fig2": {"preparation": {"impurity_fraction": 0.1}}}},
         None),
        ({"scenarios": {"fig2": {"preparation": {"prep_noise_factor": 0}}}},
         "scenarios/fig2/preparation/prep_noise_factor"),
        ({"resonator": {"linewidth_mhz": 0}}, "resonator/linewidth_mhz"),
        ({"ensemble": {"physical_atom_number": 0}}, None),
        ({"probe": {"quantum_efficiency": 1}}, None),
        ({"probe": {"quantum_efficiency": 1.0000001}},
         "probe/quantum_efficiency"),
        ({"scenarios": {"fig3": {"photon_grid": []}}},
         "scenarios/fig3/photon_grid"),
        ({"scenarios": {"fig3": {"photon_grid": [1, "a"]}}},
         "scenarios/fig3/photon_grid/1"),
        ({"probe": 5}, "probe"),
    ], ids=["bool-not-integer", "bool-not-number", "integral-float",
            "null-constants-file", "null-b1-target", "null-string",
            "null-number", "unknown-root", "unknown-in-block",
            "unknown-in-partial", "partial-takes-block-keys",
            "partial-takes-block-bounds", "exclusive-minimum",
            "inclusive-minimum", "at-maximum", "above-maximum",
            "empty-list", "list-item-type", "block-not-an-object"])
    def test_validation_rule(self, overrides, flagged):
        # the shape and types come from the shipped defaults, the ranges
        # from BOUNDS; each violation is one "path: message" line
        if flagged is None:
            load_and_validate(overrides=overrides)
            return
        with pytest.raises(ConfigError) as err:
            load_and_validate(overrides=overrides)
        assert [v.split(": ")[0] for v in err.value.violations] == [flagged]

    def test_every_bound_names_a_setting(self):
        # a typo in a BOUNDS, NULLABLE or PARTIAL key would silently drop
        # its rule: each must name a number, a list of numbers or a block
        # of the shipped defaults
        defaults = default_config()

        def setting(key):
            node = defaults
            for name in key.split("/"):
                assert isinstance(node, dict) and name in node, key
                node = node[name]
            return node

        for key in BOUNDS:
            value = setting(key)
            items = value if isinstance(value, list) else [value]
            assert all(type(x) in (int, float) for x in items), key
        for key in NULLABLE:
            assert not isinstance(setting(key), (dict, list)), key
        for key, block in PARTIAL.items():
            assert setting(key).keys() <= setting(block).keys(), key


class TestParamsReport:
    def test_report_keys_match_chain(self, cfg):
        rep = scenario_params_report(cfg)
        assert rep["antinode_cooperativity_probe"] == pytest.approx(0.203, abs=0.007)
        assert rep["domega_dn_kappa"] == pytest.approx(4.5e-5, abs=0.2e-5)
        assert rep["phase_per_photon_max_urad"] == pytest.approx(253.0, abs=8.0)
        assert rep["p_total_to_raman"] == pytest.approx(3.0, abs=0.4)

    def test_budget_formula(self, cfg):
        budget = noise_budget_from_config(cfg)
        dn_du = 1.0 / (2 * cfg.couplings.domega_dn)
        assert budget.b_minus1 == pytest.approx(
            2 * (1.9 / 0.43) * dn_du**2, rel=1e-12
        )
        assert budget.b_minus2 == 6e13


class TestScenarioArtifacts:
    def test_limits_byte_identical_rerun(self, cfg, tmp_path):
        a, _ = run_scenario("limits", cfg, tmp_path / "a")
        b, _ = run_scenario("limits", cfg, tmp_path / "b")
        assert a.read_bytes() == b.read_bytes()

    def test_fig3_schema_and_determinism(self, cfg, tmp_path):
        path1, man1 = run_scenario("fig3", cfg, tmp_path / "a", n_trials=24, seed=5)
        path2, man2 = run_scenario("fig3", cfg, tmp_path / "b", n_trials=24, seed=5)
        header = path1.read_text().splitlines()[0]
        assert header == (
            "p,sigma2,sigma2_err,sigma2_db,C,zeta_m_db,zeta_e_db,"
            "sigma2_model,sigma2_model_db,zeta_m_model_db,zeta_e_model_db"
        )
        assert path1.read_bytes() == path2.read_bytes()
        m1 = json.loads(man1.read_text())
        m2 = json.loads(man2.read_text())
        assert m1["outputs"]["fig3.csv"] == m2["outputs"]["fig3.csv"]

    def test_fig2_schema(self, cfg, tmp_path):
        path, _ = run_scenario("fig2", cfg, tmp_path, n_trials=24, seed=3)
        header = path.read_text().splitlines()[0]
        assert header == "N0,y1,y1_err,y2,y2_err,meas2,meas2_err,css_line"
        sidecar = json.loads((tmp_path / "fig2_fits.json").read_text())
        assert "y1" in sidecar and "a1_fixed" in sidecar["y1"]

    def test_rotation_and_ramsey_schemas(self, cfg, tmp_path):
        path, _ = run_scenario("rotation", cfg, tmp_path / "rot",
                               n_trials=24, seed=3)
        assert path.read_text().splitlines()[0] == (
            "alpha_rad,var_alpha,var_alpha_err,model"
        )
        path, _ = run_scenario("ramsey", cfg, tmp_path / "ram",
                               n_trials=64, seed=3)
        lines = path.read_text().splitlines()
        assert lines[0] == "sequence,sigma2,sigma2_db"
        assert lines[1].startswith("squeeze-readout")

    def test_rotation_half_turn_reads_as_zero_turn(self):
        # rotated by pi, M2 reads -S_z: the conditional variance of the
        # readout is the one at 0 deg, not (1 - cos alpha)^2 Var(S_z) above it
        cfg = load_and_validate(overrides={
            "scenarios": {"rotation": {"angles_deg": [0.0, 180.0]}}})
        (_, rows), = scenario_rotation(cfg, 4000, 11).values()
        (_, var_0, err_0, _), (_, var_180, err_180, _) = rows
        assert abs(var_180 - var_0) <= 4 * math.hypot(err_0, err_180)

    def test_rotation_model_is_the_run_statistic(self):
        # the model column is the MC statistic read from the law each run
        # draws from, with detection to first order
        cfg = load_and_validate(overrides={
            "scenarios": {"rotation": {"angles_deg": [0.0, 90.0, 180.0]}}})
        (_, rows), = scenario_rotation(cfg, 200_000, 11).values()
        for alpha, var_alpha, err, model in rows:
            assert abs(var_alpha - model) <= 3 * err, math.degrees(alpha)

    def test_rotation_model_exact_with_every_noise_off(self):
        # no detection, flips or pulse failures: M_1 reads S_z exactly, and
        # the rotated readout's residual is the back-acted S_perp's share
        cfg = load_and_validate(overrides={
            "noise": dict.fromkeys(
                ("shot", "electronic", "technical", "raman", "microwave"), False),
            "scenarios": {"rotation": {
                "angles_deg": [0.0, 30.0, 90.0, 150.0, 180.0]}}})
        p = cfg.scenario_options("rotation")["photons"]
        var_y = measurement_backaction(
            prepare_css(cfg.n0, cfg.preparation), p,
            cfg.couplings.phase_per_photon_eff, cfg.n0).var_y
        (_, rows), = scenario_rotation(cfg, 64, 3).values()
        for alpha, _, _, model in rows:
            assert model == pytest.approx(
                var_y * math.sin(alpha) ** 2, abs=1e-9 * cfg.n0 / 4)

    @pytest.mark.parametrize("overrides, n_trials, bound", [
        ({"noise": {"technical": False, "microwave": False}}, 4000, 4.0),
        ({}, 40_000, 3.0),
    ], ids=["switches-off", "default"])
    def test_fig3_model_honours_noise_switches(self, overrides, n_trials, bound):
        # the model row is each point's own record law with detection to
        # first order: with technical noise and composite-pulse failures
        # off it drops b0_tech and b0_mu, and epsilon drops mu.  At the
        # default config, 40,000 trials resolve a model that is not the
        # law the trials are drawn from: the first-order budget
        # composition read 7.8 SE off at p = 9e5
        cfg = load_and_validate(overrides=overrides)
        (_, rows), = scenario_fig3(cfg, n_trials, 11).values()
        for p, sigma2, err, *_, sigma2_model, _, _, _ in rows:
            assert abs(sigma2 - sigma2_model) <= bound * err, p

    def test_unknown_scenario(self, cfg, tmp_path):
        with pytest.raises(ValueError):
            run_scenario("fig7", cfg, tmp_path)

    def test_fig2_scaling_property(self, tmp_path):
        # y1 grows ~ N0 while 2 Var(M1-M2) stays below the CSS line with
        # slope vs N0 given by the Raman b1 term alone (technical noise
        # and microwave errors disabled so the other terms are flat).
        import json as _json

        from qndspin.scattering import raman_noise_coefficient

        override = tmp_path / "cfg.json"
        override.write_text(_json.dumps({
            "noise": {"technical": False, "microwave": False},
            "preparation": {"prep_noise_factor": 1.0,
                            "quadratic_noise_a2": 0.0,
                            "impurity_fraction": 0.0},
            "scenarios": {"fig2": {
                "atom_grid": [6e3, 1.4e4, 2.4e4, 3.6e4, 5e4],
                "preparation": {"prep_noise_factor": 1.0,
                                "quadratic_noise_a2": 0.0,
                                "impurity_fraction": 0.0},
            }},
        }))
        cfg2 = load_and_validate(override)
        path, _ = run_scenario("fig2", cfg2, tmp_path / "out",
                               n_trials=4000, seed=31)
        data = np.genfromtxt(path, delimiter=",", names=True)
        n0 = data["N0"]
        # projection noise: y1 grows as N0 on top of the flat detector
        # noise, with the small flip-induced slope reduction
        p = cfg2.probe.photons_per_measurement
        budget = noise_budget_from_config(cfg2, 1.0)
        flip_slope = (
            2.0 / 3.0 * cfg2.rates.p_delta_f
            + 0.5 * cfg2.rates.p_delta_mf
            + 2.0 / 3.0 * cfg2.rates.p_delta_f_delta_mf
        ) * p
        y1_model = (
            budget.b_minus2 / p**2 + budget.b_minus1 / p
            + (1.0 - flip_slope) * n0
        )
        assert np.all(np.abs(data["y1"] - y1_model) <= 4 * data["y1_err"])
        # measurement variance sits below the CSS line at large N0
        assert np.all(data["meas2"][2:] < n0[2:])
        # and its N0 slope matches the b1-induced term
        p = cfg2.probe.photons_per_measurement
        b1_per_atom = raman_noise_coefficient(cfg2.rates, 1.0)
        w = 1.0 / data["meas2_err"] ** 2
        xm = np.average(n0, weights=w)
        ym = np.average(data["meas2"], weights=w)
        slope = np.sum(w * (n0 - xm) * (data["meas2"] - ym)) / np.sum(
            w * (n0 - xm) ** 2
        )
        slope_se = 1.0 / np.sqrt(np.sum(w * (n0 - xm) ** 2))
        assert abs(slope - b1_per_atom * p) <= 3 * slope_se


class TestCli:
    def test_run_limits_exit_zero(self, tmp_path, capsys):
        rc = main(["run", "--scenario", "limits", "--out", str(tmp_path)])
        assert rc == 0
        assert (tmp_path / "limits.json").exists()
        assert (tmp_path / "limits_manifest.json").exists()
        assert (tmp_path / "resolved_config.json").exists()

    def test_bad_config_exit_two(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"n_trials": 1}))
        rc = main([
            "run", "--scenario", "limits", "--config", str(bad),
            "--out", str(tmp_path / "o"),
        ])
        assert rc == 2
        assert "n_trials" in capsys.readouterr().err

    @pytest.mark.parametrize("text", ["[1]", "5", "null"])
    def test_non_object_config_exit_two(self, text, tmp_path, capsys):
        # a config file is merged key by key onto the defaults
        bad = tmp_path / "bad.json"
        bad.write_text(text)
        rc = main([
            "run", "--scenario", "limits", "--config", str(bad),
            "--out", str(tmp_path / "o"),
        ])
        assert rc == 2
        assert capsys.readouterr().err.startswith("config error: <root>: ")
        assert not (tmp_path / "o").exists()

    def test_missing_config_file_exit_two(self, tmp_path):
        rc = main([
            "run", "--scenario", "limits",
            "--config", str(tmp_path / "nope.json"),
            "--out", str(tmp_path / "o"),
        ])
        assert rc == 2

    @pytest.mark.parametrize("kind", ["directory", "not-utf8"])
    def test_unreadable_config_exit_two(self, kind, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        if kind == "directory":
            bad.mkdir()
        else:
            bad.write_bytes(b"\xff\xfe{}")
        rc = main([
            "run", "--scenario", "limits", "--config", str(bad),
            "--out", str(tmp_path / "o"),
        ])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert err.startswith(f"config error: cannot read config file {bad}: ")
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("below", [False, True])
    def test_unwritable_out_exit_two(self, below, tmp_path, capsys):
        # --out names an existing regular file, or a path beneath one
        blocker = tmp_path / "f"
        blocker.write_text("keep")
        out = blocker / "sub" if below else blocker
        rc = main(["run", "--scenario", "limits", "--out", str(out)])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert err.startswith(f"config error: cannot write outputs to {out}: ")
        assert blocker.read_text() == "keep"

    @pytest.mark.parametrize("kind", ["directory", "not-utf8"])
    def test_unreadable_manifest_exit_two(self, kind, tmp_path, capsys):
        manifest = tmp_path / "m.json"
        if kind == "directory":
            manifest.mkdir()
        else:
            manifest.write_bytes(b"\xff\xfe{}")
        rc = main(["run", "--scenario", "limits", "--verify", str(manifest)])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert err.startswith("error: cannot read manifest: ")

    def test_verify_roundtrip_and_mismatch(self, tmp_path, capsys):
        out = tmp_path / "run"
        rc = main([
            "run", "--scenario", "ramsey", "--trials", "32", "--seed", "11",
            "--out", str(out),
        ])
        assert rc == 0
        manifest = out / "ramsey_manifest.json"
        rc = main([
            "run", "--scenario", "ramsey",
            "--verify", str(manifest),
        ])
        assert rc == 0
        # tamper with the recorded hash -> exit 4
        data = json.loads(manifest.read_text())
        data["outputs"]["ramsey.csv"] = "0" * 64
        manifest.write_text(json.dumps(data))
        rc = main(["run", "--scenario", "ramsey", "--verify", str(manifest)])
        assert rc == 4
        assert "verify: ramsey.csv differs" in capsys.readouterr().err
        # an output the re-run does not write -> exit 4
        data["outputs"] = {"ramsey.txt": "0" * 64}
        manifest.write_text(json.dumps(data))
        rc = main(["run", "--scenario", "ramsey", "--verify", str(manifest)])
        assert rc == 4
        assert "verify: missing output ramsey.txt" in capsys.readouterr().err

    @pytest.mark.parametrize("recorded, problem", [
        ([], "is not a JSON object"),
        ({"seed": 7}, 'has no "scenario" entry'),
        ({"scenario": "fig3", "outputs": []}, '"outputs" entry'),
    ], ids=["not-an-object", "no-scenario", "outputs-not-an-object"])
    def test_malformed_manifest_exit_two(self, recorded, problem, tmp_path,
                                         capsys):
        manifest = tmp_path / "m.json"
        manifest.write_text(json.dumps(recorded))
        rc = main(["run", "--scenario", "fig3", "--verify", str(manifest)])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert "cannot read manifest:" in err and problem in err

    @pytest.mark.parametrize("entries, key", [
        ({"outputs": {"../../../../etc/hostname": "0" * 64}},
         "../../../../etc/hostname"),
        ({"outputs": {"/etc/hostname": "0" * 64}}, "/etc/hostname"),
        ({"outputs": {"..": "0" * 64}}, "'..'"),
        ({"n_trials": "x"}, '"n_trials"'),
        ({"n_trials": 1}, '"n_trials"'),
        ({"n_trials": True}, '"n_trials"'),
        ({"scenario": "bogus"}, '"scenario"'),
        ({"seed": -5}, '"seed"'),
        ({"outputs": {"fig3.csv": 5}}, '"outputs" digest 5'),
        ({"outputs": {"fig3.csv": "A" * 64}}, '"outputs" digest'),
        ({"outputs": {"fig3.csv": "0" * 63}}, '"outputs" digest'),
        ({}, "has no outputs to compare"),
        ({"outputs": {}}, "has no outputs to compare"),
        ({"outputs": {"resolved_config.json": "0" * 64}},
         "has no outputs to compare"),
    ], ids=["outputs-parent-path", "outputs-absolute", "outputs-dotdot",
            "n-trials-string", "n-trials-one", "n-trials-bool",
            "scenario-unknown", "seed-negative", "digest-not-a-string",
            "digest-uppercase", "digest-short", "outputs-missing",
            "outputs-empty", "outputs-only-resolved-config"])
    def test_bad_manifest_entry_exit_two(self, entries, key, cfg, tmp_path,
                                         capsys):
        # a manifest of the right configuration whose run or output entries
        # cannot be used is rejected, naming the entry, before anything runs
        recorded = {"scenario": "fig3", "n_trials": 24, "seed": 7,
                    "config_hash": cfg.config_hash(), **entries}
        manifest = tmp_path / "m.json"
        manifest.write_text(json.dumps(recorded))
        rc = main(["run", "--scenario", "fig3", "--verify", str(manifest)])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert "cannot read manifest:" in err and key in err

    @pytest.mark.parametrize("flags, named", [
        (["--scenario", "limits"], ["--scenario limits", "scenario fig3"]),
        (["--scenario", "fig3", "--trials", "1"], ["--trials"]),
        (["--scenario", "fig3", "--seed", "-3"], ["--seed"]),
        (["--scenario", "fig3", "--trials", "1", "--seed", "-3"],
         ["--trials and --seed"]),
    ], ids=["scenario-differs", "trials", "seed", "trials-and-seed"])
    def test_verify_conflicting_flag_exit_two(self, flags, named, cfg,
                                              tmp_path, capsys):
        # the manifest fixes the scenario, n_trials and seed: a flag that
        # contradicts it is rejected before anything runs (a run would
        # exit 4 on the made-up digest)
        recorded = {"scenario": "fig3", "n_trials": 24, "seed": 7,
                    "config_hash": cfg.config_hash(),
                    "outputs": {"fig3.csv": "0" * 64}}
        manifest = tmp_path / "m.json"
        manifest.write_text(json.dumps(recorded))
        rc = main(["run", *flags, "--verify", str(manifest)])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert all(name in err for name in named)

    def test_verify_with_out_exit_two(self, cfg, tmp_path, capsys):
        # the re-run writes into a temporary directory, so an --out
        # directory would silently stay empty
        recorded = {"scenario": "limits", "config_hash": cfg.config_hash(),
                    "outputs": {"limits.json": "0" * 64}}
        manifest = tmp_path / "m.json"
        manifest.write_text(json.dumps(recorded))
        rc = main(["run", "--scenario", "limits", "--verify", str(manifest),
                   "--out", str(tmp_path / "o2")])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert err.startswith("config error: --out cannot be used with --verify")
        assert not (tmp_path / "o2").exists()

    @pytest.mark.parametrize("constants, named", [
        ({"version": "x"}, "no 'speed_of_light_m_s' entry"),
        ({**PACKAGED_CONSTANTS, "gamma_hz": "x"}, "'gamma_hz' entry is malformed"),
        ([], "not a JSON object"),
    ], ids=["missing-key", "key-not-a-number", "not-an-object"])
    def test_malformed_constants_file_exit_two(self, constants, named,
                                               tmp_path, capsys):
        consts = tmp_path / "constants.json"
        consts.write_text(json.dumps(constants))
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"constants_file": str(consts)}))
        rc = main(["run", "--scenario", "params-report", "--config",
                   str(config), "--out", str(tmp_path / "o")])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert str(consts) in err and named in err
        assert not (tmp_path / "o").exists()

    def test_constants_file_extra_entries_ignored(self, tmp_path):
        # entries no constant reads, like "source" or the D2 wavelength that
        # older constants files carry, load without complaint
        consts = tmp_path / "constants.json"
        consts.write_text(json.dumps(
            {**PACKAGED_CONSTANTS, "d2_wavelength_m": 780.241209686e-9}))
        assert load_constants(consts) == load_constants()

    @pytest.mark.parametrize("literal, named", [
        ("NaN", "nan is not a finite number"),
        ("Infinity", "inf is not a finite number"),
        ("1e400", "inf is not a finite number"),
        ("1" + "0" * 400, "int too large to convert to float"),
    ], ids=["NaN", "Infinity", "1e400", "int-beyond-float"])
    def test_non_finite_constants_file_exit_two(self, literal, named,
                                                tmp_path, capsys):
        # json reads the first three as floats (1e400 overflows to inf);
        # the entry is named instead of a later probe-placement failure
        consts = tmp_path / "constants.json"
        consts.write_text(json.dumps({**PACKAGED_CONSTANTS, "gamma_hz": "X"})
                          .replace('"X"', literal))
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"constants_file": str(consts)}))
        rc = main(["run", "--scenario", "params-report", "--config",
                   str(config), "--out", str(tmp_path / "o")])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert str(consts) in err and "'gamma_hz' entry is malformed" in err
        assert named in err
        assert not (tmp_path / "o").exists()

    def test_runtime_error_exit_three(self, tmp_path, capsys):
        # photon number far outside the first-order flip regime trips the
        # engine's validity guard at runtime
        bad = tmp_path / "hot.json"
        bad.write_text(json.dumps(
            {"probe": {"photons_per_measurement": 5e6}}
        ))
        rc = main([
            "run", "--scenario", "ramsey", "--config", str(bad),
            "--trials", "8", "--out", str(tmp_path / "o"),
        ])
        assert rc == 3
        assert "P_Ram" in capsys.readouterr().err

    @pytest.mark.parametrize("scenario, override", [
        ("rotation", {"scenarios": {"rotation": {"photons": 1e-200}}}),
        ("ramsey", {"probe": {"photons_per_measurement": 1e-200}}),
    ])
    def test_dark_pulses_exit_three_without_warning(self, scenario, override,
                                                    tmp_path, capsys):
        # every trial saturates: the run reports that before any model
        # column divides by the photon number
        bad = tmp_path / "dark.json"
        bad.write_text(json.dumps(override))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rc = main([
                "run", "--scenario", scenario, "--config", str(bad),
                "--trials", "8", "--out", str(tmp_path / "o"),
            ])
        assert rc == 3
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert err.startswith("runtime error:") and "0 of 8 trials" in err

    def test_zero_photons_exit_two(self, tmp_path, capsys):
        # a pulse of no photons measures nothing: rejected before any trial
        bad = tmp_path / "dark.json"
        bad.write_text(json.dumps({"probe": {"photons_per_measurement": 0}}))
        rc = main([
            "run", "--scenario", "fig2", "--config", str(bad),
            "--trials", "50", "--out", str(tmp_path / "o"),
        ])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert "probe/photons_per_measurement" in err
        assert not (tmp_path / "o").exists()

    def test_scenario_option_typo_exit_two(self, tmp_path, capsys):
        bad = tmp_path / "typo.json"
        bad.write_text(json.dumps(
            {"scenarios": {"fig3": {"photon_grid_typo": [1e5]}}}
        ))
        rc = main([
            "run", "--scenario", "fig3", "--config", str(bad),
            "--trials", "8", "--out", str(tmp_path / "o"),
        ])
        assert rc == 2
        assert "photon_grid_typo" in capsys.readouterr().err

    def test_fig2_preparation_unknown_key_exit_two(self, tmp_path, capsys):
        bad = tmp_path / "prep.json"
        bad.write_text(json.dumps(
            {"scenarios": {"fig2": {"preparation": {"bogus": 1}}}}
        ))
        rc = main([
            "run", "--scenario", "fig2", "--config", str(bad),
            "--trials", "8", "--out", str(tmp_path / "o"),
        ])
        assert rc == 2
        assert "bogus" in capsys.readouterr().err

    def test_too_few_trials_explained(self, tmp_path, capsys, monkeypatch):
        # drive the message path deterministically: report var_prep < 0
        real = montecarlo.variance_stats
        monkeypatch.setattr(montecarlo, "variance_stats",
                            lambda ts: replace(real(ts), var_prep=-1.0))
        rc = main([
            "run", "--scenario", "fig3", "--trials", "4",
            "--out", str(tmp_path / "o"),
        ])
        assert rc == 3
        err = capsys.readouterr().err
        assert "fig3 at p=" in err
        assert "var_prep" in err
        assert "4 trials are too few" in err

    def test_equal_probe_and_compensation_detunings_exit_two(
            self, tmp_path, capsys):
        # equal detunings cancel the differential shift d omega/dN
        bad = tmp_path / "equal.json"
        bad.write_text(json.dumps(
            {"probe": {"compensation_detuning_f2_f3_ghz": 3.57}}
        ))
        rc = main([
            "run", "--scenario", "params-report", "--config", str(bad),
            "--out", str(tmp_path / "o"),
        ])
        assert rc == 2
        err = capsys.readouterr().err
        assert "probe detuning 3.57 GHz" in err
        assert "compensation detuning 3.57 GHz" in err

    def test_zero_b1_target_exit_two(self, tmp_path, capsys):
        # a zero target would scale every Raman rate to 0; noise.raman
        # is the switch for that
        bad = tmp_path / "zero.json"
        bad.write_text(json.dumps({"scattering": {"b1_target_per_atom": 0}}))
        rc = main([
            "run", "--scenario", "params-report", "--config", str(bad),
            "--out", str(tmp_path / "o"),
        ])
        assert rc == 2
        assert "b1_target_per_atom" in capsys.readouterr().err

    @pytest.mark.parametrize("scenario", ["fig2", "fig3", "rotation", "ramsey"])
    def test_composite_pulse_mu_above_one_exit_two(self, scenario, tmp_path,
                                                   capsys):
        # each setting is in range, but mu = 0.02 + 2 is no failure fraction:
        # the engine's sqrt(mu (1 - mu)) would fail at runtime
        bad = tmp_path / "mu.json"
        bad.write_text(json.dumps({"pulses": {"lock_light_mu": 2}}))
        rc = main([
            "run", "--scenario", scenario, "--trials", "8", "--config", str(bad),
            "--out", str(tmp_path / "o"),
        ])
        assert rc == 2
        assert "composite-pulse mu" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_fig3_epsilon_at_one_half_rejected_before_trials(
            self, tmp_path, capsys, monkeypatch):
        # mu = 0.62 is a valid failure fraction, but fig3's epsilon_p =
        # p P_dF + mu must stay below 1/2 at every photon number
        def no_trials(*args):
            raise AssertionError("a trial ran")

        monkeypatch.setattr("qndspin.montecarlo.run_scan", no_trials)
        bad = tmp_path / "mu.json"
        bad.write_text(json.dumps({"pulses": {"lock_light_mu": 0.6}}))
        rc = main([
            "run", "--scenario", "fig3", "--trials", "2000", "--config", str(bad),
            "--out", str(tmp_path / "o"),
        ])
        assert rc == 3
        err = capsys.readouterr().err
        assert "epsilon_p" in err and "lock_light_mu" in err

    def test_out_of_memory_exit_three(self, tmp_path, capsys, monkeypatch):
        # a trial count too large to allocate ends in one line and exit 3;
        # a stand-in engine raises instead of allocating, because a machine
        # may overcommit memory
        def too_big(*args):
            raise MemoryError("Unable to allocate 179. GiB for an array")

        monkeypatch.setattr("qndspin.montecarlo.run_scan", too_big)
        rc = main([
            "run", "--scenario", "fig3", "--trials", "1000000000",
            "--out", str(tmp_path / "o"),
        ])
        assert rc == 3
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert err.startswith("runtime error: out of memory.")
        assert "179. GiB" in err

    def test_negative_seed_exit_two(self, tmp_path, capsys):
        rc = main([
            "run", "--scenario", "fig3", "--trials", "8", "--seed", "-1",
            "--out", str(tmp_path / "o"),
        ])
        assert rc == 2
        assert capsys.readouterr().err == "config error: --seed: must be >= 0\n"
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("constant", ["NaN", "Infinity", "-Infinity"])
    def test_non_finite_constant_exit_two(self, constant, tmp_path, capsys):
        # json accepts these, and NaN passes every numeric bound
        bad = tmp_path / "nan.json"
        bad.write_text('{"probe": {"photons_per_measurement": %s}}' % constant)
        rc = main([
            "run", "--scenario", "fig3", "--trials", "8", "--config", str(bad),
            "--out", str(tmp_path / "o"),
        ])
        assert rc == 2
        assert f"{constant} is not a number" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_master_seed_beyond_64_bits_runs(self, tmp_path):
        # a block stream is seeded through SeedSequence, which takes any
        # non-negative int
        big = tmp_path / "big.json"
        big.write_text(json.dumps({"master_seed": 2**64}))
        # 64 trials resolve fig3's preparation noise (no seed of 0-299
        # fails); at 8 about one seed in eight reads a non-positive
        # var_prep and exits 3
        rc = main([
            "run", "--scenario", "fig3", "--trials", "64", "--config", str(big),
            "--out", str(tmp_path / "o"),
        ])
        assert rc == 0

    @pytest.mark.parametrize("scenario", ["fig2", "fig3", "rotation", "ramsey"])
    def test_schema_minimum_trials_exit_three(self, scenario, tmp_path, capsys):
        # two trials leave residual_variance n - 2 = 0 degrees of freedom
        rc = main([
            "run", "--scenario", scenario, "--trials", "2",
            "--out", str(tmp_path / "o"),
        ])
        assert rc == 3
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert "got 2 of 2 trials" in err


GOLDEN = Path(__file__).parent / "data" / "golden"


@pytest.mark.parametrize("scenario", SCENARIO_NAMES)
def test_golden_manifest_reproduces(scenario, capsys):
    """Manifests recorded before the scenario registry still verify."""
    manifest = GOLDEN / f"{scenario}_manifest.json"
    rc = main(["run", "--scenario", scenario, "--verify", str(manifest)])
    assert rc == 0, capsys.readouterr().err


@pytest.mark.parametrize("scenario", SCENARIO_NAMES)
def test_manifest_hashes_the_bytes_on_disk(scenario, cfg, tmp_path):
    """Each listed hash is that of the file as written, resolved_config.json too.

    run_scenario hashes from memory and --verify compares manifests only,
    so the files themselves are read back here; a re-run at the golden's
    seed and trials writes the golden manifest byte for byte.
    """
    golden = GOLDEN / f"{scenario}_manifest.json"
    recorded = json.loads(golden.read_text())
    _, manifest = run_scenario(scenario, cfg, tmp_path,
                               n_trials=recorded["n_trials"] or None,
                               seed=recorded["seed"])
    outputs = json.loads(manifest.read_text())["outputs"]
    assert set(outputs) == {f.name for f in tmp_path.iterdir()} - {manifest.name}
    for name, digest in outputs.items():
        assert hashlib.sha256((tmp_path / name).read_bytes()).hexdigest() == digest
    assert manifest.read_bytes() == golden.read_bytes()


class TestNothingCachedLeaks:
    """What is read once per process is never handed out to be mutated."""

    def test_default_config_is_a_fresh_dict(self):
        first = default_config()
        first["probe"]["quantum_efficiency"] = 0.99
        first["n_trials"] = 3
        again = default_config()
        assert again["probe"]["quantum_efficiency"] == 0.43
        assert again["n_trials"] == 400

    def test_packaged_constants_are_the_loaded_ones(self):
        assert load_and_validate().constants is RB87

    def test_user_files_read_on_every_call(self, tmp_path):
        consts = tmp_path / "constants.json"
        path = tmp_path / "config.json"
        for trials, version in ((50, "first"), (60, "second")):
            consts.write_text(json.dumps({**PACKAGED_CONSTANTS, "version": version}))
            path.write_text(json.dumps({"n_trials": trials,
                                        "constants_file": str(consts)}))
            cfg = load_and_validate(path)
            assert (cfg.n_trials, cfg.constants.version) == (trials, version)

    def test_cli_calls_keep_their_own_arguments(self, cfg, tmp_path):
        assert main(["run", "--scenario", "ramsey", "--trials", "5", "--seed", "3",
                     "--out", str(tmp_path / "a")]) == 0
        assert main(["run", "--scenario", "ramsey",
                     "--out", str(tmp_path / "b")]) == 0
        for out, expected in (("a", (5, 3)), ("b", (cfg.n_trials, cfg.master_seed))):
            manifest = json.loads((tmp_path / out / "ramsey_manifest.json").read_text())
            assert (manifest["n_trials"], manifest["seed"]) == expected


def _loaded_after(code, modules):
    """Which of modules a fresh interpreter has imported after code."""
    probe = f"import sys; {code}; print(sorted(set({modules!r}) & set(sys.modules)))"
    src = str(Path(qndspin.__file__).parents[1])
    return subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, text=True,
        check=True, env={**os.environ, "PYTHONPATH": src},
    ).stdout.strip()


def test_deterministic_cli_loads_no_numpy(tmp_path):
    # params-report and limits are plain arithmetic: in an interpreter where
    # any numpy import raises, each runs and verifies against its golden
    golden = Path(__file__).parent / "data" / "golden"
    runs = [["run", "--scenario", name, *extra] for name in ("params-report", "limits")
            for extra in (["--out", str(tmp_path / name)],
                          ["--verify", str(golden / f"{name}_manifest.json")])]
    code = ("import sys; sys.modules['numpy'] = None; from qndspin.cli import main; "
            f"print([main(argv) for argv in {runs!r}])")
    src = str(Path(qndspin.__file__).parents[1])
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": src})
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "[0, 0, 0, 0]", proc.stderr
    assert (tmp_path / "limits" / "limits.json").is_file()


def test_cli_import_loads_no_scipy():
    # any scipy.* import loads the scipy package itself
    assert _loaded_after("import qndspin.cli", ("scipy",)) == "[]"


def test_config_load_needs_numpy_only():
    # numpy is the only runtime dependency, and building the config needs not
    # even that: validation reads the shape of the shipped defaults, not a
    # jsonschema schema
    code = "import qndspin.cli; qndspin.cli.load_and_validate()"
    assert _loaded_after(code, ("numpy", "scipy", "jsonschema")) == "[]"


def _numeric_leaves(tree, path=(), key=""):
    """(path, BOUNDS key, default) of every numeric setting in the defaults."""
    for name, default in tree.items():
        child = f"{key}/{name}" if key else name
        if child in PARTIAL:
            child = PARTIAL[child]
            default = default_config()[child]
        if isinstance(default, dict):
            yield from _numeric_leaves(default, path + (name,), child)
        elif type(default) in (int, float):
            yield path + (name,), child, default


def _leaf_values(key, default):
    """Every finite value the config accepts for one numeric setting."""
    low, high, exclusive = BOUNDS.get(key, (None, None, False))
    if type(default) is int:
        return st.integers(min_value=low, max_value=2**63 - 1)
    values = st.floats(
        min_value=low, max_value=high, exclude_min=exclusive,
        allow_nan=False, allow_infinity=False,
    )
    return st.none() | values if key in NULLABLE else values


def _nested(flat):
    tree = {}
    for path, val in flat.items():
        node = tree
        for key in path[:-1]:
            node = node.setdefault(key, {})
        node[path[-1]] = val
    return tree


NUMERIC_OVERRIDES = st.fixed_dictionaries({}, optional={
    path: _leaf_values(key, default)
    for path, key, default in _numeric_leaves(default_config())
}).map(_nested)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(overrides=NUMERIC_OVERRIDES)
@example(overrides={"probe": {"compensation_detuning_f2_f3_ghz": 3.57}})
@example(overrides={"scattering": {"b1_target_per_atom": 0}})
@example(overrides={"resonator": {"wavelength_nm": 1e200}})  # 1/0 in _build
@example(overrides={"resonator": {"mode_waist_um": 6.5e76}})  # overflow at run
def test_schema_valid_overrides_never_crash(overrides):
    """A numeric override builds a config or is a ConfigError, never a crash."""
    try:
        load_and_validate(overrides=overrides)
    except ConfigError:
        pass
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "override.json"
        path.write_text(json.dumps(overrides))
        for scenario in ("params-report", "limits"):
            rc = main([
                "run", "--scenario", scenario, "--config", str(path),
                "--out", str(Path(tmp) / scenario),
            ])
            assert rc in (0, 2, 3)
