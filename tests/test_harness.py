"""Config validation, the run/rerun machinery, CLI, and drift feedback."""

import json
import os

import numpy as np
import pytest
import yaml

import spinprobe.analysis
from spinprobe._parallel import ENV_VAR, worker_count
from spinprobe.analysis import FitError
from spinprobe.harness import ConfigError, RunError, execute, rerun, run
from spinprobe.harness.cli import main
from spinprobe.harness.config import grid_values, load_config, validate_config
from spinprobe.harness.feedback import frequency_feedback, make_drift
from spinprobe.harness.runner import LOCK_NAME, MANIFEST_NAME

TINY_CHEVRON = {
    "kind": "rabi_chevron",
    "seed": 7,
    "output_dir": "unused",
    "protocol": {
        "detuning_hz": {"start": -4e5, "stop": 4e5, "num": 5},
        "duration_s": {"start": 1e-7, "stop": 3e-6, "num": 7},
    },
}

TINY_RAMSEY = {
    "kind": "ramsey",
    "seed": 3,
    "output_dir": "unused",
    "spectrum": {"white_floor": 350.0},
    "protocol": {
        "times_s": {"start": 1e-4, "stop": 4e-3, "num": 3, "spacing": "log"},
        "n_traj": 16,
        "fit": "exponential",
    },
}


def _write_yaml(tmp_path, cfg, name="cfg.yaml"):
    p = tmp_path / name
    p.write_text(yaml.safe_dump(cfg))
    return p


class TestGridValues:
    def test_explicit_list(self):
        np.testing.assert_allclose(grid_values([1.0, 3.0, 9.0]), [1, 3, 9])

    def test_linear(self):
        np.testing.assert_allclose(grid_values({"start": 0.0, "stop": 1.0, "num": 5}),
                                   np.linspace(0, 1, 5))

    def test_log(self):
        np.testing.assert_allclose(
            grid_values({"start": 1e3, "stop": 1e5, "num": 3, "spacing": "log"}),
            [1e3, 1e4, 1e5])

    def test_log_needs_positive_endpoints(self):
        with pytest.raises(ConfigError):
            grid_values({"start": -1.0, "stop": 10.0, "num": 3, "spacing": "log"})


class TestValidateConfig:
    def test_missing_kind_named(self):
        with pytest.raises(ConfigError, match="kind"):
            validate_config({"seed": 1, "output_dir": "x"})

    def test_unknown_kind_rejected(self):
        cfg = dict(TINY_CHEVRON, kind="frequency_comb")
        with pytest.raises(ConfigError, match="kind"):
            validate_config(cfg)

    def test_bad_protocol_field_path_in_message(self):
        cfg = {**TINY_CHEVRON,
               "protocol": {**TINY_CHEVRON["protocol"], "n_traj": 100}}
        with pytest.raises(ConfigError, match="protocol"):
            validate_config(cfg)

    def test_spectrum_required_for_coherence_kinds(self):
        cfg = {k: v for k, v in TINY_RAMSEY.items() if k != "spectrum"}
        with pytest.raises(ConfigError, match="spectrum"):
            validate_config(cfg)

    def test_defaults_are_filled_in(self):
        cfg = validate_config(dict(TINY_RAMSEY))
        assert cfg["protocol"]["duration_factor"] == 2.0
        assert cfg["readout"] == {"visibility": 0.55, "floor": 0.225}
        assert cfg["qubit"]["g_factor"] == pytest.approx(1.9789)

    def test_non_mapping_rejected(self):
        with pytest.raises(ConfigError):
            validate_config(["kind", "ramsey"])

    def test_nan_white_floor_rejected(self, tmp_path):
        p = tmp_path / "nan.yaml"
        p.write_text(yaml.safe_dump({k: v for k, v in TINY_RAMSEY.items()
                                     if k != "spectrum"})
                     + "spectrum:\n  white_floor: .nan\n")
        with pytest.raises(ConfigError, match="spectrum.white_floor"):
            load_config(p)

    def test_infinite_powerlaw_amplitude_rejected(self):
        cfg = {**TINY_RAMSEY, "spectrum": {"powerlaws": [
            {"amplitude": float("inf"), "exponent": 1.0}]}}
        with pytest.raises(ConfigError, match="spectrum.powerlaws.0.amplitude"):
            validate_config(cfg)

    def test_negative_times_rejected(self):
        cfg = {**TINY_RAMSEY, "protocol": {
            **TINY_RAMSEY["protocol"],
            "times_s": {"start": -1e-4, "stop": 4e-3, "num": 3,
                        "spacing": "linear"}}}
        with pytest.raises(ConfigError, match="protocol.times_s"):
            validate_config(cfg)

    def test_one_point_time_grid_rejected(self):
        cfg = {**TINY_RAMSEY,
               "protocol": {**TINY_RAMSEY["protocol"], "times_s": [1e-4]}}
        with pytest.raises(ConfigError, match="protocol.times_s"):
            validate_config(cfg)

    def test_negative_times_exit_2(self, tmp_path):
        cfg = {**TINY_RAMSEY, "kind": "hahn", "protocol": {
            **TINY_RAMSEY["protocol"], "times_s": [-1e-4, 1e-3, 2e-3]}}
        p = _write_yaml(tmp_path, cfg)
        assert run(p, workers=1, output_dir=tmp_path / "o") == 2


class TestLoadConfig:
    def test_round_trip(self, tmp_path):
        p = _write_yaml(tmp_path, TINY_CHEVRON)
        cfg = load_config(p)
        assert cfg["kind"] == "rabi_chevron"

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError, match="not found"):
            load_config(tmp_path / "nope.yaml")

    def test_parse_error(self, tmp_path):
        p = tmp_path / "broken.yaml"
        p.write_text("kind: [unclosed\n")
        with pytest.raises(ConfigError, match="parse"):
            load_config(p)


class TestRunner:
    def test_run_writes_outputs_and_manifest(self, tmp_path, capsys):
        cfg_path = _write_yaml(tmp_path, TINY_CHEVRON)
        out = tmp_path / "out"
        assert run(cfg_path, workers=1, output_dir=out) == 0
        manifest = json.loads((out / MANIFEST_NAME).read_text())
        assert manifest["kind"] == "rabi_chevron"
        assert manifest["fit_failures"] == []
        inventory = manifest["inventory"]
        assert MANIFEST_NAME not in inventory
        for path, digest in inventory.items():
            assert (out / path).is_file()
            assert len(digest) == 64
        assert not (out / LOCK_NAME).exists()

    def test_run_invalid_config_exits_2(self, tmp_path):
        p = tmp_path / "bad.yaml"
        p.write_text("kind: ramsey\n")
        assert run(p, workers=1, output_dir=tmp_path / "o") == 2

    def test_concurrent_lock_exits_2(self, tmp_path):
        cfg_path = _write_yaml(tmp_path, TINY_CHEVRON)
        out = tmp_path / "out"
        out.mkdir()
        (out / LOCK_NAME).touch()
        assert run(cfg_path, workers=1, output_dir=out) == 2

    def test_fit_failure_exits_3_and_is_recorded(self, tmp_path, monkeypatch, capsys):
        def boom(*a, **k):
            raise FitError("synthetic failure", {"reason": "test"})

        monkeypatch.setattr(spinprobe.analysis, "fit_exponential", boom)
        cfg_path = _write_yaml(tmp_path, TINY_RAMSEY)
        out = tmp_path / "out"
        assert run(cfg_path, workers=1, output_dir=out) == 3
        manifest = json.loads((out / MANIFEST_NAME).read_text())
        assert manifest["fit_failures"]
        assert "synthetic failure" in manifest["fit_failures"][0]["message"]
        assert "synthetic failure" in capsys.readouterr().out

    def test_rerun_reproduces_bit_identically(self, tmp_path):
        cfg_path = _write_yaml(tmp_path, TINY_CHEVRON)
        out = tmp_path / "out"
        assert run(cfg_path, workers=1, output_dir=out) == 0
        assert rerun(out / MANIFEST_NAME, workers=1) == 0

    def test_rerun_detects_tampering(self, tmp_path, capsys):
        cfg_path = _write_yaml(tmp_path, TINY_CHEVRON)
        out = tmp_path / "out"
        assert run(cfg_path, workers=1, output_dir=out) == 0
        manifest = json.loads((out / MANIFEST_NAME).read_text())
        first = next(iter(manifest["inventory"]))
        manifest["inventory"][first] = "0" * 64
        (out / MANIFEST_NAME).write_text(json.dumps(manifest))
        assert rerun(out / MANIFEST_NAME, workers=1) == 1
        assert "mismatch" in capsys.readouterr().out.lower()

    def test_rerun_unreadable_manifest(self, tmp_path):
        with pytest.raises(RunError):
            rerun(tmp_path / "missing.json", workers=1)

    def test_zero_workers_argument_exits_2(self, tmp_path, capsys):
        cfg_path = _write_yaml(tmp_path, TINY_CHEVRON)
        out = tmp_path / "out"
        assert run(cfg_path, workers=0, output_dir=out) == 2
        assert "--workers" in capsys.readouterr().out
        assert not out.exists()

    @pytest.mark.parametrize("value", ["0", "-2", "two"])
    def test_bad_worker_environment_exits_2(self, tmp_path, monkeypatch,
                                            capsys, value):
        monkeypatch.setenv(ENV_VAR, value)
        cfg_path = _write_yaml(tmp_path, TINY_CHEVRON)
        assert run(cfg_path, output_dir=tmp_path / "out") == 2
        assert ENV_VAR in capsys.readouterr().out

    def test_config_workers_beat_bad_environment(self, tmp_path, monkeypatch):
        monkeypatch.setenv(ENV_VAR, "0")
        cfg_path = _write_yaml(tmp_path, dict(TINY_CHEVRON, workers=1))
        assert run(cfg_path, output_dir=tmp_path / "out") == 0
        assert os.environ[ENV_VAR] == "0"

    def test_execute_rejects_bad_count_before_writing(self, tmp_path):
        cfg = validate_config(dict(TINY_CHEVRON))
        with pytest.raises(RunError, match="--workers"):
            execute(cfg, tmp_path / "out", workers=0)
        assert not (tmp_path / "out").exists()

    def test_worker_count_does_not_change_results(self, tmp_path):
        cfg = validate_config(dict(TINY_RAMSEY))
        m1 = execute(cfg, tmp_path / "a", workers=1)
        m2 = execute(cfg, tmp_path / "b", workers=2)
        assert m1["inventory"] == m2["inventory"]


class TestWorkerCount:
    def test_explicit_argument_wins(self, monkeypatch):
        monkeypatch.setenv(ENV_VAR, "6")
        assert worker_count(3) == 3

    def test_environment_fallback(self, monkeypatch):
        monkeypatch.setenv(ENV_VAR, "4")
        assert worker_count() == 4
        monkeypatch.delenv(ENV_VAR)
        assert worker_count() == 1

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            worker_count(0)


class TestCli:
    def test_validate_ok(self, tmp_path, capsys):
        p = _write_yaml(tmp_path, TINY_CHEVRON)
        assert main(["validate", str(p)]) == 0
        assert "OK" in capsys.readouterr().out

    def test_validate_bad(self, tmp_path, capsys):
        p = tmp_path / "bad.yaml"
        p.write_text("seed: 1\n")
        assert main(["validate", str(p)]) == 2
        assert "error" in capsys.readouterr().out

    def test_list_experiments(self, capsys):
        assert main(["list-experiments"]) == 0
        out = capsys.readouterr().out
        for kind in ("ramsey", "voltage_psd", "tone_scan"):
            assert kind in out

    def test_run_zero_workers_exits_2(self, tmp_path, capsys):
        p = _write_yaml(tmp_path, dict(TINY_CHEVRON,
                                       output_dir=str(tmp_path / "out")))
        assert main(["run", str(p), "--workers", "0"]) == 2
        assert "--workers" in capsys.readouterr().out

    def test_rerun_bad_environment_exits_2(self, tmp_path, monkeypatch, capsys):
        cfg = dict(TINY_CHEVRON, output_dir=str(tmp_path / "out"))
        p = _write_yaml(tmp_path, cfg)
        assert main(["run", str(p), "--workers", "1"]) == 0
        monkeypatch.setenv(ENV_VAR, "0")
        assert main(["rerun", str(tmp_path / "out" / MANIFEST_NAME)]) == 2
        assert ENV_VAR in capsys.readouterr().out

    def test_run_and_rerun(self, tmp_path, capsys):
        cfg = dict(TINY_CHEVRON, output_dir=str(tmp_path / "out"))
        p = _write_yaml(tmp_path, cfg)
        assert main(["run", str(p), "--workers", "1"]) == 0
        assert main(["rerun", str(tmp_path / "out" / MANIFEST_NAME),
                     "--workers", "1"]) == 0


class TestFeedback:
    def test_drift_factories(self):
        t = np.array([0.0, 1.0, 2.0])
        np.testing.assert_array_equal(make_drift("none")(t), np.zeros(3))
        np.testing.assert_allclose(make_drift("linear", rate_hz_per_s=50.0)(t),
                                   [0.0, 50.0, 100.0])
        walk = make_drift("random_walk", step_hz=100.0, seed=5)
        np.testing.assert_array_equal(walk(t), walk(t))
        with pytest.raises(ValueError):
            make_drift("spiral")

    def test_static_resonance_needs_no_correction(self):
        log = frequency_feedback(make_drift("none"), 0.05, 5.0)
        assert log.stats()["max_abs_residual_hz"] == pytest.approx(0.0, abs=1e-6)
        np.testing.assert_allclose(log.corrections, 0.0, atol=1e-6)
        assert not log.flagged

    def test_linear_drift_tracked_to_one_step(self):
        # residual saturates near rate * interval once the servo catches up
        rate, dt = 2e4, 0.05
        log = frequency_feedback(make_drift("linear", rate_hz_per_s=rate), dt, 30.0)
        assert log.stats()["max_abs_residual_hz"] <= 1.05 * rate * dt
        assert not log.flagged

    def test_runaway_drift_is_flagged(self):
        log = frequency_feedback(make_drift("linear", rate_hz_per_s=5e6), 0.05, 5.0)
        assert log.flagged

    def test_shot_noise_still_tracks(self):
        rate, dt = 2e4, 0.05
        log = frequency_feedback(make_drift("linear", rate_hz_per_s=rate), dt,
                                 10.0, shots=500, seed=2)
        assert log.stats()["max_abs_residual_hz"] < 20 * rate * dt
        assert not log.flagged
