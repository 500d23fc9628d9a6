"""Config validation, the run/rerun machinery, and the CLI."""

import json
import os
import subprocess
import sys

import numpy as np
import pytest
import yaml

import spinprobe
import spinprobe.analysis
from spinprobe import _csvio, spectra, starktone
from spinprobe._parallel import ENV_VAR, worker_count
from spinprobe.analysis import FitError
from spinprobe.benchmarking import CLIFFORD_DECOMPOSITIONS
from spinprobe.harness import ConfigError, RunError, execute, rerun, run
from spinprobe.harness import runner as runner_module
from spinprobe.harness.cli import main
from spinprobe.harness.config import (gate_index, grid_values, load_config,
                                      validate_config)
from spinprobe.harness.runner import LOCK_NAME, MANIFEST_NAME, MANIFEST_TMP_NAME

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

TINY_SPECTROSCOPY = {
    "kind": "noise_spectroscopy",
    "seed": 5,
    "output_dir": "unused",
    "spectrum": {"white_floor": 350.0},
    "protocol": {"f_grid_hz": [2e3, 4e3], "pulse_counts": [2, 4], "n_traj": 8},
}

TINY_TONE = {
    "kind": "tone_scan",
    "seed": 9,
    "output_dir": "unused",
    "spectrum": {"white_floor": 350.0},
}

TINY_VOLTAGE = {
    "kind": "voltage_psd",
    "seed": 10,
    "output_dir": "unused",
    "spectrum": {"white_floor": 8e-18},
    "protocol": {"sample_rate_hz": 1e4, "duration_s": 1.0, "nperseg_s": 0.1,
                 "band_hz": [20.0, 4e3]},
}

# more Welch bins (20000) than one output row block
BLOCKED_VOLTAGE = {**TINY_VOLTAGE, "protocol": {
    "sample_rate_hz": 1e4, "duration_s": 8.0, "nperseg_s": 4.0,
    "band_hz": [1.0, 4e3]}}

TINY_IRB = {
    "kind": "interleaved_rbm",
    "seed": 11,
    "output_dir": "unused",
    "protocol": {"depths": [1, 2, 4], "n_sequences": 4, "shots": 10},
}

TINY_STARK = {"kind": "stark_map", "seed": 12, "output_dir": "unused"}

TINY_CPMG = {
    "kind": "cpmg_t2_vs_n",
    "seed": 4,
    "output_dir": "unused",
    "spectrum": {"white_floor": 350.0},
    "protocol": {"pulse_counts": [1, 2], "n_traj": 16, "n_times": 3,
                 "fit": "exponential"},
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

    @pytest.mark.parametrize("grid", [
        {"start": 0.0, "stop": 5e4, "num": 4},
        {"start": -1e3, "stop": 5e4, "num": 4, "spacing": "log"},
        [2e3, -4e3],
    ])
    def test_nonpositive_spectroscopy_frequencies_rejected(self, grid):
        with pytest.raises(ConfigError, match="protocol.f_grid_hz"):
            validate_config({**TINY_SPECTROSCOPY, "protocol": {
                **TINY_SPECTROSCOPY["protocol"], "f_grid_hz": grid}})
        spec = {"f_grid_hz": grid, "pulse_counts": [2, 4], "n_traj": 8}
        with pytest.raises(ConfigError,
                           match="protocol.spectroscopy.f_grid_hz"):
            validate_config({**TINY_VOLTAGE, "protocol": {
                **TINY_VOLTAGE["protocol"], "spectroscopy": spec}})

    def test_unknown_tone_gate_rejected(self):
        with pytest.raises(ConfigError, match="protocol.gate: 'G9'"):
            validate_config({**TINY_TONE, "protocol": {"gate": "G9"}})

    def test_tone_gate_checked_against_the_given_stark_map(self):
        stark = {"f0_ref_hz": 38.7e9, "coefficients_hz_per_v": {"G1": -3e7}}
        with pytest.raises(ConfigError, match="protocol.gate"):
            validate_config({**TINY_TONE, "stark": stark})
        cfg = validate_config({**TINY_TONE, "stark": stark,
                               "protocol": {"gate": "G1"}})
        assert cfg["protocol"]["gate"] == "G1"

    def test_unknown_stark_gate_rejected(self):
        with pytest.raises(ConfigError, match="protocol.stark_gate"):
            validate_config({**TINY_VOLTAGE, "protocol": {
                **TINY_VOLTAGE["protocol"], "stark_gate": "G3"}})

    @pytest.mark.parametrize("gate", ["X90", "Y180", "I", 0, 23])
    def test_interleaved_gate_accepted(self, gate):
        cfg = validate_config({**TINY_IRB, "protocol": {"gate": gate}})
        index = gate_index(cfg["protocol"]["gate"])
        if isinstance(gate, int):
            assert index == gate
        else:
            assert CLIFFORD_DECOMPOSITIONS[index] == (gate,)

    @pytest.mark.parametrize("gate", ["Z5", "X90 X90", 24, -1])
    def test_interleaved_gate_rejected(self, gate):
        with pytest.raises(ConfigError, match="protocol.gate"):
            validate_config({**TINY_IRB, "protocol": {"gate": gate}})

    @pytest.mark.parametrize("change", [
        {"f_tone_hz": 5e5},
        {"f_tone_hz": 21100.0},  # 20 kHz is the nearest column, 5.2% away
        # the 20 kHz column is dropped: 1e-5 s holds under half a 25 us wait
        {"f_columns_hz": [20e3, 80e3, 100e3], "total_time_s": 1e-5},
    ])
    def test_tone_off_every_kept_column_rejected(self, change):
        with pytest.raises(ConfigError, match="protocol.f_tone_hz"):
            validate_config({**TINY_TONE, "protocol": change})

    def test_tone_scan_needs_two_kept_columns(self):
        # only the 20 kHz wait (25 us) fits half an interval into 15 us
        with pytest.raises(ConfigError, match="protocol.f_columns_hz"):
            validate_config({**TINY_TONE, "protocol": {
                "f_columns_hz": [20e3, 1e3], "total_time_s": 1.5e-5}})

    def test_tone_column_rule_matches_detection(self):
        cfg = validate_config({**TINY_TONE, "protocol": {"f_tone_hz": 21000.0}})
        assert cfg["protocol"]["f_tone_hz"] == 21000.0
        result = starktone.ToneScanResult(
            f_hz=[16e3, 20e3], amplitudes_vpp=[1e-4], p_up=[[0.5, 0.5]],
            std_err=[[0.01, 0.01]], shots=10)
        assert starktone.detect_tone_threshold(result, 21000.0)[
            "tone_column_hz"] == 20e3
        with pytest.raises(ValueError, match="no scan column"):
            starktone.detect_tone_threshold(result, 21100.0)

    @pytest.mark.parametrize("change, field", [
        ({"v_g1_v": [0.0]}, "protocol.v_g1_v"),
        ({"v_g1_v": [0.01, 0.01, 0.01]}, "protocol.v_g1_v"),
        ({"v_g2_v": {"start": 0.01, "stop": 0.01, "num": 4}}, "protocol.v_g2_v"),
    ])
    def test_stark_grid_without_spread_rejected(self, change, field):
        with pytest.raises(ConfigError, match=f"{field}: needs at least 2 distinct"):
            validate_config({**TINY_STARK, "protocol": change})

    @pytest.mark.parametrize("gates", [{"G1": -3e7}, {"G1": -3e7, "G3": 1e7},
                                       {"G1": -3e7, "G2": -2e7, "G3": 1e7}])
    def test_stark_map_needs_exactly_g1_and_g2(self, gates):
        stark = {"f0_ref_hz": 38.7e9, "coefficients_hz_per_v": gates}
        with pytest.raises(ConfigError, match="stark.coefficients_hz_per_v"):
            validate_config({**TINY_STARK, "stark": stark})

    @pytest.mark.parametrize("change, field", [
        ({"band_hz": [300.0, 300.0]}, "protocol.band_hz"),
        ({"band_hz": [400.0, 300.0]}, "protocol.band_hz"),
        ({"band_hz": [5.0, 4e3]}, "protocol.band_hz"),    # below 1/nperseg_s
        ({"band_hz": [20.0, 5001.0]}, "protocol.band_hz"),  # above Nyquist
        ({"sample_rate_hz": 1000.0}, "protocol.band_hz"),
        ({"nperseg_s": 1e-4}, "protocol.nperseg_s"),
        ({"duration_s": 1e-3}, "protocol.duration_s"),
    ])
    def test_welch_band_outside_range_rejected(self, change, field):
        with pytest.raises(ConfigError, match=field):
            validate_config({**TINY_VOLTAGE, "protocol": {
                **TINY_VOLTAGE["protocol"], **change}})

    def test_default_band_rejected_at_low_sample_rate(self):
        with pytest.raises(ConfigError, match="protocol.band_hz"):
            validate_config({**TINY_VOLTAGE,
                             "protocol": {"sample_rate_hz": 1000}})

    @pytest.mark.parametrize("nperseg_s, duration_s", [(0.1, 1.0), (0.0999, 1.0),
                                                       (3.0, 1.0)])
    def test_welch_band_edges_match_the_estimate(self, nperseg_s, duration_s):
        proto = {**TINY_VOLTAGE["protocol"], "nperseg_s": nperseg_s,
                 "duration_s": duration_s}
        rate = proto["sample_rate_hz"]
        trace = spectra.synthesize(spectra.SpectrumModel(white_floor=1e-12),
                                   rate, duration_s, 0, unit="V")
        est = spectra.psd_welch(trace,
                                nperseg=int(round(nperseg_s * rate)))
        lo, hi = float(est.f[0]), float(est.f[-1])
        validate_config({**TINY_VOLTAGE,
                         "protocol": {**proto, "band_hz": [lo, hi]}})
        spectra.integrate_rms(est, lo, hi)
        for band in ([np.nextafter(lo, 0), hi], [lo, np.nextafter(hi, np.inf)]):
            with pytest.raises(ConfigError, match="protocol.band_hz"):
                validate_config({**TINY_VOLTAGE, "protocol": {
                    **proto, "band_hz": [float(b) for b in band]}})


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

    def test_manifest_written_whole_or_not_at_all(self, tmp_path, monkeypatch):
        cfg = validate_config(dict(TINY_CHEVRON))
        out = tmp_path / "out"
        out.mkdir()
        (out / MANIFEST_TMP_NAME).write_text("left by a killed run")
        manifest = execute(cfg, out, workers=1)
        assert MANIFEST_TMP_NAME not in manifest["inventory"]
        complete = (out / MANIFEST_NAME).read_text()
        assert json.loads(complete) == manifest
        assert not (out / MANIFEST_TMP_NAME).exists()

        def fail_midway(obj, fh, **kwargs):
            fh.write('{"kind": "rabi_ch')
            raise OSError("disk full")

        monkeypatch.setattr(runner_module.json, "dump", fail_midway)
        fresh = tmp_path / "fresh"
        for target in (out, fresh):
            with pytest.raises(OSError, match="disk full"):
                execute(cfg, target, workers=1)
            assert not (target / MANIFEST_TMP_NAME).exists()
            assert not (target / LOCK_NAME).exists()
        assert (out / MANIFEST_NAME).read_text() == complete
        assert not (fresh / MANIFEST_NAME).exists()

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

    def test_t2_vs_n_rows(self, tmp_path):
        out = tmp_path / "out"
        assert run(_write_yaml(tmp_path, TINY_CPMG), workers=1, output_dir=out) == 0
        header, *rows = (out / "t2_vs_n.csv").read_text().splitlines()
        assert header == "n_pulses,t2_s,t2_err_s,exponent,exponent_err"
        assert [r.split(",")[0] for r in rows] == ["1", "2"]
        assert all(r.endswith(",nan,nan") for r in rows)

    def test_t2_vs_n_with_every_fit_failing_is_header_only(self, tmp_path,
                                                          monkeypatch):
        def boom(*a, **k):
            raise FitError("synthetic failure", {"reason": "test"})

        monkeypatch.setattr(spinprobe.analysis, "fit_exponential", boom)
        out = tmp_path / "out"
        assert run(_write_yaml(tmp_path, TINY_CPMG), workers=1, output_dir=out) == 3
        assert (out / "t2_vs_n.csv").read_text() == \
            "n_pulses,t2_s,t2_err_s,exponent,exponent_err\n"
        assert not (out / "plot_t2_vs_n.json").exists()

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

    def test_blocked_voltage_psd_identical_at_1_and_2_workers(self, tmp_path):
        cfg = validate_config(BLOCKED_VOLTAGE)
        m1 = execute(cfg, tmp_path / "a", workers=1)
        m2 = execute(cfg, tmp_path / "b", workers=2)
        assert m1["inventory"] == m2["inventory"]
        n_bins = len((tmp_path / "a" / "psd_voltage.csv").read_text().splitlines()) - 1
        assert n_bins > _csvio.BLOCK_ROWS

    def test_welch_stage_formats_each_column_once(self, tmp_path, monkeypatch):
        """f, S_V, two V-unit CI columns and three detuning columns: the
        two CSVs and the plot share f and S_V instead of formatting 10."""
        formatted = []
        real = _csvio._format
        monkeypatch.setattr(_csvio, "_format",
                            lambda c: formatted.append(c.size) or real(c))
        execute(validate_config(BLOCKED_VOLTAGE), tmp_path / "out", workers=1)
        n_bins = len((tmp_path / "out" / "psd_voltage.csv").read_text().splitlines()) - 1
        assert sum(formatted) == 7 * n_bins


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

    @pytest.mark.parametrize("cfg, field", [
        ({**TINY_SPECTROSCOPY, "protocol": {**TINY_SPECTROSCOPY["protocol"],
                                            "f_grid_hz": [0.0, 4e3]}},
         "protocol.f_grid_hz"),
        ({**TINY_VOLTAGE, "protocol": {**TINY_VOLTAGE["protocol"], "spectroscopy": {
            "f_grid_hz": {"start": -2e3, "stop": 4e3, "num": 3},
            "pulse_counts": [2, 4], "n_traj": 8}}},
         "protocol.spectroscopy.f_grid_hz"),
        ({**TINY_TONE, "protocol": {"gate": "G9"}}, "protocol.gate"),
        ({**TINY_VOLTAGE, "protocol": {**TINY_VOLTAGE["protocol"],
                                       "stark_gate": "G9"}},
         "protocol.stark_gate"),
        ({**TINY_IRB, "protocol": {**TINY_IRB["protocol"], "gate": "Z5"}},
         "protocol.gate"),
        ({**TINY_STARK, "stark": {"f0_ref_hz": 38.7e9,
                                  "coefficients_hz_per_v": {"G1": -3e7}}},
         "stark.coefficients_hz_per_v"),
        ({**TINY_VOLTAGE, "protocol": {"sample_rate_hz": 1000}},
         "protocol.band_hz"),
        ({**TINY_CHEVRON, "protocol": {**TINY_CHEVRON["protocol"],
                                       "detuning_hz": {"start": -4e5, "stop": 4e5,
                                                       "num": 5, "spacing": "log"}}},
         "protocol.detuning_hz"),
        ({**TINY_TONE, "protocol": {"f_tone_hz": 5e5}}, "protocol.f_tone_hz"),
        ({**TINY_STARK, "protocol": {"v_g1_v": [0.0]}}, "protocol.v_g1_v"),
    ])
    def test_run_bad_config_exits_2_before_running(self, tmp_path, capsys,
                                                   cfg, field):
        out = tmp_path / "out"
        p = _write_yaml(tmp_path, dict(cfg, output_dir=str(out)))
        assert main(["run", str(p)]) == 2
        printed = capsys.readouterr()
        assert printed.out.startswith(f"error: {field}:")
        assert "Traceback" not in printed.out + printed.err
        assert not out.exists()

    def test_run_and_rerun(self, tmp_path, capsys):
        cfg = dict(TINY_CHEVRON, output_dir=str(tmp_path / "out"))
        p = _write_yaml(tmp_path, cfg)
        assert main(["run", str(p), "--workers", "1"]) == 0
        assert main(["rerun", str(tmp_path / "out" / MANIFEST_NAME),
                     "--workers", "1"]) == 0


def test_cli_import_loads_no_scipy_signal_or_stats():
    """The import graph is deterministic: a run loads neither package."""
    code = ("import sys, spinprobe.harness.cli; "
            "print(sorted(m for m in sys.modules "
            "if m.startswith(('scipy.signal', 'scipy.stats'))))")
    src = os.path.dirname(os.path.dirname(spinprobe.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [src, os.environ.get("PYTHONPATH", "")])}
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "[]"
