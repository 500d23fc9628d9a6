"""Config validation, the run/rerun machinery, and the CLI."""

import copy
import functools
import importlib
import json
import math
import multiprocessing
import operator
import os
import pkgutil
import re
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest
import yaml
from hypothesis import given, settings
from hypothesis import strategies as st

import spinprobe
import spinprobe.analysis
from spinprobe import _csvio, _parallel, qubitsim, spectra, starktone
from spinprobe._rng import derive_child_seed
from spinprobe.analysis import FitError
from spinprobe.benchmarking import CLIFFORD_DECOMPOSITIONS
from spinprobe.harness import ConfigError, RunError, execute, rerun, run
from spinprobe.harness import pipelines
from spinprobe.harness import runner as runner_module
from spinprobe.harness.cli import main
from spinprobe.harness.config import (KINDS, MAX_TRACE_SAMPLES, MAX_WORKERS,
                                      gate_index, grid_values, load_config,
                                      validate_config)
from spinprobe.harness.runner import LOCK_NAME, MANIFEST_NAME, MANIFEST_TMP_NAME
from spinprobe.qubitsim import QubitParams

CONFIG_DIR = Path(__file__).resolve().parents[1] / "configs"

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

# BLOCKED_VOLTAGE with a spectroscopy block, which voltage_psd submits
# to the run's pool before it builds the trace
OVERLAPPED_VOLTAGE = {**BLOCKED_VOLTAGE, "protocol": {
    **BLOCKED_VOLTAGE["protocol"], "qubit_floor_rad2_s": 350.0,
    "spectroscopy": {"f_grid_hz": [2e3, 3e3, 4e3], "pulse_counts": [2, 4],
                     "n_traj": 8}}}

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

# one small config per kind; voltage_psd also writes its optional files
TINY_BY_KIND = {
    "rabi_chevron": TINY_CHEVRON,
    "ramsey": TINY_RAMSEY,
    "hahn": {**TINY_RAMSEY, "kind": "hahn"},
    "cpmg_t2_vs_n": TINY_CPMG,
    "noise_spectroscopy": TINY_SPECTROSCOPY,
    "rbm": {**TINY_IRB, "kind": "rbm"},
    "interleaved_rbm": TINY_IRB,
    "stark_map": TINY_STARK,
    "tone_scan": TINY_TONE,
    "voltage_psd": {**TINY_VOLTAGE, "protocol": {
        **TINY_VOLTAGE["protocol"], "export_trace": True,
        "spectroscopy": TINY_SPECTROSCOPY["protocol"]}},
}


def _read_table(path) -> list[np.ndarray]:
    """The columns of a numeric CSV written by the run, header dropped."""
    rows = [line.split(",") for line in path.read_text().splitlines()[1:]]
    return [np.array([float(v) for v in col]) for col in zip(*rows)]


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

    @pytest.mark.parametrize("kind", ["noise_spectroscopy", "voltage_psd"])
    def test_repeated_spectroscopy_frequency_exits_2(self, tmp_path, capsys, kind):
        spec = {**TINY_SPECTROSCOPY["protocol"], "f_grid_hz": [3e3, 3e3]}
        if kind == "voltage_psd":
            cfg, field = {**TINY_VOLTAGE, "protocol": {
                **TINY_VOLTAGE["protocol"], "spectroscopy": spec}}, \
                "protocol.spectroscopy.f_grid_hz"
        else:
            cfg, field = {**TINY_SPECTROSCOPY, "protocol": spec}, "protocol.f_grid_hz"
        out = tmp_path / "o"
        assert run(_write_yaml(tmp_path, cfg), workers=1, output_dir=out) == 2
        assert f"{field}: values must be distinct, got 3000.0 more than once" \
            in capsys.readouterr().out
        assert not out.exists()

    def test_unsorted_spectroscopy_grid_runs(self, tmp_path):
        cfg = {**TINY_SPECTROSCOPY, "protocol": {
            **TINY_SPECTROSCOPY["protocol"], "f_grid_hz": [4e3, 2e3]}}
        out = tmp_path / "o"
        assert run(_write_yaml(tmp_path, cfg), workers=1, output_dir=out) == 0
        f = _read_table(out / "psd_reconstructed.csv")[0]
        assert f.tolist() == [2e3, 4e3]

    @pytest.mark.parametrize("kind", ["cpmg_t2_vs_n", "noise_spectroscopy"])
    def test_repeated_pulse_count_exits_2(self, tmp_path, capsys, kind):
        base = TINY_BY_KIND[kind]
        cfg = {**base, "protocol": {**base["protocol"], "pulse_counts": [4, 2, 4]}}
        assert run(_write_yaml(tmp_path, cfg), workers=1,
                   output_dir=tmp_path / "o") == 2
        assert "protocol.pulse_counts: repeats N = 4" in capsys.readouterr().out

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

    @pytest.mark.parametrize("spectrum, pulse_counts, message", [
        ({"powerlaws": [{"amplitude": 1.0, "exponent": 1.0},
                        {"amplitude": 1e10, "exponent": 3.0}]}, [1, 2],
         "spectrum.powerlaws.1.exponent: 3.0 with amplitude > 0 diverges"),
        ({"white_floor": 1e-6}, [1, 2],
         "protocol.pulse_counts: N = 1: chi stays below 1 up to T = 10 s"),
        ({"white_floor": 1e12}, [1, 2],
         "protocol.pulse_counts: N = 1: chi >= 1 already at T = 1e-07 s"),
        # T2 grows past 10 s only at the larger pulse count
        ({"powerlaws": [{"amplitude": 300.0, "exponent": 2.5}]}, [1, 64],
         "protocol.pulse_counts: N = 64: chi stays below 1"),
        ({"powerlaws": [{"amplitude": 1e300, "exponent": 1.0}]}, [1, 2],
         "protocol.pulse_counts: N = 1: overflow"),
    ])
    def test_cpmg_t2_search_checked(self, spectrum, pulse_counts, message):
        cfg = {**TINY_CPMG, "spectrum": spectrum,
               "protocol": {**TINY_CPMG["protocol"], "pulse_counts": pulse_counts}}
        with pytest.raises(ConfigError, match=message):
            validate_config(cfg)

    @pytest.mark.parametrize("cfg, amplitude", [(TINY_CPMG, 0.0),
                                                (TINY_RAMSEY, 1e10)])
    def test_steep_power_law_allowed_where_it_converges(self, cfg, amplitude):
        # a zero amplitude adds nothing, and Monte Carlo is band-limited
        validate_config({**cfg, "spectrum": {"white_floor": 350.0, "powerlaws": [
            {"amplitude": amplitude, "exponent": 3.0}]}})

    @pytest.mark.parametrize("change, field", [
        ({"band_hz": [300.0, 300.0]}, "protocol.band_hz"),
        ({"band_hz": [400.0, 300.0]}, "protocol.band_hz"),
        ({"band_hz": [5.0, 4e3]}, "protocol.band_hz"),    # below 1/nperseg_s
        ({"band_hz": [20.0, 5001.0]}, "protocol.band_hz"),  # above Nyquist
        ({"sample_rate_hz": 1000.0}, "protocol.band_hz"),
        ({"nperseg_s": 1e-4}, "protocol.nperseg_s"),
        ({"duration_s": 1e-3}, "protocol.duration_s"),
        ({"duration_s": 1e300, "sample_rate_hz": 1e300}, "protocol.duration_s"),
        ({"nperseg_s": 1e300, "sample_rate_hz": 1e300}, "protocol.nperseg_s"),
    ])
    def test_welch_band_outside_range_rejected(self, change, field):
        with pytest.raises(ConfigError, match=field):
            validate_config({**TINY_VOLTAGE, "protocol": {
                **TINY_VOLTAGE["protocol"], **change}})

    def test_trace_length_capped(self):
        proto = {**TINY_VOLTAGE["protocol"], "sample_rate_hz": 1e4}
        longest = {**proto, "duration_s": MAX_TRACE_SAMPLES / 1e4}
        validate_config({**TINY_VOLTAGE, "protocol": longest})
        with pytest.raises(ConfigError, match=re.escape(
                f"protocol.duration_s: duration_s*sample_rate_hz = "
                f"{MAX_TRACE_SAMPLES + 1} samples; at most {MAX_TRACE_SAMPLES}")):
            validate_config({**TINY_VOLTAGE, "protocol": {
                **proto, "duration_s": (MAX_TRACE_SAMPLES + 1) / 1e4}})

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

    @pytest.mark.parametrize("change, message", [
        ({"seed": True}, "seed: must be integer, got True"),
        ({"seed": 3.0}, "seed: must be integer, got 3.0"),
        ({"workers": 0}, "workers: must be >= 1, got 0"),
        ({"qubit": {"field_t": False}}, "qubit.field_t: must be number, got False"),
        ({"qubit": {"mass_kg": 1.0}}, "qubit.mass_kg: unknown field"),
        ({"spectrum": {"white_floor": -math.inf}},
         "spectrum.white_floor: must be finite, got -inf"),
        ({"spectrum": {"lines": [{"center_hz": 3e3}]}},
         "spectrum.lines.0.power: required"),
        ({"stark": {"f0_ref_hz": 38.7e9}}, "stark.coefficients_hz_per_v: required"),
        ({"protocol": {"fit": "linear"}},
         "protocol.fit: 'linear' is not one of exponential, stretched"),
        ({"protocol": {"times_s": []}}, "protocol.times_s: needs at least 1 entries"),
        ({"protocol": {"times_s": {"start": 1e-4, "stop": 1e-3, "num": 10 ** 7}}},
         "protocol.times_s.num: must be <= 1000000"),
    ])
    def test_field_table_errors_name_the_path(self, change, message):
        with pytest.raises(ConfigError, match=re.escape(message)):
            validate_config({**TINY_RAMSEY, **change})

    @pytest.mark.parametrize("readout", [{"visibility": 1.0, "floor": 0.5},
                                         {"floor": 0.5}])
    def test_readout_range_checked_by_the_model(self, readout):
        with pytest.raises(ConfigError, match=re.escape(
                "readout: readout range must stay inside [0, 1]")):
            validate_config({**TINY_RAMSEY, "readout": readout})

    def test_qubit_and_stark_defaults_come_from_the_library(self):
        cfg = validate_config(dict(TINY_CHEVRON))
        assert QubitParams(**cfg["qubit"]) == QubitParams()
        assert starktone.StarkMap(**cfg["stark"]) == starktone.default_stark_map()

    def test_given_grid_replaces_the_default_whole(self):
        grid = {"start": 1000.0, "stop": 5000.0, "num": 3}
        spec = validate_config({**TINY_SPECTROSCOPY, "protocol": {
            **TINY_SPECTROSCOPY["protocol"], "f_grid_hz": grid}})
        volt = validate_config({**TINY_VOLTAGE, "protocol": {
            **TINY_VOLTAGE["protocol"], "spectroscopy": {
                "f_grid_hz": grid, "pulse_counts": [2, 4], "n_traj": 8}}})
        for given in (spec["protocol"]["f_grid_hz"],
                      volt["protocol"]["spectroscopy"]["f_grid_hz"]):
            assert given == {**grid, "spacing": "linear"}
            np.testing.assert_array_equal(grid_values(given), [1e3, 3e3, 5e3])
        with pytest.raises(ConfigError, match="protocol.times_s.start: required"):
            validate_config({**TINY_RAMSEY, "kind": "hahn",
                             "protocol": {"times_s": {"num": 4}}})

    def test_spectroscopy_block_carries_its_default(self):
        cfg = validate_config({**TINY_VOLTAGE, "protocol": {
            **TINY_VOLTAGE["protocol"], "spectroscopy": {
                "f_grid_hz": [2e3], "pulse_counts": [2, 4], "n_traj": 8}}})
        assert cfg["protocol"]["spectroscopy"]["samples_per_interval"] == 32


SHIPPED = [yaml.safe_load(p.read_text()) for p in sorted(CONFIG_DIR.glob("*.yaml"))]
EXTREMES = [None, True, "x", [], {}, -1, 0, 1, 2, 2 ** 62, -1.0, 0.0, 5e-324,
            1e300, -1e300, math.nan, math.inf, -math.inf]


def _paths(node, path=()):
    """The path of every node below ``node``, itself included."""
    yield path
    if isinstance(node, (dict, list)):
        keys = node if isinstance(node, dict) else range(len(node))
        for key in keys:
            yield from _paths(node[key], path + (key,))


@st.composite
def mutated_configs(draw):
    """A shipped config with one to three fields dropped, set to an extreme
    or a value of the wrong type, or swapped for another kind's section."""
    cfg = copy.deepcopy(draw(st.sampled_from(SHIPPED)))
    for _ in range(draw(st.integers(1, 3))):
        *head, key = draw(st.sampled_from(list(_paths(cfg))[1:]))
        parent = functools.reduce(operator.getitem, head, cfg)
        action = draw(st.sampled_from(["drop", "set", "swap"]))
        if action == "drop":
            del parent[key]
        elif action == "set":
            parent[key] = draw(st.sampled_from(EXTREMES))
        else:
            donor = draw(st.sampled_from(SHIPPED))
            section = draw(st.sampled_from(sorted(donor)))
            cfg[section] = copy.deepcopy(donor[section])
    return cfg


@settings(max_examples=300, deadline=None)
@given(raw=mutated_configs())
def test_mutated_shipped_configs_fail_only_with_config_error(raw):
    try:
        cfg = validate_config(raw)
    except ConfigError:
        return
    again = validate_config(cfg)
    assert json.dumps(again, sort_keys=True) == json.dumps(cfg, sort_keys=True)


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
            # the failed run overwrote the files the old manifest listed
            assert not (target / MANIFEST_NAME).exists()

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

    def test_lock_names_its_holder(self, tmp_path, capsys):
        cfg_path = _write_yaml(tmp_path, TINY_CHEVRON)
        out = tmp_path / "out"
        out.mkdir()
        gone = subprocess.run([sys.executable, "-c", "import os; print(os.getpid())"],
                              check=True, capture_output=True, text=True)
        for text, says in ((f"pid={os.getpid()}\n", f"pid {os.getpid()};"),
                           (f"pid={gone.stdout.strip()}\n",
                            f"pid {gone.stdout.strip()}, no longer running;"),
                           ("pid=-1\n", "holder unknown;"), ("", "holder unknown;")):
            (out / LOCK_NAME).write_text(text)
            assert run(cfg_path, workers=1, output_dir=out) == 2
            assert says in capsys.readouterr().out
        assert (out / LOCK_NAME).read_text() == ""  # a held lock is left alone

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

    def test_t2_search_builds_one_table_per_pulse_count(self, tmp_path,
                                                        monkeypatch):
        built, chi_ff_calls = [], []

        class Counted(qubitsim.CpmgChi):
            def __init__(self, model, n_pulses):
                built.append(n_pulses)
                super().__init__(model, n_pulses)

        monkeypatch.setattr(qubitsim, "CpmgChi", Counted)
        monkeypatch.setattr(qubitsim, "chi_ff",
                            lambda *a, **k: chi_ff_calls.append(a))
        cfg = {**TINY_CPMG, "spectrum": {
            "powerlaws": [{"amplitude": 3e7, "exponent": 1.0}],
            "white_floor": 350.0,
            "lines": [{"center_hz": 3600.0, "power": 1.5e6, "width_hz": 150.0}]},
            "protocol": {**TINY_CPMG["protocol"], "pulse_counts": [1, 4, 64]}}
        qubitsim.cpmg_chi.cache_clear()
        try:
            cfg = validate_config(cfg)
            assert built == [1, 4, 64]
            (tmp_path / "out").mkdir()
            pipelines.run_cpmg_t2_vs_n(cfg, tmp_path / "out")
            assert built == [1, 4, 64]  # the pipeline reuses validation's
            qubitsim.cpmg_chi.cache_clear()
            pipelines.run_cpmg_t2_vs_n(cfg, tmp_path / "out")
            assert built == [1, 4, 64] * 2
        finally:
            qubitsim.cpmg_chi.cache_clear()
        assert chi_ff_calls == []

    def test_rerun_reproduces_bit_identically(self, tmp_path):
        cfg_path = _write_yaml(tmp_path, TINY_CHEVRON)
        out = tmp_path / "out"
        assert run(cfg_path, workers=1, output_dir=out) == 0
        assert rerun(out / MANIFEST_NAME, workers=1) == 0

    @pytest.mark.parametrize("kind", KINDS)
    def test_inventory_is_the_files_on_disk(self, tmp_path, kind):
        out = tmp_path / "out"
        manifest = execute(validate_config(copy.deepcopy(TINY_BY_KIND[kind])),
                           out, workers=1)
        on_disk = {p.relative_to(out).as_posix() for p in out.rglob("*")
                   if p.is_file()} - {MANIFEST_NAME}
        assert set(manifest["inventory"]) == on_disk
        assert list(manifest["inventory"]) == sorted(on_disk)

    def test_reused_directory_inventories_this_run_only(self, tmp_path, capsys):
        out = tmp_path / "out"
        assert run(_write_yaml(tmp_path, TINY_CHEVRON), workers=1,
                   output_dir=out) == 0
        assert run(_write_yaml(tmp_path, TINY_BY_KIND["hahn"], "hahn.yaml"),
                   workers=1, output_dir=out) == 0
        manifest = json.loads((out / MANIFEST_NAME).read_text())
        assert list(manifest["inventory"]) == ["decay.csv", "fit.json",
                                               "plot_decay.json"]
        assert f"wrote 3 files to {out}" in capsys.readouterr().out
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

    def test_config_workers_beat_bad_environment(self, tmp_path, monkeypatch):
        monkeypatch.setenv("SPINPROBE_WORKERS", "0")
        cfg_path = _write_yaml(tmp_path, dict(TINY_CHEVRON, workers=1))
        assert run(cfg_path, output_dir=tmp_path / "out") == 0
        assert os.environ["SPINPROBE_WORKERS"] == "0"

    def test_worker_environment_is_ignored(self, tmp_path, monkeypatch):
        # the count comes from --workers or workers: alone, never the environment
        monkeypatch.setenv("SPINPROBE_WORKERS", "0")
        cfg_path = _write_yaml(tmp_path, TINY_CHEVRON)
        assert run(cfg_path, output_dir=tmp_path / "out") == 0

    @pytest.mark.parametrize("where", ["config", "--workers"])
    def test_worker_count_above_max_exits_2(self, tmp_path, monkeypatch,
                                            capsys, where):
        def no_pool(*args, **kwargs):
            raise AssertionError("a rejected worker count opened a process pool")

        monkeypatch.setattr(_parallel, "ProcessPoolExecutor", no_pool)
        out = tmp_path / "out"
        cfg = dict(TINY_CHEVRON, output_dir=str(out))
        argv = ["--workers", str(MAX_WORKERS + 1)]
        if where == "config":
            cfg["workers"], argv = MAX_WORKERS + 1, []
        p = _write_yaml(tmp_path, cfg)
        assert main(["run", str(p), *argv]) == 2
        field = "workers" if where == "config" else "--workers"
        assert capsys.readouterr().out.startswith(f"error: {field}")
        assert not out.exists()

    def test_execute_rejects_bad_count_before_writing(self, tmp_path):
        cfg = validate_config(dict(TINY_CHEVRON))
        with pytest.raises(RunError, match="--workers"):
            execute(cfg, tmp_path / "out", workers=0)
        assert not (tmp_path / "out").exists()

    def test_spectroscopy_fit_on_t2_bound_is_flagged(self, tmp_path):
        # at 50 kHz the qubit has dephased before the first point, so the
        # fit ends on its lower T2 bound with zero error
        cfg_path = _write_yaml(tmp_path, {
            "kind": "noise_spectroscopy", "seed": 1, "output_dir": "unused",
            "spectrum": {"white_floor": 1.0e12},
            "protocol": {"f_grid_hz": {"start": 1300, "stop": 50000, "num": 3,
                                       "spacing": "log"},
                         "pulse_counts": [2, 4], "n_traj": 20}})
        out = tmp_path / "out"
        assert run(cfg_path, workers=1, output_dir=out) == 0
        points = json.loads((out / "points.json").read_text())
        assert [p["flags"] for p in points] == [[], [], ["fit_on_bound"]]
        assert points[-1]["t2s_err"] == 0.0
        summary = json.loads((out / MANIFEST_NAME).read_text())["summary"]
        assert summary["warnings"] == ["1 of 3 points flagged fit on bound "
                                       "(T2 at a search limit or with zero error)"]

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
        """f, S_V and S_dw: the two CSVs and the plot share f and S_V, so
        3 columns are formatted instead of 6."""
        formatted = []
        real = _csvio._format
        monkeypatch.setattr(_csvio, "_format",
                            lambda c: formatted.append(c.size) or real(c))
        execute(validate_config(BLOCKED_VOLTAGE), tmp_path / "out", workers=1)
        n_bins = len((tmp_path / "out" / "psd_voltage.csv").read_text().splitlines()) - 1
        assert sum(formatted) == 3 * n_bins

    def test_welch_files_hold_f_and_s(self, tmp_path):
        execute(validate_config(TINY_VOLTAGE), tmp_path / "out", workers=1)
        heads = {name: (tmp_path / "out" / name).read_text().split("\n", 1)[0]
                 for name in ("psd_voltage.csv", "psd_detuning.csv")}
        assert heads == {"psd_voltage.csv": "f_hz,S_v2_per_hz",
                         "psd_detuning.csv": "f_hz,S_rad2_per_s"}

    def test_welch_bounds_are_s_times_the_summary_factors(self, tmp_path):
        cfg = validate_config(TINY_VOLTAGE)
        out = tmp_path / "out"
        summary = execute(cfg, out, workers=1)["summary"]
        assert json.loads((out / "voltage_summary.json").read_text()) == summary
        proto = cfg["protocol"]
        trace = spectra.synthesize(
            spectra.SpectrumModel.from_dict(cfg["spectrum"]),
            proto["sample_rate_hz"], proto["duration_s"],
            derive_child_seed(cfg["seed"], 0), unit="V")
        est_v = spectra.psd_welch(trace, nperseg=int(round(
            proto["nperseg_s"] * proto["sample_rate_hz"])))
        est_dw = spectra.voltage_to_detuning_psd(
            est_v, summary["stark_coefficient_hz_per_v"])
        assert summary["welch_segments"] == 19
        low, high = summary["welch_ci_factors"]
        # psd_welch's bounds are S*c bit for bit.  The detuning bounds were
        # (S*c)*g; the file gives (S*g)*c.  Each lies within 1.5 ulp of
        # S*g*c, so the two part by at most 2 ulp, and do at 2 here.
        for name, est, ulps in (("psd_voltage.csv", est_v, 0),
                                ("psd_detuning.csv", est_dw, 2)):
            f, s = _read_table(out / name)
            assert np.array_equal(f, est.f)
            assert np.array_equal(s, est.s)
            for factor, bound in ((low, est.ci_low), (high, est.ci_high)):
                np.testing.assert_array_max_ulp(s * factor, bound, maxulp=ulps)


def _pid(_job) -> int:
    return os.getpid()


def _inner_map_pids(_job) -> list[int]:
    """The pid of the process running this job, then those its own map
    ran its jobs in."""
    return [os.getpid()] + _parallel.submit(_pid, range(3))()


_DECAY_POINT = qubitsim._decay_point
_MARK_DIR = "SPINPROBE_TEST_MARK_DIR"


def _marked_decay_point(args):
    """A decay point that leaves a file named after its seed, slowly."""
    (Path(os.environ[_MARK_DIR]) / str(args[4])).touch()
    time.sleep(0.1)
    return _DECAY_POINT(args)


class TestRunPool:
    def test_overlapped_voltage_psd_identical_at_1_and_2_workers(self, tmp_path):
        cfg = validate_config(OVERLAPPED_VOLTAGE)
        m1 = execute(cfg, tmp_path / "a", workers=1)
        m2 = execute(cfg, tmp_path / "b", workers=2)
        assert not multiprocessing.active_children()
        assert m1["inventory"] == m2["inventory"]
        assert "psd_reconstructed.csv" in m1["inventory"]
        n_bins = len((tmp_path / "a" / "psd_voltage.csv").read_text().splitlines()) - 1
        assert n_bins > _csvio.BLOCK_ROWS
        stages = [[(s["name"], s["seed"]) for s in m["stages"]] for m in (m1, m2)]
        names = ["trace", "welch", "spectroscopy"]
        assert stages[0] == stages[1] == [
            (name, derive_child_seed(cfg["seed"], i)) for i, name in enumerate(names)]

    def test_failed_run_cancels_queued_jobs_and_leaves_no_process(
            self, tmp_path, monkeypatch):
        def boom(files):
            raise OSError("disk full")

        # the pipeline calls write_files by the name it imported; the welch
        # stage's write fails while the spectroscopy jobs are still queued
        monkeypatch.setattr(pipelines, "write_files", boom)
        monkeypatch.setattr(_csvio, "write_files", boom)
        marks = tmp_path / "marks"
        marks.mkdir()
        monkeypatch.setenv(_MARK_DIR, str(marks))
        monkeypatch.setattr(qubitsim, "_decay_point", _marked_decay_point)
        cfg = validate_config({**OVERLAPPED_VOLTAGE, "protocol": {
            **OVERLAPPED_VOLTAGE["protocol"],
            "spectroscopy": {"f_grid_hz": [2e3, 3e3, 4e3],
                             "pulse_counts": [2, 4, 8, 16], "n_traj": 8}}})
        out = tmp_path / "out"
        with pytest.raises(OSError, match="disk full"):
            execute(cfg, out, workers=2)
        assert not multiprocessing.active_children()
        assert not (out / LOCK_NAME).exists()
        assert _parallel._run is None
        # of the 12 jobs, only those already handed to a worker ran
        assert len(list(marks.iterdir())) < 12

    def test_failed_run_leaves_no_earlier_manifest(self, tmp_path, monkeypatch):
        cfg = validate_config(TINY_VOLTAGE)
        out = tmp_path / "out"
        execute(cfg, out, workers=1)
        assert (out / MANIFEST_NAME).exists()

        def boom(files):
            raise OSError("disk full")

        monkeypatch.setattr(pipelines, "write_files", boom)
        with pytest.raises(OSError, match="disk full"):
            execute(cfg, out, workers=1)
        assert not (out / MANIFEST_NAME).exists()
        assert not (out / LOCK_NAME).exists()

    def test_one_worker_run_creates_no_pool(self, tmp_path, monkeypatch):
        def no_pool(*args, **kwargs):
            raise AssertionError("a one-worker run opened a process pool")

        monkeypatch.setattr(_parallel, "ProcessPoolExecutor", no_pool)
        execute(validate_config(OVERLAPPED_VOLTAGE), tmp_path / "out", workers=1)

    def test_submit_outside_a_run_maps_inline(self, monkeypatch):
        def no_pool(*args, **kwargs):
            raise AssertionError("a map outside a run opened a process pool")

        # outside a run no pool exists, whatever the environment asks for
        monkeypatch.setattr(_parallel, "ProcessPoolExecutor", no_pool)
        monkeypatch.setenv("SPINPROBE_WORKERS", "2")
        assert _parallel.submit(abs, [-3, 1, -2, 5])() == [3, 1, 2, 5]

    def test_run_leaves_the_environment_alone(self, tmp_path, monkeypatch):
        seen = []
        real = pipelines.PIPELINES["ramsey"]

        def recording(cfg, out):
            seen.append(dict(os.environ))
            return real(cfg, out)

        monkeypatch.setitem(pipelines.PIPELINES, "ramsey", recording)
        before = dict(os.environ)
        execute(validate_config(dict(TINY_RAMSEY)), tmp_path / "out", workers=2)
        assert seen == [before]
        assert dict(os.environ) == before

    def test_map_inside_a_worker_runs_inline(self):
        # a job's own map stays in the worker that runs the job
        with _parallel.run_pool(2):
            inner = _parallel.submit(_inner_map_pids, range(4))()
        assert not multiprocessing.active_children()
        for pids in inner:
            assert pids[0] != os.getpid()
            assert set(pids) == {pids[0]}

    def test_submit_collects_in_order(self):
        with _parallel.run_pool(2):
            pending = _parallel.submit(abs, [-3, 1, -2, 5])
            assert _parallel.submit(abs, [-7, 8])() == [7, 8]
            assert pending() == [3, 1, 2, 5]
        assert _parallel.submit(abs, [-1, -2])() == [1, 2]


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

    def test_validate_rejects_an_overlong_trace(self, tmp_path, capsys):
        # 4.5e6 s at 120 kHz: 5.4e11 samples, terabytes of synthesis
        p = _write_yaml(tmp_path, {**TINY_VOLTAGE, "protocol": {
            "sample_rate_hz": 120e3, "duration_s": 4.5e6}})
        assert main(["validate", str(p)]) == 2
        assert "protocol.duration_s" in capsys.readouterr().out

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
        ({**TINY_CPMG, "spectrum": {"powerlaws": [{"amplitude": 1e10,
                                                   "exponent": 3.0}]}},
         "spectrum.powerlaws.0.exponent"),
        ({**TINY_CPMG, "spectrum": {"white_floor": 1e-6}}, "protocol.pulse_counts"),
        # bounds the library enforces once the run has started
        ({**TINY_RAMSEY, "protocol": {**TINY_RAMSEY["protocol"], "n_traj": 1}},
         "protocol.n_traj"),
        ({**TINY_RAMSEY, "kind": "hahn",
          "protocol": {**TINY_RAMSEY["protocol"], "n_traj": 1}}, "protocol.n_traj"),
        ({**TINY_CPMG, "protocol": {**TINY_CPMG["protocol"], "n_traj": 1}},
         "protocol.n_traj"),
        ({**TINY_SPECTROSCOPY, "protocol": {**TINY_SPECTROSCOPY["protocol"],
                                            "n_traj": 1}}, "protocol.n_traj"),
        ({**TINY_VOLTAGE, "protocol": {**TINY_VOLTAGE["protocol"], "spectroscopy": {
            "f_grid_hz": [2e3, 4e3], "pulse_counts": [2, 4], "n_traj": 1}}},
         "protocol.spectroscopy.n_traj"),
        ({**TINY_RAMSEY, "protocol": {**TINY_RAMSEY["protocol"],
                                      "duration_factor": 0.5}},
         "protocol.duration_factor"),
        ({**TINY_SPECTROSCOPY, "protocol": {**TINY_SPECTROSCOPY["protocol"],
                                            "duration_factor": 0.5}},
         "protocol.duration_factor"),
        ({**TINY_IRB, "kind": "rbm",
          "protocol": {**TINY_IRB["protocol"], "n_sequences": 1}},
         "protocol.n_sequences"),
        ({**TINY_RAMSEY, "readout": {"visibility": 1.0, "floor": 0.5}}, "readout"),
        ({**TINY_TONE, "readout": {"visibility": 1.0, "floor": 0.5}}, "readout"),
        # more pulses than MAX_PULSES: a CPMG table of 640*N points, and a
        # tone-scan column's pulse train of 6e296 pulses
        ({**TINY_CPMG, "protocol": {**TINY_CPMG["protocol"],
                                    "pulse_counts": [1, 4000]}},
         "protocol.pulse_counts.1"),
        ({**TINY_TONE, "protocol": {"f_columns_hz": [1.0e300, 20e3, 10e3]}},
         "protocol.f_columns_hz.0"),
        ({**TINY_TONE, "protocol": {"f_columns_hz": [1.0e300, 20e3, 10e3],
                                    "total_time_s": 1e10}},  # inf pulses
         "protocol.f_columns_hz.0"),
        # fits on repeated points, which made up an exponent or a fidelity
        ({**TINY_RAMSEY, "protocol": {**TINY_RAMSEY["protocol"], "fit": "stretched",
                                      "times_s": [1e-4, 1e-4, 1e-4]}},
         "protocol.times_s"),
        ({**TINY_CPMG, "protocol": {**TINY_CPMG["protocol"], "t_factor_min": 1.0,
                                    "t_factor_max": 1.0}},
         "protocol.t_factor_min"),
        ({**TINY_IRB, "kind": "rbm",
          "protocol": {**TINY_IRB["protocol"], "depths": [8, 8, 8, 8]}},
         "protocol.depths"),
        # two points: enough for an exponential, not for a stretched fit
        ({**TINY_RAMSEY, "protocol": {**TINY_RAMSEY["protocol"], "fit": "stretched",
                                      "times_s": [1e-4, 2e-3]}},
         "protocol.times_s"),
        ({**TINY_RAMSEY, "kind": "hahn",
          "protocol": {**TINY_RAMSEY["protocol"], "fit": "stretched",
                       "times_s": [1e-4, 2e-3, 2e-3]}},
         "protocol.times_s"),
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

    @pytest.mark.parametrize("command", ["validate", "run"])
    def test_non_utf8_config_exits_2(self, tmp_path, capsys, command):
        p = tmp_path / "bad.yaml"
        p.write_bytes(b"\xff\xfe")
        assert main([command, str(p)]) == 2
        printed = capsys.readouterr()
        assert printed.out.startswith("error: ") and str(p) in printed.out
        assert "Traceback" not in printed.out + printed.err

    @pytest.mark.parametrize("content", [
        json.dumps({"config": {"kind": "nope"}, "inventory": {}}).encode(),
        json.dumps({"config": {"kind": "nope"}}).encode(),
        b"[]",
        b"\xff\xfe{}",
        json.dumps({"config": TINY_CHEVRON}).encode(),
    ], ids=["invalid-config", "invalid-config-no-inventory", "not-a-mapping",
            "not-utf8", "no-inventory"])
    def test_rerun_malformed_manifest_exits_2(self, tmp_path, capsys,
                                              monkeypatch, content):
        p = tmp_path / MANIFEST_NAME
        p.write_bytes(content)
        ran = []
        monkeypatch.setattr(runner_module, "execute",
                            lambda *args, **kwargs: ran.append(args))
        assert main(["rerun", str(p), "--workers", "1"]) == 2
        printed = capsys.readouterr()
        assert printed.out.startswith("error: ")
        assert "Traceback" not in printed.out + printed.err
        assert ran == []  # rejected before anything runs

    def test_run_and_rerun(self, tmp_path, capsys):
        cfg = dict(TINY_CHEVRON, output_dir=str(tmp_path / "out"))
        p = _write_yaml(tmp_path, cfg)
        assert main(["run", str(p), "--workers", "1"]) == 0
        assert main(["rerun", str(tmp_path / "out" / MANIFEST_NAME),
                     "--workers", "1"]) == 0


def _src_env() -> dict:
    src = os.path.dirname(os.path.dirname(spinprobe.__file__))
    return {**os.environ, "PYTHONPATH": os.pathsep.join(
        [src, os.environ.get("PYTHONPATH", "")])}


MODULES_WITH_ALL = [
    name for name in ["spinprobe"] + [
        m.name for m in pkgutil.walk_packages(spinprobe.__path__, "spinprobe.")]
    if hasattr(importlib.import_module(name), "__all__")]


@pytest.mark.parametrize("name", MODULES_WITH_ALL)
def test_every_name_in_all_exists(name):
    """``from module import *`` fails on a name ``__all__`` lists but the
    module no longer defines."""
    module = importlib.import_module(name)
    assert [n for n in module.__all__ if not hasattr(module, n)] == []


def test_cli_import_loads_no_scipy_or_jsonschema():
    """The import graph is deterministic: a run loads none of these
    packages."""
    code = ("import sys, spinprobe.harness.cli; "
            "print(sorted(m for m in sys.modules "
            "if m.startswith(('scipy', 'jsonschema'))))")
    out = subprocess.run([sys.executable, "-c", code], env=_src_env(), check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "[]"


def test_validation_loads_no_numpy_random_or_ma():
    """Importing the CLI and validating every shipped config stays off
    ``numpy.random`` (needed only by stochastic stages) and ``numpy.ma``
    (which ``np.unique`` and ``np.median`` import on first use)."""
    code = ("import sys, spinprobe.harness.cli; "
            "from spinprobe.harness.config import load_config; "
            "[load_config(p) for p in sys.argv[1:]]; "
            "print(sorted({'numpy.random', 'numpy.ma'} & set(sys.modules)))")
    configs = sorted(str(p) for p in CONFIG_DIR.glob("*.yaml"))
    assert len(configs) == 10
    out = subprocess.run([sys.executable, "-c", code, *configs], env=_src_env(),
                         check=True, capture_output=True, text=True).stdout
    assert out.strip() == "[]"


def test_runs_with_scipy_blocked(tmp_path):
    """A run needs numpy and the standard library only: with ``scipy``
    unimportable, small configs of the kinds that fit decays and RB
    curves, search T2 and estimate a Welch PSD all exit 0."""
    tiny_rbm = {**TINY_IRB, "kind": "rbm", "protocol": {
        k: v for k, v in TINY_IRB["protocol"].items() if k != "gate"}}
    tiny_voltage = {**TINY_VOLTAGE, "protocol": {
        **TINY_VOLTAGE["protocol"], "spectroscopy": {
            "f_grid_hz": [2e3, 4e3], "pulse_counts": [2, 4], "n_traj": 8}}}
    tiny_cpmg = {**TINY_CPMG, "spectrum": {
        "white_floor": 350.0,
        "lines": [{"center_hz": 3600.0, "power": 1.5e6, "width_hz": 150.0}]},
        "protocol": {**TINY_CPMG["protocol"], "fit": "stretched"}}
    code = ("import sys; sys.modules['scipy'] = None; "
            "from spinprobe.harness.cli import main; "
            "sys.exit(main(['run', sys.argv[1], '--workers', '1']))")
    for name, cfg in (("ramsey", TINY_RAMSEY), ("rbm", tiny_rbm),
                      ("cpmg_t2_vs_n", tiny_cpmg), ("voltage_psd", tiny_voltage)):
        p = _write_yaml(tmp_path, dict(cfg, output_dir=str(tmp_path / name)),
                        name=f"{name}.yaml")
        done = subprocess.run([sys.executable, "-c", code, str(p)],
                              env=_src_env(), capture_output=True, text=True)
        assert done.returncode == 0, (name, done.stdout, done.stderr)
