"""Config validation, the run/rerun machinery, and the CLI."""

import ast
import copy
import dataclasses
import functools
import importlib
import json
import math
import operator
import os
import pkgutil
import re
import subprocess
import sys
import textwrap
import time
from pathlib import Path

import numpy as np
import pytest
import yaml
from hypothesis import given, settings
from hypothesis import strategies as st

import spinprobe
import spinprobe.analysis
from spinprobe import (_csvio, _parallel, benchmarking, qubitsim, spectra,
                       starktone)
from spinprobe._rng import derive_child_seed, derive_rng
from spinprobe.analysis import FitError
from spinprobe.benchmarking import CLIFFORD_DECOMPOSITIONS
from spinprobe.harness import ConfigError, RunError, execute, rerun, run
from spinprobe.harness import pipelines
from spinprobe.harness import runner as runner_module
from spinprobe.harness.cli import main
from spinprobe.harness.config import (KINDS, MAX_CHI_POINTS, MAX_SHOTS,
                                      MAX_TRACE_SAMPLES, MAX_TRAJ,
                                      MAX_WORKERS, PROTOCOLS, TOP,
                                      grid_values, load_config,
                                      validate_config)
from spinprobe.harness.pipelines import gate_index
from spinprobe.harness.runner import LOCK_NAME, MANIFEST_NAME, MANIFEST_TMP_NAME
from spinprobe.qubitsim import QubitParams

from conftest import (_csv_cells, _plot_columns, _reject_constant,
                      _run_pool_script, _src_env, _write_yaml)

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

# 20000 Welch bins, log-binned into a few hundred rows
LONG_VOLTAGE = {**TINY_VOLTAGE, "protocol": {
    "sample_rate_hz": 1e4, "duration_s": 8.0, "nperseg_s": 4.0,
    "band_hz": [1.0, 4e3]}}

# LONG_VOLTAGE with a spectroscopy block, which voltage_psd submits
# to the run's pool before it builds the trace
OVERLAPPED_VOLTAGE = {**LONG_VOLTAGE, "protocol": {
    **LONG_VOLTAGE["protocol"], "qubit_floor_rad2_s": 350.0,
    "spectroscopy": {"f_grid_hz": [2e3, 3e3, 4e3], "pulse_counts": [2, 4],
                     "n_traj": 8}}}

# a power law steep enough that its density overflows at a long
# trace's lowest bin
STEEP_SPECTRUM = {"powerlaws": [{"amplitude": 3e13, "exponent": 2.5}],
                  "white_floor": 350.0}

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
        # an amplitude that overflowed the search stops at the magnitude rule
        ({"powerlaws": [{"amplitude": 1e300, "exponent": 1.0}]}, [1, 2],
         "spectrum.powerlaws.0.amplitude: magnitude must be <"),
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
        # 1e298 samples, and a segment length past the magnitude rule
        ({"duration_s": 1e149, "sample_rate_hz": 1e149}, "protocol.duration_s"),
        ({"nperseg_s": 1e300}, "protocol.nperseg_s"),
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
                                   rate, duration_s, 0)
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
        # one default for every spectroscopy grid: both configs' and the
        # library table's
        proto = validate_config(TINY_SPECTROSCOPY)["protocol"]
        assert proto["samples_per_interval"] == 32
        assert spinprobe.analysis.spectroscopy_table([2e3], [2]) == (
            spinprobe.analysis.spectroscopy_table([2e3], [2],
                                                  samples_per_interval=32))


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

    def test_merge_key_may_be_overridden(self, tmp_path):
        # a key given beside a << merge overrides the merged one; it is
        # not a repeated key
        p = tmp_path / "merged.yaml"
        p.write_text(yaml.safe_dump({k: v for k, v in TINY_RAMSEY.items()
                                     if k != "protocol"}) + textwrap.dedent("""\
            protocol:
              <<: {n_traj: 16, fit: exponential}
              fit: stretched
              times_s: {start: 1.0e-4, stop: 4.0e-3, num: 3, spacing: log}
            """))
        proto = load_config(p)["protocol"]
        assert (proto["n_traj"], proto["fit"]) == (16, "stretched")


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

        def fail_midway(files):
            for path in files:
                Path(path).write_text('{"kind": "rabi_ch')
            raise OSError("disk full")

        monkeypatch.setattr(runner_module, "write_files", fail_midway)
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

    def test_t2_scans_make_one_map(self, tmp_path, monkeypatch):
        maps = []
        real = _parallel.submit

        def counting(fn, jobs):
            jobs = list(jobs)
            maps.append((fn, len(jobs)))
            return real(fn, jobs)

        monkeypatch.setattr(_parallel, "submit", counting)
        cfg = validate_config({**TINY_CPMG, "protocol": {
            **TINY_CPMG["protocol"], "pulse_counts": [1, 2, 4]}})
        m = execute(cfg, tmp_path / "out", workers=1)
        assert maps == [(qubitsim._decay_point, 3 * 3)]
        # curve i is decay_vs_time at derive_child_seed(t2_scans seed, i)
        seed = m["stages"][0]["seed"]
        cols = _read_table(tmp_path / "out" / "decay_curves.csv")
        model = spectra.SpectrumModel.from_dict(cfg["spectrum"])
        proto = cfg["protocol"]
        for i, n in enumerate([1, 2, 4]):
            rows = cols[0] == n
            curve = qubitsim.decay_vs_time(
                model, n, cols[1][rows], proto["n_traj"],
                derive_child_seed(seed, i),
                duration_factor=proto["duration_factor"],
                samples_per_interval=proto["samples_per_interval"])
            assert np.array_equal(cols[2][rows], curve.w)
            assert np.array_equal(cols[3][rows], curve.std_err)

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
            pipelines.PIPELINES["cpmg_t2_vs_n"](cfg, tmp_path / "out")
            assert built == [1, 4, 64]  # the pipeline reuses validation's
            qubitsim.cpmg_chi.cache_clear()
            pipelines.PIPELINES["cpmg_t2_vs_n"](cfg, tmp_path / "out")
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
        # strict JSON: no NaN or Infinity in any file, the manifest included
        for path in out.rglob("*.json"):
            json.loads(path.read_text(), parse_constant=_reject_constant)

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
        def no_fork():
            raise AssertionError("a rejected worker count forked a worker")

        monkeypatch.setattr(os, "fork", no_fork)
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

    def _three_point_scan(self, tmp_path, white_floor):
        """Points and summary of a 3-point ``noise_spectroscopy`` run on a
        white floor, N = 2 and 4, 20 trajectories, seed 1."""
        cfg_path = _write_yaml(tmp_path, {
            "kind": "noise_spectroscopy", "seed": 1, "output_dir": "unused",
            "spectrum": {"white_floor": white_floor},
            "protocol": {"f_grid_hz": {"start": 1300, "stop": 50000, "num": 3,
                                       "spacing": "log"},
                         "pulse_counts": [2, 4], "n_traj": 20}})
        out = tmp_path / "out"
        assert run(cfg_path, workers=1, output_dir=out) == 0
        return (json.loads((out / "points.json").read_text()),
                json.loads((out / MANIFEST_NAME).read_text())["summary"])

    def test_spectroscopy_fit_on_t2_bound_is_flagged(self, tmp_path):
        # the qubit does not dephase at all: every W is exactly 1 whatever
        # the draw, so each fit ends on its upper T2 bound, and no decay
        # is resolved
        points, summary = self._three_point_scan(tmp_path, 1.0e-20)
        assert [p["flags"] for p in points] == [
            ["fit_on_bound", "decay_unresolved"]] * 3
        assert summary["warnings"] == [
            "3 of 3 points flagged fit on bound "
            "(T2 at a search limit or with zero error)",
            "3 of 3 points flagged decay unresolved "
            "(every W within 2 sigma of 0 or of 1)"]

    def test_dephased_spectroscopy_points_are_flagged(self, tmp_path, monkeypatch):
        # the qubit dephases before the first pulse count, whatever T2 its
        # fit lands on.  Every W is the same dephased value: a 20-trajectory
        # draw lands within 2 sigma of 0 at all six (f, N) points on only
        # about 0.95^6 of seeds.  It is not 0, where the fit's T2 ends on
        # its lower bound with a degenerate covariance and the run raises
        monkeypatch.setattr(qubitsim, "coherence_mc", lambda *args: qubitsim.CoherencePoint(
            w=0.01, std_err=0.05, n_traj=20))
        points, summary = self._three_point_scan(tmp_path, 1.0e12)
        assert all("decay_unresolved" in p["flags"] for p in points)
        assert ("3 of 3 points flagged decay unresolved "
                "(every W within 2 sigma of 0 or of 1)") in summary["warnings"]
        assert not any("out of range" in w for w in summary["warnings"])

    def test_worker_count_does_not_change_results(self, tmp_path):
        cfg = validate_config(dict(TINY_RAMSEY))
        m1 = execute(cfg, tmp_path / "a", workers=1)
        m2 = execute(cfg, tmp_path / "b", workers=2)
        assert m1["inventory"] == m2["inventory"]

    def test_long_voltage_psd_identical_at_1_and_2_workers(self, tmp_path):
        cfg = validate_config(LONG_VOLTAGE)
        m1 = execute(cfg, tmp_path / "a", workers=1)
        m2 = execute(cfg, tmp_path / "b", workers=2)
        assert m1["inventory"] == m2["inventory"]

    def test_welch_stage_formats_each_row_once(self, tmp_path, monkeypatch):
        """Each Welch CSV is formatted in one call, on the log-binned rows,
        which hold every Welch bin once."""
        calls = []
        real = _csvio._format_block
        monkeypatch.setattr(_csvio, "_format_block",
                            lambda cols: calls.append(cols[0].size) or real(cols))
        execute(validate_config(LONG_VOLTAGE), tmp_path / "out", workers=1)
        n_rows = [len((tmp_path / "out" / name).read_text().splitlines()) - 1
                  for name in ("psd_voltage.csv", "psd_detuning.csv")]
        assert calls == n_rows
        n_bins = _read_table(tmp_path / "out" / "psd_voltage.csv")[2]
        assert n_bins.sum() == 20000
        assert n_rows[0] < n_bins.sum() / 10

    def test_welch_files_hold_f_and_s(self, tmp_path):
        execute(validate_config(TINY_VOLTAGE), tmp_path / "out", workers=1)
        heads = {name: (tmp_path / "out" / name).read_text().split("\n", 1)[0]
                 for name in ("psd_voltage.csv", "psd_detuning.csv")}
        assert heads == {"psd_voltage.csv": "f_hz,S_v2_per_hz,n_bins",
                         "psd_detuning.csv": "f_hz,S_rad2_per_s,n_bins"}

    def test_welch_bounds_are_s_times_the_summary_factors(self, tmp_path):
        cfg = validate_config(TINY_VOLTAGE)
        out = tmp_path / "out"
        summary = execute(cfg, out, workers=1)["summary"]
        assert json.loads((out / "voltage_summary.json").read_text()) == summary
        est_v = _welch_estimate(cfg)
        assert summary["welch_segments"] == 19
        low, high = summary["welch_ci_factors"]
        # psd_welch's bounds are S*c bit for bit
        assert np.array_equal(est_v.s * low, est_v.ci_low)
        assert np.array_equal(est_v.s * high, est_v.ci_high)
        # the file holds the log-binned estimate bit for bit
        f, s, n_bins = _read_table(out / "psd_voltage.csv")
        f_b, s_b, n_b = spectra.log_bin(est_v.f, est_v.s)
        assert np.array_equal(f, f_b) and np.array_equal(s, s_b)
        assert np.array_equal(n_bins, n_b)

    def test_detuning_psd_is_the_log_binned_welch_estimate(self, tmp_path):
        cfg = validate_config(TINY_VOLTAGE)
        out = tmp_path / "out"
        summary = execute(cfg, out, workers=1)["summary"]
        f_v, s_v, n_v = _read_table(out / "psd_voltage.csv")
        f_b, s_dw, n_bins = _read_table(out / "psd_detuning.csv")
        # every row is the voltage PSD's row times the gain, bit for bit
        gain = spectra.detuning_gain(summary["stark_coefficient_hz_per_v"])
        assert np.array_equal(f_b, f_v) and np.array_equal(n_bins, n_v)
        assert np.array_equal(s_dw, s_v * gain)
        # every Welch bin lands in exactly one row, in order
        est_v = _welch_estimate(cfg)
        assert np.array_equal(n_bins, n_bins.astype(int))
        assert n_bins.min() >= 1 and n_bins.sum() == est_v.f.size
        assert np.all(np.diff(f_b) > 0)
        assert (n_bins == 1).any() and (n_bins > 1).any()
        ends = np.cumsum(n_bins.astype(int))
        starts = ends - n_bins.astype(int)
        assert np.all((est_v.f[starts] <= f_b) & (f_b <= est_v.f[ends - 1]))
        # a one-bin row is the Welch bin, bit for bit
        one = n_bins == 1
        assert np.array_equal(f_v[one], est_v.f[starts[one]])
        assert np.array_equal(s_v[one], est_v.s[starts[one]])
        # the files hold the log-binned estimate the Welch stage computes
        f_ref, s_ref, n_ref = spectra.log_bin(est_v.f, est_v.s)
        assert np.array_equal(f_b, f_ref) and np.array_equal(n_bins, n_ref)
        assert np.array_equal(s_dw, s_ref * gain)


def _welch_estimate(cfg) -> spectra.PsdEstimate:
    """The Welch estimate of a voltage_psd run's trace, rebuilt from the
    trace stage's seed."""
    proto = cfg["protocol"]
    trace = spectra.synthesize(
        spectra.SpectrumModel.from_dict(cfg["spectrum"]),
        proto["sample_rate_hz"], proto["duration_s"],
        derive_child_seed(cfg["seed"], 0))
    return spectra.psd_welch(trace, nperseg=int(round(
        proto["nperseg_s"] * proto["sample_rate_hz"])))


def _run_tiny(tmp_path, cfg) -> tuple[Path, dict]:
    """Output directory and manifest of one one-worker run of ``cfg``."""
    out = tmp_path / "out"
    manifest = execute(validate_config(cfg), out, workers=1)
    files = {p.name for p in out.iterdir()} - {MANIFEST_NAME}
    assert set(manifest["inventory"]) == files  # every file is registered
    return out, manifest


def _stage_seed(manifest, name: str) -> int:
    return next(stage["seed"] for stage in manifest["stages"]
                if stage["name"] == name)


def _tone_scan_result(manifest) -> starktone.ToneScanResult:
    """The tone scan a ``tone_scan`` run's scan stage computes."""
    cfg = manifest["config"]
    proto = cfg["protocol"]
    return starktone.tone_scan(
        spectra.SpectrumModel.from_dict(cfg["spectrum"]),
        starktone.StarkMap(**cfg["stark"]).coefficient(proto["gate"]),
        proto["f_tone_hz"], proto["phase"],
        starktone.scan_columns([1.0 / (2.0 * f) for f in proto["f_columns_hz"]],
                               proto["total_time_s"], proto["samples_per_interval"]),
        proto["amplitudes_vpp"], proto["shots"], _stage_seed(manifest, "scan"),
        readout=qubitsim.ReadoutModel(**cfg["readout"]))


class TestCsvLayout:
    """Each CSV a pipeline writes: its header, its row layout, and values
    equal to the library call it stores."""

    def test_rb_curves(self, tmp_path):
        out, manifest = _run_tiny(tmp_path, TINY_IRB)
        proto = manifest["config"]["protocol"]
        d = benchmarking.depolarizing_from_clifford_fidelity(
            proto["clifford_fidelity"])
        readout = qubitsim.ReadoutModel(**manifest["config"]["readout"])
        ref = benchmarking.rb_reference(
            proto["depths"], proto["n_sequences"], d,
            _stage_seed(manifest, "reference"), readout=readout,
            shots=proto["shots"])
        inter = benchmarking.rb_interleaved(
            gate_index(proto["gate"]), proto["depths"], proto["n_sequences"], d,
            _stage_seed(manifest, "interleaved"), readout=readout,
            shots=proto["shots"])
        for name, want in (("rb_reference.csv", (ref.depths, ref.mean_survival,
                                                  ref.std_err)),
                           ("rb_interleaved.csv", (inter.depths,
                                                   inter.mean_survival,
                                                   inter.std_err))):
            header, rows = _csv_cells(out / name)
            assert header == "M,mean_survival,std_err,n_sequences"
            depths, survival, std_err, n_seq = zip(*rows)
            # depths and the sequence count are written as integers
            assert list(depths) == [str(m) for m in proto["depths"]]
            assert set(n_seq) == {str(proto["n_sequences"])}
            for text, values in zip((depths, survival, std_err), want):
                assert [float(v) for v in text] == list(values)

    def test_tone_scan(self, tmp_path):
        out, manifest = _run_tiny(tmp_path, TINY_TONE)
        result = _tone_scan_result(manifest)
        f, amps = result.f_hz, result.amplitudes_vpp
        header, rows = _csv_cells(out / "tone_scan.csv")
        assert header == "f_hz,amplitude_vpp,p_up,std_err"
        cols = np.array(rows, dtype=float).T
        # one row per cell, amplitude-major
        assert np.array_equal(cols[0], np.tile(f, len(amps)))
        assert np.array_equal(cols[1], np.repeat(amps, len(f)))
        assert np.array_equal(cols[2], result.p_up.ravel())
        assert np.array_equal(cols[3], result.std_err.ravel())
        assert np.all(cols[3] > 0)

    def test_psd_reconstructed(self, tmp_path):
        out, manifest = _run_tiny(tmp_path, TINY_SPECTROSCOPY)
        cfg = manifest["config"]
        proto = cfg["protocol"]
        f_grid = grid_values(proto["f_grid_hz"])
        est = spinprobe.analysis.spectroscopy_scan(
            spectra.SpectrumModel.from_dict(cfg["spectrum"]), f_grid,
            spinprobe.analysis.spectroscopy_table(
                f_grid, proto["pulse_counts"],
                duration_factor=proto["duration_factor"],
                samples_per_interval=proto["samples_per_interval"]),
            proto["n_traj"], _stage_seed(manifest, "spectroscopy"),
            t2_hahn=proto["t2_hahn_s"])
        header, rows = _csv_cells(out / "psd_reconstructed.csv")
        assert header == "f_hz,S_rad2_per_s,ci_low,ci_high"
        for text, values in zip(np.array(rows, dtype=float).T,
                                (est.f, est.s, est.ci_low, est.ci_high)):
            assert np.array_equal(text, values)

    def test_voltage_trace_and_its_spectroscopy(self, tmp_path):
        out, manifest = _run_tiny(tmp_path, TINY_BY_KIND["voltage_psd"])
        cfg = manifest["config"]
        proto = cfg["protocol"]
        trace = spectra.synthesize(
            spectra.SpectrumModel.from_dict(cfg["spectrum"]),
            proto["sample_rate_hz"], proto["duration_s"],
            _stage_seed(manifest, "trace"))
        header, rows = _csv_cells(out / "voltage_trace.csv")
        assert header == "time_s,volts"
        t, v = np.array(rows, dtype=float).T
        assert np.array_equal(t, np.arange(t.size) / proto["sample_rate_hz"])
        assert np.array_equal(v, trace.samples)
        header, rows = _csv_cells(out / "psd_reconstructed.csv")
        assert header == "f_hz,S_rad2_per_s,ci_low,ci_high"
        f = [float(row[0]) for row in rows]
        assert [f[0], f[-1]] == manifest["summary"]["spectroscopy_f_range_hz"]


def _pivot(out: Path, plot: dict) -> np.ndarray:
    """A 2-D plot's z as a matrix indexed [y][x], each axis in the order
    its values first appear in the CSV; every (x, y) cell is on one row."""
    header, rows = _csv_cells(out / plot["csv"])
    names = header.split(",")
    x, y, z = (np.array([float(row[names.index(plot[key]["column"])]) for row in rows])
               for key in "xyz")
    xs, ys = list(dict.fromkeys(x.tolist())), list(dict.fromkeys(y.tolist()))
    assert len(set(zip(x.tolist(), y.tolist()))) == x.size == len(xs) * len(ys)
    grid = np.full((len(ys), len(xs)), np.nan)
    grid[[ys.index(v) for v in y.tolist()], [xs.index(v) for v in x.tolist()]] = z
    return grid


class TestPlots:
    """A plot file names columns of a CSV its run writes."""

    @pytest.mark.parametrize("kind", KINDS)
    def test_plot_names_columns_of_a_written_csv(self, tmp_path, kind):
        out, manifest = _run_tiny(tmp_path, TINY_BY_KIND[kind])
        plots = [name for name in manifest["inventory"] if name.startswith("plot_")]
        assert plots
        for name in plots:
            plot = json.loads((out / name).read_text())
            assert plot["csv"] in manifest["inventory"]
            header = _csv_cells(out / plot["csv"])[0].split(",")
            assert set(_plot_columns(plot)) <= set(header), name
            if "z" in plot:
                _pivot(out, plot)  # asserts one CSV row per (x, y) cell

    def test_2d_plots_pivot_to_y_by_x(self, tmp_path):
        """Each 2-D plot's pivot is [y][x]: the chevron's and the tone
        scan's library matrices, and the Stark map's frequencies on the
        [v_g1][v_g2] mesh, transposed."""
        def pivot(cfg, name):
            out, manifest = _run_tiny(tmp_path / cfg["kind"], cfg)
            return _pivot(out, json.loads((out / name).read_text())), manifest

        grid, manifest = pivot(TINY_CHEVRON, "plot_chevron.json")
        cfg = manifest["config"]
        assert np.array_equal(grid, qubitsim.rabi_chevron(
            QubitParams(**cfg["qubit"]),
            *(grid_values(cfg["protocol"][key])
              for key in ("detuning_hz", "duration_s"))))
        grid, manifest = pivot(TINY_TONE, "plot_tone_scan.json")
        assert np.array_equal(grid, _tone_scan_result(manifest).p_up)
        # a 5 x 3 voltage mesh, so the transpose has another shape
        grid, manifest = pivot({**TINY_STARK, "protocol": {
            "v_g2_v": {"start": -0.016, "stop": 0.016, "num": 3}}},
            "plot_stark_map.json")
        cfg = manifest["config"]
        v1, v2 = (grid_values(cfg["protocol"][key]) for key in ("v_g1_v", "v_g2_v"))
        g1, g2 = (g.ravel() for g in np.meshgrid(v1, v2, indexing="ij"))
        f = (starktone.esr_frequency(starktone.StarkMap(**cfg["stark"]),
                                     {"G1": g1, "G2": g2})
             + cfg["protocol"]["jitter_hz"] * derive_rng(
                 _stage_seed(manifest, "map_measurement")).normal(size=g1.size))
        assert grid.shape == (v2.size, v1.size)
        assert np.array_equal(grid, f.reshape(v1.size, v2.size).T)


def _assert_no_child_left() -> None:
    """This process has no child, running or not yet reaped."""
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


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
    (Path(os.environ[_MARK_DIR]) / str(args[3])).touch()
    time.sleep(0.1)
    return _DECAY_POINT(args)


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("kind", ["ramsey", "hahn", "cpmg_t2_vs_n",
                                  "noise_spectroscopy", "voltage_psd",
                                  "tone_scan"])
def test_run_submits_exactly_the_table_rows(tmp_path, monkeypatch, kind,
                                            workers):
    """A shipped Monte Carlo run submits the points of its plan's decay
    table, in order, in one map.  The tone scan's columns are the points
    its plan checked."""
    submitted = []
    real = _parallel.submit

    def recording(fn, jobs):
        jobs = list(jobs)
        if fn in (qubitsim._decay_point, starktone._tone_column):
            submitted.append([job[1] for job in jobs])
        return real(fn, jobs)

    monkeypatch.setattr(_parallel, "submit", recording)
    cfg = load_config(CONFIG_DIR / f"{kind}.yaml")
    execute(cfg, tmp_path / "out", workers=workers)
    points = [point for curve in pipelines.plan(cfg).table for point in curve]
    assert len(points) >= 12
    assert submitted == [points]


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("path", sorted(CONFIG_DIR.glob("*.yaml")),
                         ids=lambda p: p.stem)
def test_each_stage_has_the_seed_of_its_declared_index(tmp_path, path, workers):
    """A shipped run enters its stages in the order its plan declares
    them, and each stage's seed is that of its index in the layout,
    whenever the run enters it."""
    cfg = load_config(path)
    stages = pipelines.plan(cfg).stages
    manifest = execute(cfg, tmp_path / "out", workers=workers)
    names = [stage["name"] for stage in manifest["stages"]]
    assert names and names == sorted(set(names), key=stages.index)
    for stage in manifest["stages"]:
        assert stage["seed"] == derive_child_seed(cfg["seed"],
                                                  stages.index(stage["name"]))


def test_entering_an_undeclared_stage_raises(tmp_path, monkeypatch):
    # ramsey's plan, its layout less the fit stage its run still enters
    real = pipelines.PLANS["ramsey"]

    def undeclared(cfg, readout):
        run, stages, table = real(cfg, readout)
        return pipelines.Plan(run, stages[:-1], table)

    monkeypatch.setitem(pipelines.PLANS, "ramsey", undeclared)
    with pytest.raises(KeyError, match="fit"):
        execute(validate_config(TINY_RAMSEY), tmp_path / "out", workers=1)


class TestRunPool:
    def test_overlapped_voltage_psd_identical_at_1_and_2_workers(self, tmp_path):
        """Also: voltage_psd submits its scan before the trace stage opens,
        with the seed of the spectroscopy entry of its declared stage
        layout, the third; the CSV is the library scan of the
        Stark-converted model plus the qubit floor at that stage's seed,
        bit for bit."""
        cfg = validate_config(OVERLAPPED_VOLTAGE)
        m1 = execute(cfg, tmp_path / "a", workers=1)
        m2 = execute(cfg, tmp_path / "b", workers=2)
        _assert_no_child_left()
        assert m1["inventory"] == m2["inventory"]
        assert "psd_reconstructed.csv" in m1["inventory"]
        stages = [[(s["name"], s["seed"]) for s in m["stages"]] for m in (m1, m2)]
        names = ["trace", "welch", "spectroscopy"]
        assert stages[0] == stages[1] == [
            (name, derive_child_seed(cfg["seed"], i)) for i, name in enumerate(names)]
        cfg = m1["config"]
        proto = cfg["protocol"]
        spec = proto["spectroscopy"]
        model = spectra.voltage_to_detuning_model(
            spectra.SpectrumModel.from_dict(cfg["spectrum"]),
            starktone.StarkMap(**cfg["stark"]).coefficients_hz_per_v[proto["stark_gate"]])
        model = dataclasses.replace(
            model, white_floor=model.white_floor + proto["qubit_floor_rad2_s"])
        f_grid = grid_values(spec["f_grid_hz"])
        est = spinprobe.analysis.spectroscopy_scan(
            model, f_grid, spinprobe.analysis.spectroscopy_table(
                f_grid, spec["pulse_counts"],
                samples_per_interval=spec["samples_per_interval"]),
            spec["n_traj"], _stage_seed(m1, "spectroscopy"))
        header, rows = _csv_cells(tmp_path / "a" / "psd_reconstructed.csv")
        assert header == "f_hz,S_rad2_per_s,ci_low,ci_high"
        for text, values in zip(np.array(rows, dtype=float).T,
                                (est.f, est.s, est.ci_low, est.ci_high)):
            assert np.array_equal(text, values)

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
        _assert_no_child_left()
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
        def no_fork():
            raise AssertionError("a one-worker run forked a worker")

        monkeypatch.setattr(os, "fork", no_fork)
        execute(validate_config(OVERLAPPED_VOLTAGE), tmp_path / "out", workers=1)

    def test_submit_outside_a_run_maps_inline(self, monkeypatch):
        def no_fork():
            raise AssertionError("a map outside a run forked a worker")

        # outside a run nothing forks, whatever the environment asks for
        monkeypatch.setattr(os, "fork", no_fork)
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
        _assert_no_child_left()
        for pids in inner:
            assert pids[0] != os.getpid()
            assert set(pids) == {pids[0]}

    def test_submit_collects_in_order(self):
        # in a fresh interpreter with a time limit, as a map that hangs
        # would otherwise hold the suite
        _run_pool_script(textwrap.dedent("""
            with run_pool(2):
                pending = submit(abs, [-3, 1, -2, 5])
                assert submit(abs, [-7, 8])() == [7, 8]
                assert pending() == [3, 1, 2, 5]
            assert submit(abs, [-1, -2])() == [1, 2]
            assert no_child_left()
        """))


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

    @pytest.mark.parametrize("key, again", [("seed", "seed: 4"),
                                            ("n_traj", "  n_traj: 32")],
                             ids=["top", "protocol"])
    def test_validate_rejects_a_repeated_key(self, tmp_path, capsys, key, again):
        # a config that gave a key twice validated, and the run used the
        # later value; ``again`` repeats the key on the line after it, at
        # the top level or in protocol
        text = yaml.safe_dump(TINY_RAMSEY)
        p = tmp_path / "cfg.yaml"
        p.write_text(text)
        assert main(["validate", str(p)]) == 0
        lines = text.splitlines(keepends=True)
        first = next(i for i, line in enumerate(lines)
                     if line.startswith(again.split(":")[0] + ":"))
        lines.insert(first + 1, again + "\n")
        p.write_text("".join(lines))
        capsys.readouterr()
        assert main(["validate", str(p)]) == 2
        out = capsys.readouterr().out
        assert "YAML parse error" in out
        assert f"found duplicate key '{key}'\n  in \"{p}\", line {first + 2}," in out

    def test_validate_rejects_an_unhashable_key(self, tmp_path, capsys):
        p = tmp_path / "cfg.yaml"
        p.write_text("{[1]: 2}\n")
        assert main(["validate", str(p)]) == 2
        assert "found unhashable key" in capsys.readouterr().out

    @pytest.mark.parametrize("seed, code", [(2**64 - 1, 0), (2**64, 2)])
    def test_validate_bounds_the_seed_to_64_bits(self, tmp_path, capsys,
                                                 seed, code):
        # streams are seeded from 64 bits, so 2**64 + s would run seed s
        # while the manifest recorded 2**64 + s
        p = _write_yaml(tmp_path, {**TINY_STARK, "seed": seed})
        assert main(["validate", str(p)]) == code
        out = capsys.readouterr().out
        assert ("seed: must be <= 18446744073709551615" in out) == (code == 2)

    def test_validate_bounds_n_times_as_a_grid(self, tmp_path, capsys):
        # np.geomspace refused 2**62 points, which was reported as a
        # non-finite duration under protocol.t_factor_min
        p = _write_yaml(tmp_path, {**TINY_CPMG, "protocol": {
            **TINY_CPMG["protocol"], "n_times": 2 ** 62}})
        assert main(["validate", str(p)]) == 2
        assert "protocol.n_times: must be <= 1000000" in capsys.readouterr().out

    @pytest.mark.parametrize("kind, depths, n_sequences, code", [
        # validated, then died in rng.integers with a traceback and exit 1
        ("rbm", [1, 2, 2 ** 62], 2, 2),
        # depths summing to 2**18: 4 sequences make 2**20 Cliffords, and an
        # interleaved sequence twice its depth
        ("rbm", [1, 2, 4, 2 ** 18 - 7], 4, 0),
        ("rbm", [1, 2, 4, 2 ** 18 - 7], 5, 2),
        ("interleaved_rbm", [1, 2, 4, 2 ** 18 - 7], 2, 0),
        ("interleaved_rbm", [1, 2, 4, 2 ** 18 - 7], 3, 2)])
    def test_validate_bounds_the_rb_cliffords(self, tmp_path, capsys, kind,
                                              depths, n_sequences, code):
        p = _write_yaml(tmp_path, {**TINY_IRB, "kind": kind, "protocol": {
            **TINY_IRB["protocol"], "depths": depths,
            "n_sequences": n_sequences}})
        assert main(["validate", str(p)]) == code
        out = capsys.readouterr().out
        assert ("protocol.depths: a curve of" in out) == (code == 2)

    @pytest.mark.parametrize("cfg, field, bound", [
        # each validated, then died in the run with a traceback and exit 1:
        # _rng._indices refused 2**39 streams, and Generator.binomial
        # overflowed on 2**70 shots
        ({**TINY_RAMSEY, "kind": "hahn", "protocol": {
            **TINY_RAMSEY["protocol"], "n_traj": 2 ** 40}},
         "protocol.n_traj", MAX_TRAJ),
        ({**TINY_TONE, "protocol": {"shots": 2 ** 40}},
         "protocol.shots", MAX_SHOTS),
        ({**TINY_IRB, "kind": "rbm", "protocol": {
            **TINY_IRB["protocol"], "shots": 2 ** 70}},
         "protocol.shots", MAX_SHOTS)], ids=["hahn", "tone_scan", "rbm"])
    def test_validate_bounds_the_counts(self, tmp_path, capsys, cfg, field,
                                        bound):
        assert main(["validate", str(_write_yaml(tmp_path, cfg))]) == 2
        assert f"{field}: must be <= {bound}" in capsys.readouterr().out

    def test_validate_rejects_an_overlong_trace(self, tmp_path, capsys):
        # 4.5e6 s at 120 kHz: 5.4e11 samples, terabytes of synthesis
        p = _write_yaml(tmp_path, {**TINY_VOLTAGE, "protocol": {
            "sample_rate_hz": 120e3, "duration_s": 4.5e6}})
        assert main(["validate", str(p)]) == 2
        assert "protocol.duration_s" in capsys.readouterr().out

    @pytest.mark.parametrize("change, message", [
        # 1009 is prime; 1010 = 2 * 5 * 101 and 1011 = 3 * 337 are refused
        # too, 1008 = 2^4 * 3^2 * 7 and 1012 = 2^2 * 11 * 23 are not
        ({"nperseg_s": 0.1009},
         "protocol.nperseg_s: nperseg_s*sample_rate_hz = 1009 samples has a "
         "prime factor above 100, which makes its FFT several times slower; "
         "the nearest accepted lengths are 1008 and 1012"),
        # 2^25 - 1 = 7 * 31 * 151 * 1021 and 2^25 - 32 = 2^5 * 3 * 5^2 * 11
        # * 31 * 41: a Bluestein trace at the length bound
        ({"duration_s": (2 ** 25 - 1) / 1e4},
         "protocol.duration_s: duration_s*sample_rate_hz = 33554431 samples "
         "has a prime factor above 100, which makes its FFT several times "
         "slower; the nearest accepted lengths are 33554400 and 33554432"),
    ])
    def test_fft_length_with_a_large_prime_factor_exits_2(
            self, tmp_path, capsys, monkeypatch, change, message):
        def no_draw(*args, **kwargs):
            raise AssertionError("the plan let a trace be drawn")

        monkeypatch.setattr(spectra, "synthesize", no_draw)
        out = tmp_path / "out"
        p = _write_yaml(tmp_path, {**TINY_VOLTAGE, "output_dir": str(out),
                                   "protocol": {**TINY_VOLTAGE["protocol"],
                                                **change}})
        assert main(["run", str(p)]) == 2
        assert capsys.readouterr().out == f"error: {message}\n"
        assert not out.exists()

    def test_validate_line_far_above_the_filter_table(self, tmp_path, capsys):
        # a Lorentzian at 4.6e18 Hz: its lattice covers the line's own
        # span, not the frequencies from the table up to it (53.6 TiB)
        cfg = yaml.safe_load((CONFIG_DIR / "cpmg_t2_vs_n.yaml").read_text())
        cfg["spectrum"]["lines"] = [
            {"center_hz": 4.6e18, "power": 1.5e6, "width_hz": 150.0}]
        code = main(["validate", str(_write_yaml(tmp_path, cfg))])
        printed = capsys.readouterr().out
        # exit 0, or 2 naming a field; never 1, a traceback
        assert code == 0 or (code == 2 and re.match(r"error: [\w.]+:", printed))
        assert "Traceback" not in printed

    @pytest.mark.parametrize("command", ["validate", "run"])
    def test_line_far_wider_than_one_over_t2_exits_2(self, tmp_path, capsys,
                                                     command):
        # a 1e12 Hz-wide line: N = 1's search would integrate it on 6.4e10
        # lattice points at T = 0.33 ms (478 GiB)
        out = tmp_path / "out"
        cfg = yaml.safe_load((CONFIG_DIR / "cpmg_t2_vs_n.yaml").read_text())
        cfg["spectrum"]["lines"][0]["width_hz"] = 1.0e12
        cfg["output_dir"] = str(out)
        assert main([command, str(_write_yaml(tmp_path, cfg))]) == 2
        assert capsys.readouterr().out.startswith(
            "error: spectrum.lines.0.width_hz: at N = 1 the T2 search")
        assert not out.exists()

    @pytest.mark.parametrize("command", ["validate", "run"])
    def test_shortest_time_past_float_range_exits_2(self, tmp_path, capsys,
                                                    command):
        # t_factor_min * T2 is a subnormal time whose sample rate
        # overflows: the run laid its table out and died on it
        out = tmp_path / "out"
        cfg = {**TINY_CPMG, "output_dir": str(out),
               "protocol": {**TINY_CPMG["protocol"], "t_factor_min": 1.0e-320}}
        assert main([command, str(_write_yaml(tmp_path, cfg))]) == 2
        printed = capsys.readouterr()
        assert printed.out.startswith("error: protocol.t_factor_min: ")
        assert "Traceback" not in printed.out + printed.err
        assert not out.exists()

    def test_line_width_bounded_at_the_point_budget(self):
        # the shipped N = 64 search lays its most points at t_max; a width
        # just inside the budget validates, one just past it does not
        cfg = yaml.safe_load((CONFIG_DIR / "cpmg_t2_vs_n.yaml").read_text())
        model = spectra.SpectrumModel.from_dict(cfg["spectrum"])
        chi = qubitsim.cpmg_chi(model, 64)
        assert chi.points(chi.t_max) == 41489
        line = cfg["spectrum"]["lines"][0]
        for width, ok in [(6.88e6, True), (6.89e6, False)]:
            line["width_hz"] = width
            if ok:
                validate_config(cfg)
                continue
            with pytest.raises(ConfigError, match=re.escape(
                    f"spectrum.lines.0.width_hz: at N = 64 the T2 search "
                    f"integrates the lines on ")) as info:
                validate_config(cfg)
            assert str(info.value).endswith(f"at most {MAX_CHI_POINTS}")

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
        # tone-scan column's pulse train of 6e145 pulses
        ({**TINY_CPMG, "protocol": {**TINY_CPMG["protocol"],
                                    "pulse_counts": [1, 4000]}},
         "protocol.pulse_counts.1"),
        ({**TINY_TONE, "protocol": {"f_columns_hz": [1.0e149, 20e3, 10e3]}},
         "protocol.f_columns_hz.0"),
        ({**TINY_TONE, "protocol": {"f_columns_hz": [1.0e149, 20e3, 10e3],
                                    "total_time_s": 1e149}},  # 2e298 pulses
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
        # values whose squares overflowed into nan and inf outputs
        ({**TINY_CHEVRON, "protocol": {"detuning_hz": [1e300, -1e300]}},
         "protocol.detuning_hz.0"),
        ({**TINY_CHEVRON, "protocol": {"detuning_hz": [1e149],
                                       "duration_s": [1e200]}},
         "protocol.duration_s.0"),
        ({**TINY_STARK, "protocol": {"jitter_hz": 1e300}}, "protocol.jitter_hz"),
        # rabi_p_up squares the drive (nan chevron), and a Zeeman frequency
        # past the float range wrote Infinity into the manifest
        ({**TINY_CHEVRON, "qubit": {"rabi_hz": 1e200}}, "qubit.rabi_hz"),
        ({**TINY_CHEVRON, "qubit": {"rabi_hz": 1e-200}}, "qubit.rabi_hz"),
        ({**TINY_CHEVRON, "qubit": {"g_factor": 9e149, "field_t": 9e149}}, "qubit"),
        # a decay time of order 1/f whose square underflows breaks the fit
        ({**TINY_SPECTROSCOPY, "protocol": {**TINY_SPECTROSCOPY["protocol"],
                                            "f_grid_hz": [1e300, 2e300]}},
         "protocol.f_grid_hz.0"),
        ({**TINY_VOLTAGE, "protocol": {**TINY_VOLTAGE["protocol"], "spectroscopy": {
            **TINY_SPECTROSCOPY["protocol"], "f_grid_hz": [1e300, 2e300]}}},
         "protocol.spectroscopy.f_grid_hz.0"),
        # below the fidelity of the error model's largest depolarizing d,
        # where inverting it for d had no root
        ({**TINY_IRB, "kind": "rbm", "protocol": {
            **TINY_IRB["protocol"], "clifford_fidelity": 0.51}},
         "protocol.clifford_fidelity"),
        ({**TINY_IRB, "protocol": {**TINY_IRB["protocol"], "clifford_fidelity": 0.51}},
         "protocol.clifford_fidelity"),
        # Stark magnitudes whose products and squares overflowed: the
        # detuning gain, the plane fit's voltages, a tone's detuning and
        # the fit's residual rms
        ({**TINY_VOLTAGE, "stark": {"f0_ref_hz": 38.7e9, "coefficients_hz_per_v": {
            "G1": -3e7, "G2": 1e160}}}, "stark.coefficients_hz_per_v.G2"),
        ({**TINY_STARK, "protocol": {"v_g1_v": [-1e200, 1e200]}}, "protocol.v_g1_v.0"),
        ({**TINY_TONE, "protocol": {"amplitudes_vpp": [1e308]}},
         "protocol.amplitudes_vpp.0"),
        ({**TINY_STARK, "stark": {"f0_ref_hz": 1e300, "coefficients_hz_per_v": {
            "G1": 1e300, "G2": 1e300}}}, "stark.f0_ref_hz"),
        ({**TINY_STARK, "stark": {"f0_ref_hz": 1e149, "coefficients_hz_per_v": {
            "G1": 1e149, "G2": 1e149}}, "protocol": {"v_g1_v": [-1e149, 1e149]}},
         "stark"),
        # the magnitude rule on numbers that no per-field bound covered:
        # each ran, then ended in overflow
        ({**TINY_RAMSEY, "spectrum": {"white_floor": 1e200}},
         "spectrum.white_floor"),
        ({**TINY_RAMSEY, "spectrum": {"lines": [{"center_hz": 3e3, "power": 1e200}]}},
         "spectrum.lines.0.power"),
        ({**TINY_SPECTROSCOPY, "protocol": {**TINY_SPECTROSCOPY["protocol"],
                                            "t2_hahn_s": 1e200}},
         "protocol.t2_hahn_s"),
        ({**TINY_RAMSEY, "protocol": {**TINY_RAMSEY["protocol"],
                                      "times_s": [1e200, 2e200, 3e200]}},
         "protocol.times_s.0"),
        # voltages the plane fit could not resolve against one huge column
        ({**TINY_STARK, "protocol": {"v_g1_v": [-1.0e140, 1.0e140]}},
         "protocol.v_g1_v"),
        ({**TINY_STARK, "stark": {
            "f0_ref_hz": 38.7765e9, "coefficients_hz_per_v": {"G1": -3e7, "G2": -2e7},
            "reference_voltages": {"G1": 1.0e100, "G2": 0.0}}},
         "stark.reference_voltages.G1"),
        # a voltage mesh of 10^12 points, which validation ran out of
        # memory building
        ({**TINY_STARK, "protocol": {
            "v_g1_v": {"start": -0.01, "stop": 0.01, "num": 10 ** 6},
            "v_g2_v": {"start": -0.01, "stop": 0.01, "num": 10 ** 6}}},
         "protocol.v_g2_v"),
        # traces so long that a power law's omega^alpha underflows to 0 at
        # their lowest bin: an infinite density, then NaN decays
        ({**TINY_CPMG, "spectrum": STEEP_SPECTRUM,
          "protocol": {**TINY_CPMG["protocol"], "t_factor_max": 1.0e135}},
         "protocol.t_factor_max"),
        ({**TINY_RAMSEY, "spectrum": STEEP_SPECTRUM, "protocol": {
            **TINY_RAMSEY["protocol"], "times_s": [1e138, 1e139, 1e140]}},
         "protocol.times_s"),
        ({**TINY_RAMSEY, "kind": "hahn", "spectrum": STEEP_SPECTRUM, "protocol": {
            **TINY_RAMSEY["protocol"], "times_s": [1e138, 1e139, 1e140]}},
         "protocol.times_s"),
        ({**TINY_SPECTROSCOPY, "spectrum": STEEP_SPECTRUM, "protocol": {
            **TINY_SPECTROSCOPY["protocol"], "f_grid_hz": [1e-130, 1e-129]}},
         "protocol.f_grid_hz"),
        ({**TINY_TONE, "spectrum": STEEP_SPECTRUM, "protocol": {
            "total_time_s": 1e142, "f_columns_hz": [1e-140, 2e-140, 4e-140],
            "f_tone_hz": 2e-140, "shots": 4}},
         "protocol.total_time_s"),
        ({**OVERLAPPED_VOLTAGE, "spectrum": {
            "powerlaws": [{"amplitude": 1e-12, "exponent": 2.5}]},
          "protocol": {**OVERLAPPED_VOLTAGE["protocol"], "spectroscopy": {
              **OVERLAPPED_VOLTAGE["protocol"]["spectroscopy"],
              "f_grid_hz": [1e-130, 1e-129]}}},
         "protocol.spectroscopy.f_grid_hz"),
        # a wait 1/(2f) past the float range, which made an infinite sequence
        ({**TINY_SPECTROSCOPY, "protocol": {
            **TINY_SPECTROSCOPY["protocol"], "f_grid_hz": [1e-320, 4e3]}},
         "protocol.f_grid_hz"),
        # a wait whose sample rate overflows, which crashed building its
        # trace; and a samples_per_interval past float range, which
        # validation could not size a trace with
        ({**TINY_RAMSEY, "protocol": {
            **TINY_RAMSEY["protocol"], "times_s": [1e-310, 1e-3, 2e-3]}},
         "protocol.times_s"),
        ({**TINY_RAMSEY, "protocol": {
            **TINY_RAMSEY["protocol"], "samples_per_interval": 10 ** 309}},
         "protocol.samples_per_interval"),
        # sizes that passed validation, then ran out of memory: a chevron of 10^12
        # cells, and a Monte Carlo trace of 1.6e13 samples
        ({**TINY_CHEVRON, "protocol": {
            "detuning_hz": {"start": -4e5, "stop": 4e5, "num": 10 ** 6},
            "duration_s": {"start": 1e-7, "stop": 3e-6, "num": 10 ** 6}}},
         "protocol.duration_s"),
        ({**TINY_RAMSEY, "protocol": {
            **TINY_RAMSEY["protocol"], "duration_factor": 1.0e12}},
         "protocol.duration_factor"),
        # a voltage trace so long that the power law's omega^alpha
        # underflows to 0 at its lowest bin, which left non-finite samples
        ({**TINY_VOLTAGE, "spectrum": {
            "powerlaws": [{"amplitude": 1e-12, "exponent": 2.5}],
            "white_floor": 8.43e-18},
          "protocol": {"sample_rate_hz": 1e-140, "duration_s": 1e142,
                       "nperseg_s": 1e141, "band_hz": [1e-141, 4e-141]}},
         "protocol.duration_s"),
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
    def test_power_law_at_huge_probe_frequencies_runs_unwarned(
            self, tmp_path, capsys, command):
        # at 1e120-1e125 Hz, omega**2.5 overflows to inf: the power law
        # adds its limit, 0, with no overflow warning (which this suite's
        # filterwarnings turns into an error)
        cfg = {**TINY_SPECTROSCOPY, "spectrum": STEEP_SPECTRUM, "workers": 1,
               "output_dir": str(tmp_path / "out"), "protocol": {
                   **TINY_SPECTROSCOPY["protocol"], "f_grid_hz": {
                       "start": 1.0e120, "stop": 1.0e125, "num": 4,
                       "spacing": "log"}}}
        assert main([command, str(_write_yaml(tmp_path, cfg))]) == 0
        printed = capsys.readouterr()
        assert "Traceback" not in printed.out + printed.err

    def test_fit_failure_manifest_is_strict_json(self, tmp_path, capsys,
                                                 monkeypatch):
        # a failed fit whose diagnostics hold NaN and inf, as fits of
        # NaN decays did
        def boom(*a, **k):
            raise FitError("synthetic failure", {"w_range": [math.nan, math.inf]})

        monkeypatch.setattr(spinprobe.analysis, "fit_stretched", boom)
        out = tmp_path / "out"
        p = _write_yaml(tmp_path, {**TINY_CPMG, "output_dir": str(out), "protocol": {
            **TINY_CPMG["protocol"], "fit": "stretched"}})
        assert main(["run", str(p), "--workers", "1"]) == 3
        printed = capsys.readouterr()
        assert "Traceback" not in printed.out + printed.err
        manifest = json.loads((out / MANIFEST_NAME).read_text(),
                              parse_constant=_reject_constant)
        assert [None, None] in [f["diagnostics"]["w_range"]
                                for f in manifest["fit_failures"]]

    @pytest.mark.parametrize("command", ["validate", "run"])
    def test_non_utf8_config_exits_2(self, tmp_path, capsys, command):
        p = tmp_path / "bad.yaml"
        p.write_bytes(b"\xff\xfe")
        assert main([command, str(p)]) == 2
        printed = capsys.readouterr()
        assert printed.out.startswith("error: ") and str(p) in printed.out
        assert "Traceback" not in printed.out + printed.err

    @pytest.mark.parametrize("make_out", [
        lambda tmp: Path(os.devnull, "x"),  # under a device: NotADirectoryError
        lambda tmp: tmp / "taken",  # a regular file: FileExistsError
    ], ids=["under-dev-null", "regular-file"])
    def test_uncreatable_output_dir_exits_2(self, tmp_path, capsys, make_out):
        out = make_out(tmp_path)
        (tmp_path / "taken").write_text("keep\n")
        p = _write_yaml(tmp_path, dict(TINY_CHEVRON, output_dir=str(out)))
        before = sorted(tmp_path.iterdir())
        assert main(["run", str(p)]) == 2
        printed = capsys.readouterr()
        assert printed.out.startswith(f"error: cannot create output directory {out}: ")
        assert "Traceback" not in printed.out + printed.err
        assert sorted(tmp_path.iterdir()) == before
        assert (tmp_path / "taken").read_text() == "keep\n"

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


def _unbounded_integers(spec, path: str):
    """The dotted paths, at and below ``spec``, of the integer fields
    with no upper bound; ``items`` and ``values`` name an array's items
    and a map's values."""
    if "integer" in spec.types.split() and spec.le is None and spec.lt is None:
        yield path
    for name in ("items", "values"):
        if getattr(spec, name) is not None:
            yield from _unbounded_integers(getattr(spec, name), f"{path}.{name}")
    for key, field in (spec.fields or {}).items():
        yield from _unbounded_integers(field, f"{path}.{key}")


def test_every_integer_field_has_an_upper_bound():
    """An unbounded count validates and then fails in the run, with a
    traceback and the exit code of a rerun mismatch.  A plan bounds the
    named exceptions: RB's depths and sequences by MAX_RB_CLIFFORDS, and
    the interleaved gate by gate_index."""
    planned = {f"{kind}.{name}" for kind in ("rbm", "interleaved_rbm")
               for name in ("n_sequences", "depths.items")}
    planned.add("interleaved_rbm.gate")
    found = [path for kind, fields in [("", TOP), *PROTOCOLS.items()]
             for key, spec in fields.items()
             for path in _unbounded_integers(spec, f"{kind}.{key}".lstrip("."))]
    assert planned <= set(found)
    unbounded = sorted(set(found) - planned)
    assert not unbounded, "no upper bound: " + ", ".join(unbounded)


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


def _references(source: str) -> set[str]:
    """The names ``source`` refers to in code: ``Name`` ids, ``Attribute``
    attrs and the last part of each imported name.  Strings and
    docstrings do not count."""
    used = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Attribute):
            used.add(node.attr)
        elif isinstance(node, ast.alias):
            used.add(node.name.rpartition(".")[2])
    return used


def _exported_classes(tree: ast.Module) -> tuple[list[str], list[ast.ClassDef]]:
    """A module's ``__all__`` and the classes it lists."""
    exported = next((ast.literal_eval(node.value) for node in tree.body
                     if isinstance(node, ast.Assign)
                     and [getattr(t, "id", None) for t in node.targets]
                     == ["__all__"]), [])
    return exported, [node for node in tree.body
                      if isinstance(node, ast.ClassDef) and node.name in exported]


def _public_api(source: str) -> list[str]:
    """The names a module's ``__all__`` lists, and ``Class.method`` for
    every public method of a class it lists."""
    exported, classes = _exported_classes(ast.parse(source))
    methods = [f"{node.name}.{item.name}" for node in classes
               for item in node.body
               if isinstance(item, ast.FunctionDef)
               and not item.name.startswith("_")]
    return [*exported, *methods]


def _dataclass_fields(source: str) -> list[str]:
    """``Class.field`` for every field of a dataclass ``__all__`` lists."""
    _, classes = _exported_classes(ast.parse(source))
    return [f"{node.name}.{item.target.id}" for node in classes
            if any("dataclass" in ast.unparse(d) for d in node.decorator_list)
            for item in node.body
            if isinstance(item, ast.AnnAssign)
            and isinstance(item.target, ast.Name)]


def _attribute_reads(source: str) -> set[str]:
    """The attributes ``source`` reads: ``Attribute`` attrs in load
    context, so an assignment or a keyword argument does not count."""
    return {node.attr for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)}


def test_every_public_name_is_reached():
    """Every name a module of the package lists in ``__all__``, and every
    public method of a class it lists, is referenced in code by a module
    of the package (a re-export in an ``__init__`` is no caller), by the
    acceptance suite or by the benchmark.  A name that only the demos or
    the unit tests use serves no config, CLI command or acceptance check:
    delete it, or move it into its caller.  A field of a listed dataclass
    must be read as an attribute there: a field only ever set is
    write-only state."""
    package = Path(spinprobe.__file__).resolve().parent
    root = Path(__file__).resolve().parents[1]
    callers = [p.read_text() for p in package.rglob("*.py")
               if p.name != "__init__.py"]
    callers += [(root / "tests" / "test_acceptance.py").read_text(),
                *(p.read_text() for p in (root / "perfbench").rglob("*.py"))]
    used = set().union(*map(_references, callers))
    read = set().union(*map(_attribute_reads, callers))
    api, fields = {}, {}
    for path in sorted(package.rglob("*.py")):
        module = ".".join(path.relative_to(package.parent).with_suffix("").parts)
        module = module.removesuffix(".__init__")
        source = path.read_text()
        api.update((f"{module}.{name}", name) for name in _public_api(source))
        fields.update((f"{module}.{name}", name)
                      for name in _dataclass_fields(source))
    assert api["spinprobe.spectra.NoiseTrace.times"] == "NoiseTrace.times"
    assert fields["spinprobe.benchmarking.RbCurve.depths"] == "RbCurve.depths"
    unused = [qualified for qualified, name in api.items()
              if name.rpartition(".")[2] not in used]
    unused += [qualified for qualified, name in fields.items()
               if name.rpartition(".")[2] not in read]
    assert not unused, "no caller beyond the demos and unit tests: " + \
        ", ".join(unused)


def test_a_field_is_reached_by_a_read():
    source = ("from dataclasses import dataclass\n__all__ = ['C', 'D']\n"
              "@dataclass(frozen=True)\nclass C:\n    a: int\n    b: int = 0\n"
              "    def m(self):\n        return self.a\n"
              "class D:\n    c: int\n")
    assert _dataclass_fields(source) == ["C.a", "C.b"]
    assert _attribute_reads(source + "x.b = 1\nC(b=2)\n") == {"a"}


def test_a_reference_is_code_not_text():
    assert _references(
        '"""f"""\nimport a.b as c\nfrom m import g\nx.h(k)\ns = "t"\n'
    ) == {"b", "g", "x", "h", "k", "s"}


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


# runs the config it is given, then prints the numpy.random modules loaded
_RANDOM_MODULES_AFTER_RUN = """\
import sys
from spinprobe.harness.cli import main

assert main(["run", sys.argv[1]]) == 0
print(sorted(m for m in sys.modules if m.startswith("numpy.random")))
"""


@pytest.mark.parametrize("cfg, draws", [(TINY_CHEVRON, False), (TINY_RAMSEY, True)],
                         ids=["rabi_chevron", "ramsey"])
def test_only_a_run_that_draws_loads_numpy_random(tmp_path, cfg, draws):
    """Stage seeds are hashed without numpy, so ``rabi_chevron``, which
    draws nothing, never loads ``numpy.random``; ``ramsey`` must."""
    p = _write_yaml(tmp_path, dict(cfg, output_dir=str(tmp_path / "out")))
    out = subprocess.run([sys.executable, "-c", _RANDOM_MODULES_AFTER_RUN, str(p)],
                         env=_src_env(), check=True, capture_output=True,
                         text=True, timeout=120).stdout
    loaded = ast.literal_eval(out.splitlines()[-1])
    assert ("numpy.random" in loaded) if draws else loaded == []


POOL_MODULES = ["concurrent.futures.process", "multiprocessing"]

# validates the shipped configs it is given, runs the tiny one at the
# given worker count with every decay point leaving a file named after
# the pid that ran it, then prints its own pid and the pool modules loaded
_MARKED_RUN = f"""\
import os, sys
from pathlib import Path
from spinprobe import qubitsim
from spinprobe.harness.cli import main
from spinprobe.harness.config import load_config

config, workers, marks, *shipped = sys.argv[1:]
for path in shipped:
    load_config(path)
real = qubitsim._decay_point

def marked(args):
    Path(marks, str(os.getpid())).touch()
    return real(args)

qubitsim._decay_point = marked
assert main(["run", config, "--workers", workers]) == 0
print(os.getpid(), sorted(set({POOL_MODULES!r}) & set(sys.modules)))
"""


@pytest.mark.parametrize("workers", [1, 2])
def test_no_run_loads_the_pool_machinery(tmp_path, workers):
    """Importing the CLI, validating every shipped config and running a
    scan leave ``concurrent.futures.process`` and ``multiprocessing``
    unloaded at one worker and at two; at two the scan's points still
    run in forked workers."""
    marks = tmp_path / "marks"
    marks.mkdir()
    p = _write_yaml(tmp_path, dict(TINY_SPECTROSCOPY,
                                   output_dir=str(tmp_path / "out")))
    shipped = sorted(str(c) for c in CONFIG_DIR.glob("*.yaml"))
    assert len(shipped) == 10
    out = subprocess.run([sys.executable, "-c", _MARKED_RUN, str(p),
                          str(workers), str(marks), *shipped],
                         env=_src_env(), check=True, capture_output=True,
                         text=True, timeout=120).stdout
    pid, loaded = out.splitlines()[-1].split(" ", 1)
    ran_in = {int(m.name) for m in marks.iterdir()}
    assert loaded == "[]"
    if workers == 1:
        assert ran_in == {int(pid)}
    else:
        assert ran_in and int(pid) not in ran_in


# validates the shipped configs it is given and the tiny one, then
# executes the tiny one twice at the given worker count, with every decay
# point leaving a file named after the pid that ran it and holding that
# process's freeze count; prints its own pid, whether the collector was
# on after validation, and the freeze count then and after each run
_FREEZE_RUN = """\
import gc, os, sys
from pathlib import Path
from spinprobe import qubitsim
import spinprobe.harness.cli
from spinprobe.harness.config import load_config
from spinprobe.harness.runner import execute

config, workers, marks, outs, *shipped = sys.argv[1:]
for path in shipped:
    load_config(path)
cfg = load_config(config)
enabled, counts = gc.isenabled(), [gc.get_freeze_count()]
real = qubitsim._decay_point

def marked(args):
    Path(marks, str(os.getpid())).write_text(str(gc.get_freeze_count()))
    return real(args)

qubitsim._decay_point = marked
for name in ("first", "second"):
    execute(cfg, Path(outs, name), workers=int(workers))
    counts.append(gc.get_freeze_count())
print(os.getpid(), int(enabled), *counts)
"""


@pytest.mark.parametrize("workers", [1, 2])
def test_first_run_freezes_the_heap_before_its_pool(tmp_path, workers):
    """Importing the CLI and validating every shipped config leave the
    heap unfrozen and the collector on.  The first ``execute`` freezes
    the heap before its pool forks, so at two workers the decay points
    run in workers whose heap is frozen too; a second ``execute``
    freezes nothing more."""
    marks = tmp_path / "marks"
    marks.mkdir()
    p = _write_yaml(tmp_path, TINY_SPECTROSCOPY)
    shipped = sorted(str(c) for c in CONFIG_DIR.glob("*.yaml"))
    out = subprocess.run([sys.executable, "-c", _FREEZE_RUN, str(p), str(workers),
                          str(marks), str(tmp_path), *shipped],
                         env=_src_env(), check=True, capture_output=True,
                         text=True, timeout=120).stdout
    pid, enabled, validated, first, second = map(int, out.split())
    assert enabled and validated == 0
    assert first > 0 and second == first
    seen = {int(m.name): int(m.read_text()) for m in marks.iterdir()}
    assert seen and all(count > 0 for count in seen.values())
    assert (set(seen) == {pid}) if workers == 1 else (pid not in seen)
