"""Stark shift calibration and gate-tone injection detection."""

import math

import numpy as np
import pytest
from scipy.special import j0

from spinprobe import starktone
from spinprobe._csvio import write_files
from spinprobe._rng import derive_child_seed, derive_rng
from spinprobe.harness.pipelines import TONE_SCAN_HEADER, _tone_scan_csv
from spinprobe.qubitsim import (HARDWARE_READOUT, PSD_CHI_CALIBRATION,
                               ReadoutModel, chi_ff, phase_draw)
from spinprobe.sequences import filter_function, make_cpmg
from spinprobe.spectra import SpectrumModel
from spinprobe.starktone import (
    StarkMap,
    ToneScanResult,
    default_stark_map,
    detect_tone_threshold,
    esr_frequency,
    fit_stark_map,
    scan_columns,
    tone_amplitude,
    tone_scan,
)

WHITE = SpectrumModel(powerlaws=(), white_floor=350.0, lines=())
G2 = default_stark_map().coefficient("G2")


class TestStarkMap:
    def test_default_reference_point(self):
        sm = default_stark_map()
        assert esr_frequency(sm, {}) == pytest.approx(38.7765e9)
        assert sm.coefficient("G1") == pytest.approx(-36.21e6)
        assert sm.coefficient("G2") == pytest.approx(-22.88e6)

    def test_linear_shifts(self):
        sm = default_stark_map()
        f0 = esr_frequency(sm, {})
        assert esr_frequency(sm, {"G2": 0.1}) - f0 == pytest.approx(-2.288e6)
        assert esr_frequency(sm, {"G1": 0.008}) - f0 == pytest.approx(-289.68e3)
        both = esr_frequency(sm, {"G1": 0.002, "G2": -0.01}) - f0
        assert both == pytest.approx(-36.21e6 * 0.002 + 22.88e6 * 0.01)

    def test_unknown_gate_named_in_error(self):
        with pytest.raises(KeyError, match="G7"):
            default_stark_map().coefficient("G7")
        with pytest.raises(KeyError):
            esr_frequency(default_stark_map(), {"G7": 0.1})

    def test_nonfinite_coefficient_rejected(self):
        with pytest.raises(ValueError):
            StarkMap(f0_ref_hz=1e9, coefficients_hz_per_v={"G1": float("nan")})


class TestStarkFit:
    def _grid(self):
        rng = np.random.default_rng(2)
        v1 = rng.uniform(-0.016, 0.016, 25)
        v2 = rng.uniform(-0.016, 0.016, 25)
        return {"G1": v1, "G2": v2}

    def test_exact_plane_recovery(self):
        v = self._grid()
        f = 38.7765e9 - 36.21e6 * v["G1"] - 22.88e6 * v["G2"]
        sm = fit_stark_map(v, f)
        assert sm.f0_ref_hz == pytest.approx(38.7765e9, abs=1.0)
        assert sm.coefficient("G1") == pytest.approx(-36.21e6, rel=1e-9)
        assert sm.coefficient("G2") == pytest.approx(-22.88e6, rel=1e-9)
        assert sm.residual_rms_hz < 1e-3

    def test_jittered_recovery_reports_residual(self):
        v = self._grid()
        rng = np.random.default_rng(3)
        f = (38.7765e9 - 36.21e6 * v["G1"] - 22.88e6 * v["G2"]
             + rng.normal(0.0, 1e4, 25))
        sm = fit_stark_map(v, f)
        assert sm.coefficient("G1") == pytest.approx(-36.21e6, rel=0.02)
        assert sm.residual_rms_hz == pytest.approx(1e4, rel=0.5)

    def test_degenerate_grid_rejected(self):
        v = {"G1": np.linspace(-0.01, 0.01, 9), "G2": np.zeros(9)}
        f = 38.7765e9 - 36.21e6 * v["G1"]
        with pytest.raises(np.linalg.LinAlgError):
            fit_stark_map(v, f)

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            fit_stark_map({"G1": np.zeros(3), "G2": np.zeros(4)}, np.zeros(3))
        with pytest.raises(ValueError, match="differ in length"):
            fit_stark_map(self._grid(), np.zeros(24))


class TestToneConversion:
    def test_peak_detuning_amplitude(self):
        amplitude = tone_amplitude(default_stark_map().coefficient("G2"), 160e-6)
        # 2 pi |df/dV| A_pp / 2, the same for either sign of df/dV
        assert amplitude == pytest.approx(2 * math.pi * 22.88e6 * 80e-6, rel=1e-12)
        assert amplitude == pytest.approx(11500.74, rel=1e-6)
        assert tone_amplitude(22.88e6, 160e-6) == amplitude

    def test_config_validation(self):
        for f_tone in (0.0, -1e4):
            with pytest.raises(ValueError, match="f_tone"):
                tone_scan(WHITE, G2, f_tone, None,
                          scan_columns([25e-6], 300e-6), [0.0], 10, 0)


class TestToneScan:
    def test_pulse_counts_follow_fixed_window(self):
        # 300 us window: wait times quantize to N = round(T/tau), >= 1
        columns = scan_columns([25e-6, 50e-6, 75.075e-6, 125e-6, 700e-6], 300e-6)
        assert [point.n_pulses for _, point in columns[0]] == [12, 6, 4, 2]
        res = tone_scan(WHITE, G2, 2e4, None, columns, [0.0], 50, 0)
        np.testing.assert_allclose(res.f_hz[[0, 1, 3]], [2e4, 1e4, 4e3])
        assert res.dropped == (700e-6,)

    def test_free_running_tone_matches_bessel_envelope(self):
        # random-phase tone multiplies the coherence by J0(a |Y(f_tone)|)
        tau, total = 25e-6, 300e-6
        sch = make_cpmg(12, total)
        y_mag = math.sqrt(filter_function(sch, 2e4))
        a_pp = 0.8 / (2 * math.pi * 22.88e6 * 0.5 * y_mag)
        # the engines calibrate the noise; the scaled model gives raw physics
        raw = WHITE.scaled(1 / PSD_CHI_CALIBRATION)
        w_noise = math.exp(-chi_ff(raw, sch))
        p_exp = ReadoutModel(0.55, 0.225).apply(0.5 * (1 + w_noise * j0(0.8)))
        res = tone_scan(raw, G2, 2e4, None,
                        scan_columns([tau], total, samples_per_interval=64),
                        [a_pp], 3000, 5)
        assert abs(res.p_up[0, 0] - p_exp) < 4 * res.std_err[0, 0]

    def test_deterministic_per_seed(self):
        args = (WHITE, G2, 2e4, None,
                scan_columns([25e-6, 125e-6], 300e-6), [0.0, 1e-4], 60, 11)
        a = tone_scan(*args)
        b = tone_scan(*args)
        np.testing.assert_array_equal(a.p_up, b.p_up)

    def test_one_response_per_column_and_cells_at_their_seeds(self, monkeypatch):
        calls = []
        real = starktone.cpmg_filter_function
        monkeypatch.setattr(starktone, "cpmg_filter_function",
                            lambda *a: calls.append(a) or real(*a))
        taus, amps = [25e-6, 50e-6, 125e-6], [0.0, 1e-4, 2e-4]
        columns = scan_columns(taus, 300e-6)
        res = tone_scan(WHITE, G2, 2e4, None, columns, amps, 20, 3)
        assert len(calls) == len(taus)
        # cell (row, col) is its column's job run for that row alone
        for col, (_, point) in enumerate(columns[0]):
            for row, amp in enumerate(amps):
                (cell,) = starktone._tone_column((
                    WHITE, point, [amp], G2, 2e4, None, 20,
                    [derive_child_seed(3, col, row)], HARDWARE_READOUT))
                assert cell == (res.p_up[row, col], res.std_err[row, col])

    # 129 shots are 65 pairs, one chunk with its lone last row joined; 131
    # cross the 64-row chunk boundary with an odd count in the last chunk;
    # 258 are a full chunk, then 65 rows
    @pytest.mark.parametrize("shots", [7, 129, 131, 258])
    @pytest.mark.parametrize("phase", [None, 0.3])
    def test_shots_play_in_pairs_per_stream(self, phase, shots):
        # shots 2j and 2j + 1 share stream j: the noise pair, then each
        # shot's tone phase and readout uniform (the uniforms alone at a
        # fixed phase); an odd count drops the last pair's second.  Each odd
        # count's cell seed makes that shot a hit and the one before it a
        # miss at both phases, so a cell that counts the dropped shot, or
        # drops its pair's first instead, has another p_hat
        seed = {7: 125, 129: 32, 131: 190, 258: 9}[shots]
        ((_, point),), _ = scan_columns([25e-6], 300e-6)
        draw = phase_draw(WHITE, point)
        a = tone_amplitude(G2, 1e-4) * math.sqrt(filter_function(
            make_cpmg(point.n_pulses, point.total_time), 2e4))
        hits = []
        for j in range((shots + 1) // 2):
            rng = derive_rng(seed, j)
            noise = draw(rng)
            if phase is None:
                u = rng.random(4)
                draws = [(2 * math.pi * u[0], u[1]), (2 * math.pi * u[2], u[3])]
            else:
                draws = [(phase, read) for read in rng.random(2)]
            hits += [read < 0.225 + 0.55 * 0.5 * (1 + math.cos(phi + a * math.sin(theta)))
                     for phi, (theta, read) in zip(noise, draws)]
        if shots % 2:
            assert hits[shots] and not hits[shots - 1]
        (cell,) = starktone._tone_column((
            WHITE, point, [1e-4], G2, 2e4, phase, shots, [seed], HARDWARE_READOUT))
        assert cell[0] == sum(hits[:shots]) / shots

    def test_shape_validation(self):
        with pytest.raises(ValueError):
            ToneScanResult(f_hz=[1e4, 2e4], amplitudes_vpp=[0.0],
                           p_up=np.zeros((2, 2)), std_err=np.zeros((1, 2)),
                           shots=10)


class TestThresholdDetection:
    def _synthetic(self, dips):
        f = np.array([2e4, 1e4, 6.66e3, 4e3])
        amps = np.array([0.0, 1e-4, 2e-4])
        p = np.full((3, 4), 0.775)
        for i, dip in enumerate(dips):
            p[i, 0] -= dip
        se = np.full((3, 4), 0.01)
        return ToneScanResult(f_hz=f, amplitudes_vpp=amps, p_up=p,
                              std_err=se, shots=100)

    def test_threshold_is_smallest_detected_amplitude(self):
        out = detect_tone_threshold(self._synthetic([0.0, 0.075, 0.15]), 2e4)
        assert out["threshold_vpp"] == pytest.approx(1e-4)
        assert out["tone_column_hz"] == pytest.approx(2e4)
        assert [r["detected"] for r in out["rows"]] == [False, True, True]
        assert all(r["pooled_se"] > 0 for r in out["rows"])

    def test_no_detection_returns_none(self):
        out = detect_tone_threshold(self._synthetic([0.0, 0.0, 0.0]), 2e4)
        assert out["threshold_vpp"] is None

    def test_unmatched_tone_frequency_rejected(self):
        with pytest.raises(ValueError):
            detect_tone_threshold(self._synthetic([0.0, 0.0, 0.0]), 3.2e4)

    @pytest.mark.parametrize("n_f", [3, 4, 5])
    def test_deficit_is_measured_from_the_np_median(self, n_f):
        rng = np.random.default_rng(n_f)
        p = rng.uniform(0.3, 0.9, size=(3, n_f)).round(2)  # ties included
        p[2, -1] = np.nan  # a missing cell
        result = ToneScanResult(f_hz=2e4 / np.arange(1, n_f + 1),
                                amplitudes_vpp=[0.0, 1e-4, 2e-4], p_up=p,
                                std_err=np.full((3, n_f), 0.01), shots=100)
        rows = detect_tone_threshold(result, 2e4)["rows"]
        for i, row in enumerate(rows):
            want = float(np.median(p[i, 1:])) - float(p[i, 0])
            assert repr(row["deficit"]) == repr(want)  # nan included

    def test_single_column_rejected(self):
        full = self._synthetic([0.0, 0.075, 0.15])
        one = ToneScanResult(f_hz=full.f_hz[:1], amplitudes_vpp=full.amplitudes_vpp,
                             p_up=full.p_up[:, :1], std_err=full.std_err[:, :1],
                             shots=100)
        with pytest.raises(ValueError, match="second frequency column"):
            detect_tone_threshold(one, 2e4)


class TestCsv:
    def test_round_trip(self, tmp_path):
        res = ToneScanResult(f_hz=[4e3, 2e4], amplitudes_vpp=[0.0, 2e-4],
                             p_up=[[0.77, 0.76], [0.74, 0.60]],
                             std_err=[[0.01, 0.011], [0.012, 0.013]],
                             shots=160)
        p = tmp_path / "scan.csv"
        write_files({p: _tone_scan_csv(res)})
        header, *rows = p.read_text().splitlines()
        assert header == TONE_SCAN_HEADER
        f, amp, p_up, se = np.array([[float(c) for c in r.split(",")] for r in rows]).T
        # one row per cell, amplitude-major
        np.testing.assert_array_equal(f, np.tile(res.f_hz, 2))
        np.testing.assert_array_equal(amp, np.repeat(res.amplitudes_vpp, 2))
        np.testing.assert_array_equal(p_up.reshape(2, 2), res.p_up)
        np.testing.assert_array_equal(se.reshape(2, 2), res.std_err)
