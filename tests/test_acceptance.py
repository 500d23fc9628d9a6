"""Capability acceptance suite.

One numbered block per certified behavior; ``conftest.py`` rolls the
outcomes into a one-line-per-number summary at the end of the run.
Stochastic checks pin their seeds, and every tolerance was frozen after
probing neighboring seeds, so the margins are real rather than tuned to
a lucky draw.

Three checks are strict expected failures because the literal statement
is unsatisfiable: a single spin echo peaks 48% above its nominal
passband and passes its second harmonic at full strength, and the
steepest band of the composite spectrum lies below the frequency window
any decaying qubit can probe.  Each failure is paired with the sharpest
check that does hold.
"""

import math
from pathlib import Path

import numpy as np
import pytest
from scipy.optimize import brentq

from spinprobe import benchmarking, starktone
from spinprobe._rng import derive_child_seed
from spinprobe.analysis import (fit_power_law, fit_stretched,
                                spectroscopy_scan, spectroscopy_table,
                                t2_scaling_exponent)
from spinprobe.harness.config import load_config, validate_config
from spinprobe.harness.runner import execute
from spinprobe.qubitsim import (QubitParams, ReadoutModel, chi_ff,
                                coherence_mc, decay_vs_time, mc_point,
                                rabi_chevron, resonance_frequency_hz)
from spinprobe.sequences import filter_function, make_cpmg
from spinprobe.spectra import (PowerLawTerm, SpectralLine, SpectrumModel,
                               eval_psd, integrate_rms, psd_welch, synthesize,
                               voltage_to_detuning_model)

CONFIG_DIR = Path(__file__).resolve().parents[1] / "configs"

WHITE = SpectrumModel(powerlaws=(), white_floor=350.0, lines=())
PINK = SpectrumModel(powerlaws=(PowerLawTerm(3e7, 1.0),),
                     white_floor=0.0, lines=())
STEEP = SpectrumModel(powerlaws=(PowerLawTerm(3e13, 2.5),),
                      white_floor=0.0, lines=())
COMPOSITE = SpectrumModel(
    powerlaws=(PowerLawTerm(3e13, 2.5), PowerLawTerm(3e7, 1.0)),
    white_floor=350.0,
    lines=(SpectralLine(3600.0, 1.5e6, 150.0),))

SCAN_COUNTS = [2, 4, 8, 16, 32]


def _point_errs(estimate):
    return (estimate.ci_high - estimate.ci_low) / (2 * 1.959964)


# ---------------------------------------------------------------------------
# 1. A flat spectrum comes back flat, everywhere in the scan band.


def test_criterion01_white_floor_recovered_within_20_percent():
    f_grid = np.geomspace(1300.0, 50000.0, 10)
    scan = spectroscopy_scan(WHITE, f_grid,
                             spectroscopy_table(f_grid, SCAN_COUNTS), 500, 101)
    deviation = scan.s / 350.0 - 1.0
    assert float(np.max(np.abs(deviation))) < 0.20


# ---------------------------------------------------------------------------
# 2. Composite-spectrum reconstruction: band exponents and the line.


@pytest.fixture(scope="module")
def composite_scan():
    # 3600 * 1.2^k hits the line center exactly at k = 0
    f_grid = 3600.0 * 1.2 ** np.arange(-5, 20)
    return spectroscopy_scan(COMPOSITE, f_grid,
                             spectroscopy_table(f_grid, SCAN_COUNTS), 500, 515)


def _band_fit(scan, lo, hi, exclude_line=False):
    sel = (scan.f >= lo) & (scan.f <= hi)
    if exclude_line:
        sel &= np.abs(scan.f - 3600.0) > 1.0
    return fit_power_law(scan.f[sel], scan.s[sel], _point_errs(scan)[sel])


def test_criterion02_mid_band_recovers_one_over_f(composite_scan):
    fit = _band_fit(composite_scan, 2100.0, 20000.0, exclude_line=True)
    assert abs(fit.slope + 1.0) <= 0.3


def test_criterion02_high_band_recovers_white_floor(composite_scan):
    fit = _band_fit(composite_scan, 21000.0, 116000.0)
    assert abs(fit.slope) <= 0.3


def test_criterion02_low_band_matches_model_slope(composite_scan):
    fit = _band_fit(composite_scan, 1300.0, 2100.0)
    sel = (composite_scan.f >= 1300.0) & (composite_scan.f <= 2100.0)
    f_sel = composite_scan.f[sel]
    oracle = fit_power_law(f_sel, eval_psd(COMPOSITE, f_sel)).slope
    assert abs(fit.slope - oracle) <= max(0.3, 3.0 * fit.slope_err)


@pytest.mark.xfail(strict=True, reason=(
    "the -2.5 band's asymptotic slope only appears below ~1.6 kHz where "
    "coherence is already gone; the local slope in the lowest reachable "
    "band is about -1.6, so the literal exponent cannot be measured"))
def test_criterion02_low_band_literal_steep_exponent(composite_scan):
    fit = _band_fit(composite_scan, 1300.0, 2100.0)
    assert abs(fit.slope + 2.5) <= 0.3


def test_criterion02_line_recovered_within_one_bin(composite_scan):
    scan = composite_scan
    continuum = _band_fit(scan, 2100.0, 20000.0, exclude_line=True)
    sel = (scan.f >= 2100.0) & (scan.f <= 20000.0)
    residual = scan.s[sel] / continuum.evaluate(scan.f[sel])
    i_line = int(np.argmin(np.abs(scan.f[sel] - 3600.0)))
    i_max = int(np.argmax(residual))
    assert abs(i_max - i_line) <= 1
    assert residual[i_max] > 1.15


# ---------------------------------------------------------------------------
# 3. T2 versus pulse number follows N^(alpha/(alpha+1)).


@pytest.mark.parametrize("amplitude,exponent,expected_beta",
                         [(3e7, 1.0, 0.5), (3e13, 2.5, 0.714)],
                         ids=["one_over_f", "steep"])
def test_criterion03_t2_scaling_exponent(amplitude, exponent, expected_beta):
    model = SpectrumModel(powerlaws=(PowerLawTerm(amplitude, exponent),),
                          white_floor=0.0, lines=())
    counts = [1, 2, 4, 8, 16, 32, 64]
    t2s, t2_errs = [], []
    for i, n in enumerate(counts):
        def excess(log_t):
            return chi_ff(model, make_cpmg(n, math.exp(log_t))) - 1.0
        t_pred = math.exp(brentq(excess, math.log(1e-6), math.log(1.0),
                                 xtol=1e-6))
        times = np.geomspace(0.3 * t_pred, 2.5 * t_pred, 8)
        curve = decay_vs_time(model, n, times, 300, derive_child_seed(414, i),
                              samples_per_interval=32)
        fit = fit_stretched(curve.times, curve.w, curve.std_err)
        t2s.append(fit.t2)
        t2_errs.append(fit.t2_err)
    beta = t2_scaling_exponent(counts, t2s, t2_errs)
    assert abs(beta.slope - expected_beta) <= 0.1


# ---------------------------------------------------------------------------
# 4. Monte Carlo decay equals the analytic exponent across a 12-case
#    battery of four spectra and three pulse counts, all near chi = 0.7.

_BATTERY = [(name, n, idx) for idx, (name, n) in enumerate(
    (name, n)
    for name in ("white", "pink", "steep", "line")
    for n in (2, 8, 32))]


def _battery_case(name: str, n_pulses: int):
    if name == "line":
        # pin the passband on the line and solve the line power for the
        # chi target; power enters chi linearly at fixed geometry
        tau = 1.0 / (2 * 3600.0)
        schedule = make_cpmg(n_pulses, n_pulses * tau)
        floor_only = SpectrumModel(powerlaws=(), white_floor=50.0, lines=())
        unit_line = SpectrumModel(powerlaws=(), white_floor=0.0,
                                  lines=(SpectralLine(3600.0, 1.0, 150.0),))
        power = (0.7 - chi_ff(floor_only, schedule)) / chi_ff(unit_line,
                                                              schedule)
        model = SpectrumModel(powerlaws=(), white_floor=50.0,
                              lines=(SpectralLine(3600.0, power, 150.0),))
        # long trace so the 150 Hz line and the narrow high-N passband
        # are both resolved on the synthesis grid
        return model, schedule, {}, {"duration_factor": 8.0}
    model = {"white": WHITE, "pink": PINK, "steep": STEEP}[name]
    chi_kwargs = {"f_min": 1.0} if name == "steep" else {}

    def excess(log_t):
        return chi_ff(model, make_cpmg(n_pulses, math.exp(log_t)),
                      **chi_kwargs) - 0.7

    t_total = math.exp(brentq(excess, math.log(1e-6), math.log(1.0),
                              xtol=1e-4))
    return model, make_cpmg(n_pulses, t_total), chi_kwargs, {}


@pytest.mark.parametrize("name,n_pulses,idx", _BATTERY,
                         ids=[f"{n}-N{p}" for n, p, _ in _BATTERY])
def test_criterion04_mc_matches_filter_function(name, n_pulses, idx):
    model, schedule, chi_kwargs, mc_kwargs = _battery_case(name, n_pulses)
    chi = chi_ff(model, schedule, **chi_kwargs)
    point = coherence_mc(model, mc_point(schedule.n_pulses, schedule.total_time,
                                         samples_per_interval=128, **mc_kwargs),
                         4000, derive_child_seed(20260823, idx))
    chi_mc = -math.log(point.w)
    tolerance = max(0.02 * chi, 3.0 * point.std_err / point.w)
    assert abs(chi_mc - chi) <= tolerance


# ---------------------------------------------------------------------------
# 5. Filter-function structure for every pulse count in the scan family.

_SINGLE_ECHO_PEAK = pytest.mark.xfail(strict=True, reason=(
    "a single echo peaks at 1.48/(2 tau), one scan bin above nominal"))
_SINGLE_ECHO_HARMONIC = pytest.mark.xfail(strict=True, reason=(
    "a single echo passes 2/(2 tau) at full weight; harmonic rejection "
    "needs at least two pulses"))


@pytest.mark.parametrize("n", [pytest.param(1, marks=_SINGLE_ECHO_PEAK),
                               2, 4, 8, 16, 32])
def test_criterion05_peak_sits_in_the_passband_bin(n):
    total = 1e-3
    schedule = make_cpmg(n, total)
    f1 = n / (2 * total)
    # same ratio-1.5 spacing the spectroscopy scans use
    grid = f1 * 1.5 ** np.arange(-8, 9)
    assert int(np.argmax(filter_function(schedule, grid))) == 8


@pytest.mark.parametrize("n", [pytest.param(1, marks=_SINGLE_ECHO_HARMONIC),
                               2, 4, 8, 16, 32])
def test_criterion05_even_harmonic_below_one_percent(n):
    total = 1e-3
    schedule = make_cpmg(n, total)
    f1 = n / (2 * total)
    ratio = filter_function(schedule, 2 * f1) / filter_function(schedule, f1)
    assert ratio <= 0.01


@pytest.mark.parametrize("n", [1, 2, 4, 8, 16, 32])
def test_criterion05_parseval_weight_within_one_percent(n):
    total = 1e-3
    schedule = make_cpmg(n, total)
    cap = 400 * n / (2 * total)
    f = np.linspace(1e-2, cap, 200_001)
    integral = np.trapezoid(filter_function(schedule, f), f)
    # beyond the cap the squared filter oscillates around its mean
    # (4N+2)/(4 pi^2 f^2); the closed tail of that mean closes the sum
    total_weight = integral + (4 * n + 2) / (4 * math.pi ** 2 * cap)
    assert abs(total_weight / (total / 2.0) - 1.0) <= 0.01


# ---------------------------------------------------------------------------
# 6. Randomized benchmarking recovers the Clifford fidelity it was fed.


def test_criterion06_group_structure_is_exact():
    unitaries = benchmarking.clifford_unitaries()
    assert unitaries.shape == (24, 2, 2)
    table = benchmarking.compose_table()
    for k in range(24):
        assert sorted(table[k].tolist()) == list(range(24))
        assert sorted(table[:, k].tolist()) == list(range(24))
    assert float(np.sum(benchmarking.primitive_counts())) == 45.0
    assert benchmarking.mean_primitives_per_clifford() == 1.875


def test_criterion06_primitive_fidelity_conversion():
    assert abs(benchmarking.primitive_fidelity_from_clifford(0.9983)
               - 0.9991) < 5e-5


def test_criterion06_mean_recovered_fidelity_over_100_seeds():
    d = benchmarking.depolarizing_from_clifford_fidelity(0.9983)
    depths = [1, 2, 4, 8, 16, 32, 64, 128, 200, 300]
    readout = ReadoutModel(visibility=0.55, floor=0.225)
    recovered = []
    for seed in range(100):
        curve = benchmarking.rb_reference(depths, 30, d, seed,
                                          readout=readout, shots=100)
        recovered.append(benchmarking.fit_rb(curve).clifford_fidelity)
    assert abs(float(np.mean(recovered)) - 0.9983) < 2e-4


# ---------------------------------------------------------------------------
# 7. Tone injection: dips on odd submultiples, silence on even ones,
#    detection threshold within a factor of two of the design point.


@pytest.fixture(scope="module")
def tone_scan_result():
    cfg = validate_config(load_config(CONFIG_DIR / "tone_scan.yaml"))
    proto = cfg["protocol"]
    stark_cfg = cfg["stark"]
    stark = starktone.StarkMap(
        f0_ref_hz=stark_cfg["f0_ref_hz"],
        coefficients_hz_per_v=dict(stark_cfg["coefficients_hz_per_v"]),
        reference_voltages=dict(stark_cfg.get("reference_voltages", {})))
    readout = ReadoutModel(visibility=cfg["readout"]["visibility"],
                           floor=cfg["readout"]["floor"])
    return starktone.tone_scan(
        SpectrumModel.from_dict(cfg["spectrum"]), stark.coefficient(proto["gate"]),
        proto["f_tone_hz"], proto["phase"],
        starktone.scan_columns([1.0 / (2.0 * f) for f in proto["f_columns_hz"]],
                               proto["total_time_s"], proto["samples_per_interval"]),
        proto["amplitudes_vpp"], proto["shots"],
        cfg["seed"], readout=readout)


def _column_drop(result, f_column):
    col = int(np.argmin(np.abs(result.f_hz - f_column)))
    drop = result.p_up[0, col] - result.p_up[-1, col]
    pooled = math.hypot(result.std_err[0, col], result.std_err[-1, col])
    return drop, pooled


def test_criterion07_threshold_within_factor_two(tone_scan_result):
    detection = starktone.detect_tone_threshold(tone_scan_result, 20e3)
    assert detection["threshold_vpp"] is not None
    assert 80e-6 <= detection["threshold_vpp"] <= 320e-6


@pytest.mark.parametrize("f_column", [20e3, 20e3 / 3, 4e3],
                         ids=["fundamental", "third", "fifth"])
def test_criterion07_odd_submultiple_dips(tone_scan_result, f_column):
    drop, pooled = _column_drop(tone_scan_result, f_column)
    assert drop > 2.5 * pooled


def test_criterion07_even_submultiple_never_dips(tone_scan_result):
    drop, pooled = _column_drop(tone_scan_result, 10e3)
    assert drop < 2.5 * pooled
    assert starktone.detect_tone_threshold(tone_scan_result,
                                           10e3)["threshold_vpp"] is None


# ---------------------------------------------------------------------------
# 8. Static qubit anchors: resonance frequency, pi time, chevron apex.


def test_criterion08_resonance_frequency_anchor():
    assert abs(resonance_frequency_hz(1.9789, 1.4) - 38.7765e9) < 5e6


def test_criterion08_pi_time_is_exact():
    assert QubitParams().pi_time_s == 1.28e-6


def test_criterion08_chevron_apex_on_resonance():
    qubit = QubitParams()
    detunings = np.linspace(-2e6, 2e6, 41)
    durations = np.linspace(0.0, 4 * qubit.pi_time_s, 33)
    p_up = rabi_chevron(qubit, detunings, durations)
    at_pi = p_up[:, 8]
    assert durations[8] == qubit.pi_time_s
    assert int(np.argmax(at_pi)) == 20 and detunings[20] == 0.0
    assert at_pi[20] == pytest.approx(1.0, abs=1e-12)


# ---------------------------------------------------------------------------
# 9. Gate-voltage noise measured as a PSD, then seen again by the qubit.


@pytest.fixture(scope="module")
def voltage_environment():
    model = SpectrumModel(powerlaws=(), white_floor=8.43e-18,
                          lines=(SpectralLine(3600.0, 1.2e-12, 150.0),))
    trace = synthesize(model, 120e3, 45.0, 606)
    estimate = psd_welch(trace, nperseg=int(5.0 * 120e3))
    return model, estimate


def test_criterion09_band_rms_within_two_percent(voltage_environment):
    _, estimate = voltage_environment
    rms = integrate_rms(estimate, 0.2, 5e4)
    assert abs(rms - 1.27e-6) <= 0.02 * 1.27e-6


def test_criterion09_line_visible_in_voltage_psd(voltage_environment):
    _, estimate = voltage_environment
    window = (estimate.f > 3000.0) & (estimate.f < 4200.0)
    f_peak = estimate.f[window][np.argmax(estimate.s[window])]
    assert abs(f_peak - 3600.0) < 75.0
    floor = float(np.median(estimate.s[(estimate.f > 10e3)
                                       & (estimate.f < 20e3)]))
    assert float(np.max(estimate.s[window])) > 100.0 * floor


def test_criterion09_line_survives_conversion_to_qubit_spectrum(
        voltage_environment):
    voltage_model, _ = voltage_environment
    converted = voltage_to_detuning_model(voltage_model, -22.88e6)
    qubit_model = SpectrumModel(powerlaws=converted.powerlaws,
                                white_floor=converted.white_floor + 350.0,
                                lines=converted.lines)
    f_grid = np.geomspace(1800.0, 7200.0, 7)
    scan = spectroscopy_scan(qubit_model, f_grid,
                             spectroscopy_table(f_grid, SCAN_COUNTS), 4000, 77)
    errs = _point_errs(scan)
    i_line = int(np.argmin(np.abs(scan.f - 3600.0)))
    assert scan.f[i_line] == 3600.0
    assert scan.s[i_line] == float(np.max(scan.s))
    for j in range(scan.f.size):
        if j != i_line:
            margin = 1.5 * math.hypot(errs[i_line], errs[j])
            assert scan.s[i_line] - scan.s[j] > margin


# ---------------------------------------------------------------------------
# 10. Worker count never changes a single output byte.


def test_criterion10_outputs_identical_across_worker_counts(tmp_path):
    cfg = validate_config({
        "kind": "ramsey",
        "seed": 3,
        "output_dir": "runs/worker-check",
        "spectrum": {"powerlaws": [], "white_floor": 350.0, "lines": []},
        "protocol": {"times_s": {"start": 1e-4, "stop": 4e-3, "num": 3,
                                 "spacing": "log"},
                     "n_traj": 16, "fit": "exponential"},
    })
    serial = execute(cfg, tmp_path / "serial", workers=1)
    pooled = execute(cfg, tmp_path / "pooled", workers=3)
    assert serial["inventory"] == pooled["inventory"]
    assert serial["summary"] == pooled["summary"]
