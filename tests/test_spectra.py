import dataclasses
import math
import tracemalloc

import numpy as np
import pytest
from scipy import signal, stats

from spinprobe import spectra
from spinprobe._rng import derive_rng
from spinprobe.spectra import (
    NoiseTrace,
    PowerLawTerm,
    PsdEstimate,
    SpectralLine,
    SpectrumModel,
    draw_trace_samples,
    eval_psd,
    export_psd,
    export_trace,
    integrate_rms,
    psd_welch,
    rfft_bin_density,
    synthesize,
    trace_normals,
    voltage_to_detuning_model,
    voltage_to_detuning_psd,
)

WHITE = SpectrumModel(powerlaws=(), white_floor=350.0, lines=())
ONE_OVER_F = SpectrumModel(powerlaws=(PowerLawTerm(3e7, 1.0),),
                           white_floor=0.0, lines=())
LINE_ONLY = SpectrumModel(powerlaws=(), white_floor=0.0,
                          lines=(SpectralLine(3600.0, 1.5e6, 150.0),))


class TestModelValidation:
    def test_negative_amplitude_rejected(self):
        with pytest.raises(ValueError, match="amplitude"):
            PowerLawTerm(-1.0, 1.0)

    def test_exponent_range(self):
        with pytest.raises(ValueError, match="exponent"):
            PowerLawTerm(1.0, 3.5)
        PowerLawTerm(1.0, 0.0)
        PowerLawTerm(1.0, 3.0)

    def test_line_validation(self):
        with pytest.raises(ValueError):
            SpectralLine(-10.0, 1.0, 1.0)
        with pytest.raises(ValueError):
            SpectralLine(10.0, -1.0, 1.0)

    def test_max_exponent(self):
        model = SpectrumModel(powerlaws=(PowerLawTerm(1.0, 0.8),
                                         PowerLawTerm(1.0, 2.5)),
                              white_floor=0.0, lines=())
        assert model.max_exponent == 2.5
        assert WHITE.max_exponent == 0.0

    def test_scaled(self):
        model = ONE_OVER_F.scaled(2.5)
        f = np.array([100.0, 5e3])
        assert eval_psd(model, f) == pytest.approx(2.5 * eval_psd(ONE_OVER_F, f))


class TestEvalPsd:
    def test_white_flat(self):
        f = np.geomspace(1.0, 1e5, 7)
        assert eval_psd(WHITE, f) == pytest.approx(np.full(7, 350.0))

    def test_powerlaw_omega_convention(self):
        # S(f) = C / (2 pi f)^alpha
        assert eval_psd(ONE_OVER_F, 1e3) == pytest.approx(3e7 / (2 * np.pi * 1e3))
        steep = SpectrumModel(powerlaws=(PowerLawTerm(3e13, 2.5),),
                              white_floor=0.0, lines=())
        assert eval_psd(steep, 2e3) == pytest.approx(3e13 / (2 * np.pi * 2e3) ** 2.5)

    def test_lorentzian_peak_and_symmetry(self):
        peak = eval_psd(LINE_ONLY, 3600.0)
        # full width 150 Hz at half maximum, unit total power
        assert peak == pytest.approx(1.5e6 * 2 / (np.pi * 150.0), rel=1e-12)
        assert eval_psd(LINE_ONLY, 3675.0) == pytest.approx(peak / 2, rel=1e-9)
        assert eval_psd(LINE_ONLY, 3525.0) == pytest.approx(peak / 2, rel=1e-9)

    def test_rejects_nonpositive_frequency(self):
        with pytest.raises(ValueError):
            eval_psd(WHITE, 0.0)
        with pytest.raises(ValueError):
            eval_psd(WHITE, [-1.0])

    def test_rejects_resolution_limited_line(self):
        model = SpectrumModel(powerlaws=(), white_floor=0.0,
                              lines=(SpectralLine(100.0, 1.0, None),))
        with pytest.raises(ValueError, match="width"):
            eval_psd(model, 100.0)


class TestSynthesis:
    def test_white_variance_matches_band_integral(self):
        # Var = integral of S over the represented band (DC bin excluded)
        rate, dur = 50e3, 0.4
        var = np.mean([synthesize(WHITE, rate, dur, seed).variance()
                       for seed in range(5)])
        expected = 350.0 * (rate / 2 - 1.0 / dur)
        assert var == pytest.approx(expected, rel=0.03)

    def test_line_power_round_trip(self):
        # narrow line: all power lands in the trace regardless of resolution
        var = np.mean([synthesize(LINE_ONLY, 40e3, 0.05, seed).variance()
                       for seed in range(8)])
        assert var == pytest.approx(1.5e6, rel=0.1)

    def test_seed_determinism(self):
        a = synthesize(WHITE, 10e3, 0.1, 123)
        b = synthesize(WHITE, 10e3, 0.1, 123)
        c = synthesize(WHITE, 10e3, 0.1, 124)
        assert np.array_equal(a.samples, b.samples)
        assert not np.array_equal(a.samples, c.samples)

    def test_zero_mean_exact(self):
        tr = synthesize(WHITE, 10e3, 0.2, 7)
        assert abs(np.mean(tr.samples)) < 1e-9 * np.std(tr.samples)

    def test_trace_metadata(self):
        tr = synthesize(WHITE, 10e3, 0.25, 7, unit="rad/s")
        assert tr.n_samples == 2500
        assert tr.sample_rate == 10e3
        assert tr.times[0] == 0.0
        assert tr.times[-1] == pytest.approx(0.25 - 1e-4)
        assert tr.seed == 7

    def test_voltage_unit_supported(self):
        tr = synthesize(WHITE, 10e3, 0.1, 7, unit="V")
        assert tr.unit == "V"

    def test_minimum_length_enforced(self):
        with pytest.raises(ValueError):
            synthesize(WHITE, 100.0, 0.01, 0)

    @pytest.mark.parametrize("n", [2, 64, 65])
    def test_trace_normals_into_a_buffer(self, n):
        """``out`` receives the stream's normals, whatever it held."""
        buf = np.full(n - 1, np.nan)
        assert trace_normals(n, derive_rng(3, 1), buf) is buf
        np.testing.assert_array_equal(buf, derive_rng(3, 1).normal(size=n - 1))
        np.testing.assert_array_equal(trace_normals(n, derive_rng(3, 1)), buf)
        with pytest.raises(ValueError, match="shape"):
            trace_normals(n + 1, derive_rng(3, 1), buf)


class TestTraceValidation:
    def test_rejects_nonfinite(self):
        with pytest.raises(ValueError):
            NoiseTrace(samples=np.array([1.0, np.nan]), sample_rate=10.0,
                       duration=0.2, seed=None, provenance="external:x",
                       unit="rad/s")

    def test_rejects_rate_duration_mismatch(self):
        with pytest.raises(ValueError):
            NoiseTrace(samples=np.zeros(100), sample_rate=10.0,
                       duration=4.0, seed=None, provenance="external:x",
                       unit="rad/s")

    def test_rejects_unknown_unit(self):
        with pytest.raises(ValueError):
            NoiseTrace(samples=np.zeros(100), sample_rate=10.0,
                       duration=10.0, seed=None, provenance="external:x",
                       unit="furlongs")


class TestRfftBinDensity:
    def test_dc_bin_zero(self):
        s = rfft_bin_density(WHITE, 1e4, 1024)
        assert s[0] == 0.0
        assert s[1:] == pytest.approx(np.full(512, 350.0))

    def test_subbin_line_power_conserved(self):
        # width far below bin spacing: a single bin carries ~all the power
        n, rate = 4096, 40e3
        df = rate / n
        s = rfft_bin_density(LINE_ONLY, rate, n)
        assert np.sum(s) * df == pytest.approx(1.5e6, rel=0.02)
        assert np.argmax(s) == round(3600.0 / df)


def _one_shot_density(model, rate, n):
    """Bin densities computed over the whole grid at once: smooth terms at
    the bin centres, lines integrated over each bin, bin 0 zero."""
    df = rate / n
    nbin = n // 2 + 1
    f = np.arange(nbin) * df
    s = np.zeros(nbin)
    s[1:] = np.full(nbin - 1, float(model.white_floor))
    for term in model.powerlaws:
        s[1:] += term.amplitude / (2.0 * math.pi * f[1:]) ** term.exponent
    edges = (np.arange(nbin + 1) - 0.5) * df
    for line in model.lines:
        hw = (line.width_hz if line.width_hz is not None else df) / 2.0
        cdf = np.arctan((edges - line.center_hz) / hw) / math.pi
        s += line.power * np.diff(cdf) / df
    s[0] = 0.0
    return s


def _one_shot_samples(model, rate, n, rng):
    """The trace built from whole-length arrays: every normal times its
    amplitude, then ``re + 1j * im`` per bin, the Nyquist bin, irfft."""
    s = _one_shot_density(model, rate, n)
    df = rate / n
    k = (n - 1) // 2
    amp = (n / 2.0) * np.sqrt(s[1:k + 1] * df)
    parts = [amp, amp] + ([[n * math.sqrt(s[-1] * df)]] if n % 2 == 0 else [])
    z = trace_normals(n, rng) * np.concatenate(parts)
    coeff = np.zeros(s.size, dtype=complex)
    coeff[1:k + 1] = z[:k] + 1j * z[k:2 * k]
    if n % 2 == 0:
        coeff[-1] = z[-1]
    return np.fft.irfft(coeff, n)


BLOCK_MODELS = {
    "white": WHITE,
    "power_laws": SpectrumModel(powerlaws=(PowerLawTerm(3e7, 1.0),
                                           PowerLawTerm(3e13, 2.5)),
                                white_floor=3.0),
    "line": LINE_ONLY,
    "unresolved_line": SpectrumModel(white_floor=1.0,
                                     lines=(SpectralLine(60.0, 10.0, None),)),
    "zero": SpectrumModel(),
}


class TestBlockSynthesis:
    """Block-by-block synthesis against the whole-length construction."""

    @pytest.mark.parametrize("block", [7, None])
    @pytest.mark.parametrize("n", [64, 65, 1000, 1001])
    @pytest.mark.parametrize("name", sorted(BLOCK_MODELS))
    def test_bit_identical_to_one_shot(self, monkeypatch, name, n, block):
        if block is not None:
            monkeypatch.setattr(spectra, "_BLOCK_BINS", block)
        model, rate = BLOCK_MODELS[name], 1e4
        ref = _one_shot_samples(model, rate, n, derive_rng(8))
        got = draw_trace_samples(model, rate, n, derive_rng(8))
        assert got.tobytes() == ref.tobytes()
        assert synthesize(model, rate, n / rate, 8).samples.tobytes() == ref.tobytes()
        assert (rfft_bin_density(model, rate, n).tobytes()
                == _one_shot_density(model, rate, n).tobytes())

    @pytest.mark.parametrize("n", [2 * 65536 + 3, 2 * 65536 + 6])
    def test_several_default_blocks(self, n):
        model = SpectrumModel(powerlaws=(PowerLawTerm(3e7, 1.0),), white_floor=3.0,
                              lines=(SpectralLine(3600.0, 1.5e6, 150.0),
                                     SpectralLine(60.0, 10.0, None)))
        ref = _one_shot_samples(model, 1.2e5, n, derive_rng(2))
        assert draw_trace_samples(model, 1.2e5, n, derive_rng(2)).tobytes() == ref.tobytes()

    def test_traced_peak_memory(self):
        """Only the coefficients and irfft's work outlive a block: the
        traced peak stays within 2.5 times the samples (whole-length
        arrays took 3.6 times)."""
        model = SpectrumModel(white_floor=8e-18,
                              lines=(SpectralLine(3600.0, 1e-9, 150.0),
                                     SpectralLine(50.0, 1e-10, None)))
        tracemalloc.start()
        try:
            trace = synthesize(model, 1e5, 10.0, 3, unit="V")
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert trace.n_samples == 10 ** 6
        assert peak <= 2.5 * trace.samples.nbytes


class TestWelch:
    def test_white_level_decade_averaged(self):
        tr = synthesize(WHITE, 50e3, 4.0, 11)
        est = psd_welch(tr)
        band = (est.f > 1e3) & (est.f < 1e4)
        assert np.mean(est.s[band]) == pytest.approx(350.0, rel=0.05)

    def test_ci_brackets_point(self):
        est = psd_welch(synthesize(WHITE, 20e3, 2.0, 3))
        assert np.all(est.ci_low <= est.s)
        assert np.all(est.ci_high >= est.s)
        assert est.estimator_tag == "welch_periodogram"

    def test_single_segment_warns(self):
        tr = synthesize(WHITE, 10e3, 0.1, 5)
        est = psd_welch(tr, nperseg=tr.n_samples)
        assert any("segment" in w for w in est.warnings)

    def test_no_dc_bin(self):
        est = psd_welch(synthesize(WHITE, 10e3, 1.0, 5))
        assert est.f[0] > 0

    def test_line_recovered_at_fine_resolution(self):
        tr = synthesize(LINE_ONLY, 40e3, 20.0, 9)
        est = psd_welch(tr, nperseg=8 * 40000)
        # argmax wanders within the linewidth with few Welch averages
        assert abs(est.f[np.argmax(est.s)] - 3600.0) < 75.0
        df = est.f[1] - est.f[0]
        near = np.abs(est.f - 3600.0) < 1000.0
        assert np.sum(est.s[near]) * df == pytest.approx(1.5e6, rel=0.25)


    # (sample rate, duration, nperseg): even, odd, n not a multiple of the
    # hop, one segment (nperseg == n), the default, and nperseg > n
    @pytest.mark.parametrize("rate, duration, nperseg", [
        (10e3, 1.0, 1000),
        (10e3, 1.0, 333),
        (10e3, 1.037, 256),
        (10e3, 1.037, 257),
        (10e3, 0.5, 5000),
        (10e3, 0.8, None),
        (1e3, 0.1, 100),
        (1e3, 0.1, 4000),
    ])
    def test_bit_equal_to_scipy_welch(self, rate, duration, nperseg):
        tr = synthesize(LINE_ONLY.scaled(1e-3), rate, duration, 17)
        # an offset, so the per-segment mean removal matters
        tr = dataclasses.replace(tr, samples=tr.samples + 20.0)
        est = psd_welch(tr, nperseg=nperseg)
        n = tr.n_samples
        seg = 2 ** int(math.log2(max(n // 8, 64))) if nperseg is None \
            else min(nperseg, n)
        f, s = signal.welch(tr.samples, fs=tr.sample_rate, window="hann",
                            nperseg=seg, noverlap=seg // 2, detrend="constant",
                            scaling="density")
        assert np.array_equal(est.f, f[1:])
        assert np.array_equal(est.s, s[1:])
        n_seg = 1 + (n - seg) // (seg - seg // 2)
        assert spectra.welch_segments(n, seg if nperseg is None else nperseg) == n_seg
        dof = 2 * n_seg
        factors = (dof / stats.chi2.ppf(0.975, dof), dof / stats.chi2.ppf(0.025, dof))
        assert spectra.welch_ci_factors(n_seg) == factors
        assert np.array_equal(est.ci_low, s[1:] * factors[0])
        assert np.array_equal(est.ci_high, s[1:] * factors[1])
        assert bool(est.warnings) == (n_seg < 2)

    def test_too_short_segment_rejected(self):
        with pytest.raises(ValueError, match="nperseg"):
            psd_welch(synthesize(WHITE, 10e3, 0.1, 5), nperseg=1)


class TestIntegrateRms:
    def _flat(self, level=4.0):
        f = np.linspace(1.0, 1001.0, 101)
        s = np.full_like(f, level)
        return PsdEstimate(f=f, s=s, ci_low=s, ci_high=s,
                           estimator_tag="welch_periodogram")

    def test_flat_band(self):
        est = self._flat()
        assert integrate_rms(est, 1.0, 1001.0) == pytest.approx(
            math.sqrt(4.0 * 1000.0))

    def test_interpolated_endpoints(self):
        est = self._flat()
        assert integrate_rms(est, 10.5, 20.5) == pytest.approx(
            math.sqrt(4.0 * 10.0))

    def test_band_outside_range_rejected(self):
        est = self._flat()
        with pytest.raises(ValueError):
            integrate_rms(est, 0.1, 100.0)
        with pytest.raises(ValueError):
            integrate_rms(est, 100.0, 2000.0)


class TestVoltageConversion:
    def test_psd_scaling(self):
        f = np.geomspace(10.0, 1e4, 20)
        s = np.full_like(f, 2e-18)
        est = PsdEstimate(f=f, s=s, ci_low=0.5 * s, ci_high=2 * s,
                          estimator_tag="welch_periodogram")
        out = voltage_to_detuning_psd(est, -22.88e6)
        k2 = (2 * np.pi * 22.88e6) ** 2
        assert out.s == pytest.approx(s * k2)
        assert out.ci_low == pytest.approx(0.5 * s * k2)

    def test_model_scaling(self):
        vmodel = SpectrumModel(powerlaws=(PowerLawTerm(1e-12, 1.0),),
                               white_floor=8.43e-18,
                               lines=(SpectralLine(3600.0, 1.2e-12, 150.0),))
        dmodel = voltage_to_detuning_model(vmodel, -22.88e6)
        k2 = (2 * np.pi * 22.88e6) ** 2
        f = np.array([100.0, 3600.0, 2e4])
        assert eval_psd(dmodel, f) == pytest.approx(k2 * eval_psd(vmodel, f))


def _read_csv(path):
    """Header and float columns of a written CSV."""
    header, *rows = path.read_text().splitlines()
    return header, np.array([[float(c) for c in row.split(",")] for row in rows]).T


class TestCsv:
    def test_trace_round_trip(self, tmp_path):
        tr = synthesize(WHITE, 10e3, 0.1, 21)
        path = tmp_path / "trace.csv"
        export_trace(tr, path)
        header, (t, x) = _read_csv(path)
        assert header == "time_s,delta_omega_rad_per_s"
        np.testing.assert_array_equal(t, tr.times)
        np.testing.assert_array_equal(x, tr.samples)

    def test_voltage_trace_header(self, tmp_path):
        tr = synthesize(WHITE, 10e3, 0.1, 21, unit="V")
        path = tmp_path / "vtrace.csv"
        export_trace(tr, path)
        assert path.read_text().splitlines()[0] == "time_s,volts"

    def test_psd_round_trip(self, tmp_path):
        est = psd_welch(synthesize(WHITE, 20e3, 1.0, 2))
        path = tmp_path / "psd.csv"
        export_psd(est, path)
        header, columns = _read_csv(path)
        assert header == "f_hz,S_rad2_per_s,ci_low,ci_high"
        for back, want in zip(columns, (est.f, est.s, est.ci_low, est.ci_high)):
            np.testing.assert_array_equal(back, want)
