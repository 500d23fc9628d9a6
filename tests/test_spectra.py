import ast
import dataclasses
import gc
import math
import tracemalloc
import weakref
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import signal, stats

from spinprobe import spectra
from spinprobe._csvio import write_files
from spinprobe._rng import derive_rng
from spinprobe.harness.pipelines import _trace_csv
from spinprobe.spectra import (
    NoiseTrace,
    PowerLawTerm,
    PsdEstimate,
    SpectralLine,
    SpectrumModel,
    draw_trace_samples,
    eval_psd,
    integrate_rms,
    normal_weights,
    psd_welch,
    synthesize,
    detuning_gain,
    log_bin,
    voltage_to_detuning_model,
)

WHITE = SpectrumModel(powerlaws=(), white_floor=350.0, lines=())
ONE_OVER_F = SpectrumModel(powerlaws=(PowerLawTerm(3e7, 1.0),),
                           white_floor=0.0, lines=())
LINE_ONLY = SpectrumModel(powerlaws=(), white_floor=0.0,
                          lines=(SpectralLine(3600.0, 1.5e6, 150.0),))


def trace_normals(n: int, rng: np.random.Generator) -> np.ndarray:
    """The draw-order oracle: the n - 1 standard normals behind one
    n-sample trace, drawn at once.  With ``K = (n - 1) // 2`` they are the
    real parts of rfft bins 1..K, then their imaginary parts, then (even n
    only) the real Nyquist bin; synthesis, Monte Carlo and the tone scan
    each draw them in this order, in blocks or into a reused buffer."""
    return rng.standard_normal(n - 1)


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
        var = np.mean([np.var(synthesize(WHITE, rate, dur, seed).samples)
                       for seed in range(5)])
        expected = 350.0 * (rate / 2 - 1.0 / dur)
        assert var == pytest.approx(expected, rel=0.03)

    def test_line_power_round_trip(self):
        # narrow line: all power lands in the trace regardless of resolution
        var = np.mean([np.var(synthesize(LINE_ONLY, 40e3, 0.05, seed).samples)
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
        tr = synthesize(WHITE, 10e3, 0.25, 7)
        assert tr.n_samples == 2500
        assert tr.sample_rate == 10e3
        assert tr.times[0] == 0.0
        assert tr.times[-1] == pytest.approx(0.25 - 1e-4)

    def test_minimum_length_enforced(self):
        with pytest.raises(ValueError):
            synthesize(WHITE, 100.0, 0.01, 0)


class TestTraceValidation:
    def test_rejects_nonfinite(self):
        with pytest.raises(ValueError):
            NoiseTrace(samples=np.array([1.0, np.nan]), sample_rate=10.0)


class TestRfftBinDensity:
    def test_dc_bin_zero(self):
        # the bins of a trace start at 1: the DC bin draws no normal
        s = spectra._bin_density(WHITE, 1e4 / 1024, 1, 513)
        assert s == pytest.approx(np.full(512, 350.0))
        # an odd n draws its n - 1 trace normals only
        assert normal_weights(WHITE, 1e4, np.ones(1023)).rows.shape == (2, 1022)

    def test_subbin_line_power_conserved(self):
        # width far below bin spacing: a single bin carries ~all the power
        n, rate = 4096, 40e3
        df = rate / n
        s = spectra._bin_density(LINE_ONLY, df, 1, n // 2 + 1)
        assert np.sum(s) * df == pytest.approx(1.5e6, rel=0.02)
        assert 1 + np.argmax(s) == round(3600.0 / df)


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


def _one_shot_amplitudes(model, rate, n):
    """Every normal's amplitude, in draw order, from whole-length arrays."""
    s = _one_shot_density(model, rate, n)
    df = rate / n
    k = (n - 1) // 2
    amp = (n / 2.0) * np.sqrt(s[1:k + 1] * df)
    parts = [amp, amp] + ([[n * math.sqrt(s[-1] * df)]] if n % 2 == 0 else [])
    return np.concatenate(parts)


def _draw_order(weights):
    """``rfft(weights)`` scaled by irfft's 2/n and packed in draw order:
    real parts of bins 1..K, imaginary parts, then half the even-n
    Nyquist bin, which irfft pairs with no conjugate."""
    n = weights.size
    k = (n - 1) // 2
    r = np.fft.rfft(weights) * (2.0 / n)
    return np.concatenate([r[1:k + 1].real, r[1:k + 1].imag]
                          + ([0.5 * r[-1:].real] if n % 2 == 0 else []))


def _one_shot_samples(model, rate, n, rng):
    """The trace built from whole-length arrays: every normal times its
    amplitude, then ``re + 1j * im`` per bin and the Nyquist bin, passed
    through the library's inverse, so block-built coefficients must equal
    these bit for bit."""
    k = (n - 1) // 2
    z = trace_normals(n, rng) * _one_shot_amplitudes(model, rate, n)
    coeff = np.zeros(n // 2 + 1, dtype=complex)
    coeff[1:k + 1] = z[:k] + 1j * z[k:2 * k]
    if n % 2 == 0:
        coeff[-1] = z[-1]
    return spectra._irfft(lambda: coeff, n)


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
        # _bin_density over blocks of the bins 1..n/2 (one block for None)
        edges = [*range(1, n // 2 + 1, block or n), n // 2 + 1]
        blocks = [spectra._bin_density(model, rate / n, a, b)
                  for a, b in zip(edges, edges[1:])]
        assert (np.concatenate(blocks).tobytes()
                == _one_shot_density(model, rate, n)[1:].tobytes())
        # the amplitudes, per bin over the same blocks and in draw order
        # inside normal_weights, are the one-shot ones bit for bit
        amp = _one_shot_amplitudes(model, rate, n)
        k = (n - 1) // 2
        amp_blocks = [spectra._amplitudes(model, rate, n, a, b)
                      for a, b in zip(edges, edges[1:])]
        assert (np.concatenate(amp_blocks).tobytes()
                == np.concatenate((amp[:k], amp[2 * k:])).tobytes())
        weights = np.random.default_rng(n).standard_normal(n)
        assert (normal_weights(model, rate, weights).rows[0, :n - 1].tobytes()
                == (amp * _draw_order(weights)).tobytes())

    @pytest.mark.parametrize("n", [2 * 65536 + 3, 2 * 65536 + 6])
    def test_several_default_blocks(self, n):
        model = SpectrumModel(powerlaws=(PowerLawTerm(3e7, 1.0),), white_floor=3.0,
                              lines=(SpectralLine(3600.0, 1.5e6, 150.0),
                                     SpectralLine(60.0, 10.0, None)))
        ref = _one_shot_samples(model, 1.2e5, n, derive_rng(2))
        assert draw_trace_samples(model, 1.2e5, n, derive_rng(2)).tobytes() == ref.tobytes()

    def test_traced_peak_memory(self):
        """Only whole-length coefficients, half and quarter spectra, the
        quarter traces' buffer and the output outlive a block: the traced
        peak stays within 2.5 times the samples (whole-length arrays took
        3.6 times; allocating the quarter traces' buffer before the first
        split takes 3.3).  tracemalloc does not see pocketfft's workspace;
        tests/test_installed.py bounds the real RSS."""
        model = SpectrumModel(white_floor=8e-18,
                              lines=(SpectralLine(3600.0, 1e-9, 150.0),
                                     SpectralLine(50.0, 1e-10, None)))
        tracemalloc.start()
        try:
            trace = synthesize(model, 1e5, 10.0, 3)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert trace.n_samples == 10 ** 6
        assert peak <= 2.5 * trace.samples.nbytes


def _bin_power(h, n):
    """Each rfft bin's share of |h|^2 before normalising, bins 1..n // 2:
    h_re^2 + h_im^2, and h^2 of an even n's Nyquist normal."""
    k = (n - 1) // 2
    return np.concatenate((h[:k] ** 2 + h[k:2 * k] ** 2, h[2 * k:] ** 2))


def _kept_rows(h, n, bins):
    """The two rows laid out on the rfft ``bins`` alone, from h on every
    bin: real parts, imaginary parts, then an even n's Nyquist normal,
    and in row 1 the quadrature, which draws that normal afresh."""
    k = (n - 1) // 2
    nyquist = n % 2 == 0 and bins[-1] == n // 2
    idx = bins[:bins.size - nyquist] - 1
    s = idx.size
    rows = np.zeros((2, 2 * bins.size))
    rows[0, :2 * s] = np.concatenate((h[idx], h[k + idx]))
    rows[1, :2 * s] = np.concatenate((-h[k + idx], h[idx]))
    if nyquist:
        rows[0, 2 * s] = rows[1, 2 * s + 1] = h[2 * k]
    return rows


class TestKeptBins:
    """``normal_weights`` keeps the fewest bins whose dropped share of
    |h|^2 stays within ``max_dropped_share``, and at least
    ``MIN_KEPT_BINS`` of them."""

    @settings(max_examples=120, deadline=None)
    @given(n=st.integers(2, 300), share=st.floats(0.0, 0.05),
           name=st.sampled_from(sorted(BLOCK_MODELS)),
           seed=st.integers(0, 2**32 - 1))
    @example(n=64, share=0.0, name="line", seed=0)
    @example(n=300, share=0.05, name="white", seed=1)
    @example(n=301, share=0.05, name="power_laws", seed=2)
    def test_kept_bins(self, n, share, name, seed):
        model, rate = BLOCK_MODELS[name], 1e4
        weights = np.random.default_rng(seed).standard_normal(n)
        full = normal_weights(model, rate, weights)
        h = full.rows[0, :n - 1]
        # at 0 today's layout, bit for bit: every bin, in draw order
        assert h.tobytes() == (_one_shot_amplitudes(model, rate, n)
                               * _draw_order(weights)).tobytes()
        assert full.rows.shape == (2, n - n % 2)
        np.testing.assert_array_equal(full.bins, np.arange(1, n // 2 + 1))
        assert full.trace_normals == n - 1
        assert full.rows.tobytes() == _kept_rows(h, n, full.bins).tobytes()
        kept = normal_weights(model, rate, weights, share)
        bins = kept.bins
        # kept bins in bin order, at least the floor of them
        assert np.all(np.diff(bins) > 0) and 1 <= bins[0] and bins[-1] <= n // 2
        assert bins.size >= min(spectra.MIN_KEPT_BINS, n // 2)
        assert kept.rows.tobytes() == _kept_rows(h, n, bins).tobytes()
        assert kept.trace_normals == 2 * bins.size - (
            n % 2 == 0 and bins[-1] == n // 2)
        power = _bin_power(h, n)
        total = float(power.sum())
        dropped = total - float(power[bins - 1].sum())
        assert dropped <= share * total * (1 + 1e-9) + 1e-300
        # both rows orthogonal and of equal norm
        r0, r1 = kept.rows
        norm2 = float(r0 @ r0)
        assert abs(float(r1 @ r1) - norm2) <= 1e-12 * norm2
        assert abs(float(r0 @ r1)) <= 1e-12 * norm2
        # the fewest: one more dropped bin, the smallest kept, would pass the
        # share or the floor
        if bins.size > spectra.MIN_KEPT_BINS and total:
            assert dropped + float(power[bins - 1].min()) >= share * total * (1 - 1e-9)

    def test_a_share_of_zero_is_kept_at_zero(self):
        # zero weights: every bin has share 0, and at 0 none is dropped
        kept = normal_weights(WHITE, 1e4, np.zeros(200))
        np.testing.assert_array_equal(kept.bins, np.arange(1, 101))


class TestInverse:
    """The library's inverse against ``np.fft.irfft``."""

    @staticmethod
    def _hermitian(n, seed):
        """Random rfft coefficients of an n-sample trace, with nonzero
        imaginary parts at DC and (even n) Nyquist, which numpy ignores."""
        rng = np.random.default_rng(seed)
        return rng.standard_normal(n // 2 + 1) + 1j * rng.standard_normal(n // 2 + 1)

    # n % 4 == 0 with an even quarter n / 4 (64, 1000, 2^20) and an odd
    # one (1004), then n % 4 == 2 (131078); odd n below
    @pytest.mark.parametrize("n", [64, 1000, 1004, 2 ** 20, 131078])
    def test_even_length_within_rounding(self, n):
        coeff = self._hermitian(n, n)
        assert coeff[0].imag != 0 and coeff[-1].imag != 0
        ref = np.fft.irfft(coeff, n)
        got = spectra._irfft(coeff.copy, n)
        assert got.shape == ref.shape == (n,)
        assert np.max(np.abs(got - ref)) <= 1e-14 * np.max(np.abs(ref))

    @pytest.mark.parametrize("n", [65, 1001])
    def test_odd_length_is_numpy_bit_for_bit(self, n):
        coeff = self._hermitian(n, n)
        assert spectra._irfft(coeff.copy, n).tobytes() == np.fft.irfft(coeff, n).tobytes()


def _numpy_fft_uses(source: str) -> list[int]:
    """Lines of ``source`` that reach ``numpy.fft``: an attribute ``fft``
    of a name bound to numpy, or an import of ``numpy.fft`` or of ``fft``
    from numpy."""
    tree = ast.parse(source)
    numpy_names = {alias.asname or alias.name for node in ast.walk(tree)
                   if isinstance(node, ast.Import) for alias in node.names
                   if alias.name == "numpy"}
    lines = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute):
            hit = (node.attr == "fft" and isinstance(node.value, ast.Name)
                   and node.value.id in numpy_names)
        elif isinstance(node, ast.Import):
            hit = any(a.name.startswith("numpy.fft") for a in node.names)
        elif isinstance(node, ast.ImportFrom):
            module = node.module or ""
            hit = module.startswith("numpy.fft") or (
                module == "numpy" and any(a.name == "fft" for a in node.names))
        else:
            hit = False
        if hit:
            lines.append(node.lineno)
    return lines


def test_only_spectra_calls_numpy_fft():
    """The trace's Fourier conventions have one owner: no module of the
    package but ``spectra`` reaches ``numpy.fft``."""
    package = Path(spectra.__file__).parent
    uses = {str(path.relative_to(package)): _numpy_fft_uses(path.read_text())
            for path in sorted(package.rglob("*.py"))}
    assert uses["spectra.py"]
    assert {name: lines for name, lines in uses.items()
            if lines and name != "spectra.py"} == {}
    assert _numpy_fft_uses(
        "import numpy as xp\nfrom numpy import fft\nimport numpy.fft\n"
        "xp.fft.rfft(w)\n") == [2, 3, 4]


class TestWelch:
    def test_white_level_decade_averaged(self):
        tr = synthesize(WHITE, 50e3, 4.0, 11)
        est = psd_welch(tr, nperseg=16384)
        band = (est.f > 1e3) & (est.f < 1e4)
        assert np.mean(est.s[band]) == pytest.approx(350.0, rel=0.05)

    def test_ci_brackets_point(self):
        est = psd_welch(synthesize(WHITE, 20e3, 2.0, 3), nperseg=4096)
        assert np.all(est.ci_low <= est.s)
        assert np.all(est.ci_high >= est.s)

    def test_single_segment_warns(self):
        tr = synthesize(WHITE, 10e3, 0.1, 5)
        est = psd_welch(tr, nperseg=tr.n_samples)
        assert any("segment" in w for w in est.warnings)

    def test_no_dc_bin(self):
        est = psd_welch(synthesize(WHITE, 10e3, 1.0, 5), nperseg=1024)
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
    # hop, one segment (nperseg == n), a power of two, and nperseg > n
    @pytest.mark.parametrize("rate, duration, nperseg", [
        (10e3, 1.0, 1000),
        (10e3, 1.0, 333),
        (10e3, 1.037, 256),
        (10e3, 1.037, 257),
        (10e3, 0.5, 5000),
        (10e3, 0.8, 512),
        (1e3, 0.1, 100),
        (1e3, 0.1, 4000),
        # 2, 7, 8, 16 and 17 segments: the branches of the pairwise segment
        # sum below 129 segments (..._beyond_the_quantile_table: above)
        (1e4, 0.03, 200),
        (1e4, 0.0857, 201),
        (1e4, 0.09, 200),
        (1e4, 0.17, 200),
        (1e4, 0.18, 200),
    ])
    def test_bit_equal_to_scipy_welch(self, rate, duration, nperseg):
        tr = synthesize(LINE_ONLY.scaled(1e-3), rate, duration, 17)
        # an offset, so the per-segment mean removal matters
        tr = dataclasses.replace(tr, samples=tr.samples + 20.0)
        est = psd_welch(tr, nperseg=nperseg)
        n = tr.n_samples
        seg = min(nperseg, n)
        f, s = signal.welch(tr.samples, fs=tr.sample_rate, window="hann",
                            nperseg=seg, noverlap=seg // 2, detrend="constant",
                            scaling="density")
        assert np.array_equal(est.f, f[1:])
        assert np.array_equal(est.s, s[1:])
        n_seg = 1 + (n - seg) // (seg - seg // 2)
        assert spectra.welch_segments(n, nperseg) == n_seg
        dof = 2 * n_seg
        factors = (dof / stats.chi2.ppf(0.975, dof), dof / stats.chi2.ppf(0.025, dof))
        assert spectra.welch_ci_factors(n_seg) == factors
        assert np.array_equal(est.ci_low, s[1:] * factors[0])
        assert np.array_equal(est.ci_high, s[1:] * factors[1])
        assert bool(est.warnings) == (n_seg < 2)

    # 2, 8 and 299 segments: a running sum, one block of the pairwise
    # segment sum, and splits into blocks
    @pytest.mark.parametrize("duration", [0.03, 0.09, 3.0])
    def test_trace_is_freed_when_the_estimate_returns(self, duration):
        """psd_welch leaves no reference cycle behind: with the collector
        off, the trace's samples die with the trace."""
        tr = synthesize(WHITE, 1e4, duration, 5)
        samples = weakref.ref(tr.samples)
        enabled = gc.isenabled()
        gc.disable()
        try:
            psd_welch(tr, nperseg=200)
            del tr
            assert samples() is None
        finally:
            if enabled:
                gc.enable()

    # 128, 129 and 299 segments: one block of the pairwise segment sum, and
    # splits of more than 128 segments into blocks
    @pytest.mark.parametrize("duration", [1.29, 1.3, 3.0])
    def test_bit_equal_to_scipy_welch_beyond_the_quantile_table(self, duration):
        """The estimate stays scipy's bit for bit; the confidence factors
        of more than 100 segments come from gamma_quantile, to 1e-14."""
        tr = synthesize(LINE_ONLY.scaled(1e-3), 1e4, duration, 17)
        tr = dataclasses.replace(tr, samples=tr.samples + 20.0)
        est = psd_welch(tr, nperseg=200)
        f, s = signal.welch(tr.samples, fs=tr.sample_rate, window="hann",
                            nperseg=200, noverlap=100, detrend="constant",
                            scaling="density")
        assert np.array_equal(est.f, f[1:])
        assert np.array_equal(est.s, s[1:])
        dof = 2 * spectra.welch_segments(tr.n_samples, 200)
        assert dof // 2 == round(duration * 100) - 1 > 100
        factors = (dof / stats.chi2.ppf(0.975, dof), dof / stats.chi2.ppf(0.025, dof))
        np.testing.assert_allclose(est.ci_low, s[1:] * factors[0], rtol=1e-13)
        np.testing.assert_allclose(est.ci_high, s[1:] * factors[1], rtol=1e-13)

    @settings(max_examples=150, deadline=None)
    @given(n_rows=st.integers(1, 300), n_bins=st.integers(1, 40),
           seed=st.integers(0, 2 ** 32 - 1))
    @example(n_rows=7, n_bins=5, seed=0)
    @example(n_rows=8, n_bins=5, seed=0)
    @example(n_rows=128, n_bins=5, seed=0)
    @example(n_rows=129, n_bins=5, seed=0)
    @example(n_rows=300, n_bins=5, seed=0)
    def test_segment_sum_is_numpy_mean_bit_for_bit(self, n_rows, n_bins, seed):
        """The streamed row sum over a reused buffer, which asks for each
        row once, divided by the row count, is the mean of the bins-by-rows
        matrix, whose contiguous reduce adds each bin's rows in numpy's
        pairwise order."""
        rng = np.random.default_rng(seed)
        # magnitudes over 12 decades, so that a different order rounds
        # differently
        rows = rng.standard_normal((n_rows, n_bins)) * 10.0 ** rng.uniform(
            -6, 6, (n_rows, n_bins))
        buffer, asked = np.empty(n_bins), []

        def row(k):
            asked.append(k)
            buffer[...] = rows[k]
            return buffer

        got = spectra._pairwise_row_sum(row, 0, n_rows) / n_rows
        assert got.tobytes() == np.stack(list(rows), axis=-1).mean(axis=-1).tobytes()
        assert sorted(asked) == list(range(n_rows))

    def test_too_short_segment_rejected(self):
        with pytest.raises(ValueError, match="nperseg"):
            psd_welch(synthesize(WHITE, 10e3, 0.1, 5), nperseg=1)


class TestIntegrateRms:
    def _flat(self, level=4.0):
        f = np.linspace(1.0, 1001.0, 101)
        s = np.full_like(f, level)
        return PsdEstimate(f=f, s=s, ci_low=s, ci_high=s)

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
    def test_gain(self):
        assert detuning_gain(-22.88e6) == detuning_gain(22.88e6) == \
            (2 * math.pi * 22.88e6) ** 2

    def test_model_scaling(self):
        vmodel = SpectrumModel(powerlaws=(PowerLawTerm(1e-12, 1.0),),
                               white_floor=8.43e-18,
                               lines=(SpectralLine(3600.0, 1.2e-12, 150.0),))
        dmodel = voltage_to_detuning_model(vmodel, -22.88e6)
        k2 = (2 * np.pi * 22.88e6) ** 2
        f = np.array([100.0, 3600.0, 2e4])
        assert eval_psd(dmodel, f) == pytest.approx(k2 * eval_psd(vmodel, f))


class TestLogBin:
    def test_every_point_in_one_bin_in_order(self):
        f = np.arange(1, 20001) * 0.25
        s = derive_rng(3).exponential(size=f.size)
        f_b, s_b, n = log_bin(f, s)
        assert n.sum() == f.size and n.min() >= 1
        assert np.all(np.diff(f_b) > 0)
        ends = np.cumsum(n)
        starts = ends - n
        np.testing.assert_allclose(f_b, [f[a:b].mean() for a, b in zip(starts, ends)],
                                   rtol=1e-14)
        np.testing.assert_allclose(s_b, [s[a:b].mean() for a, b in zip(starts, ends)],
                                   rtol=1e-13)
        # one bin per point while bins are narrower than the spacing
        below = f < 0.9 * 0.25 * spectra.LOG_BINS_PER_DECADE / math.log(10)
        assert np.all(n[:np.count_nonzero(below)] == 1)
        one = n == 1
        assert np.array_equal(f_b[one], f[starts[one]])
        assert np.array_equal(s_b[one], s[starts[one]])
        # bins are fixed in log10(f): one decade holds LOG_BINS_PER_DECADE
        decade = (f_b >= 1e2) & (f_b < 1e3)
        assert np.count_nonzero(decade) == spectra.LOG_BINS_PER_DECADE

    @pytest.mark.parametrize("f", [[], [0.0, 1.0], [1.0, 1.0], [2.0, 1.0]])
    def test_bad_grid_rejected(self, f):
        with pytest.raises(ValueError, match="log_bin"):
            log_bin(f, np.ones(len(f)))


def _read_csv(path):
    """Header and float columns of a written CSV."""
    header, *rows = path.read_text().splitlines()
    return header, np.array([[float(c) for c in row.split(",")] for row in rows]).T


class TestCsv:
    """A trace through the layout a run writes it in."""

    def test_trace_round_trip(self, tmp_path):
        tr = synthesize(WHITE, 10e3, 0.1, 21)
        path = tmp_path / "trace.csv"
        write_files({path: _trace_csv(tr)})
        _, (t, x) = _read_csv(path)
        np.testing.assert_array_equal(t, tr.times)
        np.testing.assert_array_equal(x, tr.samples)

    def test_voltage_trace_header(self, tmp_path):
        tr = synthesize(WHITE, 10e3, 0.1, 21)
        path = tmp_path / "vtrace.csv"
        write_files({path: _trace_csv(tr)})
        assert path.read_text().splitlines()[0] == "time_s,volts"
