"""Noise spectral models, trace synthesis, and PSD estimation.

Conventions used throughout the package:

* Spectral densities are one-sided and reported against ordinary frequency
  f in Hz.  For a detuning process the units are rad^2/s and the total
  variance of the process is ``Var = int_0^inf S(f) df`` (rad^2/s^2).
  Voltage spectra use V^2/Hz with the analogous normalization.
* Power-law terms are written ``C / omega^alpha`` with ``omega = 2*pi*f``.
* Synthesized traces are zero-mean, stationary and Gaussian by construction
  (independent complex-Gaussian Fourier bins).  Power-law content below one
  frequency bin (1/duration) is truncated: the DC bin is always zero.
* An n-sample trace is drawn from n - 1 standard normals, and
  :func:`normal_weights` gives the weights on them of a functional of the
  trace and of its quadrature trace: a stream's rfft layout lives here,
  and so does the choice of the bins a stream may skip.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Callable, NamedTuple

import numpy as np

from ._rng import derive_rng
from ._solve import gamma_quantile

__all__ = [
    "PowerLawTerm",
    "SpectralLine",
    "SpectrumModel",
    "NoiseTrace",
    "PsdEstimate",
    "eval_psd",
    "MIN_KEPT_BINS",
    "DROPPED_SHARE",
    "NormalWeights",
    "normal_weights",
    "draw_trace_samples",
    "MIN_TRACE_SAMPLES",
    "synthesize",
    "welch_segments",
    "welch_ci_factors",
    "psd_welch",
    "integrate_rms",
    "LOG_BINS_PER_DECADE",
    "log_bin",
    "detuning_gain",
    "voltage_to_detuning_model",
]

@dataclass(frozen=True)
class PowerLawTerm:
    """One ``amplitude / (2*pi*f)**exponent`` component."""

    amplitude: float
    exponent: float

    def __post_init__(self):
        if self.amplitude < 0:
            raise ValueError(f"power-law amplitude must be >= 0, got {self.amplitude}")
        if not 0.0 <= self.exponent <= 3.0:
            raise ValueError(f"power-law exponent must lie in [0, 3], got {self.exponent}")


@dataclass(frozen=True)
class SpectralLine:
    """Narrow Lorentzian feature.

    ``power`` is the integrated contribution to the process variance
    (units rad^2/s^2 for detuning spectra, V^2 for voltage spectra).
    ``width_hz`` is the FWHM; None means resolution-limited, which
    synthesis resolves to one frequency bin of the generated trace.
    """

    center_hz: float
    power: float
    width_hz: float | None = None

    def __post_init__(self):
        if self.center_hz <= 0:
            raise ValueError(f"line center must be > 0 Hz, got {self.center_hz}")
        if self.power < 0:
            raise ValueError(f"line power must be >= 0, got {self.power}")
        if self.width_hz is not None and self.width_hz <= 0:
            raise ValueError(f"line width must be > 0 Hz, got {self.width_hz}")


@dataclass(frozen=True)
class SpectrumModel:
    """Sum of power laws, a white floor, and narrow lines."""

    powerlaws: tuple[PowerLawTerm, ...] = ()
    white_floor: float = 0.0
    lines: tuple[SpectralLine, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "powerlaws", tuple(self.powerlaws))
        object.__setattr__(self, "lines", tuple(self.lines))
        if self.white_floor < 0:
            raise ValueError(f"white floor must be >= 0, got {self.white_floor}")

    def scaled(self, gain: float) -> "SpectrumModel":
        """Model with every spectral density multiplied by ``gain``."""
        return SpectrumModel(
            powerlaws=tuple(replace(t, amplitude=t.amplitude * gain) for t in self.powerlaws),
            white_floor=self.white_floor * gain,
            lines=tuple(replace(l, power=l.power * gain) for l in self.lines),
        )

    @classmethod
    def from_dict(cls, d: dict) -> "SpectrumModel":
        return cls(
            powerlaws=tuple(PowerLawTerm(p["amplitude"], p["exponent"])
                            for p in d.get("powerlaws", ())),
            white_floor=float(d.get("white_floor", 0.0)),
            lines=tuple(SpectralLine(l["center_hz"], l["power"], l.get("width_hz"))
                        for l in d.get("lines", ())),
        )


@dataclass(frozen=True)
class NoiseTrace:
    """Uniformly sampled real-valued noise record."""

    samples: np.ndarray
    sample_rate: float

    def __post_init__(self):
        samples = np.asarray(self.samples, dtype=float)
        if samples.ndim != 1:
            raise ValueError("trace samples must be one-dimensional")
        if not np.all(np.isfinite(samples)):
            raise ValueError("trace samples must be finite")
        object.__setattr__(self, "samples", samples)

    @property
    def n_samples(self) -> int:
        return self.samples.size

    @property
    def times(self) -> np.ndarray:
        return np.arange(self.n_samples) / self.sample_rate


@dataclass(frozen=True)
class PsdEstimate:
    """One-sided PSD estimate with pointwise 95% confidence bounds."""

    f: np.ndarray
    s: np.ndarray
    ci_low: np.ndarray
    ci_high: np.ndarray
    warnings: tuple[str, ...] = ()
    points_detail: tuple = field(default_factory=tuple, compare=False)

    def __post_init__(self):
        f = np.asarray(self.f, dtype=float)
        s = np.asarray(self.s, dtype=float)
        lo = np.asarray(self.ci_low, dtype=float)
        hi = np.asarray(self.ci_high, dtype=float)
        if not (f.shape == s.shape == lo.shape == hi.shape) or f.ndim != 1:
            raise ValueError("estimate arrays must be 1-D and congruent")
        if f.size and np.any(np.diff(f) <= 0):
            raise ValueError("frequency grid must be strictly increasing")
        if np.any(s < 0):
            raise ValueError("spectral density must be >= 0")
        if np.any(lo > s) or np.any(hi < s):
            raise ValueError("confidence bounds must bracket the estimate")
        for name, arr in (("f", f), ("s", s), ("ci_low", lo), ("ci_high", hi)):
            object.__setattr__(self, name, arr)

    @property
    def n_points(self) -> int:
        return self.f.size


def _lorentzian(f: np.ndarray, line: SpectralLine, width: float) -> np.ndarray:
    hw = width / 2.0
    return line.power / math.pi * hw / ((f - line.center_hz) ** 2 + hw**2)


def _smooth_psd(model: SpectrumModel, f: np.ndarray) -> np.ndarray:
    """Power laws + white floor (no lines) at f > 0."""
    s = np.full_like(f, float(model.white_floor))
    omega = 2.0 * math.pi * f
    for term in model.powerlaws:
        # omega**alpha overflows to inf at huge f, where the term's limit is 0
        with np.errstate(over="ignore"):
            denom = omega**term.exponent
        s += term.amplitude / denom
    return s


def eval_psd(model: SpectrumModel, f) -> np.ndarray:
    """Evaluate the model PSD at frequencies ``f`` (Hz, strictly positive).

    Lines must carry an explicit width here; a resolution-limited line
    (width None) only has a definite shape once a frequency grid exists.
    """
    f_arr = np.atleast_1d(np.asarray(f, dtype=float))
    if np.any(f_arr <= 0) or not np.all(np.isfinite(f_arr)):
        raise ValueError("eval_psd requires finite frequencies > 0")
    s = _smooth_psd(model, f_arr)
    for line in model.lines:
        if line.width_hz is None:
            raise ValueError(
                "line at {:.6g} Hz has no width; set width_hz to evaluate "
                "the model pointwise".format(line.center_hz))
        s += _lorentzian(f_arr, line, line.width_hz)
    return s if np.ndim(f) else float(s[0])


def _line_bin_power(line: SpectralLine, edges: np.ndarray, width: float) -> np.ndarray:
    """Integrated line power in each bin (exact Lorentzian CDF differences)."""
    hw = width / 2.0
    cdf = np.arctan((edges - line.center_hz) / hw) / math.pi
    return line.power * np.diff(cdf)


def _bin_density(model: SpectrumModel, df: float, a: int, b: int) -> np.ndarray:
    """Model PSD on rfft bins a..b-1 (a >= 1) of spacing df.

    Smooth components (power laws, white floor) are sampled at the bin
    centres, not averaged over the bin; only lines are integrated over each
    bin (exact Lorentzian CDF) so their total power survives even when
    narrower than one bin.  Every bin depends on its own index alone,
    so any split of a range into blocks gives the same values bit for bit.
    """
    s = _smooth_psd(model, np.arange(a, b) * df)
    if model.lines:
        edges = (np.arange(a, b + 1) - 0.5) * df
        for line in model.lines:
            width = line.width_hz if line.width_hz is not None else df
            s += _line_bin_power(line, edges, width) / df
    return s


def _amplitudes(model: SpectrumModel, sample_rate: float, n: int,
                a: int, b: int) -> np.ndarray:
    """rfft coefficient per unit normal of bins a..b-1 (a >= 1) of an
    n-sample trace of the model, so each contributes ``S(f_k) * df`` to
    the sample variance; the real Nyquist bin of an even n, which irfft
    pairs with no conjugate, takes twice the amplitude."""
    df = sample_rate / n
    amp = (n / 2.0) * np.sqrt(_bin_density(model, df, a, b) * df)
    if n % 2 == 0 and b == n // 2 + 1:
        amp[-1] *= 2
    return amp


# fewest rfft bins normal_weights keeps, whatever the share it may drop
MIN_KEPT_BINS = 32

# share of |h|^2 every phase draw (qubitsim.phase_draw) leaves out by
# dropping rfft bins: chi falls by at most 0.1% (about 0.0005 dex in S),
# and the shipped scans draw a fifth to a third of their normals
DROPPED_SHARE = 1e-3


class NormalWeights(NamedTuple):
    """The weights :func:`normal_weights` lays on a stream's normals."""

    rows: np.ndarray
    bins: np.ndarray
    trace_normals: int


def normal_weights(model: SpectrumModel, sample_rate: float,
                   weights: np.ndarray,
                   max_dropped_share: float = 0.0) -> NormalWeights:
    """The two rows of weights on a stream's normals that give the linear
    functional ``weights @ x`` of the trace x of ``n = weights.size``
    samples :func:`draw_trace_samples` makes from the stream at
    ``sample_rate``, and of its quadrature trace, without forming either.

    Row 0 is h: irfft sums ``c_k e^{+2 pi i jk/n} / n`` with each interior
    bin paired with its conjugate, so the functional is ``(2/n) Re(c_k
    conj(R_k))`` summed over bins, ``R = rfft(weights)``, and the unpaired
    real Nyquist bin of an even n enters as ``c R / n``.  Row 1 is the
    quadrature trace's, the Hilbert transform's: every interior bin times
    -i, so a bin's weights (h_re, h_im) become (-h_im, h_re), and the
    Nyquist bin drawn afresh on one more normal.

    A bin's share is its part of |h|^2, ``h_re^2 + h_im^2``.  The bins of
    smallest share, ties in bin order, are dropped while their summed
    share stays below ``max_dropped_share``, but at least
    :data:`MIN_KEPT_BINS` bins (or all of them) are kept; ``bins`` are the
    kept rfft bins in bin order.  At 0 every bin is kept, one of share 0
    too, and h is the
    trace's n - 1 normals in draw order.  The rows lay out the kept bins
    alone, in the draw order of a trace with only those bins: their real
    parts, their imaginary parts, then a kept Nyquist bin, ending row 0's
    ``trace_normals`` normals; then, for a kept Nyquist bin, the
    quadrature's extra normal.  Row 0 is then h on the trace synthesized
    from the kept bins, whose spectrum is the model's there and 0
    elsewhere.  Selection is per bin, so the rows stay orthogonal and of
    equal norm.
    """
    n = weights.size
    k = (n - 1) // 2
    r = np.fft.rfft(weights) * (2.0 / n)
    amp = _amplitudes(model, sample_rate, n, 1, n // 2 + 1)
    h = (np.concatenate((r.real[1:k + 1], r.imag[1:k + 1], 0.5 * r.real[k + 1:]))
         * np.concatenate((amp[:k], amp)))
    keep = np.arange(n // 2)
    if keep.size > MIN_KEPT_BINS:
        power = np.concatenate((h[:k] ** 2 + h[k:2 * k] ** 2, h[2 * k:] ** 2))
        order = np.argsort(power, kind="stable")
        dropped = np.cumsum(power[order])
        n_drop = min(int(np.count_nonzero(dropped < max_dropped_share * dropped[-1])),
                     keep.size - MIN_KEPT_BINS)
        if n_drop:
            kept = np.ones(keep.size, dtype=bool)
            kept[order[:n_drop]] = False
            keep = np.flatnonzero(kept)
    nyquist = bool(n % 2 == 0 and keep[-1] == k)
    inner = keep[:keep.size - nyquist]
    s = inner.size
    re, im = h[inner], h[k + inner]
    rows = np.zeros((2, 2 * (s + nyquist)))
    rows[0, :s], rows[0, s:2 * s] = re, im
    np.negative(im, out=rows[1, :s])
    rows[1, s:2 * s] = re
    if nyquist:
        rows[0, 2 * s] = rows[1, 2 * s + 1] = h[2 * k]
    return NormalWeights(rows, keep + 1, 2 * s + nyquist)


# rfft bins per block of the coefficient construction in draw_trace_samples
# and of _half_spectra
_BLOCK_BINS = 1 << 16


def _half_spectra(coeff: np.ndarray, h: int) -> tuple[np.ndarray, np.ndarray]:
    """The rfft coefficients E and O of the even and odd samples of the
    n = 2h-sample inverse of ``coeff`` (Sorensen et al., IEEE Trans. ASSP
    35, 849 (1987)), for k = 0..h//2:
    E[k] = (C[k] + conj C[h - k]) / 2 and
    O[k] = (C[k] - conj C[h - k]) / 2 * exp(2 pi i k / n).
    Built in blocks of ``_BLOCK_BINS`` bins; the halving is exact."""
    even = np.empty(h // 2 + 1, dtype=complex)
    odd = np.empty_like(even)
    twiddle = np.empty(min(_BLOCK_BINS, even.size), dtype=complex)
    for a in range(0, even.size, _BLOCK_BINS):
        b = min(a + _BLOCK_BINS, even.size)
        e, o, w = even[a:b], odd[a:b], twiddle[:b - a]
        np.conjugate(coeff[h - b + 1:h - a + 1][::-1], out=e)  # conj C[h - k]
        np.subtract(coeff[a:b], e, out=o)
        e += coeff[a:b]
        e *= 0.5
        o *= 0.5
        np.multiply(np.arange(a, b), 1j * np.pi / h, out=w)
        o *= np.exp(w, out=w)
    return even, odd


def _irfft(coefficients: Callable[[], np.ndarray], n: int) -> np.ndarray:
    """``np.fft.irfft(coefficients(), n)`` of the n // 2 + 1 rfft
    coefficients that ``coefficients`` returns, in less memory for even n.

    Odd n is ``np.fft.irfft`` itself.  Even n = 2h splits the coefficients
    into the half spectra E and O of :func:`_half_spectra` and drops them.
    For odd h the two length-h inverses follow one after the other, each
    half spectrum dropped after its own, and only then is the n-sample
    output allocated.  For even h = 2q each half spectrum is split once
    more and dropped, E before O: the four length-q inverses write the
    samples x[4m], x[4m + 2], x[4m + 1] and x[4m + 3] into contiguous
    quarters of one n-sample buffer, allocated once E is split and before
    O is, and one strided copy interleaves them into the output.  This
    frame takes the coefficients from the call and holds every later
    array itself, so when ``coefficients`` keeps no reference to them, as
    in :func:`draw_trace_samples`, each ``del`` frees its array on every
    Python version.  The samples agree with numpy's to rounding (within
    1e-14 of their largest magnitude), and the imaginary parts of the DC
    and Nyquist bins are ignored, as numpy ignores them.
    """
    coeff = coefficients()
    if n % 2:
        return np.fft.irfft(coeff, n)
    h = n // 2
    even, odd = _half_spectra(coeff, h)
    del coeff
    if h % 2:
        x_even = np.fft.irfft(even, h)
        del even
        x_odd = np.fft.irfft(odd, h)
        del odd
        x = np.empty(n)
        x[0::2] = x_even
        x[1::2] = x_odd
        return x
    q = h // 2
    even_even, even_odd = _half_spectra(even, q)
    del even
    blocks = np.empty(n)
    np.fft.irfft(even_even, q, out=blocks[:q])
    del even_even
    np.fft.irfft(even_odd, q, out=blocks[q:2 * q])
    del even_odd
    odd_even, odd_odd = _half_spectra(odd, q)
    del odd
    np.fft.irfft(odd_even, q, out=blocks[2 * q:3 * q])
    del odd_even
    np.fft.irfft(odd_odd, q, out=blocks[3 * q:])
    del odd_odd
    x = np.empty(n)
    # x[4m + 2b + a] is quarter 2a + b's sample m; no transposed view is
    # reshaped, which would copy it
    x.reshape(q, 2, 2)[...] = blocks.reshape(2, 2, q).transpose(2, 1, 0)
    return x


def _coefficients(model: SpectrumModel, sample_rate: float, n: int,
                  rng: np.random.Generator) -> np.ndarray:
    """The n // 2 + 1 rfft coefficients of :func:`draw_trace_samples`.

    They are filled in blocks of ``_BLOCK_BINS`` bins, in its draw order:
    a first pass parks each block's amplitudes in the imaginary parts and
    writes normals times amplitudes into the real parts, a second pass
    forms ``re + 1j * im`` from the imaginary-part normals, as the
    whole-length construction did, then comes the even-n Nyquist bin.
    The coefficients equal those of the whole-length construction bit
    for bit, and only block-sized arrays live beside them.
    """
    k = (n - 1) // 2
    coeff = np.zeros(n // 2 + 1, dtype=complex)
    blocks = [(a, min(a + _BLOCK_BINS, k + 1)) for a in range(1, k + 1, _BLOCK_BINS)]
    normals = np.empty(min(_BLOCK_BINS, k))
    for a, b in blocks:
        amp = coeff.imag[a:b]
        amp[...] = _amplitudes(model, sample_rate, n, a, b)
        np.multiply(rng.standard_normal(out=normals[:b - a]), amp,
                    out=coeff.real[a:b])
    for a, b in blocks:
        z = rng.standard_normal(out=normals[:b - a]) * coeff.imag[a:b]
        coeff[a:b] = coeff.real[a:b] + 1j * z
    if n % 2 == 0:  # real Nyquist bin
        coeff[-1:] = rng.standard_normal(1) * _amplitudes(
            model, sample_rate, n, n // 2, n // 2 + 1)
    return coeff


def draw_trace_samples(model: SpectrumModel, sample_rate: float, n: int,
                       rng: np.random.Generator) -> np.ndarray:
    """One Gaussian realization of an n-sample trace of the model.

    Each positive rfft bin receives an independent complex Gaussian
    amplitude: the trace's n - 1 standard normals times the amplitudes of
    :func:`_amplitudes`.  The trace variance approximates ``int S df``
    over (0, Nyquist].

    The draw order: with ``K = (n - 1) // 2``, the real parts of rfft bins
    1..K, then their imaginary parts, then (even n only) the real Nyquist
    bin.  :func:`normal_weights` lays out its weights in the same order,
    so a stream yields the same numbers whether its trace is synthesized
    here or only a linear functional of it is computed.

    :func:`_coefficients` builds the coefficients in blocks inside
    :func:`_irfft`, which holds the only reference to them.  The peak
    above the process is then about 2.0 times the sample bytes when 4
    divides n (the quarter traces' buffer beside the odd half spectrum
    and two quarter spectra, or beside the output), 2.5 for other even n
    (the two half spectra plus one half-length transform's output and
    workspace) and 4.0 for odd n, which takes numpy's whole-length
    ``irfft`` (numpy 2.4, CPython 3.11, x86-64).
    """
    return _irfft(lambda: _coefficients(model, sample_rate, n, rng), n)


# fewest samples of a synthesized trace or a Monte Carlo trace grid
MIN_TRACE_SAMPLES = 64


def synthesize(model: SpectrumModel, sample_rate: float, duration: float,
               seed: int) -> NoiseTrace:
    """Generate a Gaussian trace whose one-sided PSD follows the model.

    Deterministic per seed; see :func:`draw_trace_samples` for the
    construction and its memory: about twice the samples when 4 divides
    the length (four quarter-length ``irfft``s), 2.5 times for other even
    lengths (two half-length ones) and 4 times for odd lengths (the
    coefficients plus a whole-length one).
    """
    n = int(round(sample_rate * duration))
    if n < MIN_TRACE_SAMPLES:
        raise ValueError(f"duration*sample_rate = {n} samples; need at least "
                         f"{MIN_TRACE_SAMPLES} for synthesis")
    samples = draw_trace_samples(model, sample_rate, n, derive_rng(seed))
    return NoiseTrace(samples=samples, sample_rate=float(sample_rate))


# (P^-1(n, 0.025), P^-1(n, 0.975)) for n = 1..100 Welch segments, P the
# regularized lower incomplete gamma: the values earlier releases used,
# within 5 ulps of exact, so their Welch bounds stay byte-identical.
# gamma_quantile reproduces each to 1e-14 and covers larger n.
_WELCH_GAMMA_QUANTILES = (
    (0.025317807984289876, 3.6888794541139354), (0.24220927854396496, 5.571643390938898),
    (0.6186721228956014, 7.22468766772396), (1.0898653736263249, 8.767273069742323),
    (1.6234863901184207, 10.241588675403694), (2.2018942534908508, 11.66833207932267),
    (2.8143630515198654, 13.059474022518685), (3.4538321767485014, 14.422675361702376),
    (4.115373097378334, 15.763189220193313), (4.7953886961324335, 17.084803451419166),
    (5.49116036723684, 18.39035604201778), (6.200575108722218, 19.682038513301954),
    (6.921952491003801, 20.96158504817696), (7.653930276300595, 22.230395918158873),
    (8.395386132783315, 23.489621121835576), (9.145382453641524, 24.740218871485844),
    (9.903126469607294, 25.98299759756094), (10.667940780399528, 27.218646815906613),
    (11.43924116436673, 28.447760267527983), (12.216519585403944, 29.67085357158559),
    (12.999330984076186, 30.8883779026746), (13.78728287222961, 32.100730734943404),
    (14.580027037044678, 33.308264387125234), (15.377252854686462, 34.51129289483303),
    (16.178681847829328, 35.71009759375321), (16.98406321559634, 36.904931697530365),
    (17.793170131764775, 38.096024083124995), (18.60579665585753, 39.28358244516213),
    (19.421755137547937, 40.46779594326819), (20.240874021420915, 41.6488374385866),
    (21.062995979141853, 42.82686539480766), (21.887976311284564, 44.00202550324875),
    (22.71568157272984, 45.17445207942047), (23.54598838457227, 46.344269269169295),
    (24.37878240251976, 47.511592095203085), (25.21395741731523, 48.676527369083075),
    (26.05141456710603, 49.83917448923619), (26.89106164519615, 50.999626141930825),
    (27.732812489436476, 52.15796891925961), (28.576586441788965, 53.31428386583284),
    (29.42230786845528, 54.468646963984064), (30.2699057324777, 55.62112956573492),
    (31.119313211967185, 56.77179877849065), (31.970467358144333, 57.92071781038363),
    (32.82330878823446, 59.06794628030773), (33.677781408971875, 60.21354049695881),
    (34.53383216706575, 61.357553710586004), (35.39141082348324, 62.50003634064697),
    (36.25046974882914, 63.641036182127266), (37.110963737461866, 64.7805985929183),
    (37.97284983829076, 65.91876666433681), (38.83608720046123, 67.05558137660378),
    (39.70063693235747, 68.19108174087289), (40.56646197254475, 69.32530492920425),
    (41.433526971438475, 70.45828639371071), (42.301798182630215, 71.59005997595936),
    (43.17124336292474, 72.72065800758494), (44.04183168024975, 73.85011140296281),
    (44.913533628693436, 74.97844974469457), (45.786320950007266, 76.10570136257577),
    (46.66016656098253, 77.23189340664332), (47.53504448617258, 78.35705191483608),
    (48.41092979548724, 79.48120187574625), (49.28779854623545, 80.6043672868905),
    (50.16562772923427, 81.72657120888499), (51.044395218641284, 82.84783581587158),
    (51.924079725200535, 83.9681824425068), (52.80466075262246, 85.08763162779636),
    (53.686118556844825, 86.20620315602955), (54.568434107945485, 87.32391609504528),
    (55.451589054499024, 88.44078883203895), (56.33556569018834, 89.55683910710061),
    (57.22034692249915, 90.67208404465795), (58.10591624334097, 91.78654018298154),
    (58.99225770145145, 92.90022350189663), (59.879355876453594, 94.01314944883276),
    (60.76719585444652, 95.12533296333159), (61.65576320502033, 96.2367885001229),
    (62.545043959594864, 97.34753005086979), (63.43502459099035, 98.45757116467573),
    (64.32569199414536, 99.56692496743847), (65.21703346790436, 100.67560418012904),
    (66.10903669780309, 101.78362113606813), (67.001689739786, 102.89098779726608),
    (67.89498100479449, 103.9977157698877), (68.78889924416998, 105.10381631889896),
    (69.6834335358197, 106.20930038194719), (70.57857327109681, 107.31417858252382),
    (71.47430814235075, 108.41846124245428), (72.37062813110597, 109.52215839375643),
    (73.26752349683107, 110.62527978990643), (74.16498476626239, 111.72783491654769),
    (75.06300272324934, 112.82983300167609), (75.96156839909021, 113.93128302533263),
    (76.86067306333014, 115.03219372883225), (77.76030821499445, 116.13257362355552),
    (78.66046557423232, 117.23243099932849), (79.56113707434764, 118.33177393241384),
    (80.46231485419538, 119.43061029313529), (81.36399125092314, 120.52894775315546),
)


def _welch_gamma_quantiles(n_segments: int) -> tuple[float, float]:
    if n_segments <= len(_WELCH_GAMMA_QUANTILES):
        return _WELCH_GAMMA_QUANTILES[n_segments - 1]
    return gamma_quantile(n_segments, 0.025), gamma_quantile(n_segments, 0.975)


def welch_segments(n_samples: int, nperseg: int) -> int:
    """Segments :func:`psd_welch` averages over a trace of ``n_samples``:
    ``nperseg`` clipped to the trace, 50% overlap."""
    nperseg = min(nperseg, n_samples)
    return 1 + (n_samples - nperseg) // (nperseg - nperseg // 2)


def welch_ci_factors(n_segments: int) -> tuple[float, float]:
    """(low, high): :func:`psd_welch`'s pointwise 95% bounds are the
    estimate times these.  Chi-squared with ~2 dof per averaged segment;
    the chi-squared quantile is twice the gamma one at shape dof/2."""
    dof = 2 * n_segments
    q_lo, q_hi = _welch_gamma_quantiles(n_segments)
    return dof / (2 * q_hi), dof / (2 * q_lo)


def _pairwise_row_sum(row: Callable[[int], np.ndarray], lo: int,
                      n: int) -> np.ndarray:
    """``row(lo) + ... + row(lo + n - 1)`` added in the order of numpy's
    pairwise sum over a contiguous axis, so it equals ``np.sum(rows,
    axis=-1)`` of the rows stacked as the columns of a matrix bit for
    bit.  Below 8 rows that order is a running sum from 0.0; up to 128 it
    is eight partial sums r_j = row j + row j + 8 + ... of the rows below
    the last multiple of 8, combined as ((r0 + r1) + (r2 + r3)) + ((r4 +
    r5) + (r6 + r7)), then the remaining rows in order; above 128 the rows
    split at n // 2 rounded down to a multiple of 8.  Each row is asked
    for once, and ``row`` may return a buffer it reuses.  The partial sums
    are formed depth first, so at most 4 are held at once, plus one sum
    per level of the split above 128 rows."""
    if n < 8:
        total = 0.0 + row(lo)
        for k in range(lo + 1, lo + n):
            total += row(k)
        return total
    if n > 128:
        half = n // 2 - n // 2 % 8
        total = _pairwise_row_sum(row, lo, half)
        total += _pairwise_row_sum(row, lo + half, n - half)
        return total
    tail = lo + n - n % 8
    total = _partial_sums(row, lo, tail, 8)
    for k in range(tail, lo + n):
        total += row(k)
    return total


def _partial_sums(row: Callable[[int], np.ndarray], j: int, tail: int,
                  width: int) -> np.ndarray:
    """:func:`_pairwise_row_sum`'s partial sums r_j .. r_{j + width - 1},
    combined; r_j adds rows j, j + 8, ... below ``tail``.  Not a closure:
    one that calls itself is a cycle, which would keep ``row`` alive."""
    if width > 1:
        total = _partial_sums(row, j, tail, width // 2)
        total += _partial_sums(row, j + width // 2, tail, width // 2)
        return total
    total = row(j).copy()
    for i in range(j + 8, tail, 8):
        total += row(i)
    return total


def psd_welch(trace: NoiseTrace, *, nperseg: int) -> PsdEstimate:
    """Welch estimate of the one-sided PSD of a trace.

    Periodic Hann window, 50% overlap, mean removed from each segment,
    ``nperseg`` samples per segment (at most the trace).  Density scaling, so
    the integral of the estimate over frequency matches the sample variance.
    Fewer than two segments is allowed but flagged.  The arithmetic follows
    ``scipy.signal.welch(..., window="hann", detrend="constant",
    scaling="density")`` step for step and reproduces it bit for bit.
    Each segment's power is formed in one reused buffer and summed by
    :func:`_pairwise_row_sum`, in the order in which the mean of a
    bins-by-segments power matrix adds each bin's segments, so at most 4
    partial sums stand in for that matrix (one more per split of more
    than 128 segments).
    """
    x = trace.samples
    n = x.size
    nperseg = int(min(nperseg, n))
    if nperseg < 2:
        raise ValueError(f"nperseg must be >= 2, got {nperseg}")
    hop = nperseg - nperseg // 2
    n_segments = welch_segments(n, nperseg)
    win = (0.5 + 0.5 * np.cos(np.linspace(-math.pi, math.pi, nperseg + 1)))[:-1]
    # cumsum: scipy's left-to-right order, which np.sum's pairwise one is not
    win = win * (1 / np.sqrt(np.cumsum(win**2)[-1] / (1 / trace.sample_rate)))
    seg = np.empty(nperseg)
    spec = np.empty(nperseg // 2 + 1, dtype=complex)
    power = np.empty(nperseg // 2 + 1)
    fold = slice(1, -1 if nperseg % 2 == 0 else None)  # one-sided: fold negative f

    def segment_power(k: int) -> np.ndarray:
        x_k = x[k * hop:k * hop + nperseg]
        np.subtract(x_k, np.mean(x_k), out=seg)
        np.multiply(seg, win, out=seg)
        np.fft.rfft(seg, out=spec)
        np.square(spec.real, out=power)
        np.add(power, np.square(spec.imag, out=spec.imag), out=power)
        power[fold] *= 2
        return power

    s = _pairwise_row_sum(segment_power, 0, n_segments) / n_segments
    f = np.fft.rfftfreq(nperseg, 1 / trace.sample_rate)
    warnings = ()
    if n_segments < 2:
        warnings = ("single segment: no averaging, confidence bounds are wide",)
    lo_fac, hi_fac = welch_ci_factors(n_segments)
    f, s = f[1:], s[1:]  # drop the detrended DC bin
    return PsdEstimate(f=f, s=s, ci_low=s * lo_fac, ci_high=s * hi_fac,
                       warnings=warnings)


def integrate_rms(estimate: PsdEstimate, f_lo: float, f_hi: float) -> float:
    """Root of the trapezoid integral of the estimate over [f_lo, f_hi]."""
    if not f_lo < f_hi:
        raise ValueError(f"need f_lo < f_hi, got [{f_lo}, {f_hi}]")
    f, s = estimate.f, estimate.s
    if f_lo < f[0] or f_hi > f[-1]:
        raise ValueError(
            f"band [{f_lo:.6g}, {f_hi:.6g}] Hz outside estimate range "
            f"[{f[0]:.6g}, {f[-1]:.6g}] Hz")
    inner = (f > f_lo) & (f < f_hi)
    fs = np.concatenate(([f_lo], f[inner], [f_hi]))
    ss = np.concatenate(([np.interp(f_lo, f, s)], s[inner], [np.interp(f_hi, f, s)]))
    return float(math.sqrt(np.trapezoid(ss, fs)))


# log-spaced frequency bins per decade of :func:`log_bin`
LOG_BINS_PER_DECADE = 400


def log_bin(f, s) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Means of a spectrum over log-spaced frequency bins.

    Bin j holds the points with ``floor(LOG_BINS_PER_DECADE * log10(f))
    == j``.  Returns ``(f_b, s_b, n_bins)``: the mean f and mean s of each
    bin that holds a point, and how many it holds.  ``f`` must be
    strictly increasing and positive.  A bin with one point keeps its f and
    s bit for bit; a bin narrower than the point spacing holds at most one,
    so on a uniform grid the points below about ``LOG_BINS_PER_DECADE /
    ln(10)`` spacings pass through unbinned.
    """
    f = np.asarray(f, dtype=float)
    s = np.asarray(s, dtype=float)
    if f.shape != s.shape or f.ndim != 1 or not f.size:
        raise ValueError("log_bin needs non-empty 1-D f and s of equal length")
    if f[0] <= 0 or np.any(np.diff(f) <= 0):
        raise ValueError("log_bin needs strictly increasing f > 0")
    j = np.floor(LOG_BINS_PER_DECADE * np.log10(f))
    starts = np.flatnonzero(np.concatenate(([True], j[1:] != j[:-1])))
    n_bins = np.diff(np.append(starts, f.size))
    return (np.add.reduceat(f, starts) / n_bins,
            np.add.reduceat(s, starts) / n_bins, n_bins)


def detuning_gain(coeff_hz_per_v: float) -> float:
    """``(2*pi*|k|)^2``: a voltage PSD (V^2/Hz) times this is the detuning
    PSD (rad^2/s) of a qubit whose frequency pulls k Hz per volt."""
    return (2.0 * math.pi * abs(coeff_hz_per_v)) ** 2


def voltage_to_detuning_model(model: SpectrumModel, coeff_hz_per_v: float) -> SpectrumModel:
    """The detuning spectrum of a voltage spectrum model, scaled by
    :func:`detuning_gain`."""
    return model.scaled(detuning_gain(coeff_hz_per_v))
