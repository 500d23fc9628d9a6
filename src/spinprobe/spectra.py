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
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np
from scipy import fft as _fft
from scipy import special as _special

from ._csvio import write_columns
from ._rng import derive_rng

__all__ = [
    "PowerLawTerm",
    "SpectralLine",
    "SpectrumModel",
    "NoiseTrace",
    "PsdEstimate",
    "eval_psd",
    "rfft_bin_density",
    "trace_normals",
    "normal_amplitudes",
    "draw_trace_samples",
    "synthesize",
    "psd_welch",
    "integrate_rms",
    "voltage_to_detuning_psd",
    "voltage_to_detuning_model",
    "export_trace",
    "import_trace",
    "export_psd",
    "import_psd",
]

TRACE_HEADERS = {"rad/s": "time_s,delta_omega_rad_per_s", "V": "time_s,volts"}
PSD_HEADER = "f_hz,S_rad2_per_s,ci_low,ci_high"


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

    @property
    def max_exponent(self) -> float:
        return max((t.exponent for t in self.powerlaws), default=0.0)

    def scaled(self, gain: float) -> "SpectrumModel":
        """Model with every spectral density multiplied by ``gain``."""
        return SpectrumModel(
            powerlaws=tuple(replace(t, amplitude=t.amplitude * gain) for t in self.powerlaws),
            white_floor=self.white_floor * gain,
            lines=tuple(replace(l, power=l.power * gain) for l in self.lines),
        )

    def to_dict(self) -> dict:
        d: dict = {}
        if self.powerlaws:
            d["powerlaws"] = [{"amplitude": t.amplitude, "exponent": t.exponent}
                              for t in self.powerlaws]
        if self.white_floor:
            d["white_floor"] = self.white_floor
        if self.lines:
            d["lines"] = [{"center_hz": l.center_hz, "power": l.power,
                           **({"width_hz": l.width_hz} if l.width_hz is not None else {})}
                          for l in self.lines]
        return d

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
    duration: float
    seed: int | None
    provenance: str
    unit: str = "rad/s"

    def __post_init__(self):
        samples = np.asarray(self.samples, dtype=float)
        if samples.ndim != 1:
            raise ValueError("trace samples must be one-dimensional")
        if not np.all(np.isfinite(samples)):
            raise ValueError("trace samples must be finite")
        object.__setattr__(self, "samples", samples)
        if self.unit not in TRACE_HEADERS:
            raise ValueError(f"unknown trace unit {self.unit!r}; "
                             f"expected one of {sorted(TRACE_HEADERS)}")
        n = samples.size
        if abs(self.duration * self.sample_rate - n) > 0.5:
            raise ValueError(
                f"inconsistent trace: {n} samples vs sample_rate*duration = "
                f"{self.duration * self.sample_rate:.1f}")

    @property
    def n_samples(self) -> int:
        return self.samples.size

    @property
    def times(self) -> np.ndarray:
        return np.arange(self.n_samples) / self.sample_rate

    def variance(self) -> float:
        return float(np.var(self.samples))


@dataclass(frozen=True)
class PsdEstimate:
    """One-sided PSD estimate with pointwise 95% confidence bounds."""

    f: np.ndarray
    s: np.ndarray
    ci_low: np.ndarray
    ci_high: np.ndarray
    estimator_tag: str
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
        if self.estimator_tag not in ("cpmg_reconstruction", "welch_periodogram"):
            raise ValueError(f"unknown estimator tag {self.estimator_tag!r}")
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
        s += term.amplitude / omega**term.exponent
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


def rfft_bin_density(model: SpectrumModel, sample_rate: float, n: int) -> np.ndarray:
    """Model PSD averaged onto the rfft bin grid of an n-sample trace.

    Smooth components are sampled at the bin centres; lines are integrated
    over each bin (exact Lorentzian CDF) so their total power survives even
    when narrower than one bin.  Bin 0 is zero: content below 1/duration
    is truncated and traces come out zero-mean.
    """
    df = sample_rate / n
    nbin = n // 2 + 1
    f = np.arange(nbin) * df
    s = np.zeros(nbin)
    s[1:] = _smooth_psd(model, f[1:])
    if model.lines:
        edges = (np.arange(nbin + 1) - 0.5) * df
        for line in model.lines:
            width = line.width_hz if line.width_hz is not None else df
            s += _line_bin_power(line, edges, width) / df
    s[0] = 0.0
    return s


def trace_normals(n: int, rng: np.random.Generator) -> np.ndarray:
    """The n - 1 standard normals behind one n-sample trace, in draw order.

    With ``K = (n - 1) // 2`` they are the real parts of rfft bins 1..K,
    then their imaginary parts, then (even n only) the real Nyquist bin.
    Every consumer of a trace's randomness draws through here, so a
    trajectory seeded once yields the same numbers whether its trace is
    synthesized or only its phase is computed.
    """
    return rng.normal(size=n - 1)


def normal_amplitudes(s_bins: np.ndarray, sample_rate: float, n: int) -> np.ndarray:
    """rfft coefficient per unit of each entry of :func:`trace_normals`.

    Scaled so each positive bin contributes ``S(f_k) * df`` to the sample
    variance; the real Nyquist bin of an even-n trace carries twice the
    per-component amplitude.
    """
    df = sample_rate / n
    amp = (n / 2.0) * np.sqrt(s_bins[1:(n - 1) // 2 + 1] * df)
    parts = [amp, amp]
    if n % 2 == 0:
        parts.append([n * math.sqrt(s_bins[-1] * df)])
    return np.concatenate(parts)


def draw_trace_samples(s_bins: np.ndarray, sample_rate: float, n: int,
                       rng: np.random.Generator) -> np.ndarray:
    """One Gaussian realization of an n-sample trace from bin densities.

    Each positive rfft bin receives an independent complex Gaussian
    amplitude (see :func:`trace_normals` and :func:`normal_amplitudes`);
    the trace variance approximates ``int S df`` over (0, Nyquist].
    """
    z = trace_normals(n, rng) * normal_amplitudes(s_bins, sample_rate, n)
    k = (n - 1) // 2
    coeff = np.zeros(s_bins.size, dtype=complex)
    coeff[1:k + 1] = z[:k] + 1j * z[k:2 * k]
    if n % 2 == 0:  # real Nyquist bin
        coeff[-1] = z[-1]
    return np.fft.irfft(coeff, n)


def synthesize(model: SpectrumModel, sample_rate: float, duration: float,
               seed: int, *, unit: str = "rad/s") -> NoiseTrace:
    """Generate a Gaussian trace whose one-sided PSD follows the model.

    Deterministic per seed; see :func:`rfft_bin_density` and
    :func:`draw_trace_samples` for the construction.
    """
    n = int(round(sample_rate * duration))
    if n < 64:
        raise ValueError(
            f"duration*sample_rate = {n} samples; need at least 64 for synthesis")
    s = rfft_bin_density(model, sample_rate, n)
    samples = draw_trace_samples(s, sample_rate, n, derive_rng(seed))
    return NoiseTrace(samples=samples, sample_rate=float(sample_rate),
                      duration=n / sample_rate, seed=int(seed),
                      provenance=f"synthesized seed={int(seed)}", unit=unit)


def psd_welch(trace: NoiseTrace, *, nperseg: int | None = None) -> PsdEstimate:
    """Welch estimate of the one-sided PSD of a trace.

    Periodic Hann window, 50% overlap, mean removed from each segment,
    segment length ~ n/8 (power of two) unless given.  Density scaling, so
    the integral of the estimate over frequency matches the sample variance.
    Fewer than two segments is allowed but flagged.  The arithmetic follows
    ``scipy.signal.welch(..., window="hann", detrend="constant",
    scaling="density")`` step for step and reproduces it bit for bit.
    """
    x = trace.samples
    n = x.size
    if nperseg is None:
        nperseg = 2 ** int(math.log2(max(n // 8, 64)))
    nperseg = int(min(nperseg, n))
    if nperseg < 2:
        raise ValueError(f"nperseg must be >= 2, got {nperseg}")
    hop = nperseg - nperseg // 2
    n_segments = 1 + (n - nperseg) // hop
    win = (0.5 + 0.5 * np.cos(np.linspace(-math.pi, math.pi, nperseg + 1)))[:-1]
    # builtin sum: scipy's left-to-right order, which np.sum's pairwise one is not
    win = win * (1 / np.sqrt(sum(win**2) / (1 / trace.sample_rate)))
    power = np.empty((nperseg // 2 + 1, n_segments))
    for k in range(n_segments):
        seg = x[k * hop:k * hop + nperseg]
        spec = _fft.rfft((seg - np.mean(seg)) * win)
        power[:, k] = spec.real**2 + spec.imag**2
    power[1:-1 if nperseg % 2 == 0 else None] *= 2  # one-sided: fold negative f
    s = power.mean(axis=-1)
    f = _fft.rfftfreq(nperseg, 1 / trace.sample_rate)
    warnings = ()
    if n_segments < 2:
        warnings = ("single segment: no averaging, confidence bounds are wide",)
    # chi-squared pointwise CI with ~2 dof per averaged segment;
    # 2 * gammaincinv(dof / 2, q) is the chi-squared quantile
    dof = 2 * n_segments
    lo_fac = dof / (2 * _special.gammaincinv(dof / 2, 0.975))
    hi_fac = dof / (2 * _special.gammaincinv(dof / 2, 0.025))
    f, s = f[1:], s[1:]  # drop the detrended DC bin
    return PsdEstimate(f=f, s=s, ci_low=s * lo_fac, ci_high=s * hi_fac,
                       estimator_tag="welch_periodogram", warnings=warnings)


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


def voltage_to_detuning_psd(estimate: PsdEstimate, coeff_hz_per_v: float) -> PsdEstimate:
    """Map a voltage PSD (V^2/Hz) to a detuning PSD (rad^2/s) via a linear
    frequency-pull coefficient: S_dw(f) = (2*pi*k)^2 * S_V(f)."""
    gain = (2.0 * math.pi * abs(coeff_hz_per_v)) ** 2
    return PsdEstimate(f=estimate.f, s=estimate.s * gain,
                       ci_low=estimate.ci_low * gain, ci_high=estimate.ci_high * gain,
                       estimator_tag=estimate.estimator_tag,
                       warnings=estimate.warnings)


def voltage_to_detuning_model(model: SpectrumModel, coeff_hz_per_v: float) -> SpectrumModel:
    """Model-level counterpart of :func:`voltage_to_detuning_psd`."""
    return model.scaled((2.0 * math.pi * abs(coeff_hz_per_v)) ** 2)


# ---------------------------------------------------------------------------
# CSV interchange


def export_trace(trace: NoiseTrace, path) -> None:
    header = TRACE_HEADERS.get(trace.unit)
    if header is None:
        raise ValueError(f"no CSV header defined for unit {trace.unit!r}")
    write_columns(path, header, (trace.times, trace.samples))


def import_trace(path) -> NoiseTrace:
    path = Path(path)
    with path.open() as fh:
        header = fh.readline().strip()
        unit = {v: k for k, v in TRACE_HEADERS.items()}.get(header)
        if unit is None:
            raise ValueError(f"unrecognized trace header {header!r}")
        data = np.loadtxt(fh, delimiter=",")
    if data.ndim != 2 or data.shape[1] != 2 or data.shape[0] < 2:
        raise ValueError("trace CSV must have two columns and at least two rows")
    t, x = data[:, 0], data[:, 1]
    dt = np.diff(t)
    if np.any(dt <= 0) or np.ptp(dt) > 1e-6 * dt.mean():
        raise ValueError("trace time base must be uniform and increasing")
    rate = 1.0 / dt.mean()
    return NoiseTrace(samples=x, sample_rate=rate, duration=x.size / rate,
                      seed=None, provenance=f"external:{path.name}", unit=unit)


def export_psd(estimate: PsdEstimate, path) -> None:
    write_columns(path, PSD_HEADER, (estimate.f, estimate.s, estimate.ci_low,
                                     estimate.ci_high))


def import_psd(path, estimator_tag: str = "welch_periodogram") -> PsdEstimate:
    with Path(path).open() as fh:
        header = fh.readline().strip()
        if header != PSD_HEADER:
            raise ValueError(f"unrecognized PSD header {header!r}")
        data = np.loadtxt(fh, delimiter=",")
    data = np.atleast_2d(data)
    return PsdEstimate(f=data[:, 0], s=data[:, 1], ci_low=data[:, 2],
                       ci_high=data[:, 3], estimator_tag=estimator_tag)
