"""Spin-qubit dynamics under classical detuning noise.

Two interchangeable coherence engines live here:

* :func:`coherence_mc` averages cos(phi) over Gaussian noise trajectories
  drawn from a spectrum model.
* :func:`chi_ff` / :func:`coherence_ff` evaluate the same decay through the
  filter-function quadrature ``chi = cal * 0.5 * int S(f) |Y(2 pi f)|^2 df``.

For Gaussian noise the two agree exactly in expectation, which the test
suite leans on heavily.

:func:`cpmg_t2` gives the analytic 1/e time of a CPMG-N decay, where the
``cpmg_t2_vs_n`` pipeline centres its time grids.  It uses
:class:`CpmgChi`, chi_ff of ``make_cpmg(N, T)`` as a function of T built
from one table in x = f*T per (model, N), and kept for the process by
:func:`cpmg_chi`.  The white floor and power laws become
``sum_k c_k T^(alpha_k + 1)``; only lines are integrated per T.  The
search solves that smooth part for T_s first and looks for chi = 1 in
[1e-7 s, min(T_s, 10 s)], never far above T2.  :func:`chi_ff` stays the
general engine and the reference the tests hold :class:`CpmgChi` to.

Every toggled phase goes through one :class:`PhaseFunctional`, built per
(schedule, sample rate, trace length).  It holds the weights ``a`` that
turn a sampled trace into its phase, ``phi = a @ x`` (trapezoid rule,
linear interpolation at the segment edges, toggling signs), and from
``rfft(a)`` the weights that give the same phase straight from the
Gaussian Fourier coefficients a synthesized trace is made of.  The Monte
Carlo engine and the tone scan of :mod:`spinprobe.starktone` never form
a trace: a trajectory costs its normal draws and one dot product, on the
same random stream :func:`spectra.draw_trace_samples` draws in blocks
when it synthesizes the trace from the model.  Every Monte Carlo decay
scan goes through :func:`submit_decay_curves`, which submits all its
points, across every wait of a spectroscopy scan, to the run's one
process pool (:mod:`spinprobe._parallel`) in one map and returns before
they finish.

Calibration convention
----------------------
With the raw physical normalization (``calibration=1``) white noise of
density S0 gives chi = S0*T/4 and hence T2 = 4/S0.  The package instead
adopts the spectroscopy convention in which a decay time maps to a spectral
density through ``S = pi^2 / (4*T2)``; closing that loop requires scaling
chi by ``PSD_CHI_CALIBRATION = 16/pi^2``.  The constant is applied in the
coherence engines only; :mod:`spinprobe.spectra` stays strictly physical
(trace variance equals the PSD integral).  The point engines
(:func:`coherence_mc`, :func:`chi_ff`, :func:`coherence_ff`) take
``calibration=1.0`` to recover the uncalibrated physics; the scans
(:func:`submit_decay_curves` and what is built on it) always use the
constant, and a raw scan runs on ``model.scaled(1 / PSD_CHI_CALIBRATION)``.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from . import _parallel, spectra
from ._rng import derive_child_seeds, derive_rngs
from ._solve import brentq, distinct
from .sequences import (PulseSchedule, cpmg_filter_function, filter_function,
                        make_cpmg, make_ramsey)
from .spectra import SpectrumModel

__all__ = [
    "PSD_CHI_CALIBRATION",
    "DURATION_FACTOR",
    "SAMPLES_PER_INTERVAL",
    "BOHR_HZ_PER_T",
    "QubitParams",
    "ReadoutModel",
    "HARDWARE_READOUT",
    "CoherencePoint",
    "DecayCurve",
    "resonance_frequency_hz",
    "rabi_p_up",
    "rabi_chevron",
    "PhaseFunctional",
    "coherence_mc",
    "chi_ff",
    "coherence_ff",
    "CpmgChi",
    "cpmg_chi",
    "cpmg_t2",
    "decay_vs_time",
    "fixed_wait_spec",
    "submit_decay_curves",
]

# Closes the round trip between simulated decay times and the S = pi^2/(4*T2)
# spectroscopy convention; see the module docstring.
PSD_CHI_CALIBRATION = 16.0 / math.pi**2

# The Monte Carlo trace grid: a trace DURATION_FACTOR times as long as the
# sequence, SAMPLES_PER_INTERVAL samples per inter-pulse interval
DURATION_FACTOR = 2.0
SAMPLES_PER_INTERVAL = 16

# CODATA 2022 Bohr magneton over h, in Hz/T
BOHR_HZ_PER_T = 13996244917.1


@dataclass(frozen=True)
class QubitParams:
    """Static qubit properties: Zeeman splitting and drive strength."""

    g_factor: float = 1.9789
    field_t: float = 1.4
    rabi_hz: float = 390625.0

    def __post_init__(self):
        if self.field_t <= 0 or self.g_factor <= 0:
            raise ValueError("g_factor and field_t must be > 0")
        if self.rabi_hz <= 0:
            raise ValueError("rabi_hz must be > 0")
        if not math.isfinite(self.resonance_hz):
            raise ValueError(f"resonance_hz = g_factor * mu_B * field_t / h "
                             f"must be finite, got {self.resonance_hz!r}")

    @property
    def resonance_hz(self) -> float:
        return resonance_frequency_hz(self.g_factor, self.field_t)

    @property
    def pi_time_s(self) -> float:
        return 0.5 / self.rabi_hz


def resonance_frequency_hz(g_factor: float, field_t: float) -> float:
    """Electron spin resonance frequency g * mu_B * B / h."""
    return g_factor * BOHR_HZ_PER_T * field_t


@dataclass(frozen=True)
class ReadoutModel:
    """Affine map from ideal spin-up probability to observed probability.

    ``p_obs = floor + visibility * p_ideal``.  The default is an ideal
    readout; hardware-like configurations shrink the contrast.
    """

    visibility: float = 1.0
    floor: float = 0.0

    def __post_init__(self):
        if not 0 < self.visibility <= 1:
            raise ValueError(f"visibility must be in (0, 1], got {self.visibility}")
        if self.floor < 0 or self.floor + self.visibility > 1:
            raise ValueError("readout range must stay inside [0, 1]")

    def apply(self, p_ideal):
        return self.floor + self.visibility * np.asarray(p_ideal, dtype=float)


# The hardware-like readout the configs and the tone scan default to
HARDWARE_READOUT = ReadoutModel(visibility=0.55, floor=0.225)


def rabi_p_up(rabi_hz, detuning_hz, duration_s):
    """Spin-up probability for a resonant square drive (rotating frame).

    ``P = Omega^2/(Omega^2 + Delta^2) * sin^2(pi * sqrt(Omega^2 + Delta^2) * t)``
    with all frequencies in Hz.
    """
    om2 = np.asarray(rabi_hz, dtype=float) ** 2
    gen2 = om2 + np.asarray(detuning_hz, dtype=float) ** 2
    return om2 / gen2 * np.sin(math.pi * np.sqrt(gen2) * np.asarray(duration_s)) ** 2


def rabi_chevron(qubit: QubitParams, detunings_hz, durations_s) -> np.ndarray:
    """P_up on a (detuning, duration) grid: shape (len(detunings), len(durations))."""
    d = np.asarray(detunings_hz, dtype=float)[:, None]
    t = np.asarray(durations_s, dtype=float)[None, :]
    return rabi_p_up(qubit.rabi_hz, d, t)


# ---------------------------------------------------------------------------
# Monte Carlo engine


@dataclass(frozen=True)
class CoherencePoint:
    """Decay estimate W = <cos phi> at one schedule."""

    w: float
    std_err: float
    n_traj: int


@dataclass(frozen=True)
class DecayCurve:
    """Coherence versus total evolution time (n_pulses may vary per point)."""

    times: np.ndarray
    w: np.ndarray
    std_err: np.ndarray
    n_pulses: np.ndarray
    n_traj: int
    label: str = ""

    def __post_init__(self):
        for name in ("times", "w", "std_err"):
            object.__setattr__(self, name, np.asarray(getattr(self, name), dtype=float))
        object.__setattr__(self, "n_pulses",
                           np.broadcast_to(np.asarray(self.n_pulses, dtype=int),
                                           self.times.shape).copy())
        if not (self.times.shape == self.w.shape == self.std_err.shape):
            raise ValueError("decay curve arrays must be congruent")


class PhaseFunctional:
    """Toggled phase of one schedule as a linear functional of a sampled trace.

    On an n-sample record at ``sample_rate`` the phase is ``weights @
    samples``.  The weights hold the trapezoid rule for the running
    integral C(t) (piecewise linear between samples, so linear
    interpolation at the segment edges is exact for the discretized
    process) and the toggling sign of every segment.  A synthesized trace
    is the irfft of independent Gaussian coefficients, so its phase is
    also a dot product of the trace's n - 1 standard normals, in draw
    order, with :meth:`normal_weights`, so Monte Carlo never forms the
    trace.  The draw order: with ``K = (n - 1) // 2``, the real parts of
    rfft bins 1..K, then their imaginary parts, then (even n only) the
    real Nyquist bin.
    """

    def __init__(self, schedule: PulseSchedule, sample_rate: float, n: int):
        edges = schedule.boundaries
        pos = edges * sample_rate
        idx = np.clip(pos.astype(int), 0, n - 2)
        frac = pos - idx
        signs = schedule.segment_signs
        # phi = sum_j s_j * (C(e_{j+1}) - C(e_j)) regrouped per edge, then
        # spread over the two samples of C each edge interpolates between
        w_edge = np.zeros(edges.size)
        w_edge[1:] += signs
        w_edge[:-1] -= signs
        w_c = (np.bincount(idx, w_edge * (1.0 - frac), minlength=n)
               + np.bincount(idx + 1, w_edge * frac, minlength=n))
        # C[m] = dt * (x[0]/2 + x[1] + ... + x[m-1] + x[m]/2) for m >= 1 and
        # C[0] = 0: x[j] gets dt/2 times (the C-weight summed over m >= j,
        # zero for j = 0) plus (the C-weight summed over m >= j + 1)
        tail = np.zeros(n + 1)
        tail[1:n] = np.cumsum(w_c[:0:-1])[::-1]
        self.sample_rate = float(sample_rate)
        self.n = int(n)
        self.weights = (0.5 / sample_rate) * (tail[:-1] + tail[1:])

    @classmethod
    def on_mc_grid(cls, schedule: PulseSchedule, duration_factor: float,
                   samples_per_interval: int) -> "PhaseFunctional":
        """Functional on the Monte Carlo grid: ``samples_per_interval``
        samples per inter-pulse interval over ``duration_factor`` times the
        schedule, and at least 64 samples."""
        if duration_factor < 1.0:
            raise ValueError("duration_factor must be >= 1 so the trace covers the schedule")
        intervals = max(schedule.n_pulses, 1)
        rate = samples_per_interval * intervals / schedule.total_time
        # +1 keeps the readout boundary on the sampled part of the record even
        # when duration_factor is exactly 1
        n = int(round(duration_factor * schedule.total_time * rate)) + 1
        if n < 64:
            rate *= 64.0 / n
            n = 64
        return cls(schedule, rate, n)

    def normal_weights(self, model: SpectrumModel) -> np.ndarray:
        """Weights h such that ``h @ rng.standard_normal(n - 1)`` (the
        trace's normals, in the draw order of the class docstring) is the
        phase on the trace ``spectra.draw_trace_samples(model,
        self.sample_rate, n, rng)`` makes from the same stream.

        irfft sums ``c_k e^{+2 pi i jk/n} / n`` with each interior bin
        paired with its conjugate, so the phase is ``(2/n) Re(c_k conj(R_k))``
        summed over bins, ``R = rfft(weights)``; the real Nyquist bin of an
        even n is unpaired and enters as ``c R / n``.
        """
        n = self.n
        r = np.fft.rfft(self.weights) * (2.0 / n)
        k = (n - 1) // 2
        parts = [r[1:k + 1].real, r[1:k + 1].imag]
        if n % 2 == 0:
            parts.append([0.5 * r[-1].real])
        s_bins = spectra.rfft_bin_density(model, self.sample_rate, n)
        return (spectra.normal_amplitudes(s_bins, self.sample_rate, n)
                * np.concatenate(parts))


def coherence_mc(model: SpectrumModel, schedule: PulseSchedule,
                 n_traj: int, seed: int, *,
                 calibration: float = PSD_CHI_CALIBRATION,
                 duration_factor: float = DURATION_FACTOR,
                 samples_per_interval: int = SAMPLES_PER_INTERVAL) -> CoherencePoint:
    """Monte Carlo decay estimate W = <cos phi> over noise realizations.

    Trajectory i draws its Gaussian Fourier coefficients from
    ``derive_rng(seed, i)``, so results are bit-identical however the work
    is distributed; :func:`derive_rngs` hashes all of those stream names
    in one vectorised pass.  The n - 1 normals of every trajectory, in
    :class:`PhaseFunctional`'s draw order, land in one reused buffer, and
    its phase is the dot product of them with
    :meth:`PhaseFunctional.normal_weights`, equal to integrating the
    trace ``spectra.draw_trace_samples(model, ...)`` would synthesize
    from the same stream.  The trace band is [1/(duration_factor*T),
    samples_per_interval*N/(2T)]; spectral weight outside it is not seen
    by this estimator.

    Parameters
    ----------
    calibration : float
        Scale applied to the phase variance; the default closes the
        S = pi^2/(4*T2) loop.  Phases are multiplied by sqrt(calibration).
    """
    if n_traj < 2:
        raise ValueError("need at least 2 trajectories for a standard error")
    phase = PhaseFunctional.on_mc_grid(schedule, duration_factor,
                                       samples_per_interval)
    h = phase.normal_weights(model)
    normals = np.empty(phase.n - 1)
    # each trajectory's normals, in PhaseFunctional's draw order
    phases = np.fromiter((rng.standard_normal(out=normals).dot(h)
                          for rng in derive_rngs(seed, n_traj)),
                         dtype=float, count=n_traj)
    cos_phi = np.cos(math.sqrt(calibration) * phases)
    w = float(cos_phi.sum()) / n_traj
    var = max(float((cos_phi**2).sum()) - n_traj * w * w, 0.0) / (n_traj - 1)
    return CoherencePoint(w=w, std_err=math.sqrt(var / n_traj), n_traj=n_traj)


# ---------------------------------------------------------------------------
# Filter-function engine


def _integration_grid(schedule: PulseSchedule, model: SpectrumModel,
                      f_min: float | None, f_max: float | None) -> np.ndarray:
    t_total = schedule.total_time
    f1 = max(schedule.n_pulses, 1) / (2.0 * t_total)
    f_lo = f_min if f_min is not None else f1 * 1e-9
    f_hi = f_max if f_max is not None else 80.0 * f1
    for line in model.lines:
        if line.width_hz is not None and f_max is None:
            f_hi = max(f_hi, line.center_hz + 12.0 * line.width_hz)
    if not 0 < f_lo < f_hi:
        raise ValueError(f"bad integration band [{f_lo}, {f_hi}]")
    panels = []
    knee = f1 / 4.0
    if f_lo < knee:
        panels.append(np.geomspace(f_lo, knee, 400))
        lin_start = knee
    else:
        lin_start = f_lo
    panels.append(np.arange(lin_start, f_hi, 1.0 / (16.0 * t_total)))
    panels.append([f_hi])
    panels += _line_windows([l for l in model.lines if l.width_hz is not None],
                            f_lo, f_hi)
    grid = distinct(np.concatenate([np.asarray(p, dtype=float) for p in panels]))
    return grid[(grid >= f_lo) & (grid <= f_hi)]


def _line_windows(lorentzians, f_lo: float, f_hi: float) -> list[np.ndarray]:
    """257 points across +-8 widths of each Lorentzian line, clipped to
    [f_lo, f_hi]: the resolution the quadrature gives a line."""
    windows = []
    for line in lorentzians:
        wlo = max(line.center_hz - 8.0 * line.width_hz, f_lo)
        whi = min(line.center_hz + 8.0 * line.width_hz, f_hi)
        if wlo < whi:
            windows.append(np.linspace(wlo, whi, 257))
    return windows


def _tail_beyond(model: SpectrumModel, n_pulses: int, f_hi: float) -> float:
    """``int_{f_hi}^{inf} S(f) <|Y|^2>(f) df`` using the averaged envelope.

    Averaged over its fast oscillation the filter falls off as
    ``(4N + 2) / (4 pi^2 f^2)``, which integrates in closed form against
    each smooth model component.  Lorentzian line tails are ~f^-4 out here
    and are dropped.
    """
    env = (4.0 * n_pulses + 2.0) / (4.0 * math.pi**2)
    tail = model.white_floor * env / f_hi
    for term in model.powerlaws:
        s_at = term.amplitude / (2.0 * math.pi * f_hi) ** term.exponent
        tail += s_at * env / (f_hi * (1.0 + term.exponent))
    return tail


def _filter(schedule: PulseSchedule, f_hz):
    """``|Y|^2`` of ``schedule``: the CPMG closed form when the pulses sit
    exactly where :func:`make_cpmg` puts them, the segment sum otherwise."""
    n = schedule.n_pulses
    if n and schedule.pulse_times == make_cpmg(n, schedule.total_time).pulse_times:
        return cpmg_filter_function(n, schedule.total_time, f_hz)
    return filter_function(schedule, f_hz)


def chi_ff(model: SpectrumModel, schedule: PulseSchedule, *,
           calibration: float = PSD_CHI_CALIBRATION,
           f_min: float | None = None,
           f_max: float | None = None) -> float:
    """Analytic decay exponent ``cal * 0.5 * int S(f)|Y(2 pi f)|^2 df``.

    Without an explicit ``f_min`` the integral starts far below the filter
    passband, which requires it to converge there: exponents >= 3 always
    diverge, and a pulse-free schedule diverges for exponents >= 1.  Give
    a low cutoff (the inverse measurement duration, typically) for those.
    Without an explicit ``f_max`` a closed-form estimate of the high-side
    tail is added; with one, the integral is sharply band-limited, which is
    how a sampled Monte Carlo trace behaves at its Nyquist edge.

    CPMG schedules (Hahn included) are filtered with the closed form
    :func:`~spinprobe.sequences.cpmg_filter_function`, any other schedule
    with the per-segment sum :func:`~spinprobe.sequences.filter_function`.
    """
    if f_min is None:
        worst = model.max_exponent
        if worst >= 3.0 and any(t.amplitude > 0 and t.exponent >= 3.0
                                for t in model.powerlaws):
            raise ValueError(
                "power-law exponent >= 3 diverges at f -> 0; pass f_min > 0")
        if schedule.n_pulses == 0 and any(t.amplitude > 0 and t.exponent >= 1.0
                                          for t in model.powerlaws):
            raise ValueError(
                "free induction under exponent >= 1 noise diverges at f -> 0; "
                "pass f_min > 0")
    grid = _integration_grid(schedule, model, f_min, f_max)
    s = spectra._smooth_psd(model, grid)
    for line in model.lines:
        if line.width_hz is not None:
            s = s + spectra._lorentzian(grid, line, line.width_hz)
    integral = float(np.trapezoid(s * _filter(schedule, grid), grid))
    if f_max is None:
        integral += _tail_beyond(model, schedule.n_pulses, float(grid[-1]))
    for line in model.lines:
        if line.width_hz is None:  # resolution-limited: treat as delta
            integral += line.power * _filter(schedule, line.center_hz)
    return calibration * 0.5 * integral


def coherence_ff(model: SpectrumModel, schedule: PulseSchedule, *,
                 calibration: float = PSD_CHI_CALIBRATION,
                 f_min: float | None = None,
                 f_max: float | None = None) -> float:
    """exp(-chi) for Gaussian noise; companion of :func:`coherence_mc`."""
    return math.exp(-chi_ff(model, schedule, calibration=calibration,
                            f_min=f_min, f_max=f_max))


# ---------------------------------------------------------------------------
# CPMG decay exponent versus total time

# total times (s) within which cpmg_t2 looks for chi = 1
T2_SEARCH_S = (1e-7, 10.0)


class CpmgChi:
    """``chi_ff(model, make_cpmg(n_pulses, T))`` as a function of T alone.

    The CPMG filter depends on f and T only through x = f*T:
    ``|Y|^2(f; T) = T^2 g(f*T)`` with g the filter at T = 1 s.  The
    default grid of :func:`chi_ff` is fixed in x (400 geometric points up
    to x = N/8, steps of 1/16 up to 40N, then the end point), so g is
    evaluated on it once.  The white floor and each power law, the tail
    beyond the grid included, then reduce to ``c_k T^(alpha_k + 1)``
    (:meth:`smooth`), equal to chi_ff's to rounding.  A resolution-limited
    line is the closed form at its centre.  Lorentzian lines are
    integrated per T at chi_ff's resolution: the table mapped to f = x/T,
    each line's 257-point window merged in, and the 1/16 lattice
    continued up to the highest ``center + 12*width`` when that lies
    beyond the table.  With Lorentzian lines present chi_ff also
    integrates the smooth part over the line windows and up to that
    point, which this leaves to the table and the tail; the two differ
    by up to about 1e-3 of chi.
    """

    def __init__(self, model: SpectrumModel, n_pulses: int):
        if any(t.amplitude > 0 and t.exponent >= 3.0 for t in model.powerlaws):
            raise ValueError("power-law exponent >= 3 diverges at f -> 0")
        n = self.n_pulses = int(n_pulses)
        x_end = 40.0 * n
        self.x = distinct(np.concatenate((
            np.geomspace(5e-10 * n, n / 8.0, 400),
            np.arange(n / 8.0, x_end, 1.0 / 16.0), [x_end])))
        self.g = cpmg_filter_function(n, 1.0, self.x)
        parts = [(SpectrumModel(powerlaws=(t,)), t.exponent + 1.0)
                 for t in model.powerlaws if t.amplitude > 0]
        if model.white_floor:
            parts.append((SpectrumModel(white_floor=model.white_floor), 1.0))
        # (c_k, alpha_k + 1), c_k being component k's chi at T = 1 s
        self._smooth = tuple(
            (0.5 * PSD_CHI_CALIBRATION * (
                float(np.trapezoid(spectra._smooth_psd(part, self.x) * self.g,
                                   self.x))
                + _tail_beyond(part, n, x_end)), power)
            for part, power in parts)
        lines = [l for l in model.lines if l.power > 0]
        self._deltas = tuple(l for l in lines if l.width_hz is None)
        self._lorentz = tuple(l for l in lines if l.width_hz is not None)
        self._ends: dict[float, float] = {}

    def smooth(self, t: float) -> float:
        """chi of the white floor and the power laws: strictly increasing
        in T (when the model has any)."""
        return sum(c * t**p for c, p in self._smooth)

    def lines(self, t: float) -> float:
        """chi of the spectral lines at total time ``t``."""
        n = self.n_pulses
        integral = sum(l.power * cpmg_filter_function(n, t, l.center_hz)
                       for l in self._deltas)
        if self._lorentz:
            x, g = self.x, self.g
            f_hi = max(x[-1] / t, *(l.center_hz + 12.0 * l.width_hz
                                    for l in self._lorentz))
            if f_hi * t > x[-1]:
                ext = np.append(np.arange(x[-1] + 1.0 / 16.0, f_hi * t,
                                          1.0 / 16.0), f_hi * t)
                x = np.concatenate((x, ext))
                g = np.concatenate((g, cpmg_filter_function(n, 1.0, ext)))
            windows = _line_windows(self._lorentz, x[0] / t, f_hi)
            if windows:
                wx = np.sort(np.concatenate(windows)) * t
                at = np.searchsorted(x, wx)
                x = np.insert(x, at, wx)
                g = np.insert(g, at, cpmg_filter_function(n, 1.0, wx))
            f = x / t
            s = sum(spectra._lorentzian(f, l, l.width_hz) for l in self._lorentz)
            # int S(f) T^2 g(f T) df = T int S(x/T) g(x) dx
            integral += t * float(np.trapezoid(s * g, x))
        return 0.5 * PSD_CHI_CALIBRATION * integral

    def __call__(self, t: float) -> float:
        return self.smooth(t) + self.lines(t)

    def _chi_once(self, t: float) -> float:
        """chi at ``t``, evaluated once: the search meets its ends up to
        three times."""
        if t not in self._ends:
            self._ends[t] = self(t)
        return self._ends[t]

    @functools.cached_property
    def bracket(self) -> tuple[float, float]:
        """``(lo, hi)`` with chi(lo) < 1 <= chi(hi): ``hi`` is where the
        smooth part alone reaches 1 (lines only add to chi), or the end of
        :data:`T2_SEARCH_S` if it never does there.  Raises
        ``ValueError`` when chi does not cross 1 inside
        :data:`T2_SEARCH_S`.  The ends of :data:`T2_SEARCH_S` are checked
        where the search in log T meets them, at ``exp(log(T))``, which
        can be an ulp away (10 s becomes 10.000000000000002 s)."""
        lo, hi = T2_SEARCH_S
        if self._chi_once(_log_round_trip(lo)) >= 1.0:
            raise ValueError(f"chi >= 1 already at T = {lo:g} s")
        if self.smooth(hi) > 1.0:
            hi = math.exp(brentq(lambda lt: self.smooth(math.exp(lt)) - 1.0,
                                 math.log(lo), math.log(hi)))
        elif self._chi_once(_log_round_trip(hi)) < 1.0:
            raise ValueError(f"chi stays below 1 up to T = {hi:g} s")
        return lo, hi

    def t2(self) -> float:
        """Total time at which chi crosses 1, searched inside
        :attr:`bracket`: the smooth root itself when the lines add nothing
        there, else brentq at ``xtol`` 1e-3 in log T, starting from the
        chi values at the ends that :attr:`bracket` already has.  Chi can
        cross 1 more than once when lines dominate; brentq returns one
        crossing in the bracket, and the bracket never reaches past the
        smooth root."""
        lo, hi = self.bracket
        if hi < T2_SEARCH_S[1] and self._chi_once(hi) <= 1.0:
            return hi
        chi_lo, chi_hi = (self._chi_once(_log_round_trip(t)) for t in (lo, hi))
        return math.exp(brentq(lambda lt: self(math.exp(lt)) - 1.0,
                               math.log(lo), math.log(hi), xtol=1e-3,
                               fa=chi_lo - 1.0, fb=chi_hi - 1.0))


def _log_round_trip(t: float) -> float:
    return math.exp(math.log(t))


@functools.lru_cache(maxsize=32)
def cpmg_chi(model: SpectrumModel, n_pulses: int) -> CpmgChi:
    """The :class:`CpmgChi` of ``(model, n_pulses)``, built once per process."""
    return CpmgChi(model, n_pulses)


def cpmg_t2(model: SpectrumModel, n_pulses: int) -> float:
    """Total time T at which ``chi_ff(model, make_cpmg(n_pulses, T))``
    crosses 1: the analytic 1/e time (see :meth:`CpmgChi.t2`)."""
    return cpmg_chi(model, n_pulses).t2()


# ---------------------------------------------------------------------------
# Scans


def _schedule_for(n_pulses: int, total_time: float) -> PulseSchedule:
    if n_pulses == 0:
        return make_ramsey(total_time)
    return make_cpmg(n_pulses, total_time)


def _decay_point(args) -> CoherencePoint:
    (model, n_pulses, t_total, n_traj, point_seed, duration_factor,
     samples_per_interval) = args
    return coherence_mc(model, _schedule_for(n_pulses, t_total), n_traj,
                        point_seed, duration_factor=duration_factor,
                        samples_per_interval=samples_per_interval)


def submit_decay_curves(model: SpectrumModel, specs, n_traj: int, *,
                        duration_factor: float,
                        samples_per_interval: int):
    """Monte Carlo decay curves, one per ``(pulse_counts, times, seed,
    label)`` spec, with every point of every curve submitted to the run's
    process pool in one :func:`_parallel.submit`.  Returns a handle whose
    call gives the curves.

    ``pulse_counts`` is one count or one per time.  Point i of a curve is
    :func:`coherence_mc` on its schedule (Ramsey for 0 pulses, else CPMG)
    at seed ``derive_child_seed(seed, i)``, so a curve does not depend on
    the other curves submitted with it.
    """
    grids, jobs = [], []
    for pulse_counts, times, seed, label in specs:
        times = np.asarray(times, dtype=float)
        pulse_counts = np.broadcast_to(np.asarray(pulse_counts, dtype=int),
                                       times.shape)
        grids.append((pulse_counts, times, label))
        jobs.extend((model, int(n), float(t), n_traj, point_seed,
                     duration_factor, samples_per_interval)
                    for n, t, point_seed in zip(
                        pulse_counts, times, derive_child_seeds(seed, times.size)))
    pending = _parallel.submit(_decay_point, jobs)

    def curves() -> list[DecayCurve]:
        points = iter(pending())
        out = []
        for pulse_counts, times, label in grids:
            curve_points = [next(points) for _ in times]
            out.append(DecayCurve(
                times=times, w=np.array([p.w for p in curve_points]),
                std_err=np.array([p.std_err for p in curve_points]),
                n_pulses=pulse_counts, n_traj=n_traj, label=label))
        return out
    return curves


def fixed_wait_spec(tau_wait: float, pulse_counts, seed: int):
    """The :func:`submit_decay_curves` spec of a fixed-wait scan: point i
    plays ``pulse_counts[i]`` pulses over ``pulse_counts[i] * tau_wait``."""
    counts = np.asarray(pulse_counts, dtype=int)
    if np.any(counts < 1):
        raise ValueError("pulse counts must be >= 1 when tau_wait is fixed")
    tau = float(tau_wait)
    return counts, counts * tau, seed, f"tau_w={tau:.3e}s"


def decay_vs_time(model: SpectrumModel, n_pulses: int, times, n_traj: int,
                  seed: int, *, duration_factor: float = DURATION_FACTOR,
                  samples_per_interval: int = SAMPLES_PER_INTERVAL,
                  label: str = "") -> DecayCurve:
    """Coherence decay at fixed pulse count over a grid of total times."""
    if not label:
        label = {0: "ramsey", 1: "hahn"}.get(n_pulses, f"cpmg-{n_pulses}")
    return submit_decay_curves(
        model, [(n_pulses, times, seed, label)], n_traj,
        duration_factor=duration_factor,
        samples_per_interval=samples_per_interval)()[0]
