"""Spin-qubit dynamics under classical detuning noise.

Two interchangeable coherence engines live here:

* :func:`coherence_mc` averages cos(phi) over Gaussian noise trajectories
  drawn from a spectrum model.
* :class:`CpmgChi`, the filter-function engine, gives the same decay as
  ``chi = cal * 0.5 * int S(f) |Y(2 pi f)|^2 df`` from one filter table
  in x = f*T per (model, N), kept for the process by :func:`cpmg_chi`;
  every filter value comes from :func:`sequences.filter_function`.
  :func:`chi_ff` queries it for one schedule, and the decay is
  ``exp(-chi)``.

Both engines play the pair (N, T): CPMG-N, or Ramsey for N = 0.
:func:`chi_ff` takes it as a :class:`~spinprobe.sequences.PulseSchedule`,
:func:`coherence_mc` as a :class:`DecayPoint`, which adds the trace grid
it samples.  For Gaussian noise the two agree exactly in expectation,
which the test suite leans on heavily.

``cpmg_chi(model, N).t2``, found once per table, is the analytic 1/e
time of a CPMG-N decay, where the ``cpmg_t2_vs_n`` plan centres its time
grids.  The search solves the smooth part of :class:`CpmgChi` for T_s
first and looks for chi = 1 in [1e-7 s, min(T_s, 10 s)], never far above
T2; that upper end, :attr:`CpmgChi.t_max`, is known before any line is
integrated, so a plan can bound the points :meth:`CpmgChi.points` says
the search will lay.

Every toggled phase is ``phi = a @ x`` on a sampled trace x, with the
weights ``a`` of :func:`toggled_weights` (trapezoid rule, linear
interpolation at the segment edges, toggling signs).
:func:`spectra.normal_weights` turns ``a`` into two rows of weights on the
Gaussian normals of a random stream: the phase of the trace
:func:`spectra.draw_trace_samples` synthesizes from that stream, and the
phase of its quadrature trace; the layout of both rows is :mod:`spectra`'s.
On them :func:`phase_draw` builds the draw of two trajectories per row
of normals, and :func:`block_phases` plays a block of such rows a chunk
at a time, two gemvs per chunk.  The Monte Carlo engine and the tone scan
of :mod:`spinprobe.starktone` share it: the engine fills a point's block
from one stream, the tone scan each row of a cell's block from the
row's own stream.  Neither forms a trace: a pair costs its normal draws
and its share of two gemvs.

A Monte Carlo point is a :class:`DecayPoint`: N, T and the trace grid
(sample rate, n) it runs on, worked out by :func:`mc_point` when
:func:`decay_table` lays out a scan (no chi: a consumer derives it from
the grid).  Every draw leaves out the rfft bins holding
:data:`spectra.DROPPED_SHARE` of the point's |h|^2, one constant for
every scan.  The table is a tuple of curves, each a tuple of points;
:func:`submit_decay_table` submits exactly its points to the run's
workers (:mod:`spinprobe._parallel`) in one map and returns before they
finish.

Calibration convention
----------------------
Under the raw physical normalization white noise of density S0 gives
chi = S0*T/4 and hence T2 = 4/S0.  The package instead adopts the
spectroscopy convention in which a decay time maps to a spectral density
through ``S = pi^2 / (4*T2)``; closing that loop requires scaling chi by
``PSD_CHI_CALIBRATION = 16/pi^2``.  Both coherence engines apply the
constant everywhere, and only they do: :mod:`spinprobe.spectra` stays
strictly physical (trace variance equals the PSD integral).  Raw physics
is the calibrated engine on ``model.scaled(1 / PSD_CHI_CALIBRATION)``,
since chi is linear in the spectrum.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import _parallel, spectra
from ._rng import derive_child_seeds, derive_rng
from ._solve import brentq, distinct
from .sequences import PulseSchedule, filter_function
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
    "DecayPoint",
    "resonance_frequency_hz",
    "rabi_p_up",
    "rabi_chevron",
    "mc_point",
    "toggled_weights",
    "phase_draw",
    "block_phases",
    "coherence_mc",
    "chi_ff",
    "CpmgChi",
    "cpmg_chi",
    "decay_table",
    "submit_decay_table",
    "decay_vs_time",
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

    ``p_obs = floor + visibility * p_ideal``, for a float or an array; RB
    and the tone scan apply it per shot.  The default is an ideal readout;
    hardware-like configurations shrink the contrast.
    """

    visibility: float = 1.0
    floor: float = 0.0

    def __post_init__(self):
        if not 0 < self.visibility <= 1:
            raise ValueError(f"visibility must be in (0, 1], got {self.visibility}")
        if self.floor < 0 or self.floor + self.visibility > 1:
            raise ValueError("readout range must stay inside [0, 1]")

    def apply(self, p_ideal):
        return self.floor + self.visibility * p_ideal


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

    def __post_init__(self):
        for name in ("times", "w", "std_err"):
            object.__setattr__(self, name, np.asarray(getattr(self, name), dtype=float))
        object.__setattr__(self, "n_pulses",
                           np.broadcast_to(np.asarray(self.n_pulses, dtype=int),
                                           self.times.shape).copy())
        if not (self.times.shape == self.w.shape == self.std_err.shape):
            raise ValueError("decay curve arrays must be congruent")


class DecayPoint(NamedTuple):
    """A Monte Carlo decay point: ``n_pulses`` over ``total_time``, on an
    ``n``-sample trace at ``sample_rate`` (see :func:`mc_point`)."""

    n_pulses: int
    total_time: float
    sample_rate: float
    n: int


def mc_point(n_pulses: int, total_time: float,
             duration_factor: float = DURATION_FACTOR,
             samples_per_interval: int = SAMPLES_PER_INTERVAL) -> DecayPoint:
    """The :class:`DecayPoint` of ``n_pulses`` over ``total_time``: its
    trace holds ``samples_per_interval`` samples per inter-pulse interval
    over ``duration_factor`` times the sequence, at least
    :data:`spectra.MIN_TRACE_SAMPLES`."""
    if duration_factor < 1.0:
        raise ValueError("duration_factor must be >= 1 so the trace covers the schedule")
    rate = samples_per_interval * max(n_pulses, 1) / total_time
    # +1 keeps the readout boundary on the sampled part of the record even
    # when duration_factor is exactly 1
    n = int(round(duration_factor * total_time * rate)) + 1
    if n < spectra.MIN_TRACE_SAMPLES:
        rate *= spectra.MIN_TRACE_SAMPLES / n
        n = spectra.MIN_TRACE_SAMPLES
    return DecayPoint(n_pulses, total_time, rate, n)


def toggled_weights(schedule: PulseSchedule, sample_rate: float,
                    n: int) -> np.ndarray:
    """Weights a such that the toggled phase of ``schedule`` on an
    n-sample trace x at ``sample_rate`` is ``a @ x``.

    They hold the trapezoid rule for the running integral C(t) (piecewise
    linear between samples, so linear interpolation at the segment edges
    is exact for the discretized process) and the toggling sign of every
    segment.
    """
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
    return (0.5 / sample_rate) * (tail[:-1] + tail[1:])


def phase_draw(model: SpectrumModel, point: DecayPoint):
    """Two trajectories' toggled phases at ``point`` as a function of one
    random stream.

    ``draw.weights`` are the rows of :func:`spectra.normal_weights` of
    :func:`toggled_weights` with :data:`spectra.DROPPED_SHARE`: every
    point drops the rfft bins holding that share of |h|^2, but keeps at
    least :data:`spectra.MIN_KEPT_BINS`.  ``draw(rng)`` puts a row's worth
    of normals into one reused buffer and returns ``(phi_1, phi_2)``,
    ``sqrt(PSD_CHI_CALIBRATION)`` times their dot products with the two
    rows: the calibrated phases of the trace that
    ``spectra.draw_trace_samples`` would synthesize from the stream's
    kept bins alone and of its quadrature trace, which are independent
    draws from N(0, PSD_CHI_CALIBRATION * |h|^2), h being row 0.  The
    caller may go on drawing from ``rng`` after the pair.  Runs play
    ``draw.weights`` on blocks of rows through :func:`block_phases`;
    ``draw`` is the one-row reference, equal to it to rounding.
    """
    rate, n = point.sample_rate, point.n
    schedule = PulseSchedule(point.n_pulses, point.total_time)
    kept = spectra.normal_weights(model, rate, toggled_weights(schedule, rate, n),
                                  spectra.DROPPED_SHARE)
    weights = kept.rows
    normals = np.empty(weights.shape[1])
    in_phase, quadrature = weights[0, :kept.trace_normals], weights[1]
    trace_normals = normals[:kept.trace_normals]
    scale = math.sqrt(PSD_CHI_CALIBRATION)

    # two ddots, not one gemv over both rows, whose sums round differently:
    # phi_1 stays bit-equal to the trace functional h @ normals
    def draw(rng) -> tuple[float, float]:
        rng.standard_normal(out=normals)
        return (scale * float(trace_normals.dot(in_phase)),
                scale * float(normals.dot(quadrature)))

    draw.weights = weights
    return draw


# rows block_phases draws and multiplies at a time: a multiple of the rows a
# gemv kernel sums together (4 in OpenBLAS 0.3.31), so chunks round as one product
_BLOCK_PAIRS = 64


def block_phases(weights: np.ndarray, phases: np.ndarray, fill):
    """Write the calibrated phases of a (pairs x m) block of normals into
    the (pairs x 2) ``phases``, a chunk at a time.

    The block is drawn :data:`_BLOCK_PAIRS` rows at a time into one reused
    buffer: ``fill(rows)`` writes the chunk's normals into ``rows`` in
    place.  Row j's phases are ``sqrt(PSD_CHI_CALIBRATION)`` times row j
    times each row of :func:`phase_draw`'s (2 x m) ``weights``, two gemvs
    per chunk.  Each chunk yields ``(fill(rows), phases[start:stop])``
    once its phases are written.  How the block is chunked changes no
    byte.
    """
    pairs = len(phases)
    block = np.empty((min(pairs, _BLOCK_PAIRS + 1), weights.shape[1]))
    scale = math.sqrt(PSD_CHI_CALIBRATION)
    # a lone last row joins the chunk before it: numpy hands a one-row
    # product to dot, which sums in another order than gemv
    stops = [*range(_BLOCK_PAIRS, pairs - 1, _BLOCK_PAIRS), pairs]
    for start, stop in zip([0, *stops], stops):
        rows, chunk = block[:stop - start], phases[start:stop]
        drawn = fill(rows)
        # two gemvs; one 2-column product would round differently
        chunk[:, 0], chunk[:, 1] = rows @ weights[0], rows @ weights[1]
        chunk *= scale
        yield drawn, chunk


def coherence_mc(model: SpectrumModel, point: DecayPoint, n_traj: int,
                 seed: int) -> CoherencePoint:
    """Monte Carlo decay estimate W = <cos phi> at ``point`` over noise
    realizations.

    Trajectories 2j and 2j + 1 are the phases of row j of a (ceil(n_traj
    / 2) x m) block of ``derive_rng(seed)``'s normals (:func:`block_phases`
    on :func:`phase_draw`'s weights); an odd ``n_traj`` drops the last
    pair's second.  The trace band is [rate/n, rate/2] of the point's
    grid, less the bins :func:`phase_draw` drops; spectral weight outside
    the bins it draws is not seen by this estimator.
    """
    if n_traj < 2:
        raise ValueError("need at least 2 trajectories for a standard error")
    rng = derive_rng(seed)
    phases = np.empty(((n_traj + 1) // 2, 2))
    for _ in block_phases(phase_draw(model, point).weights, phases,
                          lambda rows: rng.standard_normal(out=rows)):
        pass  # each chunk lands in phases
    cos_phi = np.cos(phases.ravel()[:n_traj])
    w = float(cos_phi.sum()) / n_traj
    var = max(float((cos_phi**2).sum()) - n_traj * w * w, 0.0) / (n_traj - 1)
    return CoherencePoint(w=w, std_err=math.sqrt(var / n_traj), n_traj=n_traj)


# ---------------------------------------------------------------------------
# Filter-function engine

# total times (s) within which CpmgChi.t2 looks for chi = 1
T2_SEARCH_S = (1e-7, 10.0)

# the table's steps in x = f*T, and how far below a Lorentzian line's span
# its lattice reaches when the table ends further down
_STEP = 1.0 / 16.0
_LINE_REACH = 4096.0


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


def _cut(unit: PulseSchedule, x: np.ndarray, g: np.ndarray, lo: float, hi: float):
    """A piece ``(x, g)`` of the filter of ``unit`` (T = 1 s) cut to
    [lo, hi], the ends inside it inserted."""
    ends = np.array([e for e in (lo, hi) if x.size and x[0] < e < x[-1]])
    keep = (x >= lo) & (x <= hi)
    x = np.concatenate((x[keep], ends))
    order = np.argsort(x, kind="stable")
    return x[order], np.concatenate((g[keep], filter_function(unit, ends)))[order]


class CpmgChi:
    """The filter-function engine: chi of ``PulseSchedule(n_pulses, T)``
    as a function of T.

    The closed-form filter depends on f and T only through x = f*T:
    ``|Y|^2(f; T) = T^2 g(f*T)``, g being the filter at T = 1 s (sinc^2 x
    for Ramsey).  So g is tabulated once in x, with m = max(N, 1): 400
    geometric points from 5e-10 m up to m/8, steps of 1/16 up to 40m, then
    the end point; beyond it the filter's average is integrated in closed
    form.  ``chi(T)`` is :meth:`smooth` plus :meth:`lines`;
    ``chi(T, f_lo, f_hi)`` integrates over that band instead, its ends
    inserted into the table at x = f*T (so f_lo * T >= 5e-10 m), and the
    tail added only when f_hi is open (None); a resolution-limited line
    counts only when its centre lies in the band.  Without f_lo the
    integral must converge at f -> 0: a power-law exponent >= 3, or >= 1
    for Ramsey, raises ``ValueError``.
    """

    def __init__(self, model: SpectrumModel, n_pulses: int):
        n = self.n_pulses = int(n_pulses)
        self._unit = PulseSchedule(n, 1.0)
        m = max(n, 1)
        x_end = 40.0 * m
        self.x = distinct(np.concatenate((
            np.geomspace(5e-10 * m, m / 8.0, 400),
            np.arange(m / 8.0, x_end, _STEP), [x_end])))
        self.g = filter_function(self._unit, self.x)
        limit = 1.0 if n == 0 else 3.0
        self._diverges = (
            f"power-law exponent >= {limit:g} diverges at f -> 0 with {n} "
            f"pulses; pass f_min > 0"
            if any(t.amplitude > 0 and t.exponent >= limit for t in model.powerlaws)
            else None)
        self._model = model
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

    def __call__(self, t: float, f_lo: float | None = None,
                 f_hi: float | None = None) -> float:
        if f_lo is None and f_hi is None:
            return self.smooth(t) + self.lines(t)
        return self._band(t, f_lo, f_hi)

    def smooth(self, t: float) -> float:
        """chi of the white floor and the power laws, ``sum_k c_k
        T^(alpha_k + 1)``: strictly increasing in T (when there are any)."""
        if self._diverges:
            raise ValueError(self._diverges)
        return sum(c * t**p for c, p in self._smooth)

    def lines(self, t: float, pieces=None, f_lo=0.0, f_hi=math.inf) -> float:
        """chi of the spectral lines at total time ``t``: the Lorentzian
        ones integrated on ``pieces`` (:meth:`_pieces` by default), the
        resolution-limited ones whose centre lies in [f_lo, f_hi]."""
        schedule = PulseSchedule(self.n_pulses, t)
        integral = sum(l.power * filter_function(schedule, l.center_hz)
                       for l in self._deltas if f_lo <= l.center_hz <= f_hi)
        if self._lorentz:
            for x, g in self._pieces(t) if pieces is None else pieces:
                # int S(f) T^2 g(f T) df = T int S(x/T) g(x) dx
                s = sum(spectra._lorentzian(x / t, l, l.width_hz)
                        for l in self._lorentz)
                integral += t * float(np.trapezoid(s * g, x))
        return 0.5 * PSD_CHI_CALIBRATION * integral

    def _pieces(self, t: float, reach: float = 0.0) -> list:
        """``(x, g)`` pieces that resolve the Lorentzian lines at ``t``: the
        table, continued in steps of 1/16 up to ``reach`` and over each
        line's span (centre +- 12 widths, reaching :data:`_LINE_REACH`
        further down) that starts before it ends, then each span beyond it
        on its own, so a line costs points in proportion to its width * T.
        Each line's 257-point window across +- 8 widths is merged in."""
        pieces = [(self.x, self.g)]
        for lo, hi in self._spans(t, reach):
            x, g = pieces[-1]
            if hi > x[-1]:
                joined = lo <= x[-1]
                ext = np.append(np.arange(x[-1] + _STEP if joined else lo, hi, _STEP), hi)
                ext = (ext, filter_function(self._unit, ext))
                if joined:
                    pieces[-1] = (np.concatenate((x, ext[0])), np.concatenate((g, ext[1])))
                else:
                    pieces.append(ext)
        f0 = self.x[0] / t
        windows = [np.linspace(lo, hi, 257) for lo, hi in (
            (max(l.center_hz - 8.0 * l.width_hz, f0), l.center_hz + 8.0 * l.width_hz)
            for l in self._lorentz) if lo < hi]
        if windows:
            wx = np.sort(np.concatenate(windows)) * t
            tops = [x[-1] for x, _ in pieces[:-1]]
            for i, w in enumerate(np.split(wx, np.searchsorted(wx, tops, side="right"))):
                x, g = pieces[i]
                at = np.searchsorted(x, w)
                pieces[i] = (np.insert(x, at, w), np.insert(g, at, filter_function(self._unit, w)))
        return pieces

    def _spans(self, t: float, reach: float = 0.0) -> list:
        """The ``(lo, hi)`` spans in x, sorted, that :meth:`_pieces` lays
        its 1/16 lattice over where they pass the pieces before them."""
        return sorted([(self.x[-1], reach)] + [
            ((l.center_hz - 12.0 * l.width_hz) * t - _LINE_REACH,
             (l.center_hz + 12.0 * l.width_hz) * t) for l in self._lorentz])

    def points(self, t: float) -> float:
        """At most how many ``(x, g)`` points :meth:`_pieces` lays at
        ``t``, reckoned from :meth:`_spans` without building any: the
        table, 16 per unit x (and two) of each span beyond where the
        pieces before it end, and each line's 257-point window."""
        end, points = self.x[-1], self.x.size + 257.0 * len(self._lorentz)
        for lo, hi in self._spans(t):
            if hi > end:
                points += (hi - max(lo, end)) / _STEP + 2.0
                end = hi
        return points

    def _band(self, t: float, f_lo: float | None, f_hi: float | None) -> float:
        n, x0, x_end = self.n_pulses, self.x[0], self.x[-1]
        if f_lo is None and self._diverges:
            raise ValueError(self._diverges)
        lo = x0 if f_lo is None else f_lo * t
        hi = math.inf if f_hi is None else f_hi * t
        if not x0 <= lo < hi:
            raise ValueError(f"bad integration band [{f_lo}, {f_hi}]: it must "
                             f"start at or above the table, {x0 / t:g} Hz")
        pieces = [_cut(self._unit, x, g, lo, hi)
                  for x, g in self._pieces(t, 0.0 if f_hi is None else hi)]
        # with f_hi open, the smooth part beyond the table is the tail's
        top = max(lo, x_end) if f_hi is None else hi
        x, g = _cut(self._unit, *pieces[0], lo, top)
        smooth = t * float(np.trapezoid(
            spectra._smooth_psd(self._model, x / t) * g, x))
        if f_hi is None:
            smooth += _tail_beyond(self._model, n, top / t)
        return 0.5 * PSD_CHI_CALIBRATION * smooth + self.lines(
            t, pieces, f_lo or 0.0, math.inf if f_hi is None else f_hi)

    @functools.cached_property
    def t_max(self) -> float:
        """The longest total time the T2 search evaluates chi at, found
        without integrating a line: where the smooth part alone crosses 1
        inside :data:`T2_SEARCH_S` (lines only add to chi), else the end
        of :data:`T2_SEARCH_S`."""
        lo, hi = T2_SEARCH_S
        if self.smooth(lo) < 1.0 < self.smooth(hi):
            return math.exp(brentq(lambda lt: self.smooth(math.exp(lt)) - 1.0,
                                   math.log(lo), math.log(hi)))
        return hi

    @functools.cached_property
    def bracket(self) -> tuple[float, float]:
        """``(lo, hi)`` with chi(lo) < 1 <= chi(hi), ``hi`` being
        :attr:`t_max`.  Raises ``ValueError`` when chi does not cross 1
        inside :data:`T2_SEARCH_S`.  The ends of :data:`T2_SEARCH_S` are
        checked where the search in log T meets them, at ``exp(log(T))``,
        which can be an ulp away (10 s becomes 10.000000000000002 s)."""
        lo = T2_SEARCH_S[0]
        if self(_log_round_trip(lo)) >= 1.0:
            raise ValueError(f"chi >= 1 already at T = {lo:g} s")
        hi = self.t_max
        if hi == T2_SEARCH_S[1] and self(_log_round_trip(hi)) < 1.0:
            raise ValueError(f"chi stays below 1 up to T = {hi:g} s")
        return lo, hi

    @functools.cached_property
    def t2(self) -> float:
        """Total time at which chi crosses 1, searched once inside
        :attr:`bracket`: the smooth root itself when the lines add nothing
        there, else brentq at ``xtol`` 1e-3 in log T.  Chi can cross 1
        more than once when lines dominate; brentq returns one crossing in
        the bracket, and the bracket never reaches past the smooth root."""
        lo, hi = self.bracket
        if hi < T2_SEARCH_S[1] and self(hi) <= 1.0:
            return hi
        return math.exp(brentq(lambda lt: self(math.exp(lt)) - 1.0,
                               math.log(lo), math.log(hi), xtol=1e-3))


def _log_round_trip(t: float) -> float:
    return math.exp(math.log(t))


@functools.lru_cache(maxsize=32)
def cpmg_chi(model: SpectrumModel, n_pulses: int) -> CpmgChi:
    """The :class:`CpmgChi` of ``(model, n_pulses)``, built once per process."""
    return CpmgChi(model, n_pulses)


def chi_ff(model: SpectrumModel, schedule: PulseSchedule, *,
           f_min: float | None = None,
           f_max: float | None = None) -> float:
    """Decay exponent ``cal * 0.5 * int S(f)|Y(2 pi f)|^2 df`` of a
    schedule over [f_min, f_max]: ``cpmg_chi(model, N)(T, f_min, f_max)``.
    Without ``f_max`` the filter's high tail is added; with one, the
    integral is sharply band-limited, as a sampled Monte Carlo trace is at
    its Nyquist edge.  Without ``f_min`` the integral must converge at
    f -> 0 (see :class:`CpmgChi`).
    """
    return cpmg_chi(model, schedule.n_pulses)(schedule.total_time, f_min, f_max)


# ---------------------------------------------------------------------------
# Scans


def decay_table(curves, duration_factor: float,
                samples_per_interval: int) -> tuple[tuple[DecayPoint, ...], ...]:
    """The decay table of ``curves``, each ``(pulse_counts, times)`` with
    one count or one per time: a tuple of curves, each a tuple of the
    :func:`mc_point` of its points.  A time or rate that is not finite
    raises what :func:`mc_point` raises."""
    table = []
    for pulse_counts, times in curves:
        times = np.asarray(times, dtype=float)
        counts = np.broadcast_to(np.asarray(pulse_counts, dtype=int), times.shape)
        table.append(tuple(mc_point(int(n), float(t), duration_factor, samples_per_interval)
                           for n, t in zip(counts, times)))
    return tuple(table)


def _decay_point(args) -> CoherencePoint:
    # coherence_mc is looked up on the module per call, so a rebound one
    # runs every point
    return coherence_mc(*args)


def submit_decay_table(model: SpectrumModel, table, n_traj: int, curve_seeds):
    """Submit every point of the decay ``table``, in order, to the run's
    workers in one :func:`_parallel.submit`.  Returns a handle whose
    call gives the :class:`DecayCurve` of each curve.

    Point i of curve c is :func:`coherence_mc` at seed
    ``derive_child_seed(curve_seeds[c], i)``, so a curve does not depend
    on the other curves submitted with it.
    """
    if len(table) != len(curve_seeds):
        raise ValueError(f"{len(table)} curves in the table but "
                         f"{len(curve_seeds)} curve seeds")
    pending = _parallel.submit(_decay_point, [
        (model, point, n_traj, point_seed)
        for curve, seed in zip(table, curve_seeds)
        for point, point_seed in zip(curve, derive_child_seeds(seed, len(curve)))])

    def collect() -> list[DecayCurve]:
        results = iter(pending())
        out = []
        for curve in table:
            decays = [next(results) for _ in curve]
            out.append(DecayCurve(
                times=[point.total_time for point in curve],
                w=[p.w for p in decays],
                std_err=[p.std_err for p in decays],
                n_pulses=[point.n_pulses for point in curve]))
        return out
    return collect


def decay_vs_time(model: SpectrumModel, n_pulses: int, times, n_traj: int,
                  seed: int, *, duration_factor: float = DURATION_FACTOR,
                  samples_per_interval: int = SAMPLES_PER_INTERVAL) -> DecayCurve:
    """Coherence decay at fixed pulse count over a grid of total times."""
    table = decay_table([(n_pulses, times)], duration_factor, samples_per_interval)
    return submit_decay_table(model, table, n_traj, [seed])()[0]
