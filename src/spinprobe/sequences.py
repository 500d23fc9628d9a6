"""Dynamical-decoupling pulse schedules and their dephasing filter functions.

A schedule is the free-evolution skeleton of a phase experiment: the qubit
is prepared on the equator at t = 0, pi pulses flip the toggling sign at the
listed times, and the accumulated phase is read out at ``total_time``.  Pulses
are treated as instantaneous here; finite-duration effects belong to the
time-domain simulator.

The filter function is ``|Y(2*pi*f)|**2`` with ``Y(omega) = int y(t)
exp(i*omega*t) dt`` and y the +-1 toggling function, so the filter has units
of s^2 and ``phase variance = int_0^inf S(f) |Y(2*pi*f)|**2 df`` for a
one-sided PSD S (up to the package-wide calibration applied by the
coherence engines, see :mod:`spinprobe.qubitsim`).

:func:`filter_function` sums the exact Fourier integral of every
constant-sign segment, for any schedule at O(N) cost per frequency.  The
closed forms :func:`cpmg_filter_function` and
:func:`ramsey_filter_function`, O(1) per frequency, serve the
filter-function engine of :mod:`spinprobe.qubitsim` and the tone scan.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "PulseSchedule",
    "make_ramsey",
    "make_hahn",
    "make_cpmg",
    "filter_function",
    "cpmg_filter_function",
    "ramsey_filter_function",
    "response",
]


@dataclass(frozen=True)
class PulseSchedule:
    """Instantaneous pi-pulse times inside a free-evolution window."""

    total_time: float
    pulse_times: tuple[float, ...] = ()
    label: str = ""

    def __post_init__(self):
        if not (self.total_time > 0 and np.isfinite(self.total_time)):
            raise ValueError(f"total_time must be finite and > 0, got {self.total_time}")
        times = tuple(float(t) for t in self.pulse_times)
        object.__setattr__(self, "pulse_times", times)
        arr = np.asarray(times)
        if arr.size:
            if np.any(arr <= 0) or np.any(arr >= self.total_time):
                raise ValueError("pulse times must lie strictly inside (0, total_time)")
            if np.any(np.diff(arr) <= 0):
                raise ValueError("pulse times must be strictly increasing")

    @property
    def n_pulses(self) -> int:
        return len(self.pulse_times)

    @property
    def boundaries(self) -> np.ndarray:
        """Segment edges: 0, pulse times, total_time."""
        return np.concatenate(([0.0], self.pulse_times, [self.total_time]))

    @property
    def segment_signs(self) -> np.ndarray:
        """Toggling sign of each free-evolution segment, starting at +1."""
        return (-1.0) ** np.arange(self.n_pulses + 1)


def make_ramsey(total_time: float) -> PulseSchedule:
    """Free induction: no refocusing pulses."""
    return PulseSchedule(total_time=total_time, label="ramsey")


def make_hahn(total_time: float) -> PulseSchedule:
    """Single echo, pulse at the midpoint."""
    return PulseSchedule(total_time=total_time,
                         pulse_times=(total_time / 2.0,), label="hahn")


def make_cpmg(n_pulses: int, total_time: float) -> PulseSchedule:
    """Equally weighted multipulse echo.

    Pulse j (1-based) sits at ``(2j - 1) * total_time / (2 * n_pulses)``;
    the end segments are half an inter-pulse spacing long, so the passband
    of the filter centres near ``n_pulses / (2 * total_time)``.
    """
    if n_pulses < 1:
        raise ValueError(f"n_pulses must be >= 1, got {n_pulses}")
    j = np.arange(1, n_pulses + 1)
    times = tuple((2 * j - 1) * total_time / (2.0 * n_pulses))
    return PulseSchedule(total_time=total_time, pulse_times=times,
                         label=f"cpmg-{n_pulses}")


def response(schedule: PulseSchedule, f_hz) -> np.ndarray:
    """Complex transfer function Y(2*pi*f) of the toggling sequence.

    Each constant-sign segment contributes its exact Fourier integral,
    ``dt * exp(i*2*pi*f*mid) * sinc(f*dt)`` (numpy sinc convention), which
    stays finite at f = 0 where Y(0) is the signed area of y(t).
    """
    f = np.atleast_1d(np.asarray(f_hz, dtype=float))
    edges = schedule.boundaries
    mids = 0.5 * (edges[:-1] + edges[1:])
    widths = np.diff(edges)
    signs = schedule.segment_signs
    # (nseg, nf) complex outer products: O(N) work and memory per frequency
    phase = np.exp(2j * np.pi * np.outer(mids, f))
    kernel = widths[:, None] * np.sinc(np.outer(widths, f))
    y = np.sum(signs[:, None] * phase * kernel, axis=0)
    return y if np.ndim(f_hz) else complex(y[0])


def filter_function(schedule: PulseSchedule, f_hz) -> np.ndarray:
    """``|Y(2*pi*f)|**2`` in s^2 at ordinary frequencies ``f_hz``."""
    y = response(schedule, np.atleast_1d(np.asarray(f_hz, dtype=float)))
    mag2 = np.abs(y) ** 2
    return mag2 if np.ndim(f_hz) else float(mag2[0])


def cpmg_filter_function(n_pulses: int, total_time: float, f_hz) -> np.ndarray:
    """Closed-form ``|Y(2*pi*f)|**2`` of ``make_cpmg(n_pulses, total_time)``.

    With ``tau = T/N`` and ``u = f*tau`` (Cywinski et al., PRB 77, 174509
    (2008))::

        |Y|^2 = tau^2 sinc^2(u/2) sin^2(pi u/2) (sin(N pi r) / sin(pi r))^2
        r = u - floor(u) - 1/2

    i.e. one inter-pulse cell's echo response times the array factor of N
    cells of alternating sign.  The reduced argument r puts the removable
    0/0 of the array factor exactly at r = 0, the passband centres
    ``(2k+1) * N / (2T)``, where the ratio takes its limit N (quadrature
    grids land on those points).  Agrees with :func:`filter_function` on
    the same schedule to rounding.
    """
    if n_pulses < 1:
        raise ValueError(f"n_pulses must be >= 1, got {n_pulses}")
    f = np.asarray(f_hz, dtype=float)
    tau = total_time / n_pulses
    u = f * tau
    r = u - np.floor(u) - 0.5
    den = np.sin(np.pi * r)
    with np.errstate(invalid="ignore", divide="ignore"):
        ratio = np.where(den == 0.0, float(n_pulses),
                         np.sin(n_pulses * np.pi * r) / den)
    mag2 = (tau * np.sinc(0.5 * u) * np.sin(0.5 * np.pi * u) * ratio) ** 2
    return mag2 if np.ndim(f_hz) else float(mag2)


def ramsey_filter_function(total_time: float, f_hz) -> np.ndarray:
    """Closed-form ``|Y(2*pi*f)|**2`` of ``make_ramsey(total_time)``:
    ``(T sinc(f T))**2`` (numpy sinc convention)."""
    mag2 = (total_time * np.sinc(np.asarray(f_hz, dtype=float) * total_time)) ** 2
    return mag2 if np.ndim(f_hz) else float(mag2)
