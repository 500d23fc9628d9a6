"""Dynamical-decoupling pulse schedules and their dephasing filter functions.

A schedule is a CPMG-N train, or free induction (Ramsey) for N = 0: the
qubit is prepared on the equator at t = 0, N instantaneous pi pulses flip
the toggling sign at ``(2j - 1) * T / (2N)``, and the accumulated phase is
read out at ``total_time`` T.  So a schedule is the pair ``(n_pulses,
total_time)``, and its pulse times, segment edges and toggling signs
follow from it.  Finite-duration pulse effects belong to the time-domain
simulator.

The filter function is ``|Y(2*pi*f)|**2`` with ``Y(omega) = int y(t)
exp(i*omega*t) dt`` and y the +-1 toggling function, so the filter has units
of s^2 and ``phase variance = int_0^inf S(f) |Y(2*pi*f)|**2 df`` for a
one-sided PSD S (up to the package-wide calibration applied by the
coherence engines, see :mod:`spinprobe.qubitsim`).

:func:`filter_function` evaluates it for a schedule through the closed
forms :func:`cpmg_filter_function` and :func:`ramsey_filter_function`,
O(1) per frequency; it serves the filter-function engine of
:mod:`spinprobe.qubitsim`, and the tone scan calls the CPMG form directly.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "PulseSchedule",
    "make_ramsey",
    "make_cpmg",
    "filter_function",
    "cpmg_filter_function",
    "ramsey_filter_function",
]


@dataclass(frozen=True)
class PulseSchedule:
    """``n_pulses`` equally spaced pi pulses over ``total_time`` (CPMG-N),
    or free induction for ``n_pulses = 0``."""

    n_pulses: int
    total_time: float

    def __post_init__(self):
        if not (self.total_time > 0 and np.isfinite(self.total_time)):
            raise ValueError(f"total_time must be finite and > 0, got {self.total_time}")
        if self.n_pulses < 0:
            raise ValueError(f"n_pulses must be >= 0, got {self.n_pulses}")

    @property
    def pulse_times(self) -> tuple[float, ...]:
        """Pulse j (1-based) at ``(2j - 1) * total_time / (2 * n_pulses)``:
        the end segments are half an inter-pulse spacing long, so the
        passband of the filter centres near ``n_pulses / (2 * total_time)``."""
        j = np.arange(1, self.n_pulses + 1)
        return tuple(((2 * j - 1) * self.total_time / (2.0 * self.n_pulses)).tolist())

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
    return PulseSchedule(0, total_time)


def make_cpmg(n_pulses: int, total_time: float) -> PulseSchedule:
    """Equally weighted multipulse echo of ``n_pulses >= 1`` pulses (a
    Hahn echo for one)."""
    if n_pulses < 1:
        raise ValueError(f"n_pulses must be >= 1, got {n_pulses}")
    return PulseSchedule(n_pulses, total_time)


def filter_function(schedule: PulseSchedule, f_hz) -> np.ndarray:
    """``|Y(2*pi*f)|**2`` in s^2 at ordinary frequencies ``f_hz``:
    :func:`ramsey_filter_function` for no pulses, else
    :func:`cpmg_filter_function`."""
    if schedule.n_pulses == 0:
        return ramsey_filter_function(schedule.total_time, f_hz)
    return cpmg_filter_function(schedule.n_pulses, schedule.total_time, f_hz)


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
    grids land on those points).  Agrees with the sum of every
    constant-sign segment's exact Fourier integral to rounding.
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
