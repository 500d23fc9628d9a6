"""Fits and estimators that turn decay curves into noise information.

The reconstruction side of the package: exponential and stretched fits of
coherence curves, power-law slope extraction, and the mapping from
fixed-wait decay times to a spectral density via ``S = pi^2/(4*T2)`` at
``f = 1/(2*tau_wait)``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import _solve
from ._rng import derive_child_seeds
from .qubitsim import (DURATION_FACTOR, DecayCurve, decay_table,
                       submit_decay_table)
from .spectra import PsdEstimate, SpectrumModel

__all__ = [
    "FitError",
    "ExponentialFit",
    "StretchedFit",
    "PowerLawFit",
    "SpectroscopyPoint",
    "SPECTROSCOPY_SAMPLES_PER_INTERVAL",
    "fit_exponential",
    "fit_stretched",
    "fit_power_law",
    "t2_scaling_exponent",
    "spectroscopy_point",
    "reconstruct_psd",
    "spectroscopy_table",
    "spectroscopy_scan",
    "submit_spectroscopy_scan",
]

# two-sided 95% quantile of the standard normal
_Z95 = 1.959964

# the range fit_stretched searches the stretching exponent n in
_EXPONENT_BOUNDS = (0.3, 5.0)


class FitError(RuntimeError):
    """A fit failed to converge or produced a degenerate covariance.

    ``diagnostics`` carries enough context to debug the data that broke it.
    """

    def __init__(self, message: str, diagnostics: dict | None = None):
        super().__init__(message)
        self.diagnostics = diagnostics or {}


def _sigma_or_none(std_err) -> np.ndarray | None:
    if std_err is None:
        return None
    err = np.asarray(std_err, dtype=float)
    if np.all(err == 0):
        return None
    positive = err[err > 0]
    if positive.size == 0:
        raise FitError("std_err has no positive entry to weight the fit by",
                       {"n_points": int(err.size)})
    # zero-error points would get infinite weight; pin them near the best
    sigma = np.maximum(err, positive.min() * 1e-3)
    # every fit weighs by 1/sigma**2, which must not overflow; a NaN error
    # is left to the solver, which rejects it
    smallest = float(np.nanmin(sigma))
    if not (smallest**2 > 0 and math.isfinite(1.0 / smallest**2)):
        raise FitError(f"std_err's smallest sigma {smallest:g} gives a "
                       f"weight 1/sigma**2 that is not finite",
                       {"sigma_min": smallest})
    return sigma


def _std_errors(popt, pcov, name: str) -> np.ndarray:
    """``sqrt(diag(pcov))``; a covariance that is not finite or has a
    negative variance is a :class:`FitError` naming the model."""
    if not np.all(np.isfinite(pcov)) or np.any(np.diag(pcov) < 0):
        raise FitError("fit covariance is degenerate",
                       {"model": name.lower(),
                        "popt": list(map(float, np.atleast_1d(popt)))})
    return np.sqrt(np.diag(pcov))


def bounded_fit(solver, x, y, std_err, start, bounds, name: str,
                diagnostics: dict):
    """``(popt, perr, sigma)`` of the :mod:`spinprobe._solve` fit ``solver``
    weighted by ``std_err``: the front end of this module's fits and of
    :func:`spinprobe.benchmarking.fit_rb`, so not in ``__all__``.  A
    solver error becomes a :class:`FitError` "<name> fit failed" carrying
    ``diagnostics``, and a degenerate covariance one naming the model."""
    sigma = _sigma_or_none(std_err)
    try:
        popt, pcov = solver(x, y, sigma, start, bounds)
    except (RuntimeError, ValueError) as exc:
        raise FitError(f"{name} fit failed: {exc}", diagnostics) from exc
    return popt, _std_errors(popt, pcov, name), sigma


def _t2_guess(times: np.ndarray, w: np.ndarray) -> float:
    """Crossing of the 1/e level, linearly interpolated; falls back to the
    time span if the curve never decays that far."""
    target = math.exp(-1.0)
    below = np.nonzero(w <= target)[0]
    if below.size == 0:
        # shallow decay: estimate rate from the last point
        w_last = min(max(w[-1], 1e-6), 1.0 - 1e-9)
        return float(times[-1] / -math.log(w_last))
    j = below[0]
    if j == 0:
        return float(times[0])
    t0, t1 = times[j - 1], times[j]
    w0, w1 = w[j - 1], w[j]
    return float(t0 + (w0 - target) / (w0 - w1) * (t1 - t0))


@dataclass(frozen=True)
class ExponentialFit:
    """W(t) = exp(-t / t2).  ``on_bound``: t2 ended on an end of its
    search range, guess·1e-4 or guess·1e4 (see :func:`fit_exponential`)."""

    t2: float
    t2_err: float
    chi2_reduced: float
    on_bound: bool = False


@dataclass(frozen=True)
class StretchedFit:
    """W(t) = exp(-(t / t2) ** exponent)."""

    t2: float
    t2_err: float
    exponent: float
    exponent_err: float
    chi2_reduced: float


@dataclass(frozen=True)
class PowerLawFit:
    """log y = intercept + slope * log x."""

    slope: float
    slope_err: float
    intercept: float

    @property
    def prefactor(self) -> float:
        return math.exp(self.intercept)

    def evaluate(self, x):
        return self.prefactor * np.asarray(x, dtype=float) ** self.slope


def _reduced_chi2(resid: np.ndarray, sigma: np.ndarray | None, n_params: int) -> float:
    # the fits take at least n_params + 1 points, so dof >= 1
    dof = resid.size - n_params
    if sigma is None:
        return float(np.sum(resid**2) / dof)
    return float(np.sum((resid / sigma) ** 2) / dof)


def _decay_diagnostics(guess: float, t: np.ndarray, y: np.ndarray) -> dict:
    """What a failed decay fit reports: its T2 guess and the data's span."""
    return {"guess": guess, "t_range": [float(t[0]), float(t[-1])],
            "w_range": [float(y.min()), float(y.max())]}


def fit_exponential(times, w, std_err=None) -> ExponentialFit:
    """Single-parameter exponential through W(0) = 1.

    Keeping the amplitude fixed avoids trading decay rate against offset
    when the curve is shallow, which matters for spectroscopy points far
    from the noise peak.
    """
    t = np.asarray(times, dtype=float)
    y = np.asarray(w, dtype=float)
    if t.size < 2:
        raise FitError("need at least 2 points", {"n_points": int(t.size)})
    guess = _t2_guess(t, y)
    lo, hi = guess * 1e-4, guess * 1e4
    (t2,), (t2_err,), sigma = bounded_fit(
        _solve.fit_exp_decay, t, y, std_err, [guess], ([lo], [hi]),
        "exponential", _decay_diagnostics(guess, t, y))
    return ExponentialFit(t2=float(t2), t2_err=float(t2_err),
                          chi2_reduced=_reduced_chi2(y - np.exp(-t / t2), sigma, 1),
                          on_bound=not lo * (1 + 1e-9) < t2 < hi * (1 - 1e-9))


def fit_stretched(times, w, std_err=None) -> StretchedFit:
    """Two-parameter stretched exponential W = exp(-(t/T2)^n)."""
    t = np.asarray(times, dtype=float)
    y = np.asarray(w, dtype=float)
    if t.size < 3:
        raise FitError("need at least 3 points", {"n_points": int(t.size)})
    guess = _t2_guess(t, y)
    lo, hi = _EXPONENT_BOUNDS
    (t2, n), (t2_err, n_err), sigma = bounded_fit(
        _solve.fit_stretched_decay, t, y, std_err, [guess, 1.0],
        ([guess * 1e-4, lo], [guess * 1e4, hi]), "stretched",
        _decay_diagnostics(guess, t, y))
    return StretchedFit(t2=float(t2), t2_err=float(t2_err),
                        exponent=float(n), exponent_err=float(n_err),
                        chi2_reduced=_reduced_chi2(
                            y - np.exp(-np.power(t / t2, n)), sigma, 2))


def fit_power_law(x, y, y_err=None) -> PowerLawFit:
    """Straight-line fit in log-log space by its normal equations, with
    ``y_err / y`` as the errors of log y, pinned as every fit pins its sigma.
    Without errors the covariance is scaled by the residual variance,
    which takes a third point."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if np.any(x <= 0) or np.any(y <= 0):
        raise FitError("power-law fit needs strictly positive data",
                       {"x_min": float(x.min()), "y_min": float(y.min())})
    if x.size < 2:
        raise FitError("need at least 2 points", {"n_points": int(x.size)})
    if x.min() == x.max():
        raise FitError("power-law fit needs two distinct x",
                       {"x": float(x[0]), "n_points": int(x.size)})
    lx, ly = np.log(x), np.log(y)
    rel_err = None if y_err is None else np.asarray(y_err, dtype=float) / y
    sig = _sigma_or_none(rel_err)
    wgt = np.ones_like(ly) if sig is None else 1.0 / sig**2
    a = np.vstack([np.ones_like(lx), lx]).T
    cov = np.linalg.inv(a.T @ (a * wgt[:, None]))
    beta = cov @ (a.T @ (ly * wgt))
    if sig is None:
        resid = ly - a @ beta
        dof = lx.size - 2
        cov = cov * float(resid @ resid) / dof if dof else np.full((2, 2), np.inf)
    _, slope_err = _std_errors(beta, cov, "power-law")
    return PowerLawFit(slope=float(beta[1]), slope_err=float(slope_err),
                       intercept=float(beta[0]))


def t2_scaling_exponent(pulse_counts, t2_values, t2_errs=None) -> PowerLawFit:
    """Exponent beta of T2 proportional to N^beta across pulse counts."""
    return fit_power_law(pulse_counts, t2_values, t2_errs)


# ---------------------------------------------------------------------------
# CPMG noise spectroscopy

FIT_ON_BOUND = "fit_on_bound"
DECAY_UNRESOLVED = "decay_unresolved"

# the warning line of each flag but "out of range"
_FLAG_WARNINGS = {
    FIT_ON_BOUND: "fit on bound (T2 at a search limit or with zero error)",
    DECAY_UNRESOLVED: "decay unresolved (every W within 2 sigma of 0 or of 1)",
}

# samples per inter-pulse interval of a spectroscopy scan's Monte Carlo traces
SPECTROSCOPY_SAMPLES_PER_INTERVAL = 32


@dataclass(frozen=True)
class SpectroscopyPoint:
    """One fixed-wait decay time and the spectral density it implies."""

    tau_wait: float
    t2s: float
    t2s_err: float
    pulse_counts: tuple[int, ...]
    flags: tuple[str, ...] = ()

    @property
    def f_hz(self) -> float:
        return 1.0 / (2.0 * self.tau_wait)

    @property
    def s_value(self) -> float:
        return math.pi**2 / (4.0 * self.t2s)

    @property
    def s_err(self) -> float:
        return math.pi**2 / (4.0 * self.t2s**2) * self.t2s_err


def spectroscopy_point(curve: DecayCurve, tau_wait: float, *,
                       t2_hahn: float | None = None) -> SpectroscopyPoint:
    """Fixed-wait decay time from a pulse-count scan.

    The curve must come from a constant inter-pulse wait, so coherence
    versus total time is a plain exponential; its decay time is the
    frequency-resolved T2 at ``1/(2*tau_wait)``.  A point whose wait is no
    longer small against the single-echo decay time (above a quarter of
    ``t2_hahn``) can't separate the filter passband from the overall
    envelope, so it gets flagged.  So does a fit whose T2 ended on a
    bound of its search range or has zero error, and, whatever its fit
    reads, a curve whose every W lies within 2 sigma_W of 0 (dephased) or
    every W within 2 sigma_W of 1 (not decayed): its S and interval say
    nothing about the noise.
    """
    fit = fit_exponential(curve.times, curve.w, curve.std_err)
    flags = []
    if t2_hahn is not None and tau_wait > 0.25 * t2_hahn:
        flags.append("out_of_range:tau_wait_approaches_hahn_t2")
    if fit.on_bound or fit.t2_err == 0:
        flags.append(FIT_ON_BOUND)
    band = 2.0 * curve.std_err
    if np.all(np.abs(curve.w) <= band) or np.all(np.abs(curve.w - 1.0) <= band):
        flags.append(DECAY_UNRESOLVED)
    return SpectroscopyPoint(tau_wait=float(tau_wait), t2s=fit.t2,
                             t2s_err=fit.t2_err,
                             pulse_counts=tuple(int(n) for n in curve.n_pulses),
                             flags=tuple(flags))


def reconstruct_psd(points: list[SpectroscopyPoint]) -> PsdEstimate:
    """Assemble spectroscopy points into a PSD estimate.

    Frequencies come out sorted ascending; 95% intervals propagate the
    decay-time uncertainty linearly.  Flagged points are kept (their
    flags ride along in ``points_detail`` and a summary warning) so the
    caller decides whether to trust them.
    """
    if not points:
        raise ValueError("no spectroscopy points to assemble")
    pts = sorted(points, key=lambda p: p.f_hz)
    f = np.array([p.f_hz for p in pts])
    s = np.array([p.s_value for p in pts])
    half = _Z95 * np.array([p.s_err for p in pts])
    warnings = []
    n_out = sum(1 for p in pts if set(p.flags) - _FLAG_WARNINGS.keys())
    if n_out:
        warnings.append(f"{n_out} of {len(pts)} points flagged out of range")
    for flag, what in _FLAG_WARNINGS.items():
        if n := sum(1 for p in pts if flag in p.flags):
            warnings.append(f"{n} of {len(pts)} points flagged {what}")
    detail = tuple({"f_hz": p.f_hz, "tau_wait": p.tau_wait, "t2s": p.t2s,
                    "t2s_err": p.t2s_err, "pulse_counts": p.pulse_counts,
                    "flags": p.flags} for p in pts)
    return PsdEstimate(f=f, s=s, ci_low=np.maximum(s - half, 0.0),
                       ci_high=s + half, warnings=tuple(warnings),
                       points_detail=detail)


def spectroscopy_table(f_grid_hz, pulse_counts, *,
                       duration_factor: float = DURATION_FACTOR,
                       samples_per_interval: int = SPECTROSCOPY_SAMPLES_PER_INTERVAL):
    """The :func:`qubitsim.decay_table` of a spectroscopy scan: curve i
    plays each of ``pulse_counts`` at the fixed wait ``1/(2 f_i)``."""
    f_grid = np.asarray(f_grid_hz, dtype=float)
    if np.any(f_grid <= 0):
        raise ValueError("spectroscopy frequencies must be > 0")
    counts = np.asarray(pulse_counts, dtype=int)
    if np.any(counts < 1):
        raise ValueError("pulse counts must be >= 1 when tau_wait is fixed")
    return decay_table([(counts, counts * tau) for tau in 1.0 / (2.0 * f_grid)],
                       duration_factor, samples_per_interval)


def spectroscopy_scan(model: SpectrumModel, f_grid_hz, table, n_traj: int,
                      seed: int, *, t2_hahn: float | None = None) -> PsdEstimate:
    """Full simulated CPMG spectroscopy on the :func:`spectroscopy_table`
    ``table`` of ``f_grid_hz``: decay scans at each target frequency,
    exponential fits, and PSD assembly.

    Frequency i gets a fixed wait ``1/(2f)`` and a pulse-count scan at
    seed ``derive_child_seed(seed, i)``, whose point j runs at
    ``derive_child_seed`` of that and j, so the result is independent of
    evaluation order.  All points of all frequencies run in one map over
    the run's workers.
    """
    return submit_spectroscopy_scan(model, f_grid_hz, table, n_traj, seed,
                                    t2_hahn=t2_hahn)()


def submit_spectroscopy_scan(model: SpectrumModel, f_grid_hz,
                             table, n_traj: int, seed: int, *,
                             t2_hahn: float | None = None):
    """:func:`spectroscopy_scan`, its points submitted to the run's workers
    and not yet collected.  Returns a handle whose call waits for
    them, fits them and gives the :class:`PsdEstimate`."""
    taus = 1.0 / (2.0 * np.asarray(f_grid_hz, dtype=float))
    if taus.size != len(table):
        raise ValueError(f"{taus.size} frequencies but {len(table)} curves "
                         f"in the table")
    pending = submit_decay_table(model, table, n_traj,
                                 derive_child_seeds(seed, taus.size))
    return lambda: reconstruct_psd([
        spectroscopy_point(curve, tau, t2_hahn=t2_hahn)
        for curve, tau in zip(pending(), taus)])
