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
from .qubitsim import (DURATION_FACTOR, SAMPLES_PER_INTERVAL, DecayCurve,
                       DecayTable, decay_table, submit_decay_table)
from .spectra import PsdEstimate, SpectrumModel

__all__ = [
    "FitError",
    "ExponentialFit",
    "StretchedFit",
    "PowerLawFit",
    "SpectroscopyPoint",
    "fit_exponential",
    "fit_stretched",
    "fit_power_law",
    "band_slope",
    "t2_scaling_exponent",
    "expected_scaling_exponent",
    "expected_stretching_exponent",
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
    return np.maximum(err, positive.min() * 1e-3)


def _check_cov(popt, pcov, context: dict):
    if pcov is None or not np.all(np.isfinite(pcov)) or np.any(np.diag(pcov) < 0):
        raise FitError("fit covariance is degenerate",
                       {**context, "popt": list(map(float, np.atleast_1d(popt)))})
    return np.sqrt(np.diag(pcov))


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
    dof = resid.size - n_params
    if dof <= 0:
        return math.nan
    if sigma is None:
        return float(np.sum(resid**2) / dof)
    return float(np.sum((resid / sigma) ** 2) / dof)


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
    sigma = _sigma_or_none(std_err)

    guess = _t2_guess(t, y)
    lo, hi = guess * 1e-4, guess * 1e4
    try:
        popt, pcov = _solve.fit_exp_decay(t, y, sigma, [guess], ([lo], [hi]))
    except (RuntimeError, ValueError) as exc:
        raise FitError(f"exponential fit failed: {exc}",
                       {"guess": guess, "t_range": [float(t[0]), float(t[-1])],
                        "w_range": [float(y.min()), float(y.max())]}) from exc
    (t2,) = popt
    (t2_err,) = _check_cov(popt, pcov, {"model": "exponential"})
    return ExponentialFit(t2=float(t2), t2_err=float(t2_err),
                          chi2_reduced=_reduced_chi2(y - np.exp(-t / t2), sigma, 1),
                          on_bound=not lo * (1 + 1e-9) < t2 < hi * (1 - 1e-9))


def fit_stretched(times, w, std_err=None) -> StretchedFit:
    """Two-parameter stretched exponential W = exp(-(t/T2)^n)."""
    t = np.asarray(times, dtype=float)
    y = np.asarray(w, dtype=float)
    if t.size < 3:
        raise FitError("need at least 3 points", {"n_points": int(t.size)})
    sigma = _sigma_or_none(std_err)

    guess = _t2_guess(t, y)
    lo, hi = _EXPONENT_BOUNDS
    try:
        popt, pcov = _solve.fit_stretched_decay(
            t, y, sigma, [guess, 1.0], ([guess * 1e-4, lo], [guess * 1e4, hi]))
    except (RuntimeError, ValueError) as exc:
        raise FitError(f"stretched fit failed: {exc}",
                       {"guess": guess, "t_range": [float(t[0]), float(t[-1])],
                        "w_range": [float(y.min()), float(y.max())]}) from exc
    t2, n = popt
    t2_err, n_err = _check_cov(popt, pcov, {"model": "stretched"})
    return StretchedFit(t2=float(t2), t2_err=float(t2_err),
                        exponent=float(n), exponent_err=float(n_err),
                        chi2_reduced=_reduced_chi2(
                            y - np.exp(-np.power(t / t2, n)), sigma, 2))


def fit_power_law(x, y, y_err=None) -> PowerLawFit:
    """Weighted straight-line fit in log-log space."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if np.any(x <= 0) or np.any(y <= 0):
        raise FitError("power-law fit needs strictly positive data",
                       {"x_min": float(x.min()), "y_min": float(y.min())})
    if x.size < 2:
        raise FitError("need at least 2 points", {"n_points": int(x.size)})
    lx, ly = np.log(x), np.log(y)
    if y_err is not None:
        sig = np.asarray(y_err, dtype=float) / y  # d(log y)
        sig = np.maximum(sig, max(sig[sig > 0].min() if np.any(sig > 0) else 1.0, 1e-12) * 1e-3)
    else:
        sig = np.ones_like(ly)
    wgt = 1.0 / sig**2
    a = np.vstack([np.ones_like(lx), lx]).T
    cov = np.linalg.inv(a.T @ (a * wgt[:, None]))
    beta = cov @ (a.T @ (ly * wgt))
    if y_err is None:
        # scale covariance by residual variance (unweighted regression)
        resid = ly - a @ beta
        dof = max(lx.size - 2, 1)
        cov = cov * float(resid @ resid) / dof
    return PowerLawFit(slope=float(beta[1]),
                       slope_err=float(np.sqrt(cov[1, 1])),
                       intercept=float(beta[0]))


def band_slope(estimate: PsdEstimate, f_lo: float, f_hi: float) -> PowerLawFit:
    """Log-log slope of a PSD estimate restricted to [f_lo, f_hi]."""
    sel = (estimate.f >= f_lo) & (estimate.f <= f_hi)
    if np.count_nonzero(sel) < 2:
        raise FitError("fewer than 2 estimate points in band",
                       {"band": [f_lo, f_hi],
                        "f_range": [float(estimate.f[0]), float(estimate.f[-1])]})
    err = (estimate.ci_high[sel] - estimate.ci_low[sel]) / (2 * _Z95)
    return fit_power_law(estimate.f[sel], estimate.s[sel], err)


def t2_scaling_exponent(pulse_counts, t2_values, t2_errs=None) -> PowerLawFit:
    """Exponent beta of T2 proportional to N^beta across pulse counts."""
    return fit_power_law(pulse_counts, t2_values, t2_errs)


def expected_scaling_exponent(alpha: float) -> float:
    """T2 grows as N^(alpha/(alpha+1)) under a 1/f^alpha spectrum."""
    return alpha / (alpha + 1.0)


def expected_stretching_exponent(alpha: float) -> float:
    """Decay follows exp(-(t/T2)^(1+alpha)) under a 1/f^alpha spectrum."""
    return 1.0 + alpha


# ---------------------------------------------------------------------------
# CPMG noise spectroscopy

FIT_ON_BOUND = "fit_on_bound"


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
    envelope, so it gets flagged.  So
    does a fit whose T2 ended on a bound of its search range or has zero
    error: its S and interval say nothing about the noise.
    """
    fit = fit_exponential(curve.times, curve.w, curve.std_err)
    flags = []
    if t2_hahn is not None and tau_wait > 0.25 * t2_hahn:
        flags.append("out_of_range:tau_wait_approaches_hahn_t2")
    if fit.on_bound or fit.t2_err == 0:
        flags.append(FIT_ON_BOUND)
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
    n_out = sum(1 for p in pts if set(p.flags) - {FIT_ON_BOUND})
    if n_out:
        warnings.append(f"{n_out} of {len(pts)} points flagged out of range")
    n_bound = sum(1 for p in pts if FIT_ON_BOUND in p.flags)
    if n_bound:
        warnings.append(f"{n_bound} of {len(pts)} points flagged fit on bound "
                        f"(T2 at a search limit or with zero error)")
    detail = tuple({"f_hz": p.f_hz, "tau_wait": p.tau_wait, "t2s": p.t2s,
                    "t2s_err": p.t2s_err, "pulse_counts": p.pulse_counts,
                    "flags": p.flags} for p in pts)
    return PsdEstimate(f=f, s=s, ci_low=np.maximum(s - half, 0.0),
                       ci_high=s + half, warnings=tuple(warnings),
                       points_detail=detail)


def spectroscopy_table(f_grid_hz, pulse_counts, *,
                       duration_factor: float = DURATION_FACTOR,
                       samples_per_interval: int = SAMPLES_PER_INTERVAL
                       ) -> DecayTable:
    """The decay table of a spectroscopy scan: curve i plays each of
    ``pulse_counts`` at the fixed wait ``1/(2 f_i)``."""
    f_grid = np.asarray(f_grid_hz, dtype=float)
    if np.any(f_grid <= 0):
        raise ValueError("spectroscopy frequencies must be > 0")
    counts = np.asarray(pulse_counts, dtype=int)
    if np.any(counts < 1):
        raise ValueError("pulse counts must be >= 1 when tau_wait is fixed")
    return decay_table([(counts, counts * tau) for tau in 1.0 / (2.0 * f_grid)],
                       duration_factor, samples_per_interval)


def spectroscopy_scan(model: SpectrumModel, f_grid_hz, pulse_counts,
                      n_traj: int, seed: int, *,
                      t2_hahn: float | None = None,
                      duration_factor: float = DURATION_FACTOR,
                      samples_per_interval: int = SAMPLES_PER_INTERVAL) -> PsdEstimate:
    """Full simulated CPMG spectroscopy: decay scans at each target
    frequency, exponential fits, and PSD assembly.

    Frequency i gets a fixed wait ``1/(2f)`` and a pulse-count scan at
    seed ``derive_child_seed(seed, i)``, whose point j runs at
    ``derive_child_seed`` of that and j, so the result is independent of
    evaluation order.  All points of all frequencies, the rows of
    :func:`spectroscopy_table`, run in one map over the process pool.
    """
    table = spectroscopy_table(f_grid_hz, pulse_counts,
                               duration_factor=duration_factor,
                               samples_per_interval=samples_per_interval)
    return submit_spectroscopy_scan(model, f_grid_hz, table, n_traj, seed,
                                    t2_hahn=t2_hahn)()


def submit_spectroscopy_scan(model: SpectrumModel, f_grid_hz,
                             table: DecayTable, n_traj: int, seed: int, *,
                             t2_hahn: float | None = None):
    """:func:`spectroscopy_scan` of the :func:`spectroscopy_table`
    ``table`` of ``f_grid_hz``, its rows submitted to the run's process
    pool and not yet collected.  Returns a handle whose call waits for
    them, fits them and gives the :class:`PsdEstimate`."""
    taus = 1.0 / (2.0 * np.asarray(f_grid_hz, dtype=float))
    pending = submit_decay_table(model, table, n_traj,
                                 derive_child_seeds(seed, taus.size))
    return lambda: reconstruct_psd([
        spectroscopy_point(curve, tau, t2_hahn=t2_hahn)
        for curve, tau in zip(pending(), taus)])
