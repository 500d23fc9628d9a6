"""The numpy-only kernels of ``spinprobe._solve``, with scipy as the oracle.

scipy is a test dependency only: these tests hold the root finder to
``scipy.optimize.brentq`` bit for bit, the gamma quantiles to
``scipy.special.gammaincinv``, and the fits to ``curve_fit``.
"""

import decimal
import math
import warnings
from pathlib import Path

import numpy as np
import pytest
import yaml
from scipy import optimize, special

from spinprobe import _solve, analysis, benchmarking, qubitsim, spectra
from spinprobe.analysis import FitError
from spinprobe.harness import execute
from spinprobe.harness.config import validate_config
from spinprobe.spectra import PowerLawTerm, SpectralLine, SpectrumModel

CONFIG_DIR = Path(__file__).resolve().parents[1] / "configs"


@pytest.mark.parametrize("values", [
    [], [2.5], [3.0, 1.0, 3.0, 2.0, 1.0], [[0.5, -0.0], [0.0, 0.5]],
    np.random.default_rng(0).integers(0, 50, 400) / 8.0,
    np.geomspace(1e-9, 1.0, 300).tolist() * 2])
def test_distinct_equals_np_unique(values):
    np.testing.assert_array_equal(_solve.distinct(values), np.unique(values),
                                  strict=True)


class TestBrentq:
    @pytest.mark.parametrize("f, a, b", [
        (lambda x: x**3 - 2 * x - 5, 2.0, 3.0),
        (lambda x: math.cos(x) - x, 0.0, 1.0),
        (lambda x: math.exp(x) - 10.0, -5.0, 5.0),
        (lambda x: x * x - 1e-10, 0.0, 1.0),
        (lambda x: math.tanh(50 * (x - 0.3)), -1.0, 2.0),
        (lambda x: x**3 - x - 1.0, 1.0, 2.0),
    ])
    @pytest.mark.parametrize("kwargs", [{}, {"xtol": 1e-3}, {"rtol": 1e-10},
                                        {"xtol": 1e-15}])
    def test_roots_equal_scipy(self, f, a, b, kwargs):
        assert _solve.brentq(f, a, b, **kwargs) == optimize.brentq(f, a, b, **kwargs)

    def test_given_end_values_are_not_evaluated(self):
        calls = []

        def f(x):
            calls.append(x)
            return math.cos(x) - x

        root = _solve.brentq(f, 0.0, 1.0, fa=f(0.0), fb=f(1.0))
        assert root == optimize.brentq(f, 0.0, 1.0)
        n = len(calls)
        _solve.brentq(f, 0.0, 1.0, fa=1.0, fb=math.cos(1.0) - 1.0)
        assert 0.0 not in calls[n:] and 1.0 not in calls[n:]

    @pytest.mark.parametrize("f, a, b, kwargs, error", [
        (lambda x: x * x + 1.0, -1.0, 1.0, {}, ValueError),
        (lambda x: math.nan if x > 0.5 else x - 0.7, 0.0, 1.0, {}, ValueError),
        (lambda x: x - 0.3, 0.0, 1.0, {"xtol": 0.0}, ValueError),
        (lambda x: x - 0.3, 0.0, 1.0, {"rtol": 1e-17}, ValueError),
        (lambda x: math.tanh(50 * (x - 0.3)), -1.0, 2.0, {"maxiter": 3}, RuntimeError),
        (lambda x: (x - 1.0) ** 5, 0.0, 3.0, {}, RuntimeError),
    ])
    def test_raises_where_scipy_raises(self, monkeypatch, f, a, b, kwargs, error):
        with pytest.raises(error):
            optimize.brentq(f, a, b, **kwargs)
        kwargs = dict(kwargs)
        if "maxiter" in kwargs:  # brentq's iteration cap is a module constant
            monkeypatch.setattr(_solve, "_MAXITER", kwargs.pop("maxiter"))
        with pytest.raises(error):
            _solve.brentq(f, a, b, **kwargs)

    def _replayed(self, monkeypatch, module, run):
        """Every brentq call ``run`` makes through ``module``, each with
        its root and scipy's root of the same problem."""
        calls = []

        def spy(f, a, b, **kwargs):
            root = _solve.brentq(f, a, b, **kwargs)
            calls.append((f, a, b, kwargs.get("xtol", 2e-12), root))
            return root

        monkeypatch.setattr(module, "brentq", spy)
        run()
        monkeypatch.undo()
        return [(root, optimize.brentq(f, a, b, xtol=xtol))
                for f, a, b, xtol, root in calls]

    def test_t2_search_roots_equal_scipy(self, monkeypatch):
        composite = SpectrumModel(
            powerlaws=(PowerLawTerm(3e13, 2.5), PowerLawTerm(3e7, 1.0)),
            white_floor=350.0, lines=(SpectralLine(3600.0, 1.5e6, 150.0),))
        models = [composite, SpectrumModel(lines=composite.lines),
                  SpectrumModel(lines=(SpectralLine(1.0, 1e3, 2.0),)),
                  SpectrumModel(white_floor=10.0,
                                lines=(SpectralLine(5e3, 3e7, 50.0),)),
                  SpectrumModel(powerlaws=(PowerLawTerm(3e7, 1.0),),
                                white_floor=350.0)]

        def run():
            for model in models:
                for n in (1, 8, 64):
                    qubitsim.CpmgChi(model, n).t2

        pairs = self._replayed(monkeypatch, qubitsim, run)
        assert len(pairs) > len(models) * 3
        assert all(ours == theirs for ours, theirs in pairs)

    def test_zero_extrapolation_denominator_bisects_as_scipy(self, monkeypatch):
        # the exponential fit of this rising curve extrapolates on secant
        # slopes whose product underflows to 0: brentq.c's division gives
        # inf and bisects, where a Python float division raised
        brentq, calls = _solve.brentq, []

        def spy(f, a, b, **kwargs):
            calls.append((f, a, b, kwargs["xtol"]))
            return brentq(f, a, b, **kwargs)

        monkeypatch.setattr(_solve, "brentq", spy)
        fit = analysis.fit_exponential([0.00390625, 0.0078125],
                                       [1.1243075397933676e-67, 0.5], [1.0, 1.0])
        monkeypatch.undo()
        assert fit.chi2_reduced == 0.25
        assert len(calls) == 1
        assert all(brentq(f, a, b, xtol=xtol) == optimize.brentq(f, a, b, xtol=xtol)
                   for f, a, b, xtol in calls)

    def test_rb_inversion_roots_equal_scipy(self, monkeypatch):
        def run():
            for f in (0.6, 0.9, 0.99, 0.9983, 0.99999):
                benchmarking.depolarizing_from_clifford_fidelity(f)

        pairs = self._replayed(monkeypatch, benchmarking, run)
        assert len(pairs) == 5
        assert all(ours == theirs for ours, theirs in pairs)


class TestGammaQuantile:
    SHAPES = sorted(set(range(1, 201)) | {int(a) for a in np.geomspace(200, 1e5, 30)})

    @pytest.mark.parametrize("q", [0.025, 0.975, 1e-6, 0.5, 1 - 1e-6])
    def test_matches_gammaincinv(self, q):
        ours = np.array([_solve.gamma_quantile(a, q) for a in self.SHAPES])
        np.testing.assert_allclose(ours, special.gammaincinv(self.SHAPES, q),
                                   rtol=1e-13, atol=0)

    def test_welch_table_is_gammaincinv(self):
        table = np.array(spectra._WELCH_GAMMA_QUANTILES)
        shapes = np.arange(1, len(table) + 1)
        assert np.array_equal(table[:, 0], special.gammaincinv(shapes, 0.025))
        assert np.array_equal(table[:, 1], special.gammaincinv(shapes, 0.975))
        computed = [[_solve.gamma_quantile(a, q) for q in (0.025, 0.975)]
                    for a in shapes]
        np.testing.assert_allclose(computed, table, rtol=1e-14, atol=0)

    def test_welch_beyond_the_table(self):
        n = len(spectra._WELCH_GAMMA_QUANTILES) + 1
        lo, hi = spectra._welch_gamma_quantiles(n)
        np.testing.assert_allclose([lo, hi], special.gammaincinv(n, [0.025, 0.975]),
                                   rtol=1e-13, atol=0)

    @pytest.mark.parametrize("a, q", [(0, 0.5), (3, 0.0), (3, 1.0), (3, math.nan)])
    def test_rejects_bad_input(self, a, q):
        with pytest.raises(ValueError):
            _solve.gamma_quantile(a, q)


# ---------------------------------------------------------------------------
# Fits, against curve_fit


def _exp(t, t2):
    return np.exp(-t / t2)


def _exp_jac(t, t2):
    return (np.exp(-t / t2) * t / t2**2)[:, None]


def _stretched(t, t2, n):
    return np.exp(-np.power(t / t2, n))


def _stretched_jac(t, t2, n):
    z = np.power(t / t2, n)
    m = np.exp(-z)
    return np.column_stack((m * z * n / t2, -m * z * np.log(t / t2)))


def _rb(m, a, p, b):
    return a * p**m + b


def _rb_jac(m, a, p, b):
    return np.column_stack((p**m, a * m * p ** (m - 1), np.ones_like(m)))


# (model, analytic Jacobian, in-house fit); each fit takes (x, y, sigma,
# start, bounds) and returns (popt, pcov) as curve_fit does
FITS = {
    "exponential": (_exp, _exp_jac, _solve.fit_exp_decay),
    "stretched": (_stretched, _stretched_jac, _solve.fit_stretched_decay),
    "rb": (_rb, _rb_jac, _solve.fit_rb_decay),
}


def _curve_fit(kind, x, y, sigma, p0, bounds, **kwargs):
    model = FITS[kind][0]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", optimize.OptimizeWarning)
        return optimize.curve_fit(model, x, y, p0=p0, sigma=sigma,
                                  absolute_sigma=sigma is not None,
                                  bounds=bounds, maxfev=20000, **kwargs)


# the models of FITS on decimals
_DECIMAL_MODELS = {
    "exponential": lambda t, t2: (-t / t2).exp(),
    "stretched": lambda t, t2, n: (-((t / t2) ** n)).exp(),
    "rb": lambda m, a, p, b: a * p ** m + b,
}


def _cost(kind, popt, x, y, sigma):
    """The weighted sum of squared residuals at ``popt``, evaluated in
    40-digit decimal arithmetic on the floats' exact values.  In double a
    model value near 1 rounds by about 1e-16, which weights 1/sigma of
    some 4e3 turn into a relative noise of about 1e-12 on the cost of a
    slow decay, as large as the tolerance the comparisons allow."""
    dec = decimal.Decimal
    model = _DECIMAL_MODELS[kind]
    sigma = np.ones(len(x)) if sigma is None else np.broadcast_to(sigma, len(x))
    with decimal.localcontext(prec=40):
        params = [dec(float(v)) for v in popt]
        return float(sum(((dec(float(yi)) - model(dec(float(xi)), *params))
                          / dec(float(si))) ** 2
                         for xi, yi, si in zip(x, y, sigma)))


def _check_against_curve_fit(kind, x, y, sigma, p0, bounds):
    """The in-house optimum equals curve_fit's run to convergence with the
    analytic Jacobian (tolerances 1e-15): parameters to 1e-6 relative
    (1e-8 absolute for RB's amplitude and offset, which can sit near 0),
    errors to 1e-4.  curve_fit as the fits called it before (2-point
    Jacobian, default tolerances) stops earlier and with a differenced
    Jacobian, so against it the fit is held to a cost no higher."""
    ours, cov = FITS[kind][2](x, y, sigma, p0, bounds)
    exact, exact_cov = _curve_fit(kind, x, y, sigma, p0, bounds, jac=FITS[kind][1],
                                  ftol=1e-15, xtol=1e-15, gtol=1e-15)
    np.testing.assert_allclose(ours, exact, rtol=1e-6,
                               atol=1e-8 if kind == "rb" else 0)
    np.testing.assert_allclose(np.sqrt(np.diag(cov)), np.sqrt(np.diag(exact_cov)),
                               rtol=1e-4, atol=0)
    plain, _ = _curve_fit(kind, x, y, sigma, p0, bounds)
    assert _cost(kind, ours, x, y, sigma) <= _cost(kind, plain, x, y, sigma) * (1 + 1e-12)


def _decay_problem(kind, t, w, std_err):
    """The fit problem ``analysis.fit_<kind>`` hands to ``_solve``."""
    sigma = analysis._sigma_or_none(std_err)
    guess = analysis._t2_guess(np.asarray(t), np.asarray(w))
    if kind == "exponential":
        return sigma, [guess], ([guess * 1e-4], [guess * 1e4])
    return sigma, [guess, 1.0], ([guess * 1e-4, 0.3], [guess * 1e4, 5.0])


def _rb_problem(y, std_err):
    sig = std_err if np.any(std_err > 0) else None
    if sig is not None:
        sig = np.maximum(sig, sig[sig > 0].min() * 1e-3)
    b0 = float(min(max(y[-1], -0.4), 0.9))
    a0 = float(min(max(y[0] - b0, 1e-3), 1.4))
    return sig, [a0, 0.995, b0], ([0.0, 0.5, -0.5], [1.5, 1.0, 1.0])


def _noisy_decays(n_cases):
    rng = np.random.default_rng(20240611)
    for _ in range(n_cases):
        t2 = 10 ** rng.uniform(-6, -2)
        t = np.geomspace(0.05 * t2, 3 * t2, rng.integers(4, 16))
        err = rng.uniform(0.005, 0.05, t.size)
        w = np.exp(-(t / t2) ** rng.uniform(0.8, 3.0)) + rng.normal(0, 1, t.size) * err
        yield t, w, err


def _noisy_rb(n_cases):
    rng = np.random.default_rng(20240612)
    m = np.array([1, 2, 4, 8, 16, 32, 64, 128, 200, 300], dtype=float)
    for _ in range(n_cases):
        err = rng.uniform(0.002, 0.02, m.size)
        y = (rng.uniform(0.2, 0.6) * rng.uniform(0.97, 0.999) ** m
             + rng.uniform(0.2, 0.6) + rng.normal(0, 1, m.size) * err)
        yield m, y, err


class TestFitsMatchCurveFit:
    @pytest.mark.parametrize("kind", ["exponential", "stretched"])
    @pytest.mark.parametrize("weighted", [True, False])
    def test_noisy_decays(self, kind, weighted):
        for t, w, err in _noisy_decays(40):
            sigma, p0, bounds = _decay_problem(kind, t, w, err if weighted else None)
            _check_against_curve_fit(kind, t, w, sigma, p0, bounds)

    @pytest.mark.parametrize("weighted", [True, False])
    def test_noisy_rb(self, weighted):
        for m, y, err in _noisy_rb(40):
            sigma, p0, bounds = _rb_problem(y, err if weighted else np.zeros_like(err))
            _check_against_curve_fit("rb", m, y, sigma, p0, bounds)

    @pytest.mark.parametrize("exponent", [7.0, 0.15])
    def test_exponent_on_a_bound(self, exponent):
        rng = np.random.default_rng(3)
        t, err = np.geomspace(1e-5, 3e-4, 12), np.full(12, 0.01)
        w = np.exp(-(t / 1e-4) ** exponent) + rng.normal(0, 1, t.size) * err
        sigma, p0, bounds = _decay_problem("stretched", t, w, err)
        _check_against_curve_fit("stretched", t, w, sigma, p0, bounds)

    @pytest.mark.parametrize("slope", [0.0, 5e-4])
    def test_rb_without_decay(self, slope):
        # flat or rising survival: the best amplitude is tiny, or 0 on
        # rising data, which leaves p free; there curve_fit's path ends at
        # p = 1, and the fit reports that
        rng = np.random.default_rng(4)
        m = np.array([1, 2, 4, 8, 16, 32, 64, 128, 200, 300], dtype=float)
        y = 0.6 + slope * m + rng.normal(0, 0.002, m.size)
        sigma, p0, bounds = _rb_problem(y, np.full(m.size, 0.002))
        (a, p, b), _ = _solve.fit_rb_decay(m, y, sigma, p0, bounds)
        exact, _ = _curve_fit("rb", m, y, sigma, p0, bounds, jac=_rb_jac,
                              ftol=1e-15, xtol=1e-15, gtol=1e-15)
        if slope > 0:
            assert (a, p) == (0.0, 1.0)
        np.testing.assert_allclose([a, p, b], exact, rtol=1e-6, atol=1e-8)
        assert (_cost("rb", [a, p, b], m, y, sigma)
                <= _cost("rb", exact, m, y, sigma) * (1 + 1e-12))

    def test_shipped_config_curves(self, tmp_path, monkeypatch):
        """Every curve the shipped configs fit.  ``voltage_psd`` runs on a
        short, slow trace: its spectroscopy stage, the only one that
        fits, does not depend on the trace."""
        seen = {kind: 0 for kind in FITS}

        def spying(kind):
            fit = FITS[kind][2]

            def spy(x, y, sigma, start, bounds):
                _check_against_curve_fit(kind, x, y, sigma, start, bounds)
                seen[kind] += 1
                return fit(x, y, sigma, start, bounds)
            return spy

        monkeypatch.setattr(_solve, "fit_exp_decay", spying("exponential"))
        monkeypatch.setattr(_solve, "fit_stretched_decay", spying("stretched"))
        monkeypatch.setattr(benchmarking, "fit_rb_decay", spying("rb"))
        for name in ("ramsey", "hahn", "cpmg_t2_vs_n", "noise_spectroscopy",
                     "rbm", "interleaved_rbm", "voltage_psd"):
            raw = yaml.safe_load((CONFIG_DIR / f"{name}.yaml").read_text())
            if name == "voltage_psd":
                raw["protocol"].update(sample_rate_hz=1e3, duration_s=10.0,
                                       band_hz=[0.2, 400.0])
            manifest = execute(validate_config(raw), tmp_path / name, workers=1)
            assert manifest["fit_failures"] == []
        # 12 + 11 spectroscopy points; ramsey, hahn and 7 pulse counts;
        # 3 RB curves
        assert seen == {"exponential": 23, "stretched": 9, "rb": 3}


def _awkward_decays(n_cases):
    """Decay curves that are flat, noisy or carry an outlier, with and
    without errors."""
    rng = np.random.default_rng(20240613)
    for i in range(n_cases):
        n, t2 = rng.integers(3, 15), 10 ** rng.uniform(-6, -1)
        t = np.geomspace(rng.uniform(0.01, 1) * t2, rng.uniform(1.2, 10) * t2, n)
        w = np.exp(-(t / t2) ** rng.uniform(0.5, 4))
        if i % 3 == 0:
            w = np.full(n, rng.uniform(0.05, 1.0))
        noise = rng.uniform(0, 0.2)
        w = w + rng.normal(0, 1, n) * noise
        if i % 3 == 2:
            w[rng.integers(n)] += rng.uniform(-1, 1)
        err = None if rng.random() < 0.5 else np.abs(rng.normal(noise, 0.01, n)) + 1e-3
        yield t, w, err


@pytest.mark.parametrize("kind", ["exponential", "stretched"])
def test_awkward_decays_fail_where_curve_fit_fails_and_fit_no_worse(kind):
    """On curves far from the model each fit raises FitError exactly
    where curve_fit failed (or gave a covariance FitError rejects), and
    otherwise ends at a cost no higher than curve_fit's."""
    fit = analysis.fit_exponential if kind == "exponential" else analysis.fit_stretched
    for t, w, err in _awkward_decays(150):
        sigma, p0, bounds = _decay_problem(kind, t, w, err)
        try:
            popt, pcov = _curve_fit(kind, t, w, sigma, p0, bounds)
            failed = not np.all(np.isfinite(pcov)) or np.any(np.diag(pcov) < 0)
        except (RuntimeError, ValueError):
            failed = True
        if failed:
            with pytest.raises(FitError):
                fit(t, w, err)
            continue
        res = fit(t, w, err)
        ours = [res.t2] if kind == "exponential" else [res.t2, res.exponent]
        scale = float(np.sum((w / (1.0 if sigma is None else sigma)) ** 2))
        assert (_cost(kind, ours, t, w, sigma)
                <= _cost(kind, popt, t, w, sigma) * (1 + 1e-9) + 1e-14 * scale)


class TestFitErrorsWhereCurveFitRaises:
    """Inputs on which ``curve_fit`` raised: each fit raises FitError."""

    @pytest.mark.parametrize("kind", ["exponential", "stretched"])
    @pytest.mark.parametrize("t, w, std_err", [
        ([1.0, 2.0, 3.0], [0.9, np.nan, 0.5], None),          # NaN data
        ([1.0, 2.0, np.inf], [0.9, 0.7, 0.5], None),          # inf time
        ([0.0, 1.0, 2.0], [0.2, 0.1, 0.05], None),            # T2 guess 0
        ([1.0, 2.0, 3.0], [0.9, 0.7, 0.5], [0.01, np.nan, 0.01]),  # NaN error
    ])
    def test_decay(self, kind, t, w, std_err):
        sigma, p0, bounds = _decay_problem(kind, t, w, std_err)
        with pytest.raises((ValueError, RuntimeError)):
            _curve_fit(kind, np.asarray(t), np.asarray(w), sigma, p0, bounds)
        fit = analysis.fit_exponential if kind == "exponential" else analysis.fit_stretched
        with pytest.raises(FitError):
            fit(t, w, std_err)

    def test_rb(self):
        curve = benchmarking.RbCurve(depths=[1, 2, 4, 8],
                                     mean_survival=[0.9, 0.8, np.nan, 0.6],
                                     std_err=[0.01] * 4, n_sequences=4)
        sigma, p0, bounds = _rb_problem(curve.mean_survival, curve.std_err)
        with pytest.raises(ValueError):
            _curve_fit("rb", curve.depths.astype(float), curve.mean_survival,
                       sigma, p0, bounds)
        with pytest.raises(FitError):
            benchmarking.fit_rb(curve)

    def test_decay_whose_jacobian_squares_to_zero(self):
        # a singular value below 1e-162 squares to 0: the covariance is
        # infinite, and no division-by-zero warning escapes
        with pytest.raises(FitError, match="degenerate"):
            analysis.fit_exponential([0.00390625, 0.0078125], [5e-324, 0.5],
                                     [1.0, 1.0])

    def test_unweighted_decay_of_zeros_is_degenerate_without_a_warning(self):
        # the covariance is infinite and the residual 0: it used to be
        # scaled outside the errstate block, so 0 * inf warned, and under
        # -W error raised that warning instead of the FitError
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(FitError, match="degenerate"):
                analysis.fit_exponential([1e-3, 2e-3, 3e-3], [0.0, 0.0, 0.0])

    @pytest.mark.parametrize("errors", [None, [0.1, 0.1, 0.1]])
    def test_stretched_decay_of_zeros_is_degenerate(self, errors):
        # every model value underflows to 0, so no singular value is kept:
        # the covariance is infinite, not a zero matrix that gave zero
        # errors on a T2 and an exponent the curve cannot determine
        with pytest.raises(FitError, match="degenerate"):
            analysis.fit_stretched([1e-3, 2e-3, 3e-3], [0.0, 0.0, 0.0], errors)

    def test_rb_without_spare_points(self):
        # three points, three parameters and no errors: curve_fit's
        # covariance cannot be estimated, and it reports it as inf
        curve = benchmarking.RbCurve(depths=[1, 10, 100],
                                     mean_survival=[0.9, 0.8, 0.6],
                                     std_err=[0.0] * 3, n_sequences=4)
        sigma, p0, bounds = _rb_problem(curve.mean_survival, curve.std_err)
        _, pcov = _curve_fit("rb", curve.depths.astype(float),
                             curve.mean_survival, sigma, p0, bounds)
        assert np.all(np.isinf(pcov))
        with pytest.raises(FitError, match="degenerate"):
            benchmarking.fit_rb(curve)
