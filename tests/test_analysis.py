"""Fitting, scaling laws, and the CPMG spectroscopy estimator."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spinprobe.analysis import (
    DECAY_UNRESOLVED,
    FIT_ON_BOUND,
    FitError,
    SpectroscopyPoint,
    fit_exponential,
    fit_power_law,
    fit_stretched,
    reconstruct_psd,
    spectroscopy_point,
    spectroscopy_scan,
    spectroscopy_table,
    t2_scaling_exponent,
)
from spinprobe import analysis, qubitsim
from spinprobe._rng import derive_child_seed
from spinprobe.benchmarking import RbCurve, fit_rb
from spinprobe.qubitsim import (SAMPLES_PER_INTERVAL, DecayCurve, chi_ff,
                                coherence_mc, mc_point, play_decay_table)
from spinprobe.sequences import make_cpmg
from spinprobe.spectra import PowerLawTerm, SpectrumModel, eval_psd

WHITE = SpectrumModel(powerlaws=(), white_floor=350.0, lines=())
PINK = SpectrumModel(powerlaws=(PowerLawTerm(3e7, 1.0),), white_floor=0.0, lines=())


class TestCurveFits:
    def test_exponential_exact_recovery(self):
        t = np.geomspace(1e-5, 5e-3, 12)
        fit = fit_exponential(t, np.exp(-t / 8e-4))
        assert fit.t2 == pytest.approx(8e-4, rel=1e-6)
        assert fit.chi2_reduced < 1e-9

    def test_exponential_weighted(self):
        rng = np.random.default_rng(1)
        t = np.geomspace(1e-5, 5e-3, 20)
        se = np.full(t.size, 0.01)
        w = np.exp(-t / 8e-4) + rng.normal(0, 0.01, t.size)
        fit = fit_exponential(t, w, se)
        assert fit.t2 == pytest.approx(8e-4, rel=0.05)
        assert fit.t2_err > 0

    def test_stretched_exact_recovery(self):
        t = np.geomspace(1e-5, 5e-3, 12)
        fit = fit_stretched(t, np.exp(-((t / 8e-4) ** 1.3)))
        assert fit.t2 == pytest.approx(8e-4, rel=1e-5)
        assert fit.exponent == pytest.approx(1.3, rel=1e-5)

    def test_stretched_respects_bounds(self, monkeypatch):
        monkeypatch.setattr(analysis, "_EXPONENT_BOUNDS", (0.5, 1.0))
        t = np.geomspace(1e-5, 5e-3, 12)
        fit = fit_stretched(t, np.exp(-((t / 8e-4) ** 1.3)))
        assert fit.exponent <= 1.0 + 1e-9

    def test_too_few_points_raises_with_diagnostics(self):
        with pytest.raises(FitError) as exc:
            fit_exponential([1e-4], [0.5])
        assert exc.value.diagnostics["n_points"] == 1
        with pytest.raises(FitError):
            fit_stretched([1e-4, 2e-4], [0.9, 0.5])

    @pytest.mark.parametrize("fit", [fit_exponential, fit_stretched])
    @pytest.mark.parametrize("std_err", [[0.0, math.nan, 0.0],
                                         [0.0, -0.1, 0.0], [math.nan] * 3])
    def test_std_err_without_a_positive_entry_raises_fit_error(self, fit, std_err):
        with pytest.raises(FitError, match="no positive entry"):
            fit([1, 2, 3], [0.9, 0.7, 0.5], std_err)

    @pytest.mark.parametrize("fit", [
        fit_exponential, fit_stretched, fit_power_law,
        lambda t, y, err: fit_rb(RbCurve(depths=[1, 2, 3], mean_survival=y,
                                         std_err=err, n_sequences=2))],
        ids=["exponential", "stretched", "power_law", "rb"])
    def test_weight_that_overflows_raises_before_the_solver(self, fit):
        # the zero errors pin at 1e-163 (2e-163 for the power law, whose
        # sigma is y_err / y), whose weight 1/sigma**2 is inf; the solver
        # never runs, so no overflow warning (an error in this suite)
        # escapes
        with pytest.raises(FitError, match=r"smallest sigma \de-163 ") as exc:
            fit([1e-3, 2e-3, 3e-3], [0.9, 0.5, 0.2], [0.0, 1e-160, 0.0])
        assert exc.value.diagnostics["sigma_min"] < 1e-154

    @pytest.mark.parametrize("sigma", [1e-152, 1e-154])
    def test_covariance_whose_square_overflows_raises(self, sigma):
        # weights 1/sigma**2 are finite, but the Jacobian's singular value
        # squares to inf: that direction's variance is not 0, it is below
        # what a float holds, so the covariance is degenerate
        with pytest.raises(FitError, match="covariance is degenerate"):
            fit_exponential([1e-3, 2e-3, 3e-3], [0.9, 0.5, 0.2], [sigma] * 3)

    @settings(max_examples=100, deadline=None)
    @given(data=st.data(), stretched=st.booleans())
    def test_fewest_points_leave_a_degree_of_freedom(self, data, stretched):
        # each fit refuses fewer points than its parameters plus one, so
        # its reduced chi-squared always divides by at least one degree of
        # freedom; errors from 1e-12 up cover every sigma, pinned or not,
        # that a Monte Carlo curve can give
        fit, size = (fit_stretched, 3) if stretched else (fit_exponential, 2)
        t = sorted(data.draw(st.lists(st.floats(1e-6, 1e-2), min_size=size,
                                      max_size=size, unique=True)))
        w = data.draw(st.lists(st.floats(0, 1, exclude_min=True, exclude_max=True),
                               min_size=size, max_size=size))
        err = data.draw(st.lists(st.floats(1e-12, 1.0), min_size=size,
                                 max_size=size))
        try:
            result = fit(t, w, err)
        except FitError:
            return
        assert math.isfinite(result.chi2_reduced)

    def test_evaluate_round_trip(self):
        t = np.geomspace(1e-5, 5e-3, 12)
        y = np.exp(-((t / 8e-4) ** 1.3))
        fit = fit_stretched(t, y)
        np.testing.assert_allclose(np.exp(-((t / fit.t2) ** fit.exponent)), y,
                                   rtol=1e-4)


class TestPowerLaw:
    def test_exact_slope(self):
        x = np.geomspace(1, 100, 10)
        fit = fit_power_law(x, 5.0 * x**-1.0)
        assert fit.slope == pytest.approx(-1.0, abs=1e-9)
        assert fit.prefactor == pytest.approx(5.0, rel=1e-9)

    def test_flat_data_zero_slope(self):
        x = np.geomspace(1, 100, 10)
        fit = fit_power_law(x, np.full(10, 3.3))
        assert fit.slope == pytest.approx(0.0, abs=1e-9)

    def test_rejects_nonpositive(self):
        with pytest.raises(FitError):
            fit_power_law([1.0, 2.0], [1.0, -1.0])
        with pytest.raises(FitError):
            fit_power_law([3.0], [1.0])

    def test_all_zero_errors_fit_unweighted(self):
        x = np.array([1.0, 2.0, 4.0, 8.0])
        y = 3e-4 * x**0.5 * np.array([1.0, 1.02, 0.98, 1.01])
        assert fit_power_law(x, y, np.zeros(4)) == fit_power_law(x, y)

    def test_relative_errors_weight_like_the_decay_fits(self):
        # y_err / y is pinned at 1e-3 of its smallest positive entry, as
        # every decay fit pins its std_err
        x = np.array([1.0, 2.0, 4.0, 8.0])
        y = 3e-4 * x**0.5 * np.array([1.0, 1.02, 0.98, 1.01])
        zero = fit_power_law(x, y, np.array([0.0, 0.01, 0.02, 0.01]) * y)
        pinned = fit_power_law(x, y, np.array([1e-5, 0.01, 0.02, 0.01]) * y)
        np.testing.assert_allclose(
            [zero.slope, zero.slope_err, zero.intercept],
            [pinned.slope, pinned.slope_err, pinned.intercept], rtol=1e-12)

    def test_two_points_without_errors_have_no_slope_error(self):
        # the residual variance needs a third point
        with pytest.raises(FitError, match="degenerate"):
            fit_power_law([1.0, 2.0], [1.0, 3.0])
        with pytest.raises(FitError, match="degenerate"):
            fit_power_law([1.0, 2.0], [1.0, 3.0], [0.0, 0.0])
        fit = fit_power_law([1.0, 2.0], [1.0, 3.0], [0.1, 0.3])
        assert fit.slope == pytest.approx(math.log2(3.0), rel=1e-12)
        assert fit.slope_err == pytest.approx(
            math.sqrt(2.0) * 0.1 / math.log(2.0), rel=1e-12)

    @pytest.mark.parametrize("y_err", [None, [0.1, 0.1, 0.1]],
                             ids=["unweighted", "weighted"])
    def test_one_distinct_x_is_rejected(self, y_err):
        with pytest.raises(FitError, match="two distinct x"):
            fit_power_law([2.0, 2.0, 2.0], [1.0, 2.0, 3.0], y_err)

    def test_scaling_exponent_wrapper(self):
        n = np.array([1, 2, 4, 8, 16, 32])
        fit = t2_scaling_exponent(n, 2e-3 * n**0.5)
        assert fit.slope == pytest.approx(0.5, abs=1e-9)
        assert fit.prefactor == pytest.approx(2e-3, rel=1e-9)


class TestSpectroscopyEstimator:
    def _analytic_curve(self, model, f0, counts):
        tau = 1.0 / (2.0 * f0)
        counts = np.asarray(counts)
        times = counts * tau
        w = np.exp(-np.array([chi_ff(model, make_cpmg(int(n), n * tau))
                              for n in counts]))
        return DecayCurve(times=times, w=w, std_err=np.full(counts.size, 1e-4),
                          n_pulses=counts), tau

    def test_white_closure(self):
        # S = pi^2 / (4 T2s) inverts exactly on the flat spectrum
        curve, tau = self._analytic_curve(WHITE, 5e3, [2, 4, 8, 16, 32])
        pt = spectroscopy_point(curve, tau)
        assert pt.s_value == pytest.approx(350.0, rel=1e-3)
        assert pt.f_hz == pytest.approx(5e3)

    def test_colored_protocol_bias(self):
        # fixed-wait scans under 1/f noise read a few tens of percent low;
        # the frozen factor pins the protocol, the band guards regressions
        curve, tau = self._analytic_curve(PINK, 5e3, [2, 4, 8, 16, 32])
        pt = spectroscopy_point(curve, tau)
        ratio = pt.s_value / eval_psd(PINK, 5e3)
        assert ratio == pytest.approx(0.8426, abs=0.01)
        assert 0.80 < ratio < 0.90

    def test_out_of_range_flag(self):
        curve, tau = self._analytic_curve(WHITE, 5e3, [2, 4, 8])
        assert spectroscopy_point(curve, tau, t2_hahn=3 * tau).flags
        assert not spectroscopy_point(curve, tau, t2_hahn=100 * tau).flags

    @pytest.mark.parametrize("w", [[-0.01, -0.02, -0.005], [1.0, 1.0, 1.0]],
                             ids=["decayed", "flat"])
    def test_fit_on_bound_flag(self, w):
        # decayed before the first point, T2 runs to its lower bound; never
        # decaying, to its upper one.  Every W is also within 2 sigma of 0
        # or of 1, so the decay is unresolved too
        counts = np.array([2, 4, 8])
        tau = 1e-5
        curve = DecayCurve(times=counts * tau, w=np.array(w),
                           std_err=np.full(3, 0.05), n_pulses=counts)
        assert fit_exponential(curve.times, curve.w, curve.std_err).on_bound
        pt = spectroscopy_point(curve, tau)
        assert pt.flags == (FIT_ON_BOUND, DECAY_UNRESOLVED)
        est = reconstruct_psd([pt])
        assert est.warnings == (
            "1 of 1 points flagged fit on bound "
            "(T2 at a search limit or with zero error)",
            "1 of 1 points flagged decay unresolved "
            "(every W within 2 sigma of 0 or of 1)")
        assert est.points_detail[0]["flags"] == (FIT_ON_BOUND, DECAY_UNRESOLVED)

    @pytest.mark.parametrize("w, flagged", [
        ([0.09, -0.1, 0.05], True), ([0.11, 0.0, 0.0], False),
        ([0.95, 0.91, 1.08], True), ([0.95, 0.89, 1.0], False),
        ([0.5, 0.05, 0.95], False)],
        ids=["dephased", "one_above_noise", "undecayed", "one_decayed", "mixed"])
    def test_decay_unresolved_flag(self, w, flagged):
        # every W within 2 sigma of 0, or every W within 2 sigma of 1,
        # whatever the fit reads
        counts = np.array([2, 4, 8])
        curve = DecayCurve(times=counts * 1e-5, w=np.array(w),
                           std_err=np.full(3, 0.05), n_pulses=counts)
        pt = spectroscopy_point(curve, 1e-5)
        assert (DECAY_UNRESOLVED in pt.flags) == flagged
        assert reconstruct_psd([pt]).warnings.count(
            "1 of 1 points flagged decay unresolved "
            "(every W within 2 sigma of 0 or of 1)") == flagged

    def test_zero_error_fit_is_flagged(self, monkeypatch):
        curve, tau = self._analytic_curve(WHITE, 5e3, [2, 4, 8])
        assert not spectroscopy_point(curve, tau).flags
        real = fit_exponential

        def zero_error(*args):
            fit = real(*args)
            return type(fit)(t2=fit.t2, t2_err=0.0, chi2_reduced=fit.chi2_reduced)

        monkeypatch.setattr(analysis, "fit_exponential", zero_error)
        assert spectroscopy_point(curve, tau).flags == (FIT_ON_BOUND,)

    def test_reconstruct_orders_and_propagates(self):
        pts = [SpectroscopyPoint(tau_wait=1 / (2 * f), t2s=1e-3, t2s_err=1e-4,
                                 pulse_counts=(2, 4), flags=())
               for f in (9e3, 1e3, 4e3)]
        pts[1] = SpectroscopyPoint(tau_wait=pts[1].tau_wait, t2s=1e-3,
                                   t2s_err=1e-4, pulse_counts=(2, 4),
                                   flags=("out_of_range:test",))
        est = reconstruct_psd(pts)
        assert list(est.f) == sorted(est.f)
        s = math.pi**2 / (4 * 1e-3)
        np.testing.assert_allclose(est.s, s)
        half = 1.959964 * math.pi**2 / (4 * 1e-3**2) * 1e-4
        np.testing.assert_allclose(est.ci_high - est.s, half, rtol=1e-9)
        assert est.warnings and "1 of 3" in est.warnings[0]
        assert len(est.points_detail) == 3
        assert est.points_detail[0]["f_hz"] == pytest.approx(1e3)

    def test_reconstruct_empty_rejected(self):
        with pytest.raises(ValueError):
            reconstruct_psd([])


class TestSpectroscopyScan:
    def test_white_recovery_and_determinism(self):
        grid = [2e3, 8e3, 3e4]
        table = spectroscopy_table(grid, [2, 4, 8],
                                   samples_per_interval=SAMPLES_PER_INTERVAL)
        est = spectroscopy_scan(WHITE, grid, table, 200, 17)
        np.testing.assert_allclose(est.f, grid)
        np.testing.assert_allclose(est.s, 350.0, rtol=0.25)
        est2 = spectroscopy_scan(WHITE, grid, table, 200, 17)
        np.testing.assert_array_equal(est.s, est2.s)

    def test_one_pool_matches_per_frequency_loop(self, monkeypatch):
        """The scan plays each point of its table once, and gives the PSD
        of one decay table per frequency."""
        played = []
        real = qubitsim.coherence_mc

        def counting(*args):
            played.append(args[1])
            return real(*args)

        monkeypatch.setattr(qubitsim, "coherence_mc", counting)
        grid, counts = [2e3, 8e3, 3e4], [2, 4, 8]
        table = spectroscopy_table(grid, counts)
        est = spectroscopy_scan(PINK, grid, table, 48, 23)
        assert played == [point for curve in table for point in curve]
        points = []
        for i, f in enumerate(grid):
            tau = 1.0 / (2.0 * f)
            table = spectroscopy_table([f], counts)
            curve = play_decay_table(PINK, table, 48, [derive_child_seed(23, i)])[0]
            points.append(spectroscopy_point(curve, tau))
        ref = reconstruct_psd(points)
        for name in ("f", "s", "ci_low", "ci_high"):
            np.testing.assert_array_equal(getattr(est, name), getattr(ref, name))

    def test_rejects_nonpositive_frequency(self):
        with pytest.raises(ValueError):
            spectroscopy_table([0.0, 1e3], [2, 4])

    def test_rejects_a_grid_other_than_the_tables(self):
        # a frequency without a curve, which was dropped without an error
        grid = [2e3, 8e3, 3e4]
        with pytest.raises(ValueError, match="3 frequencies but 2 curves"):
            spectroscopy_scan(WHITE, grid, spectroscopy_table(grid[:2], [2, 4]),
                              8, 0)

    def test_points_are_coherence_mc(self, monkeypatch):
        # frequency i, count j: coherence_mc at mc_point(N_j, N_j * tau_i)
        # at derive_child_seed(derive_child_seed(seed, i), j)
        curves = []
        play = analysis.play_decay_table

        def recording(*args):
            curves.extend(play(*args))
            return curves

        monkeypatch.setattr(analysis, "play_decay_table", recording)
        grid, counts = [2e3, 3e4], [2, 4, 8]
        spectroscopy_scan(PINK, grid, spectroscopy_table(
            grid, counts, duration_factor=3.0, samples_per_interval=8), 24, 31)
        assert len(curves) == len(grid)
        for i, (f, curve) in enumerate(zip(grid, curves)):
            tau = 1.0 / (2.0 * f)
            np.testing.assert_array_equal(curve.n_pulses, counts)
            for j, n in enumerate(counts):
                assert curve.times[j] == n * tau
                point = mc_point(n, n * tau, 3.0, 8)
                p = coherence_mc(PINK, point, 24,
                                 derive_child_seed(derive_child_seed(31, i), j))
                assert (curve.w[j], curve.std_err[j]) == (p.w, p.std_err)


class TestCompositeBandStructure:
    # closed-form crossovers of the composite model's terms
    def test_steep_to_pink_crossover(self):
        # 3e13/(2 pi f)^2.5 = 3e7/(2 pi f) at 2 pi f = 1e4
        f_x = 1e4 / (2 * np.pi)
        steep = SpectrumModel(powerlaws=(PowerLawTerm(3e13, 2.5),),
                              white_floor=0.0, lines=())
        assert eval_psd(steep, f_x) == pytest.approx(eval_psd(PINK, f_x), rel=1e-12)
        assert f_x == pytest.approx(1591.5, abs=0.1)

    def test_pink_to_white_crossover(self):
        f_x = 3e7 / (350.0 * 2 * np.pi)
        assert eval_psd(PINK, f_x) == pytest.approx(350.0, rel=1e-12)
        assert f_x == pytest.approx(13642.0, abs=0.5)
