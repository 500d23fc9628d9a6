"""Pulse schedules and filter functions against closed-form anchors, and
the closed forms against the sum of every segment's Fourier integral."""

import dataclasses
import types

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spinprobe.sequences import (
    PulseSchedule,
    cpmg_filter_function,
    filter_function,
    make_cpmg,
    make_ramsey,
    ramsey_filter_function,
)

T = 1e-3


def _segment_sum(schedule, f_hz):
    """Test oracle: the complex transfer function Y(2*pi*f) of the toggling
    sequence, each constant-sign segment contributing its exact Fourier
    integral ``dt * exp(i*2*pi*f*mid) * sinc(f*dt)`` (numpy sinc
    convention), finite at f = 0 where Y(0) is the signed area of y(t)."""
    f = np.atleast_1d(np.asarray(f_hz, dtype=float))
    edges = schedule.boundaries
    mids = 0.5 * (edges[:-1] + edges[1:])
    widths = np.diff(edges)
    phase = np.exp(2j * np.pi * np.outer(mids, f))
    kernel = widths[:, None] * np.sinc(np.outer(widths, f))
    y = np.sum(schedule.segment_signs[:, None] * phase * kernel, axis=0)
    return y if np.ndim(f_hz) else complex(y[0])


def _segment_filter(schedule, f_hz):
    """``|Y|**2`` of :func:`_segment_sum`."""
    mag2 = np.abs(_segment_sum(schedule, np.atleast_1d(f_hz))) ** 2
    return mag2 if np.ndim(f_hz) else float(mag2[0])


class TestConstruction:
    def test_cpmg_pulse_positions(self):
        # pulse j at (2j - 1) T / (2 N)
        sch = make_cpmg(5, T)
        expected = [(2 * j - 1) * T / 10.0 for j in range(1, 6)]
        assert sch.pulse_times == pytest.approx(expected, abs=0.0)
        assert sch.n_pulses == 5

    def test_ramsey_has_no_pulses(self):
        sch = make_ramsey(T)
        assert sch.pulse_times == ()
        assert sch.n_pulses == 0

    def test_hahn_pulse_at_midpoint(self):
        # a Hahn echo is CPMG-1
        assert make_cpmg(1, T).pulse_times == (T / 2.0,)

    def test_schedule_is_its_pulse_count_and_time(self):
        assert make_cpmg(4, T) == PulseSchedule(4, T)
        assert make_ramsey(T) == PulseSchedule(0, T)
        assert [f.name for f in dataclasses.fields(PulseSchedule)] == [
            "n_pulses", "total_time"]

    @pytest.mark.parametrize("t", [1e-6, 3.7e-4, 1e-3, 0.37, 10.0])
    def test_pulse_times_are_the_cpmg_expression_bit_for_bit(self, t):
        for n in range(1, 65):
            j = np.arange(1, n + 1)
            times = tuple(float(v) for v in (2 * j - 1) * t / (2.0 * n))
            sch = PulseSchedule(n, t)
            assert sch.pulse_times == times
            assert all(type(v) is float for v in sch.pulse_times)
            assert sch.boundaries.tobytes() == np.array((0.0, *times, t)).tobytes()

    def test_segment_signs_alternate(self):
        np.testing.assert_array_equal(make_cpmg(3, T).segment_signs,
                                      [1.0, -1.0, 1.0, -1.0])

    def test_boundaries_include_endpoints(self):
        b = make_cpmg(2, T).boundaries
        np.testing.assert_allclose(b, [0.0, T / 4, 3 * T / 4, T])

    def test_rejects_nonpositive_duration(self):
        with pytest.raises(ValueError):
            PulseSchedule(0, 0.0)
        with pytest.raises(ValueError):
            PulseSchedule(2, -1e-3)

    def test_rejects_negative_pulse_count(self):
        with pytest.raises(ValueError, match="n_pulses"):
            PulseSchedule(-1, T)

    def test_cpmg_rejects_zero_pulses(self):
        with pytest.raises(ValueError):
            make_cpmg(0, T)


class TestToggling:
    def test_sign_starts_positive_and_flips(self):
        sch = make_cpmg(2, T)  # pulses at T/4, 3T/4
        np.testing.assert_array_equal(sch.boundaries, [0.0, T / 4, 3 * T / 4, T])
        np.testing.assert_array_equal(sch.segment_signs, [1, -1, 1])

    def test_ramsey_sign_constant(self):
        sch = make_ramsey(T)
        np.testing.assert_array_equal(sch.boundaries, [0.0, T])
        np.testing.assert_array_equal(sch.segment_signs, [1])


class TestResponse:
    """The segment-sum oracle on its analytic anchors, and
    :func:`filter_function` as the closed form of its schedule."""

    def test_dc_value_is_signed_area(self):
        assert _segment_sum(make_ramsey(T), 0.0) == pytest.approx(T)
        assert _segment_sum(make_cpmg(1, T), 0.0) == pytest.approx(0.0, abs=1e-18)
        assert _segment_sum(make_cpmg(4, T), 0.0) == pytest.approx(0.0, abs=1e-18)
        # asymmetric single pulse, which no schedule plays: +T/4 then -3T/4
        lop = types.SimpleNamespace(boundaries=np.array([0.0, T / 4, T]),
                                    segment_signs=np.array([1.0, -1.0]))
        assert _segment_sum(lop, 0.0) == pytest.approx(-T / 2)

    def test_scalar_and_array_forms(self):
        sch = make_cpmg(2, T)
        y = _segment_sum(sch, 1e3)
        assert isinstance(y, complex)
        arr = _segment_sum(sch, np.array([1e3, 2e3]))
        assert arr.shape == (2,)
        assert arr[0] == pytest.approx(y)
        assert isinstance(filter_function(sch, 1e3), float)
        assert isinstance(filter_function(make_ramsey(T), 1e3), float)

    @pytest.mark.parametrize("n", [0, 1, 8])
    def test_filter_function_is_the_closed_form_of_its_schedule(self, n):
        f = np.geomspace(50.0, 2e5, 300)
        want = (ramsey_filter_function(T, f) if n == 0
                else cpmg_filter_function(n, T, f))
        assert filter_function(PulseSchedule(n, T), f).tobytes() == want.tobytes()

    def test_ramsey_sinc_form(self):
        # |Y| = T sinc(f T) for free induction
        f = np.array([100.0, 850.0, 3.3e3])
        np.testing.assert_allclose(np.abs(_segment_sum(make_ramsey(T), f)),
                                   np.abs(T * np.sinc(f * T)), rtol=1e-12)


class TestPassband:
    @pytest.mark.parametrize("n", [1, 2, 4, 8, 16, 32])
    def test_peak_response_magnitude(self, n):
        # |Y| = 2T/pi at the passband centre f1 = N / (2T)
        f1 = n / (2.0 * T)
        assert abs(_segment_sum(make_cpmg(n, T), f1)) == pytest.approx(
            2.0 * T / np.pi, rel=1e-12)

    @pytest.mark.parametrize("n,ratio", [
        (1, 1.48404), (2, 1.14783), (4, 1.04128),
        (8, 1.01070), (16, 1.00270), (32, 1.00068)])
    def test_true_maximum_location(self, n, ratio):
        # the actual argmax sits slightly above f1, converging as N grows
        sch = make_cpmg(n, T)
        f1 = n / (2.0 * T)
        f = np.linspace(0.5 * f1, 2.0 * f1, 60001)
        fmax = f[np.argmax(filter_function(sch, f))]
        assert fmax / f1 == pytest.approx(ratio, rel=1e-3)

    @pytest.mark.parametrize("n", [2, 4, 8, 16, 32])
    def test_even_harmonics_null_for_even_n(self, n):
        sch = make_cpmg(n, T)
        f1 = n / (2.0 * T)
        peak = filter_function(sch, f1)
        for k in (1, 2, 3):
            assert filter_function(sch, 2 * k * f1) / peak < 1e-24

    @pytest.mark.parametrize("n", [1, 3, 5])
    def test_even_harmonics_for_odd_n(self, n):
        # |Y(2k f1)|^2 / |Y(f1)|^2 = 1/(kN)^2 for odd kN, 0 for even kN
        sch = make_cpmg(n, T)
        f1 = n / (2.0 * T)
        peak = filter_function(sch, f1)
        for k in (1, 2, 3):
            r = filter_function(sch, 2 * k * f1) / peak
            if (k * n) % 2:
                assert r == pytest.approx(1.0 / (k * n) ** 2, rel=1e-9)
            else:
                assert r < 1e-24

    @pytest.mark.parametrize("n", [2, 4, 12])
    def test_tone_at_submultiple_positions(self, n):
        # position k centres the filter on f_tone/k (wait k/(2 f_tone)), so
        # the tone rides its k-th harmonic; the longer window exactly
        # cancels the 1/k^2 harmonic suppression: odd k weigh as k = 1
        # does, even k fall on the even-harmonic nulls
        f_tone = 2e4
        weights = [cpmg_filter_function(n, n * (k / (2 * f_tone)), f_tone)
                   for k in range(1, 6)]
        for k, w in enumerate(weights, 1):
            if k % 2:
                assert w / weights[0] == pytest.approx(1.0, rel=1e-9)
            else:
                assert w / weights[0] < 1e-20


def _closed_form_atol(t):
    # 1e-13 of the passband peak |Y(N/2T)|^2 = (2T/pi)^2
    return 1e-13 * (2.0 * t / np.pi) ** 2


class TestCpmgClosedForm:
    @pytest.mark.parametrize("t", [1e-6, 3.7e-4, 1e-3, 0.37, 10.0])
    @pytest.mark.parametrize("n", [1, 2, 3, 5, 8, 32, 64])
    def test_matches_segment_sum(self, n, t):
        # passband centres (2k+1) N/(2T) are the removable 0/0 of the
        # array factor; probe them exactly, 1e-9 off, and towards f = 0
        centres = (2 * np.arange(40) + 1) * n / (2.0 * t)
        f = np.concatenate([
            [0.0], np.geomspace(1e-12 / t, 0.1 / t, 50),
            centres, centres * (1 + 1e-9), centres * (1 - 1e-9),
            np.linspace(0.0, 40.0 * n / t, 4001)])
        np.testing.assert_allclose(cpmg_filter_function(n, t, f),
                                   _segment_filter(make_cpmg(n, t), f),
                                   rtol=0, atol=_closed_form_atol(t))

    def test_scalar_and_array_forms(self):
        v = cpmg_filter_function(2, T, 1e3)
        assert isinstance(v, float)
        arr = cpmg_filter_function(2, T, np.array([1e3, 2e3]))
        assert arr.shape == (2,)
        assert arr[0] == v
        assert v == pytest.approx(_segment_filter(make_cpmg(2, T), 1e3),
                                  rel=1e-12)
        # f1 = N/(2T) lands exactly on the 0/0 point; the limit is (2T/pi)^2
        assert cpmg_filter_function(2, T, 1.0 / T) == pytest.approx(
            (2.0 * T / np.pi) ** 2, rel=1e-12)

    def test_rejects_zero_pulses(self):
        with pytest.raises(ValueError):
            cpmg_filter_function(0, T, 1e3)

    @settings(max_examples=200, deadline=None)
    @given(n=st.integers(1, 64), t=st.floats(1e-6, 10.0),
           x=st.floats(0.0, 100.0))
    def test_matches_segment_sum_property(self, n, t, x):
        # x is the frequency in units of the passband centre N/(2T)
        f = x * n / (2.0 * t)
        assert abs(cpmg_filter_function(n, t, f)
                   - _segment_filter(make_cpmg(n, t), f)) <= _closed_form_atol(t)


class TestRamseyClosedForm:
    @pytest.mark.parametrize("t", [1e-6, 3.7e-4, 1e-3, 0.37, 10.0])
    def test_matches_segment_sum(self, t):
        # the sinc nulls k/T exactly and 1e-9 off, and towards f = 0
        nulls = np.arange(1, 41) / t
        f = np.concatenate([
            [0.0], np.geomspace(1e-12 / t, 0.1 / t, 50),
            nulls, nulls * (1 + 1e-9), nulls * (1 - 1e-9),
            np.linspace(0.0, 40.0 / t, 4001)])
        np.testing.assert_allclose(ramsey_filter_function(t, f),
                                   _segment_filter(make_ramsey(t), f),
                                   rtol=0, atol=1e-13 * t**2)

    def test_scalar_and_array_forms(self):
        v = ramsey_filter_function(T, 1e3)
        assert isinstance(v, float)
        assert ramsey_filter_function(T, np.array([1e3, 2e3]))[0] == v
        assert ramsey_filter_function(T, 0.0) == T**2


class TestParseval:
    @pytest.mark.parametrize("n", [1, 8])
    def test_total_filter_power(self, n):
        # int_0^inf |Y|^2 df = T/2; tail beyond F averages (4N+2)/(4 pi^2 f^2)
        sch = make_cpmg(n, T)
        f1 = n / (2.0 * T)
        cap = 4000.0 * f1
        f = np.linspace(1e-2, cap, 2_000_001)
        integral = np.trapezoid(filter_function(sch, f), f)
        integral += (4 * n + 2) / (4 * np.pi ** 2 * cap)
        assert integral == pytest.approx(T / 2.0, rel=1e-9)
