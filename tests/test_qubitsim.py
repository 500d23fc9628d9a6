"""Qubit response, coherence engines, and the analytic/Monte-Carlo bridge."""

import ast
import csv
import math
import re
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from scipy.optimize import brentq

from spinprobe.qubitsim import (
    DURATION_FACTOR,
    PSD_CHI_CALIBRATION,
    SAMPLES_PER_INTERVAL,
    QubitParams,
    ReadoutModel,
    block_phases,
    chi_ff,
    cpmg_chi,
    coherence_mc,
    decay_vs_time,
    mc_point,
    phase_draw,
    play_decay_table,
    toggled_weights,
    rabi_chevron,
    rabi_p_up,
    resonance_frequency_hz,
)
from spinprobe import analysis, qubitsim, spectra, starktone
from spinprobe.analysis import spectroscopy_table
from spinprobe._rng import derive_child_seed, derive_rng
from spinprobe.harness import execute, load_config, pipelines
from spinprobe.harness.config import MAX_CHI_POINTS
from spinprobe.sequences import (PulseSchedule, cpmg_filter_function,
                                 filter_function, make_cpmg, make_ramsey)
from spinprobe.spectra import PowerLawTerm, SpectralLine, SpectrumModel
from test_spectra import _one_shot_amplitudes, trace_normals

WHITE = SpectrumModel(powerlaws=(), white_floor=350.0, lines=())
COMPOSITE = SpectrumModel(
    powerlaws=(PowerLawTerm(3e13, 2.5), PowerLawTerm(3e7, 1.0)),
    white_floor=350.0,
    lines=(SpectralLine(3600.0, 1.5e6, 150.0),))
# a white floor and a resolution-limited line
WHITE_DELTA = SpectrumModel(powerlaws=(), white_floor=350.0,
                            lines=(SpectralLine(3600.0, 1.5e6, None),))


def raw(model):
    """The model on which the calibrated engines give raw physics."""
    return model.scaled(1 / PSD_CHI_CALIBRATION)


def chi_quadrature(model, n_pulses, t, *, f_min=None, f_max=None):
    """The panel-quadrature oracle of the filter-function engine: the
    calibrated ``0.5 * int S(f) |Y|^2 df`` of CPMG-N (Ramsey for N = 0)
    on a frequency grid built for this one T.

    Grid: 400 geometric points from f_min (default 1e-9 f1, f1 = N/2T)
    to f1/4, steps of 1/(16T) from there to f_max (default 80 f1, raised
    to the highest Lorentzian centre + 12 widths), and 257 points across
    +- 8 widths of each Lorentzian line.  Without f_max the tail beyond
    the grid is added at the filter's averaged envelope ``(4N + 2) /
    (4 pi^2 f^2)``; resolution-limited lines centred in [f_min, f_max]
    add their closed-form weight at their centres.  CPMG is filtered in
    closed form, Ramsey by the segment sum.
    """
    f1 = max(n_pulses, 1) / (2.0 * t)
    f_lo = f_min if f_min is not None else f1 * 1e-9
    f_hi = f_max if f_max is not None else 80.0 * f1
    lorentz = [l for l in model.lines if l.width_hz is not None]
    if f_max is None:
        f_hi = max([f_hi] + [l.center_hz + 12.0 * l.width_hz for l in lorentz])
    knee = f1 / 4.0
    panels = [np.arange(max(f_lo, knee), f_hi, 1.0 / (16.0 * t)), [f_hi]]
    if f_lo < knee:
        panels.append(np.geomspace(f_lo, knee, 400))
    for l in lorentz:
        lo = max(l.center_hz - 8.0 * l.width_hz, f_lo)
        hi = min(l.center_hz + 8.0 * l.width_hz, f_hi)
        if lo < hi:
            panels.append(np.linspace(lo, hi, 257))
    f = np.unique(np.concatenate([np.asarray(p, dtype=float) for p in panels]))
    f = f[(f >= f_lo) & (f <= f_hi)]

    s = spectra._smooth_psd(model, f)
    for l in lorentz:
        s = s + spectra._lorentzian(f, l, l.width_hz)
    schedule = PulseSchedule(n_pulses, t)
    integral = float(np.trapezoid(s * filter_function(schedule, f), f))
    if f_max is None:
        env = (4.0 * n_pulses + 2.0) / (4.0 * math.pi**2)
        integral += model.white_floor * env / f[-1]
        for term in model.powerlaws:
            s_at = term.amplitude / (2.0 * math.pi * f[-1]) ** term.exponent
            integral += s_at * env / (f[-1] * (1.0 + term.exponent))
    integral += sum(l.power * filter_function(schedule, l.center_hz) for l in model.lines
                    if l.width_hz is None
                    and (f_min is None or f_min <= l.center_hz)
                    and (f_max is None or l.center_hz <= f_max))
    return PSD_CHI_CALIBRATION * 0.5 * integral


class TestQubitParams:
    def test_default_resonance(self):
        # g mu_B B / h for g = 1.9789, B = 1.4 T
        assert QubitParams().resonance_hz == pytest.approx(38776036693.0, rel=1e-9)
        assert resonance_frequency_hz(2.0, 1.0) == pytest.approx(2 * 13996244917.1)

    def test_default_pi_time(self):
        assert QubitParams().pi_time_s == 1.28e-6

    def test_validation(self):
        with pytest.raises(ValueError):
            QubitParams(g_factor=-1.0)
        with pytest.raises(ValueError):
            QubitParams(field_t=0.0)
        with pytest.raises(ValueError):
            QubitParams(rabi_hz=0.0)


class TestRabi:
    def test_resonant_pi_pulse_inverts(self):
        qp = QubitParams()
        assert rabi_p_up(qp.rabi_hz, 0.0, qp.pi_time_s) == pytest.approx(1.0)
        assert rabi_p_up(qp.rabi_hz, 0.0, 2 * qp.pi_time_s) == pytest.approx(0.0, abs=1e-12)

    def test_detuned_amplitude_suppressed(self):
        # envelope Omega^2 / (Omega^2 + Delta^2)
        om = 4e5
        delta = 3e5
        t = np.linspace(0, 2e-5, 5001)
        env = np.max(rabi_p_up(om, delta, t))
        assert env == pytest.approx(om**2 / (om**2 + delta**2), rel=1e-3)

    def test_chevron_symmetric_peak_on_resonance(self):
        qp = QubitParams()
        det = np.linspace(-8e5, 8e5, 33)
        dur = np.linspace(0, 4 * qp.pi_time_s, 41)
        grid = rabi_chevron(qp, det, dur)
        assert grid.shape == (33, 41)
        i, _ = np.unravel_index(np.argmax(grid), grid.shape)
        assert det[i] == 0.0
        np.testing.assert_allclose(grid, grid[::-1], atol=1e-12)


class TestReadout:
    def test_affine_map_and_inverse(self):
        ro = ReadoutModel(visibility=0.55, floor=0.225)
        assert ro.apply(0.0) == pytest.approx(0.225)
        assert ro.apply(1.0) == pytest.approx(0.775)
        p = np.linspace(0, 1, 11)
        np.testing.assert_allclose((ro.apply(p) - 0.225) / 0.55, p, atol=1e-12)

    def test_range_validation(self):
        with pytest.raises(ValueError):
            ReadoutModel(visibility=0.0)
        with pytest.raises(ValueError):
            ReadoutModel(visibility=0.9, floor=0.2)
        with pytest.raises(ValueError):
            ReadoutModel(visibility=1.0, floor=-0.1)

    def test_float_in_float_out(self):
        # RB and the tone scan apply it per shot, to Python floats
        assert type(ReadoutModel(0.55, 0.225).apply(0.5)) is float


def _readout_reads(source: str) -> list[str]:
    """Each ``.visibility`` or ``.floor`` that ``source`` reads, in source
    order, but a module's (``np.floor``, ``math.floor``)."""
    tree = ast.parse(source)
    modules = {(a.asname or a.name).partition(".")[0] for node in ast.walk(tree)
               if isinstance(node, ast.Import) for a in node.names}
    reads = [node for node in ast.walk(tree)
             if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
             and node.attr in ("visibility", "floor")
             and not (isinstance(node.value, ast.Name) and node.value.id in modules)]
    return [ast.unparse(node) for node in
            sorted(reads, key=lambda node: (node.lineno, node.col_offset))]


def test_only_qubitsim_evaluates_the_readout_map():
    """The readout map has one owner: no module of the package but
    ``qubitsim`` reads a readout's ``visibility`` or ``floor``, so RB, the
    tone scan and the decay pipelines all go through
    ``ReadoutModel.apply``.  The one exception is ``config``'s field
    defaults, which read ``HARDWARE_READOUT``'s values."""
    package = Path(qubitsim.__file__).parent
    reads = {str(path.relative_to(package)): _readout_reads(path.read_text())
             for path in sorted(package.rglob("*.py"))}
    assert reads["qubitsim.py"]
    assert {name: found for name, found in reads.items()
            if found and name != "qubitsim.py"} == {
        "harness/config.py": ["HARDWARE_READOUT.visibility",
                              "HARDWARE_READOUT.floor"]}
    assert _readout_reads(
        "import numpy as xp\nimport math\nxp.floor(a) + math.floor(b)\n"
        "ro.floor = 0\nq = r.floor + r.visibility * p\n") == [
            "r.floor", "r.visibility"]


class TestChiAnalytic:
    @pytest.mark.parametrize("n", [1, 16])
    def test_white_closed_form_calibrated(self, n):
        # chi = (4/pi^2) S0 T closes S0 = pi^2/(4 T2) against a fit
        t = 1e-3
        assert chi_ff(WHITE, make_cpmg(n, t)) == pytest.approx(
            (4 / np.pi**2) * 350.0 * t, rel=1e-3)

    def test_white_closed_form_raw(self):
        # raw physics is the bare phase-variance convention chi = S0 T / 4
        t = 1e-3
        assert chi_ff(raw(WHITE), make_cpmg(4, t)) == pytest.approx(
            350.0 * t / 4.0, rel=1e-3)

    def test_white_ramsey_same_total(self):
        # Parseval: any toggling pattern integrates white noise identically
        t = 1e-3
        assert chi_ff(WHITE, make_ramsey(t)) == pytest.approx(
            chi_ff(WHITE, make_cpmg(8, t)), rel=2e-3)

    def test_delta_line_weighting(self):
        model = SpectrumModel(powerlaws=(), white_floor=0.0,
                              lines=(SpectralLine(3600.0, 1.5e6, None),))
        sch = make_cpmg(4, 2e-4)
        expected = PSD_CHI_CALIBRATION * 0.5 * 1.5e6 * filter_function(sch, 3600.0)
        assert chi_ff(model, sch) == pytest.approx(expected, rel=1e-12)

    def test_band_limit_reduces_chi(self):
        sch = make_cpmg(8, 1e-3)
        full = chi_ff(WHITE, sch)
        cut = chi_ff(WHITE, sch, f_max=8e3)
        assert cut < full

    def test_steep_exponent_requires_cutoff(self):
        steep = SpectrumModel(powerlaws=(PowerLawTerm(1e10, 3.0),),
                              white_floor=0.0, lines=())
        with pytest.raises(ValueError):
            chi_ff(steep, make_cpmg(4, 1e-3))
        assert np.isfinite(chi_ff(steep, make_cpmg(4, 1e-3), f_min=10.0))

    def test_free_induction_infrared_divergence(self):
        pink = SpectrumModel(powerlaws=(PowerLawTerm(3e7, 1.0),),
                             white_floor=0.0, lines=())
        with pytest.raises(ValueError):
            chi_ff(pink, make_ramsey(1e-3))
        assert np.isfinite(chi_ff(pink, make_ramsey(1e-3), f_min=10.0))
        # echoes kill the infrared weight, no cutoff needed
        assert np.isfinite(chi_ff(pink, make_cpmg(1, 1e-3)))

    def _one_over_e(self, model):
        def excess(logt):
            sch = make_cpmg(122, math.exp(logt))
            return chi_ff(model, sch) - 1.0
        return math.exp(brentq(excess, math.log(1e-4), math.log(5e-2), xtol=1e-10))

    def test_composite_deep_echo_coherence_time(self):
        # frozen regression anchors for the headline composite environment
        assert self._one_over_e(COMPOSITE) == pytest.approx(3.9622e-3, rel=1e-3)
        t_raw = self._one_over_e(raw(COMPOSITE))
        assert t_raw == pytest.approx(5.4569e-3, rel=1e-3)
        # raw convention lands within 30% of the nominal 6.7 ms target
        assert abs(t_raw - 6.7e-3) / 6.7e-3 < 0.30


def _log_uniform(lo, hi):
    return st.floats(math.log(lo), math.log(hi)).map(math.exp)


@st.composite
def _cpmg_cases(draw, widths, pulses=st.integers(1, 64), max_exponent=2.99):
    """(model, N, T): random smooth parts, from none to dominant, and up to
    two lines placed relative to 1/T, so centres run from far below the
    passband to above the 40N/T end of the table.  ``widths`` draws a
    line width in units of 1/T, or None for a resolution-limited line."""
    n = draw(pulses)
    t = draw(_log_uniform(1e-6, 1.0))
    powerlaws = draw(st.lists(st.builds(PowerLawTerm, _log_uniform(1e-3, 1e14),
                                        st.floats(0.0, max_exponent)), max_size=2))
    white = draw(st.just(0.0) | _log_uniform(1e-2, 1e4))
    lines = draw(st.lists(st.builds(
        SpectralLine, _log_uniform(1e-3, 3e3).map(lambda x: x / t),
        _log_uniform(1e-3, 1e12),
        widths.map(lambda w: None if w is None else w / t)), max_size=2))
    return SpectrumModel(powerlaws=powerlaws, white_floor=white,
                         lines=lines), n, t


class TestCpmgChi:
    @settings(max_examples=60, deadline=None)
    @given(case=_cpmg_cases(st.none()))
    def test_matches_chi_ff_without_lorentzian_lines(self, case):
        model, n, t = case
        assert qubitsim.CpmgChi(model, n)(t) == pytest.approx(
            chi_quadrature(model, n, t), rel=1e-12)

    @settings(max_examples=60, deadline=None)
    @given(case=_cpmg_cases(st.none() | _log_uniform(1e-3, 100.0)))
    # the shipped model, and its line alone, with the line window reaching
    # above the table
    @example(case=(COMPOSITE, 64, 0.56))
    @example(case=(SpectrumModel(lines=COMPOSITE.lines), 64, 0.56))
    # a line above 40N/T = 12.8 kHz, integrated on the continued lattice
    @example(case=(SpectrumModel(white_floor=1.0,
                                 lines=(SpectralLine(1.5e4, 1e6, 200.0),)), 32, 0.1))
    # a line narrower than 1/T on the passband
    @example(case=(SpectrumModel(white_floor=1.0,
                                 lines=(SpectralLine(8e3, 1e6, 5.0),)), 16, 1e-3))
    def test_matches_chi_ff_with_lorentzian_lines(self, case):
        model, n, t = case
        want = chi_quadrature(model, n, t)
        assume(want > 1e-6)
        assert qubitsim.CpmgChi(model, n)(t) == pytest.approx(want, rel=2e-3)

    # Ramsey on the same x table, with g = sinc^2 x: equal to the
    # quadrature to rounding without Lorentzian lines.  With them, 4e-3:
    # the largest gap measured on the shipped Ramsey decay points is
    # 3.6e-3 (random draws of this strategy reached 3.3e-3)
    @settings(max_examples=60, deadline=None)
    @given(case=_cpmg_cases(st.none() | _log_uniform(1e-3, 100.0),
                            pulses=st.just(0), max_exponent=0.99))
    def test_ramsey_matches_quadrature(self, case):
        model, n, t = case
        want = chi_quadrature(model, n, t)
        assume(want > 1e-6)
        lorentzian = any(l.width_hz is not None for l in model.lines)
        assert qubitsim.CpmgChi(model, n)(t) == pytest.approx(
            want, rel=4e-3 if lorentzian else 1e-12)

    # the band a Monte Carlo trace holds on the shipped model and protocol
    # (duration_factor 2, 16 samples per interval), over the times the
    # shipped decays reach.  Tolerances are the largest gaps measured on
    # the shipped decay points, rounded up: 8.9e-5 (hahn) and 3.6e-3
    # (ramsey), where the quadrature's first 1/16 panel from f_min is
    # coarser than the table's geometric points
    @settings(max_examples=60, deadline=None)
    @given(n=st.integers(0, 64), t=_log_uniform(1e-6, 1e-1))
    def test_band_matches_quadrature(self, n, t):
        if n == 0:
            t = min(t, 1e-3)
        _, _, rate, samples = mc_point(n, t, DURATION_FACTOR, SAMPLES_PER_INTERVAL)
        band = {"f_min": 0.5 * rate / samples, "f_max": 0.5 * rate}
        sch = PulseSchedule(n, t)
        assert chi_ff(COMPOSITE, sch, **band) == pytest.approx(
            chi_quadrature(COMPOSITE, n, t, **band), rel=1e-4 if n else 4e-3)

    # measured gaps: 1.04e-4 for Ramsey from f_min, below 5e-7 otherwise
    @pytest.mark.parametrize("band", [{"f_min": 50.0}, {"f_max": 2e4},
                                      {"f_min": 50.0, "f_max": 2e4}])
    @pytest.mark.parametrize("n", [0, 1, 8])
    def test_band_ends_open_or_closed(self, n, band):
        t = 1e-3
        sch = PulseSchedule(n, t)
        model = SpectrumModel(powerlaws=(PowerLawTerm(3e7, 0.8),),
                              white_floor=350.0, lines=COMPOSITE.lines)
        assert chi_ff(model, sch, **band) == pytest.approx(
            chi_quadrature(model, n, t, **band), rel=2e-4)

    # a resolution-limited line counts only when its centre is in the
    # band, as a Monte Carlo trace holds a line only inside its bins
    @pytest.mark.parametrize("band, inside", [
        ((100.0, 2000.0), False), ((4000.0, None), False), ((None, 3000.0), False),
        ((100.0, 5000.0), True), ((3600.0, 3600.5), True), ((None, 3600.0), True)])
    def test_band_counts_a_delta_line_only_inside(self, band, inside):
        t = 4 / (2 * 3600.0)
        sch = make_cpmg(4, t)
        kw = {"f_min": band[0], "f_max": band[1]}
        free = chi_ff(WHITE, sch, **kw)
        line = 0.5 * PSD_CHI_CALIBRATION * (1.5e6 * cpmg_filter_function(4, t, 3600.0))
        want = free + line if inside else free
        assert chi_ff(WHITE_DELTA, sch, **kw) == want
        assert chi_quadrature(WHITE_DELTA, 4, t, **kw) == \
            pytest.approx(want, rel=1e-3)

    def test_band_below_the_table_rejected(self):
        # f_min * T under the table's first point, 2e-9 at N = 4
        sch = make_cpmg(4, 1e-3)
        with pytest.raises(ValueError, match="at or above the table"):
            chi_ff(WHITE, sch, f_min=1e-9)
        with pytest.raises(ValueError, match="bad integration band"):
            chi_ff(WHITE, sch, f_min=2e3, f_max=1e3)

    # lines more than 4096 in x = f*T above the table: the tail below the
    # lattice's reach is dropped (measured gaps 1.4e-3 to 6.7e-3)
    @pytest.mark.parametrize("n, centre, width", [
        (0, 1e4, 1.0), (1, 1e4, 10.0), (8, 2e4, 0.01), (64, 3e4, 1.0)])
    def test_line_beyond_the_reach(self, n, centre, width):
        t = 1e-3
        model = SpectrumModel(lines=(SpectralLine(centre / t, 1e6, width / t),))
        assert qubitsim.CpmgChi(model, n)(t) == pytest.approx(
            chi_quadrature(model, n, t), rel=1e-2)

    def test_line_beyond_the_table_costs_its_width(self):
        # a line at 4.6e18 Hz: the lattice covers its span, not the
        # 7e12 points from the table up to it
        model = SpectrumModel(white_floor=350.0, lines=(
            SpectralLine(4.6e18, 1.5e6, 150.0),))
        chi = qubitsim.CpmgChi(model, 8)
        points = sum(x.size for x, _ in chi._pieces(1e-7))
        assert points < chi.x.size + 16 * qubitsim._LINE_REACH + 1000
        assert chi(1e-7) == pytest.approx(chi.smooth(1e-7), rel=1e-9)

    @settings(max_examples=60, deadline=None)
    @given(case=_cpmg_cases(st.none() | _log_uniform(1e-3, 1e3),
                            pulses=st.integers(0, 64)))
    @example(case=(COMPOSITE, 64, 0.56))
    def test_points_bound_the_pieces(self, case):
        # points() reckons each span's lattice without building it: at
        # most two points over per span (the table's and each line's)
        model, n, t = case
        chi = qubitsim.CpmgChi(model, n)
        laid = sum(x.size for x, _ in chi._pieces(t))
        assert laid <= chi.points(t) <= laid + 2 * (len(model.lines) + 1)

    def test_steep_exponent_rejected(self):
        # exponent >= 3 (>= 1 for Ramsey) diverges without f_min
        steep = qubitsim.CpmgChi(SpectrumModel(powerlaws=(PowerLawTerm(1e10, 3.0),)), 4)
        with pytest.raises(ValueError, match="exponent >= 3"):
            steep(1e-3)
        with pytest.raises(ValueError, match="exponent >= 3"):
            steep(1e-3, None, 1e5)
        assert np.isfinite(steep(1e-3, 10.0))
        pink = qubitsim.CpmgChi(SpectrumModel(powerlaws=(PowerLawTerm(3e7, 1.0),)), 0)
        with pytest.raises(ValueError, match="exponent >= 1"):
            pink(1e-3)
        zero = SpectrumModel(powerlaws=(PowerLawTerm(0.0, 3.0),), white_floor=1.0)
        assert qubitsim.CpmgChi(zero, 4)(1e-3) == pytest.approx(
            chi_quadrature(zero, 4, 1e-3), rel=1e-12)

    def test_cached_per_model_and_pulse_count(self):
        copy = SpectrumModel(
            powerlaws=(PowerLawTerm(3e13, 2.5), PowerLawTerm(3e7, 1.0)),
            white_floor=350.0, lines=(SpectralLine(3600.0, 1.5e6, 150.0),))
        assert cpmg_chi(copy, 8) is cpmg_chi(COMPOSITE, 8)
        assert cpmg_chi(COMPOSITE, 16) is not cpmg_chi(COMPOSITE, 8)


class TestCpmgT2:
    @pytest.mark.parametrize("n", [1, 7, 64])
    def test_line_free_root_is_the_smooth_root(self, n):
        model = SpectrumModel(powerlaws=(PowerLawTerm(3e7, 1.0),), white_floor=350.0)
        chi = cpmg_chi(model, n)
        t2 = chi.t2
        assert chi.bracket[1] == t2
        assert chi_ff(model, make_cpmg(n, t2)) == pytest.approx(1.0, rel=1e-12)

    @pytest.mark.parametrize("n", [1, 8, 64])
    def test_shipped_model_root_inside_the_smooth_bracket(self, n):
        chi = cpmg_chi(COMPOSITE, n)
        lo, hi = chi.bracket
        assert chi.smooth(hi) == pytest.approx(1.0, rel=1e-12)
        t2 = chi.t2
        assert lo < t2 < hi
        assert chi(t2 * math.exp(-2e-3)) < 1.0 < chi(t2 * math.exp(2e-3))

    def test_search_never_passes_the_smooth_root(self):
        # a strong narrow line makes chi cross 1 many times below the
        # white floor's own crossing; the search returns one of those
        model = SpectrumModel(white_floor=10.0,
                              lines=(SpectralLine(5e3, 3e7, 50.0),))
        chi = cpmg_chi(model, 8)
        t_smooth = chi.bracket[1]
        assert t_smooth == pytest.approx(math.pi**2 / (4 * 10.0), rel=1e-3)
        t2 = chi.t2
        assert t2 < 0.5 * t_smooth
        below, above = chi(t2 * math.exp(-2e-3)), chi(t2 * math.exp(2e-3))
        assert min(below, above) < 1.0 < max(below, above)

    def test_line_only_model_searches_up_to_ten_seconds(self):
        model = SpectrumModel(lines=(SpectralLine(1.0, 1e3, 2.0),))
        chi = cpmg_chi(model, 2)
        assert chi.bracket == qubitsim.T2_SEARCH_S
        t2 = chi.t2
        assert chi_ff(model, make_cpmg(2, t2)) == pytest.approx(1.0, abs=1e-2)

    # the plan checks the bracket before it searches; the search must
    # then find a root inside it
    @settings(max_examples=60, deadline=None)
    @given(case=_cpmg_cases(st.none() | _log_uniform(1e-3, 1e3)))
    @example(case=(COMPOSITE, 64, 0.56))
    def test_t2_inside_every_bracket(self, case):
        model, n, _ = case
        chi = qubitsim.CpmgChi(model, n)
        assume(chi.points(chi.t_max) <= MAX_CHI_POINTS)
        try:
            lo, hi = chi.bracket
        except ValueError:
            assume(False)
        assert lo <= chi.t2 <= hi

    @pytest.mark.parametrize("model, message", [
        (SpectrumModel(white_floor=1e-6), "stays below 1 up to T = 10 s"),
        (SpectrumModel(white_floor=1e12), "already at T = 1e-07 s"),
    ])
    def test_no_crossing_raises(self, model, message):
        with pytest.raises(ValueError, match=message):
            cpmg_chi(model, 4).t2


class TestAccumulatePhase:
    """The phase a schedule accumulates on a constant detuning:
    ``toggled_weights(schedule, rate, n) @ samples``."""

    @staticmethod
    def _phase(schedule, value=250.0, rate=1e6, n=2000):
        return toggled_weights(schedule, rate, n) @ np.full(n, value)

    def test_ramsey_integrates_detuning(self):
        assert self._phase(make_ramsey(1e-3)) == pytest.approx(0.25, rel=1e-9)

    def test_echo_cancels_static_detuning(self):
        assert self._phase(make_cpmg(1, 1e-3)) == pytest.approx(0.0, abs=1e-12)
        assert self._phase(make_cpmg(6, 1e-3)) == pytest.approx(0.0, abs=1e-12)


def _reference_phase(samples, rate, schedule):
    """Toggled phase by cumulative trapezoid, linear interpolation at the
    segment edges and the segment signs, plus the trapezoid's L1 bound
    ``dt * sum |x|`` over the window as the scale for a relative check."""
    c = np.concatenate(([0.0], np.cumsum((samples[1:] + samples[:-1]) / (2 * rate))))
    pos = schedule.boundaries * rate
    idx = np.clip(pos.astype(int), 0, samples.size - 2)
    frac = pos - idx
    c_edge = c[idx] * (1.0 - frac) + c[idx + 1] * frac
    window = samples[:int(math.ceil(schedule.total_time * rate)) + 2]
    return (float(schedule.segment_signs @ np.diff(c_edge)),
            float(np.abs(window).sum()) / rate)


class TestPhaseFunctional:
    """The toggled phase as a linear functional of the trace, through
    :func:`toggled_weights` on the samples and through
    :func:`spectra.normal_weights` of those weights on the normals."""

    @settings(max_examples=60, deadline=None)
    @given(n_pulses=st.integers(0, 64),
           total_time=st.floats(1e-6, 1e-1),
           samples_per_interval=st.integers(2, 32),
           extra=st.integers(0, 40),
           composite=st.booleans(),
           seed=st.integers(0, 2**32))
    def test_matches_time_domain_phase(self, n_pulses, total_time,
                                       samples_per_interval, extra,
                                       composite, seed):
        # any n at least as long as the schedule: odd and even, so the
        # unpaired Nyquist bin of even n is covered
        sch = PulseSchedule(n_pulses, total_time)
        rate = samples_per_interval * max(n_pulses, 1) / total_time
        n = int(math.ceil(total_time * rate)) + 1 + extra
        model = COMPOSITE if composite else WHITE
        weights = toggled_weights(sch, rate, n)
        phi = (trace_normals(n, derive_rng(seed))
               @ spectra.normal_weights(model, rate, weights).rows[0, :n - 1])
        trace = spectra.draw_trace_samples(model, rate, n, derive_rng(seed))
        ref, scale = _reference_phase(trace, rate, sch)
        assert abs(phi - ref) <= 1e-12 * scale
        assert abs(weights @ trace - ref) <= 1e-12 * scale

    @pytest.mark.parametrize("n_pulses,total_time,spi,n", [
        (0, 1e-4, 16, 64),      # padded to 64 samples: even n
        (2, 1e-3, 16, 65),      # 2 * 16 * 2 + 1: odd n
        (32, 3e-3, 32, 2049),
        (5, 2e-3, 16, 161),
    ])
    def test_mc_grid_lengths(self, n_pulses, total_time, spi, n):
        sch = PulseSchedule(n_pulses, total_time)
        _, _, rate, n_grid = mc_point(n_pulses, total_time, 2.0, spi)
        assert n_grid == n
        weights = toggled_weights(sch, rate, n)
        assert weights.shape == (n,)
        phi = (trace_normals(n, derive_rng(4))
               @ spectra.normal_weights(COMPOSITE, rate, weights).rows[0, :n - 1])
        trace = spectra.draw_trace_samples(COMPOSITE, rate, n, derive_rng(4))
        ref, scale = _reference_phase(trace, rate, sch)
        assert abs(phi - ref) <= 1e-12 * scale

    def test_rejects_short_duration_factor(self):
        with pytest.raises(ValueError):
            mc_point(2, 1e-3, 0.5, 16)


def _quadrature_trace(model, rate, n, rng):
    """The quadrature trace of the normals ``rng`` starts with, built with
    ``numpy.fft``: the trace's n - 1 normals times their amplitudes, each
    interior rfft bin times -i, then for an even n the real Nyquist bin on
    the next normal."""
    k = (n - 1) // 2
    amp = _one_shot_amplitudes(model, rate, n)
    z = trace_normals(n, rng) * amp
    coeff = np.zeros(n // 2 + 1, dtype=complex)
    coeff[1:k + 1] = -1j * (z[:k] + 1j * z[k:2 * k])
    if n % 2 == 0:
        coeff[-1] = rng.standard_normal() * amp[-1]
    return np.fft.irfft(coeff, n)


# n = 64, 64 and 129: the even lengths draw the quadrature Nyquist normal
PHASE_POINTS = pytest.mark.parametrize("point", [
    mc_point(0, 4e-4, 2.0, 8), mc_point(3, 4e-4, 1.0, 8), mc_point(4, 1e-3)],
    ids=["0-2.0", "3-1.0", "4-2.0"])


class TestPhaseDraw:
    @PHASE_POINTS
    def test_full_layout_is_the_phase_of_the_trace_and_its_quadrature(self, point):
        # every bin kept: row 0 on the trace's n - 1 normals is the toggled
        # phase of draw_trace_samples' trace, row 1 on the stream's normals
        # that of its Hilbert transform
        sch = PulseSchedule(point.n_pulses, point.total_time)
        rate, n = point.sample_rate, point.n
        weights = toggled_weights(sch, rate, n)
        rows = spectra.normal_weights(COMPOSITE, rate, weights, 0.0).rows
        assert rows.shape == (2, n - n % 2)
        normals = derive_rng(5).standard_normal(rows.shape[1])
        trace = spectra.draw_trace_samples(COMPOSITE, rate, n, derive_rng(5))
        _, scale = _reference_phase(trace, rate, sch)
        assert abs(float(normals[:n - 1] @ rows[0, :n - 1]) - float(weights @ trace)) \
            <= 1e-12 * scale
        ref, scale = _reference_phase(
            _quadrature_trace(COMPOSITE, rate, n, derive_rng(5)), rate, sch)
        assert abs(float(normals @ rows[1]) - ref) <= 1e-12 * scale

    @PHASE_POINTS
    def test_is_the_calibrated_phase_of_the_trace_normals(self, point):
        sch = PulseSchedule(point.n_pulses, point.total_time)
        draw = phase_draw(COMPOSITE, point)
        rate, n = point.sample_rate, point.n
        kept = spectra.normal_weights(COMPOSITE, rate, toggled_weights(sch, rate, n),
                                      spectra.DROPPED_SHARE)
        np.testing.assert_array_equal(draw.weights, kept.rows)
        rng, oracle = derive_rng(5), derive_rng(5)
        normals = oracle.standard_normal(kept.rows.shape[1])
        cal = math.sqrt(PSD_CHI_CALIBRATION)
        # in phase bit for bit on the kept bins' trace normals, and the
        # stream goes on after the pair's normals
        phi_1, phi_2 = draw(rng)
        t = kept.trace_normals
        assert phi_1 == cal * float(normals[:t] @ kept.rows[0, :t])
        assert phi_2 == cal * float(normals @ kept.rows[1])
        assert rng.random() == oracle.random()

    @settings(max_examples=60, deadline=None)
    @given(n_pulses=st.integers(0, 64), total_time=st.floats(1e-5, 1e-2),
           samples_per_interval=st.integers(2, 32), extra=st.integers(0, 400),
           composite=st.booleans(), seed=st.integers(0, 2**32))
    @example(8, 2e-3, 32, 0, True, 5)  # n = 513, 7% of the bins kept
    def test_kept_bins_phase_is_the_phase_of_their_trace(
            self, n_pulses, total_time, samples_per_interval, extra,
            composite, seed):
        """The pair drawn on the kept bins is the toggled phase of the
        trace synthesized from the kept bins alone, and of its quadrature
        trace: the stream's first normals are the kept bins' real parts,
        their imaginary parts, then a kept Nyquist bin's, and one more
        normal draws the quadrature's Nyquist bin."""
        model = COMPOSITE if composite else WHITE
        sch = PulseSchedule(n_pulses, total_time)
        rate = samples_per_interval * max(n_pulses, 1) / total_time
        n = int(math.ceil(total_time * rate)) + 1 + extra
        point = qubitsim.DecayPoint(n_pulses, total_time, rate, n)
        draw = phase_draw(model, point)
        weights = toggled_weights(sch, rate, n)
        kept = spectra.normal_weights(model, rate, weights, spectra.DROPPED_SHARE)
        np.testing.assert_array_equal(draw.weights, kept.rows)
        nyquist = n % 2 == 0 and kept.bins[-1] == n // 2
        inner = kept.bins[:kept.bins.size - nyquist]
        s = inner.size
        amp = spectra._amplitudes(model, rate, n, 1, n // 2 + 1)
        z = derive_rng(seed).standard_normal(kept.rows.shape[1])
        trace, quadrature = (np.zeros(n // 2 + 1, dtype=complex) for _ in "iq")
        trace[inner] = amp[inner - 1] * (z[:s] + 1j * z[s:2 * s])
        quadrature[inner] = -1j * trace[inner]
        if nyquist:
            trace[-1], quadrature[-1] = amp[-1] * z[2 * s], amp[-1] * z[2 * s + 1]
        cal = math.sqrt(PSD_CHI_CALIBRATION)
        for phi, coeff in zip(draw(derive_rng(seed)), (trace, quadrature)):
            samples = np.fft.irfft(coeff, n)
            ref, scale = _reference_phase(samples, rate, sch)
            assert abs(phi / cal - float(weights @ samples)) <= 1e-12 * scale
            assert abs(phi / cal - ref) <= 1e-12 * scale

    @pytest.mark.parametrize("gain", [1 / PSD_CHI_CALIBRATION, 3.7e-4, 250.0])
    @pytest.mark.parametrize("n_pulses", [0, 3])
    def test_scaled_model_scales_the_weights(self, n_pulses, gain):
        # the raw route rests on this: a model scaled by g draws phases
        # sqrt(g) times as large from the same stream
        point = mc_point(n_pulses, 4e-4, 2.0, 8)
        weights = phase_draw(COMPOSITE, point).weights
        np.testing.assert_allclose(
            phase_draw(COMPOSITE.scaled(gain), point).weights,
            math.sqrt(gain) * weights, rtol=1e-12, atol=0.0)


class TestPhasePairs:
    """Each stream plays two trajectories whose phases are independent
    draws of the one Gaussian phase."""

    POINTS = dict(n_pulses=st.integers(0, 64), total_time=st.floats(1e-5, 1e-2),
                  duration_factor=st.floats(1.0, 3.0),
                  samples_per_interval=st.integers(2, 32),
                  model=st.sampled_from([WHITE, COMPOSITE, WHITE_DELTA]))

    @settings(max_examples=60, deadline=None)
    @given(**POINTS)
    @example(0, 4e-4, 2.0, 8, COMPOSITE)   # n = 64
    @example(4, 1e-3, 2.0, 16, COMPOSITE)  # n = 129
    def test_rows_are_orthogonal_with_equal_norm(
            self, n_pulses, total_time, duration_factor, samples_per_interval,
            model):
        point = mc_point(n_pulses, total_time, duration_factor, samples_per_interval)
        rate, n = point.sample_rate, point.n
        kept = spectra.normal_weights(
            model, rate, toggled_weights(PulseSchedule(n_pulses, total_time), rate, n),
            spectra.DROPPED_SHARE)
        rows = phase_draw(model, point).weights
        assert rows.shape == (2, 2 * kept.bins.size)
        norm2 = float(rows[0] @ rows[0])
        assert abs(float(rows[1] @ rows[1]) - norm2) <= 1e-12 * norm2
        assert abs(float(rows[0] @ rows[1])) <= 1e-12 * norm2

    @settings(max_examples=25, deadline=None)
    @given(**POINTS, half=st.integers(1, 12), seed=st.integers(0, 2**32))
    def test_odd_trajectory_count_is_a_loop_over_pairs(
            self, n_pulses, total_time, duration_factor, samples_per_interval,
            model, half, seed):
        """Pair j is row j of the point's one stream of normals, m per
        row: the two products of the (pairs x m) block with the weights,
        and, to rounding, the pair phase_draw draws on the stream's j-th
        m normals."""
        point = mc_point(n_pulses, total_time, duration_factor, samples_per_interval)
        n_traj = 2 * half + 1
        draw = phase_draw(model, point)
        weights = draw.weights
        block = derive_rng(seed).standard_normal((half + 1, weights.shape[1]))
        phases = math.sqrt(PSD_CHI_CALIBRATION) * np.stack(
            (block @ weights[0], block @ weights[1]), axis=1)
        rng = derive_rng(seed)
        looped = np.array([draw(rng) for _ in range(half + 1)])
        # each sum of m products rounds within m ulps of its absolute sum
        bound = (weights.shape[1] * np.finfo(float).eps * math.sqrt(PSD_CHI_CALIBRATION)
                 * (np.abs(block) @ np.abs(weights).T))
        assert np.all(np.abs(looped - phases) <= 2 * bound)
        cos_phi = np.cos(phases.ravel()[:n_traj])
        p = coherence_mc(model, point, n_traj, seed)
        assert p.n_traj == n_traj
        w = float(cos_phi.sum()) / n_traj
        var = max(float((cos_phi**2).sum()) - n_traj * w * w, 0.0) / (n_traj - 1)
        assert (p.w, p.std_err) == (w, math.sqrt(var / n_traj))

    @settings(max_examples=40, deadline=None)
    @given(**POINTS, pairs=st.integers(2, 150).filter(lambda p: p % 4),
           seed=st.integers(0, 2**32))
    @example(4, 1e-3, 2.0, 16, COMPOSITE, 5, 3)    # a lone last row at 4
    @example(4, 1e-3, 2.0, 16, COMPOSITE, 65, 3)   # and at 64
    @example(0, 4e-4, 2.0, 8, WHITE, 66, 3)
    @example(32, 2e-3, 2.0, 32, COMPOSITE, 131, 3)
    def test_chunk_size_changes_no_byte(
            self, n_pulses, total_time, duration_factor, samples_per_interval,
            model, pairs, seed):
        """The block is drawn and multiplied _BLOCK_PAIRS rows at a time;
        any multiple of 4 rows, or the whole block, gives the same bytes,
        of every phase and of the estimate."""
        point = mc_point(n_pulses, total_time, duration_factor, samples_per_interval)
        weights = phase_draw(model, point).weights
        results = set()
        for rows in (4, 64, pairs, pairs + 7):
            with mock.patch.object(qubitsim, "_BLOCK_PAIRS", rows):
                rng, phases = derive_rng(seed), np.empty((pairs, 2))
                for _ in block_phases(weights, phases,
                                      lambda r: rng.standard_normal(out=r)):
                    pass
                results.add((phases.tobytes(),
                             coherence_mc(model, point, 2 * pairs - 1, seed)))
        assert len(results) == 1


def _scoped_names(source: str, names: set) -> list[tuple[str | None, str]]:
    """``(function, name)`` of each use of one of ``names`` in ``source``:
    a name or attribute read, a parameter, an assignment target, or an
    import; ``function`` is the innermost enclosing one, None at module
    level."""
    uses = []

    def visit(node, scope):
        for name in ([node.id] if isinstance(node, ast.Name) else
                     [node.attr] if isinstance(node, ast.Attribute) else
                     [node.arg] if isinstance(node, ast.arg) else
                     [a.name for a in node.names]
                     if isinstance(node, (ast.Import, ast.ImportFrom)) else []):
            if name in names:
                uses.append((scope, name))
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            scope = node.name
        for child in ast.iter_child_nodes(node):
            visit(child, scope)
    visit(ast.parse(source), None)
    return uses


def test_only_decay_table_works_out_a_trace_grid():
    """The Monte Carlo trace grid is worked out in one place: no code of
    the package but ``qubitsim.decay_table`` reaches ``mc_point``, and no
    function that runs a point takes or unpacks a grid setting, so each
    runs on the grid of its decay point."""
    package = Path(qubitsim.__file__).parent
    uses = {(str(path.relative_to(package)), scope, name)
            for path in sorted(package.rglob("*.py"))
            for scope, name in _scoped_names(path.read_text(), {"mc_point"})}
    assert uses == {("qubitsim.py", "decay_table", "mc_point")}
    grid = {"duration_factor", "samples_per_interval"}
    runners = {"qubitsim.py": {"phase_draw", "coherence_mc", "play_decay_table"},
               "starktone.py": {"_tone_column"}}
    for name, functions in runners.items():
        scopes = {scope for scope, _ in
                  _scoped_names((package / name).read_text(), grid)}
        assert scopes.isdisjoint(functions), name
    assert _scoped_names(
        "from q import mc_point as g\nimport q\n"
        "def f(x, duration_factor=2):\n    return q.mc_point(x)\n"
        "def h(args):\n    samples_per_interval, y = args\n",
        {"mc_point", "duration_factor", "samples_per_interval"}) == [
            (None, "mc_point"), ("f", "duration_factor"), ("f", "mc_point"),
            ("h", "samples_per_interval")]


# the calls a bin selection ranks or accumulates shares with
_SELECTING = {"argsort", "argpartition", "partition", "lexsort", "searchsorted",
              "cumsum", "cumulative_sum"}


def test_only_spectra_selects_bins():
    """The kept bins of a draw have one owner: ``spectra.normal_weights``
    ranks the bins' shares and cuts their running sum, and no other module
    of the package makes either call (``qubitsim``, ``starktone`` and the
    harness take the rows as they come).  The named exceptions are
    ``qubitsim``'s own: the running integral of ``toggled_weights`` over
    the samples, and the filter-function engine's sort of its table and
    its search for line windows."""
    package = Path(qubitsim.__file__).parent
    uses = {(str(path.relative_to(package)), scope, name)
            for path in sorted(package.rglob("*.py"))
            for scope, name in _scoped_names(path.read_text(), _SELECTING)}
    assert {("spectra.py", "normal_weights", name)
            for name in ("argsort", "cumsum")} <= uses
    assert {use for use in uses if use[0] != "spectra.py"} == {
        ("qubitsim.py", "toggled_weights", "cumsum"),
        ("qubitsim.py", "_cut", "argsort"),
        ("qubitsim.py", "_pieces", "searchsorted")}


def test_one_dropped_share():
    """The share of |h|^2 a draw may leave out has one owner: the constant
    ``spectra.DROPPED_SHARE``, defined at ``spectra``'s module level and
    read only by ``qubitsim.phase_draw``, and only
    ``spectra.normal_weights`` takes a share as a parameter.  No other
    name of the package speaks of a dropped share."""
    package = Path(qubitsim.__file__).parent
    sources = {str(path.relative_to(package)): path.read_text()
               for path in sorted(package.rglob("*.py"))}
    names = {name for source in sources.values()
             for name in re.findall(r"\w*dropped_share\w*", source, re.IGNORECASE)}
    uses = {(module, scope, name) for module, source in sources.items()
            for scope, name in _scoped_names(source, names)}
    assert uses == {("spectra.py", None, "DROPPED_SHARE"),
                    ("qubitsim.py", "phase_draw", "DROPPED_SHARE"),
                    ("spectra.py", "normal_weights", "max_dropped_share")}


def test_no_run_lays_out_a_decay_point():
    """A plan lays out every decay point its run plays: no nested ``run``
    of a pipeline uses a layout (``decay_table``, ``spectroscopy_table``
    or ``scan_columns``), and no code of ``analysis`` but the layout
    itself uses ``spectroscopy_table``, so a scan plays the table it is
    given."""
    package = Path(qubitsim.__file__).parent
    uses = _scoped_names((package / "harness" / "pipelines.py").read_text(),
                         {"decay_table", "spectroscopy_table", "scan_columns"})
    assert uses and [use for use in uses if use[0] == "run"] == []
    assert {scope for scope, _ in _scoped_names(
        (package / "analysis.py").read_text(),
        {"spectroscopy_table"})} <= {"spectroscopy_table"}


CONFIG_DIR = Path(__file__).resolve().parents[1] / "configs"


@pytest.mark.parametrize("kind, csv_name", [
    ("ramsey", "decay.csv"), ("hahn", "decay.csv"),
    ("cpmg_t2_vs_n", "decay_curves.csv"),
    ("noise_spectroscopy", "psd_reconstructed.csv"),
    ("voltage_psd", "psd_reconstructed.csv")])
def test_shipped_decays_sample_the_grid_decay(tmp_path, monkeypatch, kind, csv_name):
    """Every decay point of a shipped Monte Carlo config, at its shipped
    seed, lies within its sampling error of the decay its own trace grid
    implies, ``exp(-cal * |h|^2 / 2)`` with ``h`` the weights of the draw
    the run made at its point of its plan's decay table (on the bins the
    draw keeps): the sampling z rms stays near 1 and no |z| is extreme.
    A decay kind's W and errors are the ones ``csv_name`` holds, a row
    per point; a spectroscopy kind's file has a row per curve
    (frequency), so its W are the curves the run's one play of its table
    returned."""
    cfg = load_config(CONFIG_DIR / f"{kind}.yaml")
    play, played = qubitsim.play_decay_table, []

    def spy(model, table, n_traj, curve_seeds):
        played.append((model, table, curves := play(model, table, n_traj, curve_seeds)))
        return curves

    monkeypatch.setattr(qubitsim, "play_decay_table", spy)
    monkeypatch.setattr(analysis, "play_decay_table", spy)
    execute(cfg, tmp_path, workers=1)
    ((model, table, curves),) = played
    assert table == pipelines.plan(cfg).table
    with open(tmp_path / csv_name, newline="") as fh:
        rows = list(csv.DictReader(fh))
    points = [point for curve in table for point in curve]
    if csv_name == "psd_reconstructed.csv":
        assert len(rows) == len(table)
        measured = [(w, err) for curve in curves
                    for w, err in zip(curve.w, curve.std_err)]
    else:
        assert len(rows) == len(points)
        for row, point in zip(rows, points):
            assert float(row["time_s"]) == point.total_time
            assert int(row.get("n_pulses", point.n_pulses)) == point.n_pulses
        measured = [(float(row["coherence_w"]), float(row["std_err"]))
                    for row in rows]
    z = []
    for (w, err), point in zip(measured, points):
        h = phase_draw(model, point).weights[0]
        w_grid = math.exp(-PSD_CHI_CALIBRATION * float(h @ h) / 2)
        z.append((w - w_grid) / err)
    z = np.array(z)
    assert z.size == len(points) >= 12
    assert math.sqrt(float(np.mean(z**2))) <= 2.0
    assert float(np.max(np.abs(z))) <= 5.0


def test_shipped_cpmg_draws_fewer_normals_than_its_trace():
    """Every Monte Carlo point drops the bins holding ``DROPPED_SHARE`` of
    |h|^2, the decay kinds' too: a shipped ``cpmg_t2_vs_n`` N = 64 point,
    n samples, draws fewer normals per stream than the n - 1 of its
    trace."""
    cfg = load_config(CONFIG_DIR / "cpmg_t2_vs_n.yaml")
    model = SpectrumModel.from_dict(cfg["spectrum"])
    points = [point for curve in pipelines.plan(cfg).table for point in curve
              if point.n_pulses == 64]
    assert points
    for point in points:
        assert phase_draw(model, point).weights.shape[1] < point.n - 1


# OpenBLAS splits a gemv over its threads from about this many rows times
# columns, and a threaded gemv may round otherwise
GEMV_THREADED_SIZE = 500_000


def test_shipped_gemv_chunks_stay_below_the_threaded_size(tmp_path, monkeypatch):
    """Every chunk :func:`qubitsim.block_phases` multiplies in a shipped
    config, its rows times its kept normals, stays below the size from
    which OpenBLAS splits a gemv over threads, so no Monte Carlo byte
    depends on ``OPENBLAS_NUM_THREADS``.  Every Monte Carlo kind
    multiplies a chunk."""
    real, sizes, largest = qubitsim.block_phases, [], {}

    def recording(weights, phases, fill):
        def fill_and_record(rows):
            sizes.append(rows.size)
            return fill(rows)
        return real(weights, phases, fill_and_record)

    monkeypatch.setattr(qubitsim, "block_phases", recording)
    monkeypatch.setattr(starktone, "block_phases", recording)
    for path in sorted(CONFIG_DIR.glob("*.yaml")):
        execute(load_config(path), tmp_path / path.stem, workers=1)
        if sizes:
            largest[path.stem] = max(sizes)
            sizes.clear()
    assert set(largest) == {"ramsey", "hahn", "cpmg_t2_vs_n", "noise_spectroscopy",
                            "tone_scan", "voltage_psd"}
    assert max(largest.values()) < GEMV_THREADED_SIZE


class TestCoherenceMc:
    # white noise with chi ~ 0.5 at this duration
    T_HALF = 0.5 / ((4 / np.pi**2) * 350.0)

    def test_batching_is_bit_identical(self):
        a = coherence_mc(WHITE, mc_point(2, 1e-3), 300, 7)
        b = coherence_mc(WHITE, mc_point(2, 1e-3), 300, 7)
        assert a.w == b.w and a.std_err == b.std_err

    def test_no_inverse_fft(self, monkeypatch):
        calls = []
        irfft = np.fft.irfft

        def spy(*args, **kwargs):
            calls.append(args)
            return irfft(*args, **kwargs)

        monkeypatch.setattr(np.fft, "irfft", spy)
        coherence_mc(COMPOSITE, mc_point(4, 1e-3), 50, 1)
        coherence_mc(COMPOSITE, mc_point(0, 1e-4), 50, 1)
        assert calls == []
        # the spy sees the synthesis path, which does use the inverse FFT:
        # a length divisible by 4 makes four quarter-length transforms
        spectra.draw_trace_samples(WHITE, 1e3, 64, derive_rng(0))
        assert [args[1] for args in calls] == [16, 16, 16, 16]

    def test_needs_two_trajectories(self):
        with pytest.raises(ValueError):
            coherence_mc(WHITE, mc_point(2, 1e-3), 1, 0)

    def test_white_matches_analytic(self):
        sch = make_cpmg(2, self.T_HALF)
        p = coherence_mc(WHITE, mc_point(2, self.T_HALF, samples_per_interval=64),
                         800, 3)
        assert abs(p.w - math.exp(-chi_ff(WHITE, sch))) < 4 * p.std_err

    def test_white_schedule_independent(self):
        # Parseval again, now through the sampled engine
        a = coherence_mc(WHITE, mc_point(1, self.T_HALF, samples_per_interval=64),
                         800, 3)
        b = coherence_mc(WHITE, mc_point(16, self.T_HALF, samples_per_interval=64),
                         800, 103)
        assert abs(a.w - b.w) < 3 * math.hypot(a.std_err, b.std_err)

    def test_composite_echo_matches_analytic(self):
        # band truncation biases chi low by a few percent at this sampling
        sch = make_cpmg(8, 1.5e-3)
        chi = chi_ff(COMPOSITE, sch)
        w_ff = math.exp(-chi)
        p = coherence_mc(COMPOSITE, mc_point(8, 1.5e-3, samples_per_interval=64),
                         800, 11)
        assert abs(p.w - w_ff) < 4 * p.std_err + 0.035 * chi * w_ff


class TestDecayScans:
    def test_fixed_pulses_scan_shapes(self):
        times = np.geomspace(1e-4, 2e-3, 4)
        curve = decay_vs_time(WHITE, 4, times, 64, 2)
        assert curve.w.shape == times.shape
        assert curve.std_err.shape == times.shape
        np.testing.assert_array_equal(curve.n_pulses, 4)

    def test_decay_is_monotone_on_average(self):
        times = np.array([2e-4, 4e-3])
        curve = decay_vs_time(WHITE, 2, times, 256, 4)
        assert curve.w[0] > curve.w[1]

    @staticmethod
    def _fixed_wait(model, tau, counts, n_traj, seed, *,
                    duration_factor=DURATION_FACTOR,
                    samples_per_interval=SAMPLES_PER_INTERVAL):
        """The fixed-wait curve spectroscopy builds for one frequency."""
        table = spectroscopy_table([0.5 / tau], counts,
                                   duration_factor=duration_factor,
                                   samples_per_interval=samples_per_interval)
        return play_decay_table(model, table, n_traj, [seed])[0]

    def test_fixed_wait_scan_times(self):
        counts = [1, 2, 4, 8]
        tau = 1e-4
        curve = self._fixed_wait(WHITE, tau, counts, 64, 3)
        np.testing.assert_allclose(curve.times, np.asarray(counts) * tau)
        np.testing.assert_array_equal(curve.n_pulses, counts)

    def test_a_seed_per_curve(self):
        # a curve without a seed, which would otherwise be dropped unplayed
        table = spectroscopy_table([5e3, 1e4], [2, 4])
        with pytest.raises(ValueError, match="2 curves in the table but 1 "):
            play_decay_table(WHITE, table, 8, [3])

    def test_fixed_wait_rejects_pulse_free_points(self):
        with pytest.raises(ValueError):
            spectroscopy_table([5e3], [0, 2])

    @pytest.mark.parametrize("n_pulses", [0, 1, 4])
    def test_decay_vs_time_points_are_coherence_mc(self, n_pulses):
        # point i: coherence_mc on its schedule at derive_child_seed(seed, i)
        times = np.geomspace(1e-4, 2e-3, 3)
        curve = decay_vs_time(COMPOSITE, n_pulses, times, 24, 7,
                              duration_factor=3.0, samples_per_interval=8)
        for i, t in enumerate(times):
            p = coherence_mc(COMPOSITE, mc_point(n_pulses, t, 3.0, 8), 24,
                             derive_child_seed(7, i))
            assert (curve.w[i], curve.std_err[i]) == (p.w, p.std_err)

    def test_fixed_wait_points_are_coherence_mc(self):
        tau, counts = 1e-4, [1, 2, 4, 8]
        curve = self._fixed_wait(COMPOSITE, tau, counts, 24, 9,
                                 duration_factor=3.0, samples_per_interval=8)
        for i, n in enumerate(counts):
            assert curve.times[i] == n * tau
            point = mc_point(n, n * tau, 3.0, 8)
            p = coherence_mc(COMPOSITE, point, 24, derive_child_seed(9, i))
            assert (curve.w[i], curve.std_err[i]) == (p.w, p.std_err)
