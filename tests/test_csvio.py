"""The column-wise CSV writer against a per-row reference formatter."""

import numpy as np
import pytest

from spinprobe._csvio import write_columns
from spinprobe.benchmarking import RB_HEADER, RbCurve, export_rb_curve
from spinprobe.sequences import SCHEDULE_HEADER, export_schedule, make_cpmg, make_ramsey
from spinprobe.spectra import SpectrumModel, export_trace, synthesize
from spinprobe.starktone import TONE_SCAN_HEADER, ToneScanResult, export_tone_scan

SPECIALS = [0.0, -0.0, 1.0, -2.5, 1e-300, 5e-324, 1.7976931348623157e308,
            0.1 + 0.2, np.nextafter(1.0, 2.0), np.nan, np.inf, -np.inf]


def _reference_rows(header, rows) -> str:
    """Reference: one row and one value at a time, ints through ``str``,
    everything else as the ``repr`` of a float."""
    def fmt(v):
        if isinstance(v, (int, np.integer)):
            return str(int(v))
        return repr(float(v))
    return "".join([header + "\n"] + [",".join(fmt(v) for v in row) + "\n"
                                      for row in rows])


class TestWriteColumns:
    def test_matches_row_formatter(self, tmp_path):
        floats = np.array(SPECIALS)
        ints = np.arange(-5, floats.size - 5)
        rng = np.random.default_rng(4)
        noise = rng.normal(size=floats.size) * 10.0 ** rng.integers(-30, 30, floats.size)
        p = tmp_path / "t.csv"
        write_columns(p, "i,x,y", (ints, floats, noise))
        assert p.read_text() == _reference_rows("i,x,y", zip(ints, floats, noise))

    def test_python_lists(self, tmp_path):
        p = tmp_path / "t.csv"
        cols = ([1, 2, 64], [0.5, float("nan"), -0.0], [np.float64(3.0), 1e-9, 7.0])
        write_columns(p, "n,a,b", cols)
        assert p.read_text() == _reference_rows("n,a,b", zip(*cols))

    def test_empty_row_set_writes_header_only(self, tmp_path):
        p = tmp_path / "t.csv"
        write_columns(p, "n_pulses,t2_s", ([], []))
        assert p.read_text() == _reference_rows("n_pulses,t2_s", []) == "n_pulses,t2_s\n"

    def test_round_trip_is_bit_exact(self, tmp_path):
        x = np.random.default_rng(8).normal(size=200) * 1e-7
        p = tmp_path / "t.csv"
        write_columns(p, "x", (x,))
        back = np.array([float(v) for v in p.read_text().split()[1:]])
        assert np.array_equal(back, x)

    def test_ragged_columns_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="equal length"):
            write_columns(tmp_path / "t.csv", "a,b", ([1.0, 2.0], [1.0]))
        with pytest.raises(ValueError, match="1-D"):
            write_columns(tmp_path / "t.csv", "a", (np.zeros((2, 2)),))


class TestExportersKeepTheirBytes:
    """Each exporter writes exactly the rows of the reference formatter."""

    def test_trace(self, tmp_path):
        tr = synthesize(SpectrumModel(white_floor=1e-12), 10e3, 0.05, 3, unit="V")
        p = tmp_path / "trace.csv"
        export_trace(tr, p)
        assert p.read_text() == _reference_rows("time_s,volts", zip(tr.times, tr.samples))

    @pytest.mark.parametrize("schedule", [make_cpmg(5, 3.3e-4), make_ramsey(1e-5)])
    def test_schedule(self, tmp_path, schedule):
        p = tmp_path / "schedule.csv"
        export_schedule(schedule, p)
        rows = [(i, t) for i, t in enumerate(schedule.pulse_times, start=1)]
        rows.append((0, schedule.total_time))
        assert p.read_text() == _reference_rows(SCHEDULE_HEADER, rows)

    def test_rb_curve(self, tmp_path):
        curve = RbCurve(depths=[1, 4, 16], mean_survival=[0.99, 0.9, np.nan],
                        std_err=[0.01, -0.0, 0.02], n_sequences=30)
        p = tmp_path / "rb.csv"
        export_rb_curve(curve, p)
        assert p.read_text() == _reference_rows(RB_HEADER, zip(
            curve.depths, curve.mean_survival, curve.std_err, [30] * 3))

    def test_tone_scan(self, tmp_path):
        rng = np.random.default_rng(1)
        res = ToneScanResult(f_hz=[4e3, 5e3, 2e4], amplitudes_vpp=[4e-5, 8e-5],
                             p_up=rng.random((2, 3)), std_err=rng.random((2, 3)),
                             shots=10)
        p = tmp_path / "tone.csv"
        export_tone_scan(res, p)
        rows = [(f, a, res.p_up[i, j], res.std_err[i, j])
                for i, a in enumerate(res.amplitudes_vpp)
                for j, f in enumerate(res.f_hz)]
        assert p.read_text() == _reference_rows(TONE_SCAN_HEADER, rows)
