"""The output codec against per-row CSV and ``json.dump`` references."""

import io
import json

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from spinprobe import _csvio
from spinprobe._csvio import SLICE_ROWS, Csv, write_files
from spinprobe.benchmarking import RbCurve
from spinprobe.harness.pipelines import (
    RB_HEADER, TONE_SCAN_HEADER, _rb_csv, _tone_scan_csv, _trace_csv)
from spinprobe.spectra import SpectrumModel, synthesize
from spinprobe.starktone import ToneScanResult

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


def write_csv(path, header, columns) -> None:
    write_files({path: Csv(header, tuple(columns))})


class TestWriteColumns:
    def test_matches_row_formatter(self, tmp_path):
        floats = np.array(SPECIALS)
        ints = np.arange(-5, floats.size - 5)
        rng = np.random.default_rng(4)
        noise = rng.normal(size=floats.size) * 10.0 ** rng.integers(-30, 30, floats.size)
        p = tmp_path / "t.csv"
        write_csv(p, "i,x,y", (ints, floats, noise))
        assert p.read_text() == _reference_rows("i,x,y", zip(ints, floats, noise))

    def test_python_lists(self, tmp_path):
        p = tmp_path / "t.csv"
        cols = ([1, 2, 64], [0.5, float("nan"), -0.0], [np.float64(3.0), 1e-9, 7.0])
        write_csv(p, "n,a,b", cols)
        assert p.read_text() == _reference_rows("n,a,b", zip(*cols))

    def test_empty_row_set_writes_header_only(self, tmp_path):
        p = tmp_path / "t.csv"
        write_csv(p, "n_pulses,t2_s", ([], []))
        assert p.read_text() == _reference_rows("n_pulses,t2_s", []) == "n_pulses,t2_s\n"

    def test_round_trip_is_bit_exact(self, tmp_path):
        x = np.random.default_rng(8).normal(size=200) * 1e-7
        p = tmp_path / "t.csv"
        write_csv(p, "x", (x,))
        back = np.array([float(v) for v in p.read_text().split()[1:]])
        assert np.array_equal(back, x)

    def test_ragged_columns_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="equal length"):
            write_files({tmp_path / "t.csv": Csv("a,b", ([1.0, 2.0], [1.0]))})
        with pytest.raises(ValueError, match="1-D"):
            write_files({tmp_path / "t.csv": Csv("a", (np.zeros((2, 2)),))})

    @pytest.mark.parametrize("bad", [Csv("a,b", ([1.0, 2.0], [1.0])),
                                     Csv("a", (["x", "y"],)), {"x": object()},
                                     {"x": {"values": np.arange(3.0)}}])
    def test_nothing_written_when_a_file_is_bad(self, tmp_path, bad):
        # every file is checked before the first is written
        with pytest.raises((TypeError, ValueError)):
            write_files({tmp_path / "good.csv": Csv("a", ([1.0],)),
                         tmp_path / "bad": bad})
        assert list(tmp_path.iterdir()) == []


class TestExportersKeepTheirBytes:
    """Each layout a run writes its results in gives exactly the rows of
    the reference formatter."""

    def test_trace(self, tmp_path):
        tr = synthesize(SpectrumModel(white_floor=1e-12), 10e3, 0.05, 3)
        p = tmp_path / "trace.csv"
        write_files({p: _trace_csv(tr)})
        assert p.read_text() == _reference_rows("time_s,volts", zip(tr.times, tr.samples))

    def test_rb_curve(self, tmp_path):
        curve = RbCurve(depths=[1, 4, 16], mean_survival=[0.99, 0.9, np.nan],
                        std_err=[0.01, -0.0, 0.02], n_sequences=30)
        p = tmp_path / "rb.csv"
        write_files({p: _rb_csv(curve)})
        assert p.read_text() == _reference_rows(RB_HEADER, zip(
            curve.depths, curve.mean_survival, curve.std_err, [30] * 3))

    def test_tone_scan(self, tmp_path):
        rng = np.random.default_rng(1)
        res = ToneScanResult(f_hz=[4e3, 5e3, 2e4], amplitudes_vpp=[4e-5, 8e-5],
                             p_up=rng.random((2, 3)), std_err=rng.random((2, 3)),
                             shots=10)
        p = tmp_path / "tone.csv"
        write_files({p: _tone_scan_csv(res)})
        rows = [(f, a, res.p_up[i, j], res.std_err[i, j])
                for i, a in enumerate(res.amplitudes_vpp)
                for j, f in enumerate(res.f_hz)]
        assert p.read_text() == _reference_rows(TONE_SCAN_HEADER, rows)


def write_json(path, obj) -> None:
    write_files({path: obj})


def _json_reference(obj) -> str:
    fh = io.StringIO()
    json.dump(obj, fh, indent=2, sort_keys=True)
    return fh.getvalue() + "\n"


JSON_SCALARS = (st.text() | st.integers() | st.booleans() | st.none()
                | st.floats(allow_nan=True, allow_infinity=True))
JSON_VALUES = st.recursive(
    JSON_SCALARS,
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(max_size=6), inner, max_size=4),
    max_leaves=25)


class TestJson:
    @settings(max_examples=300, deadline=None)
    @given(JSON_VALUES)
    @example({"é": [], "b": {}, "ünï": ["☃", "\x00\n\"", -0.0, 5e-324]})
    @example([float("nan"), float("inf"), float("-inf"), True, None, 0])
    def test_matches_json_dump(self, tmp_path_factory, obj):
        p = tmp_path_factory.mktemp("json") / "o.json"
        write_json(p, obj)
        assert p.read_text() == _json_reference(obj)

    def test_arrays_rejected(self, tmp_path):
        # a JSON file holds plain JSON values: an array is not a list
        for array in (np.array(SPECIALS), np.arange(-3, 4),
                      np.array([[1.0, np.nan], [-0.0, 2.5]]), np.array([]),
                      np.arange(3, dtype=np.uint8),
                      np.array([0.1, np.inf], dtype=np.float32)):
            for obj in ({"a": array}, [{"v": array}]):
                with pytest.raises(TypeError, match="ndarray"):
                    write_json(tmp_path / "o.json", obj)
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("bad", [{"a": np.int64(3)}, {(1, 2): 0}, [object()]])
    def test_unsupported_objects_rejected(self, tmp_path, bad):
        with pytest.raises(TypeError):
            write_json(tmp_path / "o.json", bad)


def _wide_columns(n: int):
    rng = np.random.default_rng(n)
    x = rng.normal(size=n) * 10.0 ** rng.integers(-30, 30, n)
    x[::7] = np.resize(SPECIALS, x[::7].size)
    return np.arange(n) - 3, x, x / 3.0


class TestRowBlocks:
    """Written files against the per-row and ``json.dump`` references,
    from no rows to many, written once or over longer files already
    there, and on both sides of the slices of ``SLICE_ROWS`` rows a CSV
    is written in."""

    @pytest.mark.parametrize("writes", [1, 2])
    @pytest.mark.parametrize("n", [0, 1, 16383, 16384, 16385])
    def test_csv_and_json_match_references(self, tmp_path, writes, n):
        def files(n):
            i, x, y = _wide_columns(n)
            plot = {"title": "t", "x": {"values": x.tolist()}, "i": i.tolist(),
                    "y": [x.tolist(), y.tolist()]}
            return {tmp_path / "a.csv": Csv("i,x,y", (i, x, y)),
                    tmp_path / "b.csv": Csv("x", (x,)),
                    tmp_path / "p.json": plot}

        for extra in range(writes - 1, -1, -1):
            write_files(files(n + extra))
        i, x, y = _wide_columns(n)
        plot = files(n)[tmp_path / "p.json"]
        assert (tmp_path / "a.csv").read_text() == _reference_rows("i,x,y", zip(i, x, y))
        assert (tmp_path / "b.csv").read_text() == _reference_rows("x", zip(x))
        assert (tmp_path / "p.json").read_text() == _json_reference(plot)

    @pytest.mark.parametrize("slice_rows, n", [
        (7, 6), (7, 7), (7, 8), (7, 14), (7, 22),
        (SLICE_ROWS, SLICE_ROWS - 1), (SLICE_ROWS, SLICE_ROWS + 1)])
    def test_csv_written_across_slices(self, tmp_path, monkeypatch,
                                       slice_rows, n):
        monkeypatch.setattr(_csvio, "SLICE_ROWS", slice_rows)
        i, x, y = _wide_columns(n)
        write_files({tmp_path / "a.csv": Csv("i,x,y", (i, x, y)),
                     tmp_path / "b.csv": Csv("y", (y.tolist(),))})
        assert (tmp_path / "a.csv").read_text() == _reference_rows("i,x,y", zip(i, x, y))
        assert (tmp_path / "b.csv").read_text() == _reference_rows("y", zip(y))


ROUND_TRIP_FLOATS = st.floats(allow_nan=True, allow_infinity=True,
                              allow_subnormal=True)
ROUND_TRIP_COLUMNS = st.integers(1, 20).flatmap(lambda n: st.lists(
    st.one_of(
        st.lists(ROUND_TRIP_FLOATS, min_size=n, max_size=n).map(np.array),
        st.lists(st.integers(-2**63, 2**63 - 1), min_size=n, max_size=n)
        .map(lambda v: np.array(v, dtype=np.int64))),
    min_size=1, max_size=4))


def _read_csv(path):
    """Header and columns of a written CSV: ``int64`` for a column of
    integer literals (``repr`` of a float never is one), else ``float``."""
    header, *rows = path.read_text().splitlines()
    columns = [np.array([int(c) for c in cells], dtype=np.int64)
               if all(c.lstrip("-").isdigit() for c in cells)
               else np.array([float(c) for c in cells])
               for cells in zip(*(row.split(",") for row in rows))]
    return header, columns


class TestReadColumns:
    """Written columns read back exactly through :func:`_read_csv`."""

    @settings(max_examples=200, deadline=None)
    @given(ROUND_TRIP_COLUMNS)
    @example([np.array([0.0, -0.0, 5e-324, -2.2250738585072014e-308, np.nan,
                        np.inf, -np.inf]), np.arange(7)])
    @example([np.array([1.5]), np.array([-7])])
    def test_round_trip_is_repr_exact(self, tmp_path_factory, columns):
        p = tmp_path_factory.mktemp("rt") / "t.csv"
        header = ",".join(f"c{k}" for k in range(len(columns)))
        write_csv(p, header, columns)
        got_header, back = _read_csv(p)
        assert got_header == header and len(back) == len(columns)
        for a, b in zip(columns, back):
            assert b.dtype == a.dtype
            assert list(map(repr, b.tolist())) == list(map(repr, a.tolist()))
