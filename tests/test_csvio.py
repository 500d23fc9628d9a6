"""The output codec against per-row CSV and ``json.dump`` references, and
the reader that every importer shares."""

import io
import json

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from spinprobe import _csvio
from spinprobe._csvio import BLOCK_ROWS, Csv, read_columns, write_columns, write_files
from spinprobe._parallel import ENV_VAR
from spinprobe.benchmarking import RB_HEADER, RbCurve, export_rb_curve, import_rb_curve
from spinprobe.sequences import (SCHEDULE_HEADER, export_schedule, import_schedule,
                                 make_cpmg, make_ramsey)
from spinprobe.spectra import (PSD_HEADER, SpectrumModel, export_trace, import_psd,
                               import_trace, synthesize)
from spinprobe.starktone import (TONE_SCAN_HEADER, ToneScanResult, export_tone_scan,
                                 import_tone_scan)

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

    def test_arrays_write_as_their_lists(self, tmp_path):
        obj = {"f": np.array(SPECIALS), "i": np.arange(-3, 4),
               "z": np.array([[1.0, np.nan], [-0.0, 2.5]]),
               "e": np.array([]), "u8": np.arange(3, dtype=np.uint8),
               "f32": np.array([0.1, np.inf], dtype=np.float32),
               "nested": [{"v": np.array([1e-300, -np.inf])}]}
        p = tmp_path / "o.json"
        write_json(p, obj)
        plain = json.loads(json.dumps(obj, default=lambda a: a.tolist()))
        assert p.read_text() == _json_reference(plain)

    @pytest.mark.parametrize("bad", [{"a": np.int64(3)}, {(1, 2): 0}, [object()],
                                     {1: "keys must be str"}])
    def test_unsupported_objects_rejected(self, tmp_path, bad):
        with pytest.raises(TypeError):
            write_json(tmp_path / "o.json", bad)


def _wide_columns(n: int):
    rng = np.random.default_rng(n)
    x = rng.normal(size=n) * 10.0 ** rng.integers(-30, 30, n)
    x[::7] = np.resize(SPECIALS, x[::7].size)
    return np.arange(n) - 3, x, x / 3.0


class TestRowBlocks:
    """Blocked output against the per-row reference, across block edges."""

    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("n", [0, 1, BLOCK_ROWS - 1, BLOCK_ROWS, BLOCK_ROWS + 1])
    def test_csv_and_json_match_references(self, tmp_path, monkeypatch, workers, n):
        monkeypatch.setenv(ENV_VAR, str(workers))
        i, x, y = _wide_columns(n)
        plot = {"title": "t", "x": {"values": x}, "i": i, "y": [x, y]}
        write_files({tmp_path / "a.csv": Csv("i,x,y", (i, x, y)),
                     tmp_path / "b.csv": Csv("x", (x,)),
                     tmp_path / "p.json": plot})
        assert (tmp_path / "a.csv").read_text() == _reference_rows("i,x,y", zip(i, x, y))
        assert (tmp_path / "b.csv").read_text() == _reference_rows("x", zip(x))
        plain = {"title": "t", "x": {"values": x.tolist()}, "i": i.tolist(),
                 "y": [x.tolist(), y.tolist()]}
        assert (tmp_path / "p.json").read_text() == _json_reference(plain)

    def test_bytes_do_not_depend_on_the_block_size(self, tmp_path, monkeypatch):
        i, x, y = _wide_columns(1000)
        files = {"a.csv": Csv("i,x,y", (i, x, y)), "p.json": {"v": [x, y[:10]]}}
        texts = []
        for block in (1, 7, 999, 1000, 4096):
            monkeypatch.setattr(_csvio, "BLOCK_ROWS", block)
            d = tmp_path / str(block)
            d.mkdir()
            write_files({d / name: content for name, content in files.items()})
            texts.append([(d / name).read_text() for name in files])
        assert all(t == texts[0] for t in texts)

    def test_shared_columns_formatted_once(self, tmp_path, monkeypatch):
        formatted = []
        real = _csvio._format
        monkeypatch.setattr(_csvio, "_format",
                            lambda c: formatted.append(c.size) or real(c))
        i, x, y = _wide_columns(50)
        write_files({tmp_path / "a.csv": Csv("i,x", (i, x)),
                     tmp_path / "b.csv": Csv("x,y", (x, y)),
                     tmp_path / "p.json": {"x": x.ravel(), "y": y[:]}})
        assert sum(formatted) == 3 * 50


ROUND_TRIP_FLOATS = st.floats(allow_nan=True, allow_infinity=True,
                              allow_subnormal=True)
ROUND_TRIP_COLUMNS = st.integers(1, 20).flatmap(lambda n: st.lists(
    st.one_of(
        st.lists(ROUND_TRIP_FLOATS, min_size=n, max_size=n).map(np.array),
        st.lists(st.integers(-2**63, 2**63 - 1), min_size=n, max_size=n)
        .map(lambda v: np.array(v, dtype=np.int64))),
    min_size=1, max_size=4))


class TestReadColumns:
    @settings(max_examples=200, deadline=None)
    @given(ROUND_TRIP_COLUMNS)
    @example([np.array([0.0, -0.0, 5e-324, -2.2250738585072014e-308, np.nan,
                        np.inf, -np.inf]), np.arange(7)])
    @example([np.array([1.5]), np.array([-7])])
    def test_round_trip_is_repr_exact(self, tmp_path_factory, columns):
        p = tmp_path_factory.mktemp("rt") / "t.csv"
        header = ",".join(f"c{k}" for k in range(len(columns)))
        write_columns(p, header, columns)
        got_header, back = read_columns(p, header)
        assert got_header == header and len(back) == len(columns)
        for a, b in zip(columns, back):
            assert b.dtype == a.dtype
            assert list(map(repr, b.tolist())) == list(map(repr, a.tolist()))

    def test_returns_the_matching_header(self, tmp_path):
        p = tmp_path / "t.csv"
        write_columns(p, "b", ([1.0],))
        assert read_columns(p, "a", "b")[0] == "b"

    def test_blank_lines_skipped(self, tmp_path):
        p = tmp_path / "t.csv"
        p.write_text("n,x\n\n1,2.5\n \n3,nan\n")
        _, (n, x) = read_columns(p, "n,x")
        assert n.tolist() == [1, 3] and repr(x.tolist()) == "[2.5, nan]"

    @pytest.mark.parametrize("text, match", [
        ("a,b\n1,2\n", "unrecognized header"),
        ("n,x\n", "no data rows"),
        ("n,x\n\n", "no data rows"),
        ("n,x\n1,2\n3\n", ":3: expected 2 fields"),
        ("n,x\n1,abc\n", "abc"),
    ])
    def test_bad_files_name_the_file(self, tmp_path, text, match):
        p = tmp_path / "bad.csv"
        p.write_text(text)
        with pytest.raises(ValueError, match=match) as info:
            read_columns(p, "n,x")
        assert str(p) in str(info.value)


class TestImportersUseTheReader:
    """Every importer rejects a header-only file with a ValueError naming it."""

    @pytest.mark.parametrize("importer, header", [
        (import_psd, PSD_HEADER),
        (import_trace, "time_s,volts"),
        (import_rb_curve, RB_HEADER),
        (import_tone_scan, TONE_SCAN_HEADER),
        (import_schedule, SCHEDULE_HEADER),
    ])
    def test_header_only_file(self, tmp_path, importer, header):
        p = tmp_path / "empty.csv"
        p.write_text(header + "\n")
        with pytest.raises(ValueError, match="no data rows") as info:
            importer(p)
        assert str(p) in str(info.value)

    def test_schedule_round_trip_keeps_pulse_order(self, tmp_path):
        p = tmp_path / "s.csv"
        p.write_text(SCHEDULE_HEADER + "\n2,3e-05\n0,1e-4\n1,1e-05\n")
        back = import_schedule(p)
        assert back.total_time == 1e-4 and back.pulse_times == (1e-05, 3e-05)

    def test_rb_curve_reads_exact_values(self, tmp_path):
        curve = RbCurve(depths=[1, 4], mean_survival=[0.1 + 0.2, 5e-324],
                        std_err=[-0.0, 1e-300], n_sequences=7)
        p = tmp_path / "rb.csv"
        export_rb_curve(curve, p)
        back = import_rb_curve(p)
        assert back.depths.tolist() == [1, 4] and back.n_sequences == 7
        assert back.mean_survival.tolist() == curve.mean_survival.tolist()
        assert repr(back.std_err.tolist()) == repr(curve.std_err.tolist())
