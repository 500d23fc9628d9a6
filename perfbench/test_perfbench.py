"""Tests for the benchmark's own helpers.

Run from the repository root with ``python3 -m pytest perfbench``.
"""

import hashlib
import json
import math
import statistics
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import checks  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402

# ---------------------------------------------------------------------------
# Reference seconds


def test_active_seconds_skip_pauses_and_weigh_busy_cpus():
    Mark = run.Mark
    marks = [Mark(-1.0, 0.0, (1.0, 3.0), (0, 0), (0, 0)),
             # CPU 0 busy 30 ticks, CPU 1 busy 10 ticks before this pause
             Mark(2.0, 2.5, (1.0, 1.0), (30, 10), (30, 10)),
             # no busy ticks before this one: CPUs weigh equally
             Mark(3.5, 4.0, (2.0, 2.0), (30, 10), (30, 10))]
    # [0, 2]: CPU 0 at mean speed 1, CPU 1 at 2, weighed 3:1
    # [2.5, 3.5]: both CPUs at mean speed 1.5
    wall, ref = run.active_seconds(0.0, 4.0, marks)
    assert wall == pytest.approx(3.0)
    assert ref == pytest.approx(2 * 1.25 + 1 * 1.5)
    # clipped to [1, 3]: [1, 2] and [2.5, 3]
    assert run.active_seconds(1.0, 3.0, marks) == pytest.approx((1.5, 2.0))


def test_busy_ticks_and_speeds_have_one_entry_per_cpu():
    cpus = run.child_cpus(1)
    assert len(cpus) == 1
    assert len(run.busy_ticks(cpus)) == 1
    assert all(s > 0 for s in run.cpu_speeds(cpus))


# ---------------------------------------------------------------------------
# Span self times


def test_self_time_subtracts_direct_children_only():
    recorded = [["root", 0.0, 10.0, -1],
                ["a", 1.0, 4.0, 0],
                ["b", 2.0, 3.0, 1],   # grandchild of root
                ["c", 5.0, 7.0, 0]]
    assert spans.self_times(recorded) == pytest.approx([5.0, 2.0, 1.0, 2.0])


def test_self_time_sums_by_name():
    recorded = [["x", 0.0, 4.0, -1], ["y", 1.0, 2.0, 0],
                ["x", 5.0, 6.0, -1], ["y", 5.5, 5.75, 2]]
    assert spans.self_time_by_name(recorded) == pytest.approx(
        {"x": 3.0 + 0.75, "y": 1.25})


def test_covered_length_merges_overlaps_and_clips():
    assert spans.covered_length([(0, 2), (1, 3), (5, 6)], 0, 10) == 4
    assert spans.covered_length([(-1, 2), (9, 12)], 0, 10) == 3
    assert spans.covered_length([], 0, 10) == 0


def test_tracer_nests_and_suppresses_reentry_and_leaf_children():
    tracer = spans.Tracer()
    inner = tracer.wrap("layer.inner", lambda: 1)
    same = tracer.wrap("layer.outer", lambda: inner())
    outer = tracer.wrap("layer.outer", lambda: same() + inner())
    leaf = tracer.wrap("spectra.synth", lambda: inner())
    assert outer() == 2
    leaf()
    names = [(s[0], s[3]) for s in tracer.spans]
    # the re-entrant layer.outer call adds no span; both inner calls nest
    # under the outer span; nothing opens inside the leaf
    assert names == [("layer.outer", -1), ("layer.inner", 0),
                     ("layer.inner", 0), ("spectra.synth", -1)]
    assert all(s[1] <= s[2] for s in tracer.spans)


def test_tracer_counts_failures_and_reraises():
    tracer = spans.Tracer()

    def boom():
        raise ValueError("no fit")

    fit = tracer.wrap("analysis.fit", boom, spans._fit)
    with pytest.raises(ValueError):
        fit()
    assert tracer.counts == {"analysis.fit.calls": 1,
                             "analysis.fit.failures": 1}
    assert tracer.spans[0][2] is not None


# ---------------------------------------------------------------------------
# Fast FFT lengths


@pytest.mark.parametrize("n,slow", [(129, True), (2049, True), (8193, True),
                                    (32769, True), (64, False),
                                    (2048, False), (5_400_000, False)])
def test_slow_length_predicate(n, slow):
    assert spans.is_slow_len(n) is slow


# ---------------------------------------------------------------------------
# Operation accounting and output checks

CPMG_PROTOCOL = {"pulse_counts": [1, 2, 4, 8, 16, 32, 64]}


def _fake_run(tmp_path: Path, fit_failures) -> dict:
    out = tmp_path / "out"
    out.mkdir()
    (out / "decay_curves.csv").write_text("n_pulses,time_s\n1,0.5\n")
    (out / "t2_vs_n.csv").write_text("n_pulses,t2_s\n")
    (out / "scaling.json").write_text("null\n")
    inventory = {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
                 for p in out.iterdir()}
    manifest = {"fit_failures": fit_failures, "inventory": inventory}
    (out / "manifest.json").write_text(json.dumps(manifest))
    return manifest


def test_fail_share_counts_manifest_fit_failures(tmp_path):
    failures = [{"stage": "fit_n64", "message": "stretched fit failed",
                 "diagnostics": {}}]
    manifest = _fake_run(tmp_path, failures)
    assert checks.output_problems("cpmg_t2_vs_n", tmp_path / "out",
                                  manifest, 3) == []
    # one run, seven per-N fits and the scaling fit; one fit failed
    assert checks.count_ops("cpmg_t2_vs_n", CPMG_PROTOCOL, manifest,
                            True) == (9, 1)


def test_failed_run_fails_all_its_operations():
    assert checks.count_ops("cpmg_t2_vs_n", CPMG_PROTOCOL, None,
                            False) == (9, 9)
    assert checks.count_ops("ramsey", {}, {"fit_failures": []},
                            True) == (2, 0)
    assert checks.count_ops("voltage_psd", {"spectroscopy": {
        "f_grid_hz": {"start": 1.0, "stop": 2.0, "num": 7}}},
        {"fit_failures": []}, True) == (8, 0)


def test_output_problems_catch_bad_exit_and_tampering(tmp_path):
    manifest = _fake_run(tmp_path, [{"stage": "fit_n1", "message": "x"}])
    out = tmp_path / "out"
    assert checks.output_problems("cpmg_t2_vs_n", out, manifest, 1) == [
        "exit code 1"]
    assert "disagrees" in checks.output_problems(
        "cpmg_t2_vs_n", out, manifest, 0)[0]
    (out / "scaling.json").write_text("{}\n")
    assert checks.output_problems("cpmg_t2_vs_n", out, manifest, 3) == [
        "scaling.json: sha256 differs from the inventory"]


# ---------------------------------------------------------------------------
# Accuracy figures


def test_log_error_and_z_rms_known_answers():
    errs = checks.log_errors([10.0, 1.0, 2.0], [1.0, 10.0, 2.0])
    assert errs == pytest.approx([1.0, 1.0, 0.0])
    assert statistics.median(errs) == pytest.approx(1.0)
    z = checks.z_scores([0.51, 0.48, 0.3], [0.5, 0.5, 0.3], [0.01, 0.01, 0.0])
    assert z == pytest.approx([1.0, -2.0])  # zero-sigma point skipped
    assert checks.rms(z) == pytest.approx(math.sqrt(2.5))


def test_synthesis_band_follows_the_trace_grid():
    # CPMG-4 over 1 ms: 64 kS/s, 2 ms record of 129 samples
    assert checks.synthesis_band(4, 1e-3, 2.0, 16) == pytest.approx(
        (64000 / 129 / 2, 32000))
    # free induction: 33 samples are padded to 64 by raising the rate
    rate = 16000 * 64 / 33
    assert checks.synthesis_band(0, 1e-3, 2.0, 16) == pytest.approx(
        (rate / 64 / 2, rate / 2))


SPECTRUM = {"powerlaws": [{"amplitude": 3.0e7, "exponent": 1.0}],
            "white_floor": 350.0,
            "lines": [{"center_hz": 3600.0, "power": 1.5e6, "width_hz": 150.0}]}


def test_decay_z_is_two_when_every_point_sits_two_sigma_high(tmp_path):
    from spinprobe import qubitsim
    from spinprobe.sequences import make_cpmg
    from spinprobe.spectra import SpectrumModel
    cfg = {"kind": "hahn", "spectrum": SPECTRUM,
           "protocol": {"duration_factor": 2.0, "samples_per_interval": 16}}
    model = SpectrumModel.from_dict(SPECTRUM)
    rows = ["time_s,coherence_w,std_err,p_up"]
    for t in (1e-4, 3e-4, 1e-3):
        lo, hi = checks.synthesis_band(1, t, 2.0, 16)
        w = math.exp(-qubitsim.chi_ff(model, make_cpmg(1, t), f_min=lo,
                                      f_max=hi))
        rows.append(f"{t!r},{w + 0.02!r},0.01,0.5")
    (tmp_path / "decay.csv").write_text("\n".join(rows) + "\n")
    z = checks.decay_z(cfg, tmp_path)
    assert z == pytest.approx([2.0] * 3)
    assert checks.rms(z) == pytest.approx(2.0)


def test_psd_log_error_uses_the_stark_converted_model(tmp_path):
    coeff = -22.88e6
    cfg = {"kind": "voltage_psd",
           "spectrum": {"white_floor": 8.43e-18},
           "stark": {"coefficients_hz_per_v": {"G2": coeff}},
           "protocol": {"stark_gate": "G2", "qubit_floor_rad2_s": 350.0}}
    s_model = (2 * math.pi * coeff) ** 2 * 8.43e-18 + 350.0
    (tmp_path / "psd_reconstructed.csv").write_text(
        "f_hz,S_rad2_per_s,ci_low,ci_high\n"
        f"2000.0,{s_model!r},0,1e9\n"
        f"4000.0,{10 * s_model!r},0,1e9\n"
        f"6000.0,{s_model / 10!r},0,1e9\n")
    errs = checks.psd_log_errors(cfg, tmp_path)
    assert errs == pytest.approx([0.0, 1.0, 1.0])
    assert statistics.median(errs) == pytest.approx(1.0)
