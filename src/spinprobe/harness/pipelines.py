"""Per-kind experiment pipelines: compute, fit, persist.

Every pipeline takes the normalized config and an output directory and
returns a report dict: ``files`` written, ``stages`` (name, derived seed,
wall-clock), ``fit_failures``, and a ``summary`` for the manifest.  All
randomness flows from seeds derived off the master seed with fixed stage
indices, so outputs never depend on timing or worker count.
"""

from __future__ import annotations

import math
import time
from contextlib import contextmanager
from pathlib import Path

import numpy as np
from scipy import optimize as _optimize

from .. import analysis, benchmarking, qubitsim, spectra, starktone
from .._csvio import Csv, write_files
from .._rng import derive_child_seed
from ..qubitsim import QubitParams, ReadoutModel
from ..sequences import make_cpmg
from ..spectra import SpectrumModel
from .config import gate_index, grid_values

DECAY_HEADER = "time_s,coherence_w,std_err,p_up"
CHEVRON_HEADER = "detuning_hz,duration_s,p_up"
T2N_HEADER = "n_pulses,t2_s,t2_err_s,exponent,exponent_err"
STARK_GRID_HEADER = "v_g1,v_g2,f_hz"
VOLT_PSD_HEADER = "f_hz,S_v2_per_hz,ci_low,ci_high"


class _Report:
    """Accumulates stage timings, files, and fit failures for one run."""

    def __init__(self, master_seed: int):
        self.master_seed = master_seed
        self.stages: list[dict] = []
        self.files: list[str] = []
        self.fit_failures: list[dict] = []
        self.summary: dict = {}

    @contextmanager
    def stage(self, name: str):
        seed = derive_child_seed(self.master_seed, len(self.stages))
        t0 = time.perf_counter()
        info = {"name": name, "seed": seed}
        try:
            yield seed
        finally:
            info["seconds"] = round(time.perf_counter() - t0, 3)
            self.stages.append(info)

    def try_fit(self, stage_name: str, fn):
        """Run a fit, recording (not raising) a FitError."""
        try:
            return fn()
        except analysis.FitError as exc:
            self.fit_failures.append({"stage": stage_name, "message": str(exc),
                                      "diagnostics": exc.diagnostics})
            return None

    def as_dict(self) -> dict:
        return {"stages": self.stages, "files": self.files,
                "fit_failures": self.fit_failures, "summary": self.summary}


def _write(report: _Report, out: Path, files: dict) -> None:
    """Write a stage's ``{name: Csv or JSON object}`` in one codec call, so
    a column that several of its files share is formatted once."""
    write_files({out / name: content for name, content in files.items()})
    report.files.extend(files)


def _floats(values) -> np.ndarray:
    return np.asarray(values, dtype=float).ravel()


def _axis(label: str, unit: str, values) -> dict:
    return {"label": label, "unit": unit, "values": _floats(values)}


def _plot(title: str, x: dict, y: dict, y_err=None,
          extra: dict | None = None) -> dict:
    obj = {"title": title, "x": x, "y": y}
    if y_err is not None:
        obj["y_err"] = _floats(y_err)
    if extra:
        obj.update(extra)
    return obj


def _qubit(cfg) -> QubitParams:
    q = cfg["qubit"]
    return QubitParams(g_factor=q["g_factor"], field_t=q["field_t"],
                       rabi_hz=q["rabi_hz"])


def _readout(cfg) -> ReadoutModel:
    r = cfg["readout"]
    return ReadoutModel(visibility=r["visibility"], floor=r["floor"])


def _model(cfg) -> SpectrumModel:
    return SpectrumModel.from_dict(cfg["spectrum"])


def _stark(cfg) -> starktone.StarkMap:
    s = cfg["stark"]
    return starktone.StarkMap(f0_ref_hz=s["f0_ref_hz"],
                              coefficients_hz_per_v=dict(s["coefficients_hz_per_v"]),
                              reference_voltages=dict(s.get("reference_voltages", {})))


# ---------------------------------------------------------------------------
# Pipelines


def run_rabi_chevron(cfg, out: Path) -> _Report:
    report = _Report(cfg["seed"])
    proto = cfg["protocol"]
    qubit = _qubit(cfg)
    with report.stage("chevron"):
        det = grid_values(proto["detuning_hz"])
        dur = grid_values(proto["duration_s"])
        p = qubitsim.rabi_chevron(qubit, det, dur)
        _write(report, out, {
            "chevron.csv": Csv(CHEVRON_HEADER, (np.repeat(det, dur.size),
                                                np.tile(dur, det.size), p.ravel())),
            "plot_chevron.json": {
                "title": "Rabi chevron",
                "x": _axis("pulse duration", "s", dur),
                "y": _axis("drive detuning", "Hz", det),
                "z": {"label": "P_up", "unit": "1", "values_2d": p},
            },
        })
    imax = np.unravel_index(int(np.argmax(p)), p.shape)
    report.summary = {
        "resonance_hz": qubit.resonance_hz,
        "pi_time_s": qubit.pi_time_s,
        "max_p_up": float(p[imax]),
        "max_at_detuning_hz": float(det[imax[0]]),
        "max_at_duration_s": float(dur[imax[1]]),
    }
    return report


def _run_decay_kind(cfg, out: Path, n_pulses: int) -> _Report:
    report = _Report(cfg["seed"])
    proto = cfg["protocol"]
    model = _model(cfg)
    readout = _readout(cfg)
    with report.stage("decay_scan") as seed:
        times = grid_values(proto["times_s"])
        curve = qubitsim.decay_vs_time(
            model, n_pulses, times, proto["n_traj"], seed,
            duration_factor=proto["duration_factor"],
            samples_per_interval=proto["samples_per_interval"])
        p_up = readout.apply(0.5 * (1.0 + curve.w))
        _write(report, out, {
            "decay.csv": Csv(DECAY_HEADER,
                             (curve.times, curve.w, curve.std_err, p_up)),
            "plot_decay.json": _plot(
                f"{curve.label} decay", _axis("total evolution time", "s", times),
                _axis("coherence W", "1", curve.w), y_err=curve.std_err),
        })
    with report.stage("fit"):
        if proto["fit"] == "stretched":
            fit = report.try_fit("fit", lambda: analysis.fit_stretched(
                curve.times, curve.w, curve.std_err))
            fit_dict = None if fit is None else {
                "kind": "stretched", "t2_s": fit.t2, "t2_err_s": fit.t2_err,
                "exponent": fit.exponent, "exponent_err": fit.exponent_err,
                "chi2_reduced": fit.chi2_reduced}
        else:
            fit = report.try_fit("fit", lambda: analysis.fit_exponential(
                curve.times, curve.w, curve.std_err))
            fit_dict = None if fit is None else {
                "kind": "exponential", "t2_s": fit.t2, "t2_err_s": fit.t2_err,
                "chi2_reduced": fit.chi2_reduced}
        _write(report, out, {"fit.json": fit_dict})
    report.summary = {"n_pulses": n_pulses, "fit": fit_dict}
    return report


def run_ramsey(cfg, out: Path) -> _Report:
    return _run_decay_kind(cfg, out, n_pulses=0)


def run_hahn(cfg, out: Path) -> _Report:
    return _run_decay_kind(cfg, out, n_pulses=1)


def _t2_bracket(model: SpectrumModel, n_pulses: int) -> float:
    """Total time where the analytic decay exponent crosses 1."""
    def excess(log_t):
        return qubitsim.chi_ff(model, make_cpmg(n_pulses, math.exp(log_t))) - 1.0
    lo, hi = math.log(1e-7), math.log(10.0)
    return math.exp(_optimize.brentq(excess, lo, hi, xtol=1e-3))


def run_cpmg_t2_vs_n(cfg, out: Path) -> _Report:
    report = _Report(cfg["seed"])
    proto = cfg["protocol"]
    model = _model(cfg)
    counts = [int(n) for n in proto["pulse_counts"]]
    curves = []
    with report.stage("t2_scans") as seed:
        for i, n in enumerate(counts):
            t2_est = _t2_bracket(model, n)
            times = np.geomspace(proto["t_factor_min"] * t2_est,
                                 proto["t_factor_max"] * t2_est,
                                 proto["n_times"])
            curve = qubitsim.decay_vs_time(
                model, n, times, proto["n_traj"], derive_child_seed(seed, i),
                duration_factor=proto["duration_factor"],
                samples_per_interval=proto["samples_per_interval"])
            curves.append(curve)
        _write(report, out, {"decay_curves.csv": Csv(
            "n_pulses," + DECAY_HEADER.replace(",p_up", ""),
            (np.repeat(counts, [c.times.size for c in curves]),
             np.concatenate([c.times for c in curves]),
             np.concatenate([c.w for c in curves]),
             np.concatenate([c.std_err for c in curves])))})
    with report.stage("fits"):
        used, t2s, t2errs, exps, exp_errs = [], [], [], [], []
        for n, curve in zip(counts, curves):
            if proto["fit"] == "stretched":
                fit = report.try_fit(f"fit_n{n}", lambda c=curve:
                                     analysis.fit_stretched(c.times, c.w, c.std_err))
                if fit is not None:
                    exps.append(fit.exponent)
                    exp_errs.append(fit.exponent_err)
            else:
                fit = report.try_fit(f"fit_n{n}", lambda c=curve:
                                     analysis.fit_exponential(c.times, c.w, c.std_err))
                if fit is not None:
                    exps.append(math.nan)
                    exp_errs.append(math.nan)
            if fit is not None:
                used.append(n)
                t2s.append(fit.t2)
                t2errs.append(fit.t2_err)
        _write(report, out, {"t2_vs_n.csv": Csv(
            T2N_HEADER, (used, t2s, t2errs, exps, exp_errs))})
    with report.stage("scaling_fit"):
        scaling = None
        if len(t2s) >= 2:
            scaling_fit = report.try_fit("scaling_fit", lambda:
                                         analysis.t2_scaling_exponent(used, t2s, t2errs))
            if scaling_fit is not None:
                scaling = {"beta": scaling_fit.slope,
                           "beta_err": scaling_fit.slope_err,
                           "prefactor_s": scaling_fit.prefactor}
        files = {"scaling.json": scaling}
        if used:
            files["plot_t2_vs_n.json"] = _plot(
                "T2 vs pulse number", _axis("pulse count N", "1", used),
                _axis("T2", "s", t2s), y_err=t2errs, extra={"scaling": scaling})
        _write(report, out, files)
    report.summary = {"scaling": scaling, "n_fitted": len(t2s)}
    return report


def run_noise_spectroscopy(cfg, out: Path) -> _Report:
    report = _Report(cfg["seed"])
    proto = cfg["protocol"]
    model = _model(cfg)
    with report.stage("spectroscopy") as seed:
        f_grid = grid_values(proto["f_grid_hz"])
        est = analysis.spectroscopy_scan(
            model, f_grid, [int(n) for n in proto["pulse_counts"]],
            proto["n_traj"], seed, t2_hahn=proto["t2_hahn_s"],
            duration_factor=proto["duration_factor"],
            samples_per_interval=proto["samples_per_interval"])
        spectra.export_psd(est, out / "psd_reconstructed.csv")
        report.files.append("psd_reconstructed.csv")
        _write(report, out, {
            "points.json": list(est.points_detail),
            "plot_psd.json": _plot(
                "reconstructed noise PSD", _axis("frequency", "Hz", est.f),
                _axis("S", "rad^2/s", est.s), y_err=(est.ci_high - est.ci_low) / 2,
                extra={"warnings": list(est.warnings)}),
        })
    report.summary = {"n_points": est.n_points, "warnings": list(est.warnings),
                      "f_range_hz": [float(est.f[0]), float(est.f[-1])]}
    return report


def _rb_common(cfg, out: Path, interleaved_gate: int | None) -> _Report:
    report = _Report(cfg["seed"])
    proto = cfg["protocol"]
    readout = _readout(cfg)
    d = benchmarking.depolarizing_from_clifford_fidelity(proto["clifford_fidelity"])
    depths = [int(m) for m in proto["depths"]]
    summaries = {}
    with report.stage("reference") as seed:
        ref = benchmarking.rb_reference(depths, proto["n_sequences"], d, seed,
                                        readout=readout, shots=proto["shots"])
        benchmarking.export_rb_curve(ref, out / "rb_reference.csv")
        report.files.append("rb_reference.csv")
    with report.stage("reference_fit"):
        fit = report.try_fit("reference_fit", lambda: benchmarking.fit_rb(ref))
        if fit is not None:
            summaries["reference"] = {
                "p": fit.p, "p_err": fit.p_err,
                "clifford_fidelity": fit.clifford_fidelity,
                "clifford_fidelity_err": fit.clifford_fidelity_err,
                "primitive_fidelity": fit.primitive_fidelity,
                "true_clifford_fidelity": proto["clifford_fidelity"],
                "depolarizing_per_primitive": d,
            }
        _write(report, out, {"plot_rb.json": _plot(
            "randomized benchmarking",
            _axis("sequence length M", "Cliffords", ref.depths),
            _axis("mean survival", "1", ref.mean_survival), y_err=ref.std_err)})
    if interleaved_gate is not None:
        with report.stage("interleaved") as seed:
            inter = benchmarking.rb_interleaved(
                interleaved_gate, depths, proto["n_sequences"], d, seed,
                readout=readout, shots=proto["shots"])
            benchmarking.export_rb_curve(inter, out / "rb_interleaved.csv")
            report.files.append("rb_interleaved.csv")
        with report.stage("interleaved_fit"):
            ifit = report.try_fit("interleaved_fit",
                                  lambda: benchmarking.fit_rb(inter))
            if ifit is not None and fit is not None:
                summaries["interleaved"] = {
                    "gate_index": interleaved_gate,
                    "gate": "+".join(
                        benchmarking.CLIFFORD_DECOMPOSITIONS[interleaved_gate]),
                    "p": ifit.p, "p_err": ifit.p_err,
                    "gate_fidelity": benchmarking.interleaved_gate_fidelity(
                        fit.p, ifit.p),
                }
    _write(report, out, {"rb_fit.json": summaries})
    report.summary = summaries
    return report


def run_rbm(cfg, out: Path) -> _Report:
    return _rb_common(cfg, out, None)


def run_interleaved_rbm(cfg, out: Path) -> _Report:
    return _rb_common(cfg, out, gate_index(cfg["protocol"]["gate"]))


def run_stark_map(cfg, out: Path) -> _Report:
    report = _Report(cfg["seed"])
    proto = cfg["protocol"]
    true_map = _stark(cfg)
    with report.stage("map_measurement") as seed:
        v1 = grid_values(proto["v_g1_v"])
        v2 = grid_values(proto["v_g2_v"])
        g1, g2 = np.meshgrid(v1, v2, indexing="ij")
        f = np.array([starktone.esr_frequency(true_map, {"G1": a, "G2": b})
                      for a, b in zip(g1.ravel(), g2.ravel())])
        from .._rng import derive_rng
        f = f + proto["jitter_hz"] * derive_rng(seed).normal(size=f.size)
        _write(report, out, {"stark_grid.csv": Csv(
            STARK_GRID_HEADER, (g1.ravel(), g2.ravel(), f))})
    with report.stage("plane_fit"):
        fitted = starktone.fit_stark_map(
            {"G1": g1.ravel(), "G2": g2.ravel()}, f,
            reference_voltages=true_map.reference_voltages)
        result = {
            "f0_ref_hz": fitted.f0_ref_hz,
            "coefficients_hz_per_v": fitted.coefficients_hz_per_v,
            "residual_rms_hz": fitted.residual_rms_hz,
            "true_coefficients_hz_per_v": true_map.coefficients_hz_per_v,
        }
        _write(report, out, {
            "stark_fit.json": result,
            "plot_stark_map.json": {
                "title": "ESR frequency vs gate voltages",
                "x": _axis("V_G1", "V", v1), "y": _axis("V_G2", "V", v2),
                "z": {"label": "f", "unit": "Hz", "values_2d": f.reshape(g1.shape)},
            },
        })
    report.summary = result
    return report


def run_tone_scan(cfg, out: Path) -> _Report:
    report = _Report(cfg["seed"])
    proto = cfg["protocol"]
    model = _model(cfg)
    stark = _stark(cfg)
    readout = _readout(cfg)
    tone = starktone.ToneConfig(gate=proto["gate"], f_tone=proto["f_tone_hz"],
                                amplitude_pp=0.0, phase=proto["phase"])
    with report.stage("scan") as seed:
        taus = [1.0 / (2.0 * f) for f in proto["f_columns_hz"]]
        result = starktone.tone_scan(
            model, tone, stark, taus, proto["total_time_s"],
            proto["amplitudes_vpp"], proto["shots"], seed, readout=readout,
            samples_per_interval=proto["samples_per_interval"])
        starktone.export_tone_scan(result, out / "tone_scan.csv")
        report.files.append("tone_scan.csv")
    with report.stage("detection"):
        detection = starktone.detect_tone_threshold(result, tone.f_tone)
        _write(report, out, {
            "tone_detection.json": detection,
            "plot_tone_scan.json": {
                "title": "tone-injection response map",
                "x": _axis("filter frequency", "Hz", result.f_hz),
                "y": _axis("tone amplitude", "Vpp", result.amplitudes_vpp),
                "z": {"label": "P_up", "unit": "1", "values_2d": result.p_up},
            },
        })
    report.summary = {"threshold_vpp": detection["threshold_vpp"],
                      "tone_column_hz": detection["tone_column_hz"],
                      "dropped_taus": list(result.dropped)}
    return report


def run_voltage_psd(cfg, out: Path) -> _Report:
    report = _Report(cfg["seed"])
    proto = cfg["protocol"]
    vmodel = _model(cfg)
    stark = _stark(cfg)
    coeff = stark.coefficient(proto["stark_gate"])
    with report.stage("trace") as seed:
        trace = spectra.synthesize(vmodel, proto["sample_rate_hz"],
                                   proto["duration_s"], seed, unit="V")
        if proto["export_trace"]:
            spectra.export_trace(trace, out / "voltage_trace.csv")
            report.files.append("voltage_trace.csv")
    with report.stage("welch"):
        nperseg = int(round(proto["nperseg_s"] * trace.sample_rate))
        est_v = spectra.psd_welch(trace, nperseg=nperseg)
        lo, hi = proto["band_hz"]
        rms = spectra.integrate_rms(est_v, lo, hi)
        est_dw = spectra.voltage_to_detuning_psd(est_v, coeff)
        # f is shared by all three files and S_V by two: 7 distinct columns
        _write(report, out, {
            "psd_voltage.csv": spectra.psd_csv(est_v, VOLT_PSD_HEADER),
            "psd_detuning.csv": spectra.psd_csv(est_dw),
            "plot_voltage_psd.json": _plot(
                "gate voltage PSD", _axis("frequency", "Hz", est_v.f),
                _axis("S_V", "V^2/Hz", est_v.s)),
        })
    summary = {"band_hz": [float(lo), float(hi)], "band_rms_v": rms,
               "stark_gate": proto["stark_gate"],
               "stark_coefficient_hz_per_v": coeff,
               "welch_warnings": list(est_v.warnings)}
    spec_cfg = proto.get("spectroscopy")
    if spec_cfg:
        with report.stage("spectroscopy") as seed:
            dmodel = spectra.voltage_to_detuning_model(vmodel, coeff)
            if proto["qubit_floor_rad2_s"]:
                dmodel = SpectrumModel(
                    powerlaws=dmodel.powerlaws,
                    white_floor=dmodel.white_floor + proto["qubit_floor_rad2_s"],
                    lines=dmodel.lines)
            est_rec = analysis.spectroscopy_scan(
                dmodel, grid_values(spec_cfg["f_grid_hz"]),
                [int(n) for n in spec_cfg["pulse_counts"]],
                int(spec_cfg["n_traj"]), seed,
                samples_per_interval=int(
                    spec_cfg.get("samples_per_interval", 32)))
            spectra.export_psd(est_rec, out / "psd_reconstructed.csv")
            report.files.append("psd_reconstructed.csv")
            summary["spectroscopy_f_range_hz"] = [float(est_rec.f[0]),
                                                  float(est_rec.f[-1])]
    _write(report, out, {"voltage_summary.json": summary})
    report.summary = summary
    return report


PIPELINES = {
    "rabi_chevron": run_rabi_chevron,
    "ramsey": run_ramsey,
    "hahn": run_hahn,
    "cpmg_t2_vs_n": run_cpmg_t2_vs_n,
    "noise_spectroscopy": run_noise_spectroscopy,
    "rbm": run_rbm,
    "interleaved_rbm": run_interleaved_rbm,
    "stark_map": run_stark_map,
    "tone_scan": run_tone_scan,
    "voltage_psd": run_voltage_psd,
}
