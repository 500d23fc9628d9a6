"""Per-kind experiment pipelines: compute, fit, persist.

Every pipeline takes the normalized config and an output directory and
returns a ``_Report``: ``files`` written, ``stages`` (name, derived seed,
wall-clock), ``fit_failures``, and a ``summary`` for the manifest.  All
randomness flows from seeds derived off the master seed with fixed stage
indices, so outputs never depend on timing or worker count.

A pipeline runs inside its run's one process pool
(:func:`spinprobe._parallel.run_pool`); every map it makes, itself or
through the library, goes through :func:`spinprobe._parallel.submit`.
It may submit a stage's work before earlier stages run: ``voltage_psd``
submits its spectroscopy scan, which reads the model and not the trace,
before it builds the trace.  A stage's ``seconds`` is the main process's wall-clock time in
the stage, so such a stage reads only the time it waited for its
results, and work submitted earlier may run during other stages.
"""

from __future__ import annotations

import math
import time
from contextlib import contextmanager
from pathlib import Path

import numpy as np

from .. import analysis, benchmarking, qubitsim, spectra, starktone
from .._csvio import Csv, write_files
from .._rng import derive_child_seed, derive_child_seeds
from ..qubitsim import QubitParams, ReadoutModel
from ..spectra import SpectrumModel
from ..starktone import StarkMap
from .config import gate_index, grid_values

DECAY_HEADER = "time_s,coherence_w,std_err,p_up"
CHEVRON_HEADER = "detuning_hz,duration_s,p_up"
T2N_HEADER = "n_pulses,t2_s,t2_err_s,exponent,exponent_err"
PSD_HEADER = "f_hz,S_rad2_per_s,ci_low,ci_high"
RB_HEADER = "M,mean_survival,std_err,n_sequences"
STARK_GRID_HEADER = "v_g1,v_g2,f_hz"
TONE_SCAN_HEADER = "f_hz,amplitude_vpp,p_up,std_err"
TRACE_HEADER = "time_s,volts"
VOLT_PSD_HEADER = "f_hz,S_v2_per_hz"
DETUNING_PSD_HEADER = "f_hz,S_rad2_per_s,n_bins"


class _Report:
    """Accumulates stage timings, files, and fit failures for one run."""

    def __init__(self, master_seed: int):
        self.master_seed = master_seed
        self.stages: list[dict] = []
        self.files: list[str] = []
        self.fit_failures: list[dict] = []
        self.summary: dict = {}

    def seed(self, index: int) -> int:
        """The seed of the run's stage number ``index``."""
        return derive_child_seed(self.master_seed, index)

    @contextmanager
    def stage(self, name: str):
        seed = self.seed(len(self.stages))
        t0 = time.perf_counter()
        info = {"name": name, "seed": seed}
        try:
            yield seed
        finally:
            info["seconds"] = round(time.perf_counter() - t0, 3)
            self.stages.append(info)

    def try_fit(self, stage_name: str, fn):
        """Run a fit, recording (not raising) a FitError.  A non-finite
        number in its diagnostics is recorded as None, so the manifest
        stays strict JSON."""
        try:
            return fn()
        except analysis.FitError as exc:
            diagnostics = {key: _finite_or_none(value)
                           for key, value in exc.diagnostics.items()}
            self.fit_failures.append({"stage": stage_name, "message": str(exc),
                                      "diagnostics": diagnostics})
            return None


def _finite_or_none(value):
    """``value``, or each item of a list, with a non-finite float as None."""
    if isinstance(value, list):
        return [_finite_or_none(item) for item in value]
    return None if isinstance(value, float) and not math.isfinite(value) else value


def _decay_fit(report: _Report, stage_name: str, fit_kind: str, curve):
    """Fit ``curve`` with the protocol's ``fit`` kind; the fit's fields as
    a run reports them, or None when the fit fails."""
    stretched = fit_kind == "stretched"
    # looked up on the module per call, so a rebound fit is the one used
    fit_fn = analysis.fit_stretched if stretched else analysis.fit_exponential
    fit = report.try_fit(stage_name, lambda: fit_fn(curve.times, curve.w,
                                                    curve.std_err))
    if fit is None:
        return None
    fields = {"kind": fit_kind, "t2_s": fit.t2, "t2_err_s": fit.t2_err,
              "chi2_reduced": fit.chi2_reduced}
    if stretched:
        fields.update(exponent=fit.exponent, exponent_err=fit.exponent_err)
    return fields


def _write(report: _Report, out: Path, files: dict) -> None:
    """Write a stage's ``{name: Csv or JSON object}`` in one codec call.
    This is the one place a file of a run is written and registered."""
    write_files({out / name: content for name, content in files.items()})
    report.files.extend(files)


def _psd_csv(est: spectra.PsdEstimate) -> Csv:
    return Csv(PSD_HEADER, (est.f, est.s, est.ci_low, est.ci_high))


def _rb_csv(curve: benchmarking.RbCurve) -> Csv:
    return Csv(RB_HEADER, (curve.depths, curve.mean_survival, curve.std_err,
                           np.full(curve.depths.size, curve.n_sequences)))


def _tone_scan_csv(result: starktone.ToneScanResult) -> Csv:
    # one row per cell, amplitude-major
    n_amp, n_f = result.p_up.shape
    return Csv(TONE_SCAN_HEADER, (
        np.tile(result.f_hz, n_amp), np.repeat(result.amplitudes_vpp, n_f),
        result.p_up.ravel(), result.std_err.ravel()))


def _trace_csv(trace: spectra.NoiseTrace) -> Csv:
    return Csv(TRACE_HEADER, (trace.times, trace.samples))


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


def _model(cfg) -> SpectrumModel:
    return SpectrumModel.from_dict(cfg["spectrum"])


# ---------------------------------------------------------------------------
# Pipelines


def run_rabi_chevron(cfg, out: Path) -> _Report:
    report = _Report(cfg["seed"])
    proto = cfg["protocol"]
    qubit = QubitParams(**cfg["qubit"])
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
    readout = ReadoutModel(**cfg["readout"])
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
        fit_dict = _decay_fit(report, "fit", proto["fit"], curve)
        _write(report, out, {"fit.json": fit_dict})
    report.summary = {"n_pulses": n_pulses, "fit": fit_dict}
    return report


def run_ramsey(cfg, out: Path) -> _Report:
    return _run_decay_kind(cfg, out, n_pulses=0)


def run_hahn(cfg, out: Path) -> _Report:
    return _run_decay_kind(cfg, out, n_pulses=1)


def run_cpmg_t2_vs_n(cfg, out: Path) -> _Report:
    report = _Report(cfg["seed"])
    proto = cfg["protocol"]
    model = _model(cfg)
    counts = proto["pulse_counts"]
    with report.stage("t2_scans") as seed:
        # one map over every pulse count's points; curve i has seed
        # derive_child_seed(seed, i), as its own decay_vs_time call would
        specs = []
        for n, curve_seed in zip(counts, derive_child_seeds(seed, len(counts))):
            t2_est = qubitsim.cpmg_t2(model, n)
            times = np.geomspace(proto["t_factor_min"] * t2_est,
                                 proto["t_factor_max"] * t2_est,
                                 proto["n_times"])
            specs.append((n, times, curve_seed, f"cpmg-{n}"))
        curves = qubitsim.submit_decay_curves(
            model, specs, proto["n_traj"],
            duration_factor=proto["duration_factor"],
            samples_per_interval=proto["samples_per_interval"])()
        _write(report, out, {"decay_curves.csv": Csv(
            "n_pulses," + DECAY_HEADER.replace(",p_up", ""),
            (np.repeat(counts, [c.times.size for c in curves]),
             np.concatenate([c.times for c in curves]),
             np.concatenate([c.w for c in curves]),
             np.concatenate([c.std_err for c in curves])))})
    with report.stage("fits"):
        used, t2s, t2errs, exps, exp_errs = [], [], [], [], []
        for n, curve in zip(counts, curves):
            fit = _decay_fit(report, f"fit_n{n}", proto["fit"], curve)
            if fit is not None:
                used.append(n)
                t2s.append(fit["t2_s"])
                t2errs.append(fit["t2_err_s"])
                exps.append(fit.get("exponent", math.nan))
                exp_errs.append(fit.get("exponent_err", math.nan))
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
            model, f_grid, proto["pulse_counts"],
            proto["n_traj"], seed, t2_hahn=proto["t2_hahn_s"],
            duration_factor=proto["duration_factor"],
            samples_per_interval=proto["samples_per_interval"])
        _write(report, out, {
            "psd_reconstructed.csv": _psd_csv(est),
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
    readout = ReadoutModel(**cfg["readout"])
    d = benchmarking.depolarizing_from_clifford_fidelity(proto["clifford_fidelity"])
    depths = proto["depths"]
    summaries = {}
    with report.stage("reference") as seed:
        ref = benchmarking.rb_reference(depths, proto["n_sequences"], d, seed,
                                        readout=readout, shots=proto["shots"])
        _write(report, out, {"rb_reference.csv": _rb_csv(ref)})
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
            _write(report, out, {"rb_interleaved.csv": _rb_csv(inter)})
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
    true_map = StarkMap(**cfg["stark"])
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
    stark = StarkMap(**cfg["stark"])
    readout = ReadoutModel(**cfg["readout"])
    tone = starktone.ToneConfig(gate=proto["gate"], f_tone=proto["f_tone_hz"],
                                amplitude_pp=0.0, phase=proto["phase"])
    with report.stage("scan") as seed:
        taus = [1.0 / (2.0 * f) for f in proto["f_columns_hz"]]
        result = starktone.tone_scan(
            model, tone, stark, taus, proto["total_time_s"],
            proto["amplitudes_vpp"], proto["shots"], seed, readout=readout,
            samples_per_interval=proto["samples_per_interval"])
        _write(report, out, {"tone_scan.csv": _tone_scan_csv(result)})
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
    stark = StarkMap(**cfg["stark"])
    coeff = stark.coefficient(proto["stark_gate"])
    spec_cfg = proto["spectroscopy"]
    if spec_cfg:
        # the scan reads the model, not the trace: submit it first, with
        # the seed of its stage (the third), so the pool runs it while the
        # main process builds the trace and its Welch estimate
        dmodel = spectra.voltage_to_detuning_model(vmodel, coeff)
        if proto["qubit_floor_rad2_s"]:
            dmodel = SpectrumModel(
                powerlaws=dmodel.powerlaws,
                white_floor=dmodel.white_floor + proto["qubit_floor_rad2_s"],
                lines=dmodel.lines)
        scan = analysis.submit_spectroscopy_scan(
            dmodel, grid_values(spec_cfg["f_grid_hz"]),
            spec_cfg["pulse_counts"], spec_cfg["n_traj"], report.seed(2),
            samples_per_interval=spec_cfg["samples_per_interval"])
    with report.stage("trace") as seed:
        trace = spectra.synthesize(vmodel, proto["sample_rate_hz"],
                                   proto["duration_s"], seed, unit="V")
        if proto["export_trace"]:
            _write(report, out, {"voltage_trace.csv": _trace_csv(trace)})
    with report.stage("welch"):
        nperseg = int(round(proto["nperseg_s"] * trace.sample_rate))
        est_v = spectra.psd_welch(trace, nperseg=nperseg)
        n_segments = spectra.welch_segments(trace.n_samples, nperseg)
        lo, hi = proto["band_hz"]
        rms = spectra.integrate_rms(est_v, lo, hi)
        # the bounds are S times the summary's welch_ci_factors, so the
        # files hold S alone; only psd_voltage.csv keeps every Welch bin,
        # the detuning PSD and the plot hold the log-binned rows
        f_b, s_b, n_bins = spectra.log_bin(est_v.f, est_v.s)
        _write(report, out, {
            "psd_voltage.csv": Csv(VOLT_PSD_HEADER, (est_v.f, est_v.s)),
            "psd_detuning.csv": Csv(DETUNING_PSD_HEADER, (
                f_b, s_b * spectra.detuning_gain(coeff), n_bins)),
            "plot_voltage_psd.json": _plot(
                "gate voltage PSD", _axis("frequency", "Hz", f_b),
                _axis("S_V", "V^2/Hz", s_b)),
        })
    summary = {"band_hz": [float(lo), float(hi)], "band_rms_v": rms,
               "stark_gate": proto["stark_gate"],
               "stark_coefficient_hz_per_v": coeff,
               "welch_segments": n_segments,
               "welch_ci_factors": list(spectra.welch_ci_factors(n_segments)),
               "welch_warnings": list(est_v.warnings)}
    if spec_cfg:
        with report.stage("spectroscopy"):
            est_rec = scan()
            _write(report, out, {"psd_reconstructed.csv": _psd_csv(est_rec)})
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
