"""Per-kind experiment pipelines: a plan, then its run.

A kind's plan turns the normalized config into everything its run reads
(typed models, grids, derived sizes), checking each value beside its
derivation (:class:`ConfigError` names the field); validation is the
field walk then :func:`plan`.  A plan draws nothing and maps nothing;
``cpmg_t2_vs_n``'s finds each T2, which :func:`qubitsim.cpmg_chi` keeps
with its table, so planning again searches nothing.  It returns a
:class:`Plan`, whose run fills a ``_Report``: ``files``, ``stages``
(name, derived seed, wall-clock), ``fit_failures`` and a manifest
``summary``.  Each kind declares its stages once, the same for every
config: stage i of the layout has seed ``derive_child_seed(cfg["seed"],
i)`` whenever the run enters it, so outputs never depend on timing or
worker count.

A Monte Carlo scan's plan lays out and checks every decay point its run
plays (a table: a tuple of curves, each a tuple of
:class:`qubitsim.DecayPoint`), kept as the plan's ``table``, which the
run plays as it is or as the tone scan's columns; no run lays out a
point.

A run does all its work in its own thread, one stage after another, at
any worker count; a stage's ``seconds`` is its wall-clock time.
"""

from __future__ import annotations

import inspect
import math
import time
from contextlib import contextmanager
from dataclasses import replace
from pathlib import Path
from typing import Callable, NamedTuple

import numpy as np

from .. import analysis, benchmarking, qubitsim, spectra, starktone
from .._csvio import Csv, write_files
from .._rng import derive_child_seeds
from .._solve import distinct
from ..qubitsim import QubitParams, ReadoutModel
from ..spectra import MIN_TRACE_SAMPLES, SpectrumModel
from ..starktone import StarkMap
from .config import (MAX_CHI_POINTS, MAX_FFT_PRIME, MAX_GRID_POINTS,
                     MAX_PULSES, MAX_RB_CLIFFORDS, MAX_SQUARED,
                     MAX_TRACE_SAMPLES, ConfigError, grid_values)

DECAY_HEADER = "time_s,coherence_w,std_err,p_up"
CHEVRON_HEADER = "detuning_hz,duration_s,p_up"
T2N_HEADER = "n_pulses,t2_s,t2_err_s,exponent,exponent_err"
PSD_HEADER = "f_hz,S_rad2_per_s,ci_low,ci_high"
RB_HEADER = "M,mean_survival,std_err,n_sequences"
STARK_GRID_HEADER = "v_g1,v_g2,f_hz"
TONE_SCAN_HEADER = "f_hz,amplitude_vpp,p_up,std_err"
TRACE_HEADER = "time_s,volts"
VOLT_PSD_HEADER = "f_hz,S_v2_per_hz,n_bins"
DETUNING_PSD_HEADER = "f_hz,S_rad2_per_s,n_bins"


class Plan(NamedTuple):
    """A kind's run, ``run(report, out)``; its stage layout, the names of
    the stages it may enter, in seed order; and the Monte Carlo table its
    run plays, if any."""
    run: Callable
    stages: tuple
    table: tuple | None = None


class _Report:
    """Accumulates stage timings, files, and fit failures for one run;
    ``seeds`` maps each declared stage to its seed."""

    def __init__(self, seeds: dict):
        self.seeds = seeds
        self.stages: list[dict] = []
        self.files: list[str] = []
        self.fit_failures: list[dict] = []
        self.summary: dict = {}

    @contextmanager
    def stage(self, name: str):
        seed = self.seeds[name]  # a KeyError for a stage the plan does not declare
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


def _plot(title: str, csv: str, x: tuple, y: tuple, z: tuple | None = None,
          y_err=None) -> dict:
    """A plot file, naming the columns it draws of ``csv``, a CSV its
    stage writes: ``x``, ``y`` and a 2-D plot's ``z`` are ``(column,
    label, unit)``, and ``y_err`` names one column or ``{"low": column,
    "high": column}``.  A 2-D plot's CSV has one row per (x, y) cell."""
    obj = {"title": title, "csv": csv}
    for key, axis in (("x", x), ("y", y), ("z", z)):
        if axis is not None:
            obj[key] = dict(zip(("column", "label", "unit"), axis))
    if y_err is not None:
        obj["y_err"] = y_err
    return obj


def _spectrum(cfg) -> SpectrumModel:
    if not cfg["spectrum"]:
        raise ConfigError(f"spectrum: required for kind={cfg['kind']}")
    return SpectrumModel.from_dict(cfg["spectrum"])


@contextmanager
def _finite_grids(field: str):
    """Decay points laid out inside it have a finite duration and sample
    rate; else a :class:`ConfigError` names ``field``."""
    try:
        with np.errstate(over="raise", divide="raise", invalid="raise"):
            yield
    except (ArithmeticError, ValueError):  # an inf or NaN duration or rate
        raise ConfigError(f"{field}: a sequence's duration or Monte Carlo "
                          f"sample rate is not finite") from None


def _check_table(model: SpectrumModel, field: str, length_field: str,
                 table) -> None:
    """Every point of the decay ``table`` has a trace of at most
    ``MAX_TRACE_SAMPLES`` samples (``length_field`` names the error), and
    :func:`_check_lowest_bin` holds at its lowest bin."""
    points = [point for curve in table for point in curve]
    if (n_max := max(point.n for point in points)) > MAX_TRACE_SAMPLES:
        raise ConfigError(f"{length_field}: the longest Monte Carlo trace has "
                          f"{n_max} samples; at most {MAX_TRACE_SAMPLES}")
    _check_lowest_bin(model, field, min(point.sample_rate / point.n
                                        for point in points))


def _check_lowest_bin(model: SpectrumModel, field: str, df: float) -> None:
    """The model is finite at ``df``, the lowest rfft bin of a run's
    longest trace, where a power law's omega^alpha underflows to 0 on a
    long enough trace."""
    with np.errstate(all="ignore"):
        density = spectra._bin_density(model, df, 1, 2)[0]
    if not math.isfinite(density):
        raise ConfigError(f"{field}: the noise density is not finite at "
                          f"{df:.6g} Hz, the lowest frequency bin of the "
                          f"longest trace")


def _fft_friendly(n: int) -> bool:
    """``n`` has no prime factor above ``MAX_FFT_PRIME``."""
    for p in range(2, MAX_FFT_PRIME + 1):
        while n % p == 0:
            n //= p
    return n == 1


def _check_fft_length(field: str, name: str, n: int) -> None:
    """``n``, the length ``name`` of an FFT a run takes, has no prime
    factor above ``MAX_FFT_PRIME``; else the error names ``field`` and the
    nearest lengths that have none."""
    if not _fft_friendly(n):
        below = next(m for m in range(n - 1, 0, -1) if _fft_friendly(m))
        # a power of 2 lies in (n, 2n]
        above = next(m for m in range(n + 1, 2 * n + 1) if _fft_friendly(m))
        raise ConfigError(f"{field}: {name} = {n} samples has a prime factor "
                          f"above {MAX_FFT_PRIME}, which makes its FFT several "
                          f"times slower; the nearest accepted lengths are "
                          f"{below} and {above}")


def _gate_coefficient(stark: StarkMap, proto: dict, key: str) -> float:
    """The Stark coefficient of the gate ``protocol.<key>`` names."""
    try:
        return stark.coefficient(proto[key])
    except KeyError as exc:
        raise ConfigError(f"protocol.{key}: {exc.args[0]}") from None


def gate_index(spec) -> int:
    """Clifford index of an ``interleaved_rbm`` gate: an index in [0, 24)
    or the name of a single-primitive Clifford such as ``"X90"``."""
    if isinstance(spec, int) and 0 <= spec < 24:
        return spec
    if (spec,) in benchmarking.CLIFFORD_DECOMPOSITIONS:
        return benchmarking.CLIFFORD_DECOMPOSITIONS.index((spec,))
    raise ConfigError(f"protocol.gate: {spec!r} is neither an index in [0, 24) "
                      f"nor a single-primitive Clifford")


# ---------------------------------------------------------------------------
# Plans; each returns a Plan


def plan_rabi_chevron(cfg, qubit: QubitParams):
    proto = cfg["protocol"]
    det = grid_values(proto["detuning_hz"])
    dur = grid_values(proto["duration_s"])
    if det.size * dur.size > MAX_GRID_POINTS:
        raise ConfigError(f"protocol.duration_s: the chevron of {det.size} x "
                          f"{dur.size} points exceeds {MAX_GRID_POINTS}")

    def run(report: _Report, out: Path) -> None:
        with report.stage("chevron"):
            p = qubitsim.rabi_chevron(qubit, det, dur)
            _write(report, out, {
                "chevron.csv": Csv(CHEVRON_HEADER, (np.repeat(det, dur.size),
                                                    np.tile(dur, det.size),
                                                    p.ravel())),
                "plot_chevron.json": _plot(
                    "Rabi chevron", "chevron.csv",
                    ("duration_s", "pulse duration", "s"),
                    ("detuning_hz", "drive detuning", "Hz"),
                    z=("p_up", "P_up", "1")),
            })
        imax = np.unravel_index(int(np.argmax(p)), p.shape)
        report.summary = {
            "resonance_hz": qubit.resonance_hz,
            "pi_time_s": qubit.pi_time_s,
            "max_p_up": float(p[imax]),
            "max_at_detuning_hz": float(det[imax[0]]),
            "max_at_duration_s": float(dur[imax[1]]),
        }
    return Plan(run, ("chevron",))


def plan_decay(cfg, readout: ReadoutModel):
    """``ramsey`` (no pulse) and ``hahn`` (one)."""
    proto = cfg["protocol"]
    n_pulses = 0 if cfg["kind"] == "ramsey" else 1
    times = grid_values(proto["times_s"])
    if proto["fit"] == "stretched" and (n_distinct := distinct(times).size) < 3:
        raise ConfigError(f"protocol.times_s: the stretched fit needs at "
                          f"least 3 distinct points, got {n_distinct}")
    model = _spectrum(cfg)
    with _finite_grids("protocol.times_s"):
        table = qubitsim.decay_table([(n_pulses, times)], proto["duration_factor"],
                                     proto["samples_per_interval"])
    _check_table(model, "protocol.times_s", "protocol.duration_factor", table)

    def run(report: _Report, out: Path) -> None:
        with report.stage("decay_scan") as seed:
            (curve,) = qubitsim.play_decay_table(model, table, proto["n_traj"],
                                                 [seed])
            p_up = readout.apply(0.5 * (1.0 + curve.w))
            _write(report, out, {
                "decay.csv": Csv(DECAY_HEADER,
                                 (curve.times, curve.w, curve.std_err, p_up)),
                "plot_decay.json": _plot(
                    f"{cfg['kind']} decay", "decay.csv",
                    ("time_s", "total evolution time", "s"),
                    ("coherence_w", "coherence W", "1"), y_err="std_err"),
            })
        with report.stage("fit"):
            fit_dict = _decay_fit(report, "fit", proto["fit"], curve)
            _write(report, out, {"fit.json": fit_dict})
        report.summary = {"n_pulses": n_pulses, "fit": fit_dict}
    return Plan(run, ("decay_scan", "fit"), table)


def plan_cpmg_t2_vs_n(cfg):
    proto = cfg["protocol"]
    model = _spectrum(cfg)
    if not proto["t_factor_min"] < proto["t_factor_max"]:
        raise ConfigError(f"protocol.t_factor_min: must be < t_factor_max, "
                          f"got {proto['t_factor_min']!r} and "
                          f"{proto['t_factor_max']!r}")
    # each time grid is centred on a CpmgChi table's T2: its integral must
    # converge at f -> 0, and its bracket hold a crossing found without overflow
    for i, term in enumerate(cfg["spectrum"].get("powerlaws", ())):
        if term["amplitude"] > 0 and term["exponent"] >= 3:
            raise ConfigError(
                f"spectrum.powerlaws.{i}.exponent: {term['exponent']!r} with "
                f"amplitude > 0 diverges at f -> 0; cpmg_t2_vs_n needs < 3")
    counts = proto["pulse_counts"]
    t2s = []
    for n in counts:
        try:
            with np.errstate(over="raise"):
                chi = qubitsim.cpmg_chi(model, n)
                # the T2 search integrates the lines at times up to t_max,
                # laying the most points there; bounded before any is laid
                points = chi.points(chi.t_max)
                if points <= MAX_CHI_POINTS:
                    t2s.append(chi.t2)
        except (ValueError, FloatingPointError) as exc:
            raise ConfigError(f"protocol.pulse_counts: N = {n}: {exc}, so "
                              f"there is no T2 to centre the times on") from None
        if points > MAX_CHI_POINTS:
            # a line's lattice grows with its width * T
            i = max((i for i, l in enumerate(model.lines) if l.width_hz is not None),
                    key=lambda i: model.lines[i].width_hz)
            raise ConfigError(
                f"spectrum.lines.{i}.width_hz: at N = {n} the T2 search "
                f"integrates the lines on {points:.0f} points at T = "
                f"{chi.t_max:.3g} s; at most {MAX_CHI_POINTS}")
    # n_times times geometric from t_factor_min to t_factor_max times T2;
    # T2 <= 10 s and t_factor_max < MAX_SQUARED, so only a grid's shortest
    # point can have a duration or sample rate that is not finite
    with _finite_grids("protocol.t_factor_min"):
        table = qubitsim.decay_table([
            (n, np.geomspace(proto["t_factor_min"] * t2,
                             proto["t_factor_max"] * t2, proto["n_times"]))
            for n, t2 in zip(counts, t2s)],
            proto["duration_factor"], proto["samples_per_interval"])
    _check_table(model, "protocol.t_factor_max", "protocol.duration_factor", table)

    def run(report: _Report, out: Path) -> None:
        with report.stage("t2_scans") as seed:
            # every pulse count's points in one table; curve i has seed
            # derive_child_seed(seed, i), as its own decay_vs_time call would
            curves = qubitsim.play_decay_table(
                model, table, proto["n_traj"], derive_child_seeds(seed, len(counts)))
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
            files = {"t2_vs_n.csv": Csv(T2N_HEADER,
                                        (used, t2s, t2errs, exps, exp_errs))}
            if used:
                files["plot_t2_vs_n.json"] = _plot(
                    "T2 vs pulse number", "t2_vs_n.csv",
                    ("n_pulses", "pulse count N", "1"), ("t2_s", "T2", "s"),
                    y_err="t2_err_s")
            _write(report, out, files)
        with report.stage("scaling_fit"):
            scaling = None
            if len(t2s) >= 2:
                scaling_fit = report.try_fit("scaling_fit", lambda: (
                    analysis.t2_scaling_exponent(used, t2s, t2errs)))
                if scaling_fit is not None:
                    scaling = {"beta": scaling_fit.slope,
                               "beta_err": scaling_fit.slope_err,
                               "prefactor_s": scaling_fit.prefactor}
            _write(report, out, {"scaling.json": scaling})
        report.summary = {"scaling": scaling, "n_fitted": len(t2s)}
    return Plan(run, ("t2_scans", "fits", "scaling_fit"), table)


def plan_noise_spectroscopy(cfg):
    proto = cfg["protocol"]
    model = _spectrum(cfg)
    f_grid = grid_values(proto["f_grid_hz"])
    with _finite_grids("protocol.f_grid_hz"):
        table = analysis.spectroscopy_table(
            f_grid, proto["pulse_counts"], duration_factor=proto["duration_factor"],
            samples_per_interval=proto["samples_per_interval"])
    _check_table(model, "protocol.f_grid_hz", "protocol.duration_factor", table)

    def run(report: _Report, out: Path) -> None:
        with report.stage("spectroscopy") as seed:
            est = analysis.spectroscopy_scan(model, f_grid, table, proto["n_traj"],
                                             seed, t2_hahn=proto["t2_hahn_s"])
            _write(report, out, {
                "psd_reconstructed.csv": _psd_csv(est),
                "points.json": list(est.points_detail),
                "plot_psd.json": _plot(
                    "reconstructed noise PSD", "psd_reconstructed.csv",
                    ("f_hz", "frequency", "Hz"), ("S_rad2_per_s", "S", "rad^2/s"),
                    y_err={"low": "ci_low", "high": "ci_high"}),
            })
        report.summary = {"n_points": est.n_points,
                          "warnings": list(est.warnings),
                          "f_range_hz": [float(est.f[0]), float(est.f[-1])]}
    return Plan(run, ("spectroscopy",), table)


def plan_rb(cfg, readout: ReadoutModel):
    """``rbm``, and ``interleaved_rbm`` with its gate."""
    proto = cfg["protocol"]
    gate = gate_index(proto["gate"]) if cfg["kind"] == "interleaved_rbm" else None
    d = benchmarking.depolarizing_from_clifford_fidelity(proto["clifford_fidelity"])
    depths = proto["depths"]
    # the longest curve's Cliffords: an interleaved sequence plays the gate
    # after each of its Cliffords
    cliffords = proto["n_sequences"] * sum(depths) * (1 if gate is None else 2)
    if cliffords > MAX_RB_CLIFFORDS:
        raise ConfigError(f"protocol.depths: a curve of {proto['n_sequences']} "
                          f"sequences at these depths simulates {cliffords} "
                          f"Cliffords; at most {MAX_RB_CLIFFORDS}")

    def run(report: _Report, out: Path) -> None:
        summaries = {}
        with report.stage("reference") as seed:
            ref = benchmarking.rb_reference(depths, proto["n_sequences"], d, seed,
                                            readout=readout, shots=proto["shots"])
            _write(report, out, {
                "rb_reference.csv": _rb_csv(ref),
                "plot_rb.json": _plot(
                    "randomized benchmarking", "rb_reference.csv",
                    ("M", "sequence length M", "Cliffords"),
                    ("mean_survival", "mean survival", "1"), y_err="std_err"),
            })
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
        if gate is not None:
            with report.stage("interleaved") as seed:
                inter = benchmarking.rb_interleaved(
                    gate, depths, proto["n_sequences"], d, seed,
                    readout=readout, shots=proto["shots"])
                _write(report, out, {"rb_interleaved.csv": _rb_csv(inter)})
            with report.stage("interleaved_fit"):
                ifit = report.try_fit("interleaved_fit",
                                      lambda: benchmarking.fit_rb(inter))
                if ifit is not None and fit is not None:
                    summaries["interleaved"] = {
                        "gate_index": gate,
                        "gate": "+".join(benchmarking.CLIFFORD_DECOMPOSITIONS[gate]),
                        "p": ifit.p, "p_err": ifit.p_err,
                        "gate_fidelity": benchmarking.interleaved_gate_fidelity(
                            fit.p, ifit.p),
                    }
        _write(report, out, {"rb_fit.json": summaries})
        report.summary = summaries
    return Plan(run, ("reference", "reference_fit", "interleaved", "interleaved_fit"))


def plan_stark_map(cfg, stark: StarkMap):
    proto = cfg["protocol"]
    if (gates := sorted(stark.coefficients_hz_per_v)) != ["G1", "G2"]:
        raise ConfigError(f"stark.coefficients_hz_per_v: stark_map needs "
                          f"exactly gates G1 and G2, got {gates}")
    v1, v2 = (grid_values(proto[key]) for key in ("v_g1_v", "v_g2_v"))
    if v1.size * v2.size > MAX_GRID_POINTS:
        raise ConfigError(f"protocol.v_g2_v: the voltage mesh of {v1.size} x "
                          f"{v2.size} points exceeds {MAX_GRID_POINTS}")
    g1, g2 = (g.ravel() for g in np.meshgrid(v1, v2, indexing="ij"))
    f_map = starktone.esr_frequency(stark, {"G1": g1, "G2": g2})
    # the plane fit squares its residuals
    if (peak := np.abs(f_map).max()) >= MAX_SQUARED:
        raise ConfigError(f"stark: |f| over the protocol's voltage grid reaches "
                          f"{float(peak)!r} Hz; must be < {MAX_SQUARED}")
    refs = stark.reference_voltages
    try:
        starktone.plane_design({"G1": g1, "G2": g2}, refs)
    except np.linalg.LinAlgError as exc:
        # each grid has spread, so a gate's offsets from its reference
        # dwarf the other columns: name the larger of its grid and reference
        gate, v = max(("G1", v1), ("G2", v2), key=lambda gv: np.abs(
            gv[1] - refs.get(gv[0], 0.0)).max())
        field = (f"stark.reference_voltages.{gate}"
                 if abs(refs.get(gate, 0.0)) > np.abs(v).max()
                 else f"protocol.v_g{gate[1]}_v")
        raise ConfigError(f"{field}: {exc}") from None

    def run(report: _Report, out: Path) -> None:
        with report.stage("map_measurement") as seed:
            from .._rng import derive_rng
            f = f_map + proto["jitter_hz"] * derive_rng(seed).normal(size=f_map.size)
            _write(report, out, {
                "stark_grid.csv": Csv(STARK_GRID_HEADER, (g1, g2, f)),
                "plot_stark_map.json": _plot(
                    "ESR frequency vs gate voltages", "stark_grid.csv",
                    ("v_g1", "V_G1", "V"), ("v_g2", "V_G2", "V"),
                    z=("f_hz", "f", "Hz")),
            })
        with report.stage("plane_fit"):
            fitted = starktone.fit_stark_map({"G1": g1, "G2": g2}, f,
                                             reference_voltages=refs)
            result = {
                "f0_ref_hz": fitted.f0_ref_hz,
                "coefficients_hz_per_v": fitted.coefficients_hz_per_v,
                "residual_rms_hz": fitted.residual_rms_hz,
                "true_coefficients_hz_per_v": stark.coefficients_hz_per_v,
            }
            _write(report, out, {"stark_fit.json": result})
        report.summary = result
    return Plan(run, ("map_measurement", "plane_fit"))


def plan_tone_scan(cfg, readout: ReadoutModel, stark: StarkMap):
    proto = cfg["protocol"]
    coeff = _gate_coefficient(stark, proto, "gate")
    total = proto["total_time_s"]
    taus = [1.0 / (2.0 * f) for f in proto["f_columns_hz"]]
    for i, tau in enumerate(taus):  # round(ratio) is the column's pulse count
        if round(ratio := total / tau) > MAX_PULSES:
            raise ConfigError(
                f"protocol.f_columns_hz.{i}: {proto['f_columns_hz'][i]!r} Hz "
                f"needs {ratio:.6g} pulses in total_time_s; at most "
                f"{MAX_PULSES}")
    with _finite_grids("protocol.total_time_s"):
        keep, dropped = starktone.scan_columns(taus, total, proto["samples_per_interval"])
    # detection finds the tone by the 5% rule, against another kept column
    f_kept = [1.0 / (2 * tau) for tau, _ in keep]
    if len(f_kept) < 2:
        raise ConfigError(f"protocol.f_columns_hz: {len(f_kept)} of the columns "
                          f"fit half a wait into total_time_s; need at least 2")
    try:
        starktone.tone_column(f_kept, proto["f_tone_hz"])
    except ValueError:
        raise ConfigError(
            f"protocol.f_tone_hz: {proto['f_tone_hz']!r} Hz is not within 5% of "
            f"any scanned column (kept: "
            f"{', '.join(f'{f:.6g}' for f in f_kept)} Hz)") from None
    model = _spectrum(cfg)
    table = tuple((point,) for _, point in keep)
    _check_table(model, "protocol.total_time_s", "protocol.samples_per_interval", table)

    def run(report: _Report, out: Path) -> None:
        with report.stage("scan") as seed:
            result = starktone.tone_scan(
                model, coeff, proto["f_tone_hz"], proto["phase"], (keep, dropped),
                proto["amplitudes_vpp"], proto["shots"], seed, readout=readout)
            _write(report, out, {
                "tone_scan.csv": _tone_scan_csv(result),
                "plot_tone_scan.json": _plot(
                    "tone-injection response map", "tone_scan.csv",
                    ("f_hz", "filter frequency", "Hz"),
                    ("amplitude_vpp", "tone amplitude", "Vpp"),
                    z=("p_up", "P_up", "1")),
            })
        with report.stage("detection"):
            detection = starktone.detect_tone_threshold(result, proto["f_tone_hz"])
            _write(report, out, {"tone_detection.json": detection})
        report.summary = {"threshold_vpp": detection["threshold_vpp"],
                          "tone_column_hz": detection["tone_column_hz"],
                          "dropped_taus": list(result.dropped)}
    return Plan(run, ("scan", "detection"), table)


def plan_voltage_psd(cfg, stark: StarkMap):
    proto = cfg["protocol"]
    coeff = _gate_coefficient(stark, proto, "stark_gate")
    # trace and Welch sizes as spectra.synthesize and psd_welch take them
    rate = float(proto["sample_rate_hz"])
    n = int(round(rate * proto["duration_s"]))
    if not MIN_TRACE_SAMPLES <= n <= MAX_TRACE_SAMPLES:
        raise ConfigError(f"protocol.duration_s: duration_s*sample_rate_hz = "
                          f"{n} samples; " + (f"need at least {MIN_TRACE_SAMPLES}"
                                              if n < MIN_TRACE_SAMPLES else
                                              f"at most {MAX_TRACE_SAMPLES}"))
    _check_fft_length("protocol.duration_s", "duration_s*sample_rate_hz", n)
    nperseg = min(int(round(proto["nperseg_s"] * rate)), n)
    if nperseg < 2:
        raise ConfigError(f"protocol.nperseg_s: nperseg_s*sample_rate_hz = "
                          f"{nperseg} samples; need at least 2")
    _check_fft_length("protocol.nperseg_s", "nperseg_s*sample_rate_hz", nperseg)
    lo, hi = proto["band_hz"]
    if not lo < hi:
        raise ConfigError(f"protocol.band_hz: need lo < hi, got [{lo}, {hi}]")
    df = 1.0 / (nperseg * (1 / rate))  # rfftfreq's bin spacing, bit for bit
    f_max = (nperseg // 2) * df
    if lo < df or hi > f_max:
        raise ConfigError(f"protocol.band_hz: [{lo}, {hi}] Hz is outside the "
                          f"Welch range [{df:.6g}, {f_max:.6g}] Hz "
                          f"(nperseg = {nperseg} samples)")
    vmodel = _spectrum(cfg)
    _check_lowest_bin(vmodel, "protocol.duration_s", rate / n)
    if spec_cfg := proto["spectroscopy"]:
        floor = proto["qubit_floor_rad2_s"]
        dmodel = spectra.voltage_to_detuning_model(vmodel, coeff)
        dmodel = replace(dmodel, white_floor=dmodel.white_floor + floor)
        f_grid = grid_values(spec_cfg["f_grid_hz"])
        with _finite_grids("protocol.spectroscopy.f_grid_hz"):
            table = analysis.spectroscopy_table(
                f_grid, spec_cfg["pulse_counts"],
                samples_per_interval=spec_cfg["samples_per_interval"])
        _check_table(dmodel, "protocol.spectroscopy.f_grid_hz",
                     "protocol.spectroscopy.samples_per_interval", table)

    def run(report: _Report, out: Path) -> None:
        with report.stage("trace") as seed:
            trace = spectra.synthesize(vmodel, rate, proto["duration_s"], seed)
            if proto["export_trace"]:
                _write(report, out, {"voltage_trace.csv": _trace_csv(trace)})
        with report.stage("welch"):
            est_v = spectra.psd_welch(trace, nperseg=nperseg)
            n_segments = spectra.welch_segments(n, nperseg)
            rms = spectra.integrate_rms(est_v, lo, hi)
            # the bounds are S times the summary's welch_ci_factors, so the
            # files hold S alone, on the log-binned rows
            f_b, s_b, n_bins = spectra.log_bin(est_v.f, est_v.s)
            _write(report, out, {
                "psd_voltage.csv": Csv(VOLT_PSD_HEADER, (f_b, s_b, n_bins)),
                "psd_detuning.csv": Csv(DETUNING_PSD_HEADER, (
                    f_b, s_b * spectra.detuning_gain(coeff), n_bins)),
                "plot_voltage_psd.json": _plot(
                    "gate voltage PSD", "psd_voltage.csv",
                    ("f_hz", "frequency", "Hz"), ("S_v2_per_hz", "S_V", "V^2/Hz")),
            })
        summary = {"band_hz": [float(lo), float(hi)], "band_rms_v": rms,
                   "stark_gate": proto["stark_gate"],
                   "stark_coefficient_hz_per_v": coeff,
                   "welch_segments": n_segments,
                   "welch_ci_factors": list(spectra.welch_ci_factors(n_segments)),
                   "welch_warnings": list(est_v.warnings)}
        if spec_cfg:
            with report.stage("spectroscopy") as seed:
                est_rec = analysis.spectroscopy_scan(dmodel, f_grid, table,
                                                     spec_cfg["n_traj"], seed)
                _write(report, out, {"psd_reconstructed.csv": _psd_csv(est_rec)})
                summary["spectroscopy_f_range_hz"] = [float(est_rec.f[0]),
                                                      float(est_rec.f[-1])]
        _write(report, out, {"voltage_summary.json": summary})
        report.summary = summary
    return Plan(run, ("trace", "welch", "spectroscopy"), table if spec_cfg else None)


PLANS = {"rabi_chevron": plan_rabi_chevron, "ramsey": plan_decay,
         "hahn": plan_decay, "cpmg_t2_vs_n": plan_cpmg_t2_vs_n,
         "noise_spectroscopy": plan_noise_spectroscopy, "rbm": plan_rb,
         "interleaved_rbm": plan_rb, "stark_map": plan_stark_map,
         "tone_scan": plan_tone_scan, "voltage_psd": plan_voltage_psd}


def plan(cfg: dict) -> Plan:
    """The :class:`Plan` of a normalized config: the models every kind
    checks, then the kind's plan, given the config and the models its
    parameters name.  :class:`ConfigError` names a bad field."""
    models = {}
    for section, build in (("qubit", QubitParams), ("readout", ReadoutModel),
                           ("stark", StarkMap)):
        try:
            models[section] = build(**cfg[section])
        except ValueError as exc:
            raise ConfigError(f"{section}: {exc}") from None
    plan_kind = PLANS[cfg["kind"]]
    return plan_kind(cfg, **{name: models[name] for name in
                             list(inspect.signature(plan_kind).parameters)[1:]})


def _plan_then_run(cfg, out: Path) -> _Report:
    run, stages, _ = plan(cfg)
    report = _Report(dict(zip(stages, derive_child_seeds(cfg["seed"], len(stages)))))
    run(report, out)
    return report


# runner.execute's entry point; one per kind, so each can be wrapped alone
PIPELINES = dict.fromkeys(PLANS, _plan_then_run)
