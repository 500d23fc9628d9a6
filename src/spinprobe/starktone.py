"""Gate-voltage Stark coupling and the injected-tone verification experiment.

A gate voltage pulls the qubit frequency linearly (the Stark map).  Driving
a gate with a small sinusoidal tone therefore modulates the detuning
deterministically; a CPMG filter tuned near the tone frequency converts
that modulation into extra dephasing.  Scanning wait time against tone
amplitude produces the characteristic response map: a strong dip at the
tone frequency, weaker dips at odd submultiples (where the tone rides an
odd filter harmonic), and nothing at even submultiples where the filter
has exact nulls.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import _parallel, spectra
from ._csvio import write_columns
from ._rng import derive_child_seed, derive_rngs
from .qubitsim import (HARDWARE_READOUT, PSD_CHI_CALIBRATION,
                       PhaseFunctional, ReadoutModel)
from .sequences import filter_function, make_cpmg, response
from .spectra import SpectrumModel

__all__ = [
    "TONE_SAMPLES_PER_INTERVAL",
    "StarkMap",
    "ToneConfig",
    "ToneWave",
    "ToneScanResult",
    "default_stark_map",
    "esr_frequency",
    "fit_stark_map",
    "tone_to_detuning",
    "harmonic_weights",
    "scan_columns",
    "tone_column",
    "tone_scan",
    "detect_tone_threshold",
    "export_tone_scan",
]

TONE_SCAN_HEADER = "f_hz,amplitude_vpp,p_up,std_err"

# Monte Carlo samples per inter-pulse interval of a tone-scan cell
TONE_SAMPLES_PER_INTERVAL = 32


@dataclass(frozen=True)
class StarkMap:
    """Linear resonance-frequency map over gate voltages.

    ``f(V) = f0_ref_hz + sum_g coeff_g * (V_g - ref_g)``.
    """

    f0_ref_hz: float
    coefficients_hz_per_v: dict[str, float]
    reference_voltages: dict[str, float] = field(default_factory=dict)
    residual_rms_hz: float = 0.0

    def __post_init__(self):
        for gate, c in self.coefficients_hz_per_v.items():
            if not np.isfinite(c):
                raise ValueError(f"coefficient for gate {gate!r} must be finite")

    def coefficient(self, gate: str) -> float:
        try:
            return self.coefficients_hz_per_v[gate]
        except KeyError:
            raise KeyError(f"gate {gate!r} not in Stark map "
                           f"(has {sorted(self.coefficients_hz_per_v)})") from None


def default_stark_map() -> StarkMap:
    """The two-gate quantum-dot device the bundled configs describe."""
    return StarkMap(f0_ref_hz=38.7765e9,
                    coefficients_hz_per_v={"G1": -36.21e6, "G2": -22.88e6},
                    reference_voltages={"G1": 0.0, "G2": 0.0})


def esr_frequency(stark: StarkMap, delta_v: dict[str, float]) -> float:
    """Resonance frequency at the given per-gate voltage offsets."""
    f = stark.f0_ref_hz
    for gate, dv in delta_v.items():
        f += stark.coefficient(gate) * dv
    return f


def fit_stark_map(voltages: dict[str, np.ndarray], f_hz,
                  reference_voltages: dict[str, float] | None = None) -> StarkMap:
    """Least-squares plane through measured (gate voltages, frequency) points.

    Voltages are per-gate arrays of equal length.  Raises on degenerate
    geometry (e.g. all points along one gate axis), where the plane is
    not identifiable.
    """
    gates = sorted(voltages)
    f = np.asarray(f_hz, dtype=float)
    refs = dict(reference_voltages or {g: 0.0 for g in gates})
    cols = [np.ones_like(f)]
    for g in gates:
        v = np.asarray(voltages[g], dtype=float)
        if v.shape != f.shape:
            raise ValueError(f"gate {g!r} voltage array shape mismatch")
        cols.append(v - refs.get(g, 0.0))
    a = np.vstack(cols).T
    if a.shape[0] < a.shape[1] or np.linalg.matrix_rank(a) < a.shape[1]:
        raise np.linalg.LinAlgError(
            "degenerate voltage grid: plane fit needs spread in every gate")
    beta, res, _, _ = np.linalg.lstsq(a, f, rcond=None)
    resid = f - a @ beta
    rms = float(np.sqrt(np.mean(resid**2)))
    return StarkMap(f0_ref_hz=float(beta[0]),
                    coefficients_hz_per_v={g: float(b) for g, b in zip(gates, beta[1:])},
                    reference_voltages=refs, residual_rms_hz=rms)


@dataclass(frozen=True)
class ToneConfig:
    """Sinusoidal voltage tone on one gate.

    ``phase=None`` means a fresh uniform phase every shot, matching an
    experiment whose tone generator free-runs against the pulse sequence.
    """

    gate: str
    f_tone: float
    amplitude_pp: float
    phase: float | None = None

    def __post_init__(self):
        if self.f_tone <= 0:
            raise ValueError(f"f_tone must be > 0, got {self.f_tone}")
        if self.amplitude_pp < 0:
            raise ValueError(f"amplitude_pp must be >= 0, got {self.amplitude_pp}")


@dataclass(frozen=True)
class ToneWave:
    """Deterministic detuning component induced by a voltage tone."""

    amplitude_rad_s: float
    f_tone: float
    phase: float | None


def tone_to_detuning(tone: ToneConfig, stark: StarkMap) -> ToneWave:
    """``delta_omega(t) = 2 pi |df/dV| (A_pp/2) sin(2 pi f t + phase)``."""
    amp = 2 * math.pi * abs(stark.coefficient(tone.gate)) * tone.amplitude_pp / 2.0
    return ToneWave(amplitude_rad_s=amp, f_tone=tone.f_tone, phase=tone.phase)


def harmonic_weights(n_pulses: int, f_tone: float, k_max: int = 7) -> list[dict]:
    """Filter weight seen by a tone from scan positions at its submultiples.

    Position k puts the filter fundamental at ``f_tone / k`` (wait time
    ``k / (2 f_tone)``), so the tone rides the k-th harmonic of the
    filter.  Weights are ``|Y(2 pi f_tone)|^2`` normalized to the k = 1
    (fundamental) position; even k collapse to the filter's even-harmonic
    nulls.
    """
    if n_pulses < 1 or f_tone <= 0 or k_max < 1:
        raise ValueError("n_pulses, f_tone and k_max must be positive")
    ref = None
    out = []
    for k in range(1, k_max + 1):
        tau = k / (2.0 * f_tone)
        sched = make_cpmg(n_pulses, n_pulses * tau)
        w = filter_function(sched, f_tone)
        if ref is None:
            ref = w
        out.append({"k": k, "weight": float(w / ref)})
    return out


# ---------------------------------------------------------------------------
# Tone-injection scan


@dataclass(frozen=True)
class ToneScanResult:
    """P_up over (filter frequency, tone amplitude) cells.

    ``p_up`` has shape (n_amplitudes, n_frequencies).  ``cell_info`` holds
    one dict per frequency column: pulse count, nominal and actual total
    time.  ``dropped`` lists wait times excluded because not even one
    pulse fits.
    """

    f_hz: np.ndarray
    amplitudes_vpp: np.ndarray
    p_up: np.ndarray
    std_err: np.ndarray
    shots: int
    cell_info: tuple[dict, ...] = ()
    dropped: tuple[float, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "f_hz", np.asarray(self.f_hz, dtype=float))
        object.__setattr__(self, "amplitudes_vpp",
                           np.asarray(self.amplitudes_vpp, dtype=float))
        for name in ("p_up", "std_err"):
            object.__setattr__(self, name, np.asarray(getattr(self, name), dtype=float))
        expect = (self.amplitudes_vpp.size, self.f_hz.size)
        if self.p_up.shape != expect or self.std_err.shape != expect:
            raise ValueError(f"p_up/std_err must have shape {expect}")


def _tone_cell(args) -> tuple[float, float]:
    (model, n_pulses, tau, amp_pp, coeff, f_tone, fixed_phase, shots,
     cell_seed, samples_per_interval, vis, floor) = args
    schedule = make_cpmg(n_pulses, n_pulses * tau)
    phase = PhaseFunctional.on_mc_grid(schedule, 1.0, samples_per_interval)
    h = phase.normal_weights(model)
    # the tone enters through the exact segment Fourier integral; only its
    # modulus matters once the phase is randomized
    y_mag = abs(response(schedule, f_tone))
    a = 2 * math.pi * abs(coeff) * (amp_pp / 2.0) * y_mag
    scale = math.sqrt(PSD_CHI_CALIBRATION)
    hits = 0
    normals = np.empty(phase.n - 1)
    # per shot, only Python floats: theta is rng.uniform(0, 2 pi)'s draw,
    # and p is ReadoutModel(vis, floor).apply's value
    for rng in derive_rngs(cell_seed, shots):
        phi_noise = float(spectra.trace_normals(phase.n, rng, normals).dot(h))
        theta = 2 * math.pi * rng.random() if fixed_phase is None else fixed_phase
        phi = scale * phi_noise + a * math.sin(theta)
        p = floor + vis * (0.5 * (1.0 + math.cos(phi)))
        hits += rng.binomial(1, min(max(p, 0.0), 1.0))
    p_hat = hits / shots
    se = math.sqrt(max(p_hat * (1 - p_hat), 0.25 / shots) / shots)
    return p_hat, se


def scan_columns(tau_grid, total_time: float):
    """The waits :func:`tone_scan` keeps, as ``(tau, n_pulses)`` pairs, and
    the ones it drops because not even half a pulse interval fits.  The
    passband of a kept column is ``1 / (2 * tau)``."""
    keep, dropped = [], []
    for tau in np.asarray(tau_grid, dtype=float).tolist():
        if total_time / tau < 0.5:
            dropped.append(tau)
        else:
            keep.append((tau, max(1, int(round(total_time / tau)))))
    return keep, dropped


def tone_column(f_hz, f_tone: float) -> int:
    """Index of the scan column that carries the tone: the nearest one,
    which must lie within 5% of ``f_tone``; ``ValueError`` otherwise."""
    f_hz = np.asarray(f_hz, dtype=float)
    if f_hz.size:
        col = int(np.argmin(np.abs(f_hz - f_tone)))
        if abs(f_hz[col] - f_tone) <= 0.05 * f_tone:
            return col
    raise ValueError(f"no scan column near {f_tone} Hz")


def tone_scan(model: SpectrumModel, tone: ToneConfig, stark: StarkMap,
              tau_grid, total_time: float, amplitudes_vpp, shots: int,
              seed: int, *, readout: ReadoutModel = HARDWARE_READOUT,
              samples_per_interval: int = TONE_SAMPLES_PER_INTERVAL
              ) -> ToneScanResult:
    """2D P_up map over (filter frequency, tone amplitude).

    Every cell runs a CPMG sequence with ``N = max(1, round(total_time /
    tau))`` pulses under the background model plus the tone; the actual
    window N*tau is recorded per column since N must be an integer.  Cells
    draw independent trajectories from seeds derived per (column, row),
    so worker count never changes the numbers.
    """
    coeff = stark.coefficient(tone.gate)
    amps = np.asarray(amplitudes_vpp, dtype=float)
    keep, dropped = scan_columns(tau_grid, total_time)
    info = [{"tau_wait": tau, "n_pulses": n_pulses, "f_hz": 1.0 / (2 * tau),
             "actual_total_time": n_pulses * tau} for tau, n_pulses in keep]
    jobs = []
    for col, (tau, n_pulses) in enumerate(keep):
        for row, amp in enumerate(amps):
            jobs.append((model, n_pulses, tau, float(amp), coeff,
                         tone.f_tone, tone.phase, shots,
                         derive_child_seed(seed, col, row),
                         samples_per_interval, readout.visibility, readout.floor))
    results = _parallel.submit(_tone_cell, jobs)()
    n_f, n_a = len(keep), amps.size
    p = np.empty((n_a, n_f))
    se = np.empty((n_a, n_f))
    for j, (p_hat, err) in enumerate(results):
        col, row = divmod(j, n_a)
        p[row, col] = p_hat
        se[row, col] = err
    return ToneScanResult(f_hz=np.array([1.0 / (2 * t) for t, _ in keep]),
                          amplitudes_vpp=amps, p_up=p, std_err=se, shots=shots,
                          cell_info=tuple(info), dropped=tuple(dropped))


def detect_tone_threshold(result: ToneScanResult, f_tone: float,
                          n_sigma: float = 3.0) -> dict:
    """Smallest amplitude at which the tone column separates from the rest.

    Detection at one amplitude row: the tone-column P_up sits below the
    median of the other columns by at least ``n_sigma`` pooled standard
    errors (median standard error scaled by the usual 1.2533/sqrt(K)
    efficiency factor).  Raises ``ValueError`` for a scan with one column,
    which leaves nothing to compare the tone column with.
    """
    col = tone_column(result.f_hz, f_tone)
    others = np.arange(result.f_hz.size) != col
    k_off = int(np.count_nonzero(others))
    if k_off == 0:
        raise ValueError("tone detection needs a second frequency column "
                         "to compare the tone column with; the scan has one")
    rows = []
    for i, amp in enumerate(result.amplitudes_vpp):
        ranked = np.sort(result.p_up[i, others]).tolist()  # NaN sorts last
        med = (math.nan if math.isnan(ranked[-1])  # np.median's value
               else (ranked[(k_off - 1) // 2] + ranked[k_off // 2]) / 2)
        se_med = 1.2533 * float(np.mean(result.std_err[i, others])) / math.sqrt(k_off)
        pooled = math.hypot(float(result.std_err[i, col]), se_med)
        deficit = med - float(result.p_up[i, col])
        rows.append({"amplitude_vpp": float(amp), "deficit": deficit,
                     "pooled_se": pooled,
                     "detected": bool(deficit > n_sigma * pooled)})
    detected = [r["amplitude_vpp"] for r in rows if r["detected"]]
    return {"threshold_vpp": min(detected) if detected else None,
            "tone_column_hz": float(result.f_hz[col]), "rows": rows}


def export_tone_scan(result: ToneScanResult, path) -> None:
    n_amp, n_f = result.p_up.shape
    write_columns(path, TONE_SCAN_HEADER,
                  (np.tile(result.f_hz, n_amp), np.repeat(result.amplitudes_vpp, n_f),
                   result.p_up.ravel(), result.std_err.ravel()))
