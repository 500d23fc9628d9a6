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

import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from . import _parallel
from ._rng import derive_child_seeds, derive_rng_rows
from .qubitsim import (HARDWARE_READOUT, PSD_CHI_CALIBRATION,
                       PhaseFunctional, ReadoutModel, mc_grid)
from .sequences import filter_function, make_cpmg, response
from .spectra import SpectrumModel

__all__ = [
    "TONE_SAMPLES_PER_INTERVAL",
    "StarkMap",
    "ToneConfig",
    "ToneScanResult",
    "default_stark_map",
    "esr_frequency",
    "plane_design",
    "fit_stark_map",
    "tone_amplitude",
    "harmonic_weights",
    "scan_columns",
    "tone_column",
    "tone_scan",
    "detect_tone_threshold",
]

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


def plane_design(voltages: dict[str, np.ndarray],
                 reference_voltages: dict[str, float]) -> np.ndarray:
    """Design matrix of the Stark plane fit: ones, then ``V_g - ref_g``
    for each gate in sorted order, over per-gate 1-D voltage arrays of
    equal length.  Raises ``LinAlgError`` where the plane is not
    identifiable: the points lie along one gate axis, or one column is so
    large that the others fall below the rank tolerance."""
    cols = [np.asarray(voltages[g], dtype=float) - reference_voltages.get(g, 0.0)
            for g in sorted(voltages)]
    a = np.vstack([np.ones_like(cols[0]), *cols]).T
    if a.shape[0] < a.shape[1] or np.linalg.matrix_rank(a) < a.shape[1]:
        raise np.linalg.LinAlgError(
            "degenerate voltage grid: plane fit needs spread in every gate")
    return a


def fit_stark_map(voltages: dict[str, np.ndarray], f_hz,
                  reference_voltages: dict[str, float] | None = None) -> StarkMap:
    """Least-squares plane through measured (gate voltages, frequency) points.

    Voltages are per-gate arrays of the frequencies' length.  Raises on
    a design :func:`plane_design` rejects.
    """
    gates = sorted(voltages)
    f = np.asarray(f_hz, dtype=float)
    refs = dict(reference_voltages or {g: 0.0 for g in gates})
    a = plane_design(voltages, refs)
    if f.shape != (a.shape[0],):
        raise ValueError("voltage and frequency arrays differ in length")
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


def tone_amplitude(coefficient_hz_per_v: float, amplitude_pp: float) -> float:
    """Peak detuning in rad/s of a tone of ``amplitude_pp`` volts peak to
    peak on a gate of that Stark coefficient: the tone adds
    ``delta_omega(t) = 2 pi |df/dV| (A_pp/2) sin(2 pi f t + phase)``."""
    return 2 * math.pi * abs(coefficient_hz_per_v) * (amplitude_pp / 2.0)


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


def _tone_column(args) -> list[tuple[float, float]]:
    """``(p_hat, std_err)`` of every amplitude row of one scan column.

    The column's noise weights and tone response are built once; shot j
    of row i draws from ``derive_rng(cell_seeds[i], j)``, and every shot
    stream of the column is hashed in one pass."""
    (model, n_pulses, tau, amps_pp, coeff, f_tone, fixed_phase, shots,
     cell_seeds, samples_per_interval, vis, floor) = args
    schedule = make_cpmg(n_pulses, n_pulses * tau)
    phase = PhaseFunctional(schedule, *mc_grid(
        n_pulses, schedule.total_time, 1.0, samples_per_interval))
    h = phase.normal_weights(model)
    # the tone enters through the exact segment Fourier integral; only its
    # modulus matters once the phase is randomized
    y_mag = abs(response(schedule, f_tone))
    scale = math.sqrt(PSD_CHI_CALIBRATION)
    # each shot's n - 1 normals in synthesis' draw order: the real parts
    # of rfft bins 1..(n-1)//2, their imaginary parts, then an even n's
    # Nyquist bin
    normals = np.empty(phase.n - 1)
    streams = derive_rng_rows(cell_seeds, shots)
    cells = []
    for amp_pp in amps_pp:
        a = tone_amplitude(coeff, amp_pp) * y_mag
        hits = 0
        # per shot, only Python floats: theta is rng.uniform(0, 2 pi)'s
        # draw, and p is ReadoutModel(vis, floor).apply's value
        for rng in itertools.islice(streams, shots):
            phi_noise = float(rng.standard_normal(out=normals).dot(h))
            theta = 2 * math.pi * rng.random() if fixed_phase is None else fixed_phase
            phi = scale * phi_noise + a * math.sin(theta)
            p = floor + vis * (0.5 * (1.0 + math.cos(phi)))
            hits += rng.binomial(1, min(max(p, 0.0), 1.0))
        p_hat = hits / shots
        se = math.sqrt(max(p_hat * (1 - p_hat), 0.25 / shots) / shots)
        cells.append((p_hat, se))
    return cells


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
              columns, amplitudes_vpp, shots: int,
              seed: int, *, readout: ReadoutModel = HARDWARE_READOUT,
              samples_per_interval: int = TONE_SAMPLES_PER_INTERVAL
              ) -> ToneScanResult:
    """2D P_up map over (filter frequency, tone amplitude).

    ``columns`` is :func:`scan_columns`' ``(keep, dropped)``.  Every cell of
    a kept column runs its CPMG sequence under the background model plus
    the tone; the actual window N*tau is recorded per column.  Cells
    draw independent trajectories from seeds derived per (column, row),
    so worker count never changes the numbers; each column is one job.
    """
    coeff = stark.coefficient(tone.gate)
    amps = np.asarray(amplitudes_vpp, dtype=float)
    keep, dropped = columns
    info = [{"tau_wait": tau, "n_pulses": n_pulses, "f_hz": 1.0 / (2 * tau),
             "actual_total_time": n_pulses * tau} for tau, n_pulses in keep]
    jobs = [(model, n_pulses, tau, amps.tolist(), coeff, tone.f_tone,
             tone.phase, shots,
             derive_child_seeds(seed, amps.size, col),
             samples_per_interval, readout.visibility, readout.floor)
            for col, (tau, n_pulses) in enumerate(keep)]
    columns = _parallel.submit(_tone_column, jobs)()
    # (n_amplitudes, n_columns); an empty scan keeps that shape
    cells = np.array(columns, dtype=float).reshape(len(keep), amps.size, 2)
    p, se = cells.transpose(2, 1, 0)
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
