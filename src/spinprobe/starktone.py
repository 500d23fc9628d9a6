"""Gate-voltage Stark coupling and the injected-tone verification experiment.

A gate voltage pulls the qubit frequency linearly (the Stark map).  Driving
a gate with a small sinusoidal tone therefore modulates the detuning
deterministically; a CPMG filter tuned near the tone frequency converts
that modulation into extra dephasing.  Scanning wait time against tone
amplitude produces the characteristic response map: a strong dip at the
tone frequency, weaker dips at odd submultiples (where the tone rides an
odd filter harmonic), and nothing at even submultiples where the filter
has exact nulls.  A kept column is one decay point, laid out once by
:func:`scan_columns`.  Its shots come in pairs, one pair per stream of
:func:`spinprobe._rng.derive_rngs`: each stream fills one row of the
cell's block of normals, then draws the pair's tone phases and readout
uniforms.  The block's rows give the pairs' two background noise phases
through :func:`spinprobe.qubitsim.block_phases`, the Monte Carlo decay
engine's chunked product, and each chunk's shots play as array
operations.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import _parallel
from ._rng import derive_child_seeds, derive_rngs
from .qubitsim import (HARDWARE_READOUT, ReadoutModel, block_phases, decay_table,
                       phase_draw)
from .sequences import cpmg_filter_function
from .spectra import SpectrumModel

__all__ = [
    "TONE_SAMPLES_PER_INTERVAL",
    "StarkMap",
    "ToneScanResult",
    "default_stark_map",
    "esr_frequency",
    "plane_design",
    "fit_stark_map",
    "tone_amplitude",
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
            raise KeyError(f"{gate!r} is not a gate of the Stark map "
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


def tone_amplitude(coefficient_hz_per_v: float, amplitude_vpp: float) -> float:
    """Peak detuning in rad/s of a tone of ``amplitude_vpp`` volts peak to
    peak on a gate of that Stark coefficient: the tone adds
    ``delta_omega(t) = 2 pi |df/dV| (A_pp/2) sin(2 pi f t + phase)``."""
    return 2 * math.pi * abs(coefficient_hz_per_v) * (amplitude_vpp / 2.0)


# ---------------------------------------------------------------------------
# Tone-injection scan


@dataclass(frozen=True)
class ToneScanResult:
    """P_up over (filter frequency, tone amplitude) cells.

    ``p_up`` has shape (n_amplitudes, n_frequencies).  ``dropped`` lists
    wait times excluded because not even half a pulse interval fits.
    """

    f_hz: np.ndarray
    amplitudes_vpp: np.ndarray
    p_up: np.ndarray
    std_err: np.ndarray
    shots: int
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

    The column's noise weights (:func:`qubitsim.phase_draw` at its point)
    and tone response are built once.  Shots 2j and 2j + 1 of amplitude
    i play on the stream ``derive_rng(cell_seeds[i], j)``: it fills row j
    of the cell's block of normals, whose two phases are the pair's noise
    phases, then draws one ``rng.random(4)`` holding each shot's tone
    phase (as a fraction of a turn) and then its readout uniform, or
    ``rng.random(2)``, the two readout uniforms, at a fixed tone phase.
    :func:`qubitsim.block_phases` plays the block a chunk of rows at a
    time, and each chunk's shots play as array operations.  A shot is a
    hit when its uniform falls below its P_up; an odd ``shots`` drops the
    last pair's second shot."""
    (model, point, amps_pp, coeff, f_tone, fixed_phase, shots, cell_seeds,
     readout) = args
    weights = phase_draw(model, point).weights
    # only the modulus of the tone's response matters once its phase is random
    y_mag = math.sqrt(cpmg_filter_function(point.n_pulses, point.total_time,
                                           f_tone))
    width = 4 if fixed_phase is None else 2
    phases = np.empty(((shots + 1) // 2, 2))  # reused by every cell
    cells = []
    for amp_pp, cell_seed in zip(amps_pp, cell_seeds):
        a = tone_amplitude(coeff, amp_pp) * y_mag
        streams = derive_rngs(cell_seed, len(phases))

        def fill(rows):
            # each pair's normals, then its uniforms, from its own stream
            uniforms = np.empty((len(rows), width))
            for row, u, rng in zip(rows, uniforms, streams):
                rng.standard_normal(out=row)
                rng.random(out=u)
            return uniforms

        hits, left = 0, shots
        for u, phi in block_phases(weights, phases, fill):
            if fixed_phase is None:
                tone, reads = a * np.sin((2 * math.pi) * u[:, 0::2]), u[:, 1::2]
            else:
                tone, reads = a * math.sin(fixed_phase), u
            # readout keeps p inside [0, 1]
            p = readout.apply(0.5 * (1.0 + np.cos(phi + tone)))
            hit = (reads < p).ravel()[:left]
            hits += int(np.count_nonzero(hit))
            left -= hit.size
        p_hat = hits / shots
        se = math.sqrt(max(p_hat * (1 - p_hat), 0.25 / shots) / shots)
        cells.append((p_hat, se))
    return cells


def scan_columns(tau_grid, total_time: float,
                 samples_per_interval: int = TONE_SAMPLES_PER_INTERVAL):
    """The waits :func:`tone_scan` keeps, as ``(tau, point)`` pairs, and
    the ones it drops because not even half a pulse interval fits.  A
    point plays N = round(total_time / tau) >= 1 pulses over N * tau on a
    trace as long as the sequence (:func:`qubitsim.decay_table` at
    duration factor 1); its passband is ``1 / (2 * tau)``."""
    kept, dropped = [], []
    for tau in np.asarray(tau_grid, dtype=float).tolist():
        if total_time / tau < 0.5:
            dropped.append(tau)
        else:
            kept.append((tau, max(1, int(round(total_time / tau)))))
    table = decay_table([(n, [n * tau]) for tau, n in kept], 1.0, samples_per_interval)
    return [(tau, point) for (tau, _), (point,) in zip(kept, table)], dropped


def tone_column(f_hz, f_tone: float) -> int:
    """Index of the scan column that carries the tone: the nearest one,
    which must lie within 5% of ``f_tone``; ``ValueError`` otherwise."""
    f_hz = np.asarray(f_hz, dtype=float)
    if f_hz.size:
        col = int(np.argmin(np.abs(f_hz - f_tone)))
        if abs(f_hz[col] - f_tone) <= 0.05 * f_tone:
            return col
    raise ValueError(f"no scan column near {f_tone} Hz")


def tone_scan(model: SpectrumModel, coefficient_hz_per_v: float, f_tone: float,
              phase: float | None, columns, amplitudes_vpp, shots: int,
              seed: int, *, readout: ReadoutModel = HARDWARE_READOUT
              ) -> ToneScanResult:
    """2D P_up map over (filter frequency, tone amplitude).

    The tone is a sinusoid of ``f_tone`` Hz on a gate of Stark coefficient
    ``coefficient_hz_per_v``; ``phase=None`` means a fresh uniform phase
    every shot, matching an experiment whose tone generator free-runs
    against the pulse sequence.  ``columns`` is :func:`scan_columns`'
    ``(keep, dropped)``.  Every cell of a kept column runs its CPMG
    sequence under the background model plus the tone.  Cells draw
    independent trajectories from seeds derived per (column, row), so
    worker count never changes the numbers; each column is one job.
    """
    if f_tone <= 0:
        raise ValueError(f"f_tone must be > 0, got {f_tone}")
    amps = np.asarray(amplitudes_vpp, dtype=float)
    keep, dropped = columns
    jobs = [(model, point, amps.tolist(), coefficient_hz_per_v, f_tone,
             phase, shots, derive_child_seeds(seed, amps.size, col), readout)
            for col, (_, point) in enumerate(keep)]
    columns = _parallel.submit(_tone_column, jobs)()
    # (n_amplitudes, n_columns); an empty scan keeps that shape
    cells = np.array(columns, dtype=float).reshape(len(keep), amps.size, 2)
    p, se = cells.transpose(2, 1, 0)
    return ToneScanResult(f_hz=np.array([1.0 / (2 * t) for t, _ in keep]),
                          amplitudes_vpp=amps, p_up=p, std_err=se, shots=shots,
                          dropped=tuple(dropped))


def detect_tone_threshold(result: ToneScanResult, f_tone: float) -> dict:
    """Smallest amplitude at which the tone column separates from the rest.

    Detection at one amplitude row: the tone-column P_up sits below the
    median of the other columns by more than 3 pooled standard
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
                     "detected": bool(deficit > 3.0 * pooled)})
    detected = [r["amplitude_vpp"] for r in rows if r["detected"]]
    return {"threshold_vpp": min(detected) if detected else None,
            "tone_column_hz": float(result.f_hz[col]), "rows": rows}
