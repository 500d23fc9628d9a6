"""Single-qubit randomized benchmarking on a primitive pulse set.

The 24 Cliffords are expressed as short products of the hardware
primitives {I, X90, -X90, Y90, -Y90, X180, Y180}; the table below uses
45 primitives in total (1.875 per Clifford on average) and every word is
as short as the group metric allows, which the tests verify by BFS.

Gate errors are modelled as a uniform depolarizing kick per primitive:
each primitive shrinks the Bloch vector by (1 - d).  Uniform contraction
commutes with every rotation, so a length-L sequence that ideally returns
to the pole gives survival (1 + (1-d)^L)/2 exactly.  Randomizing over
Cliffords then yields the textbook a*p^M + b decay with
p = mean_C (1-d)^(L_C), which keeps the whole chain analytically
checkable while still exercising the fitting stack.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy import optimize as _optimize

from ._csvio import read_columns, write_columns
from ._rng import derive_rngs
from .analysis import FitError
from .qubitsim import ReadoutModel

__all__ = [
    "PRIMITIVES",
    "PRIMITIVE_DURATIONS",
    "CLIFFORD_DECOMPOSITIONS",
    "RbCurve",
    "RbFit",
    "clifford_unitaries",
    "same_up_to_phase",
    "compose_table",
    "inverse_indices",
    "primitive_counts",
    "mean_primitives_per_clifford",
    "minimal_word_lengths",
    "clifford_fidelity_from_depolarizing",
    "depolarizing_from_clifford_fidelity",
    "primitive_fidelity_from_clifford",
    "sequence_duration",
    "rb_survival_probability",
    "rb_reference",
    "rb_interleaved",
    "fit_rb",
    "interleaved_gate_fidelity",
    "export_rb_curve",
    "import_rb_curve",
]

RB_HEADER = "M,mean_survival,std_err,n_sequences"

_SX = np.array([[0, 1], [1, 0]], dtype=complex)
_SY = np.array([[0, -1j], [1j, 0]], dtype=complex)
_ID = np.eye(2, dtype=complex)


def _rot(axis: np.ndarray, angle: float) -> np.ndarray:
    return math.cos(angle / 2) * _ID - 1j * math.sin(angle / 2) * axis

PRIMITIVES: dict[str, np.ndarray] = {
    "I": _ID.copy(),
    "X90": _rot(_SX, math.pi / 2),
    "-X90": _rot(_SX, -math.pi / 2),
    "Y90": _rot(_SY, math.pi / 2),
    "-Y90": _rot(_SY, -math.pi / 2),
    "X180": _rot(_SX, math.pi),
    "Y180": _rot(_SY, math.pi),
}

# pi pulses run at half the drive period of the pi/2s on this hardware model;
# the idle is padded to the pi/2 length
PRIMITIVE_DURATIONS: dict[str, float] = {
    "I": 0.875e-6,
    "X90": 0.875e-6,
    "-X90": 0.875e-6,
    "Y90": 0.875e-6,
    "-Y90": 0.875e-6,
    "X180": 1.75e-6,
    "Y180": 1.75e-6,
}

INTER_PRIMITIVE_GAP_S = 100e-9

# Application order: first pulse played first.  Grouped by rotation class:
# Paulis, the eight 2pi/3 axis rotations, the six pi/2s, the six Hadamard-like
# pi rotations.
CLIFFORD_DECOMPOSITIONS: tuple[tuple[str, ...], ...] = (
    ("I",),
    ("X180",),
    ("Y180",),
    ("X180", "Y180"),
    ("X90", "Y90"),
    ("X90", "-Y90"),
    ("-X90", "Y90"),
    ("-X90", "-Y90"),
    ("Y90", "X90"),
    ("Y90", "-X90"),
    ("-Y90", "X90"),
    ("-Y90", "-X90"),
    ("X90",),
    ("-X90",),
    ("Y90",),
    ("-Y90",),
    ("-X90", "Y90", "X90"),
    ("-X90", "-Y90", "X90"),
    ("X180", "Y90"),
    ("X180", "-Y90"),
    ("Y180", "X90"),
    ("Y180", "-X90"),
    ("X90", "Y90", "X90"),
    ("-X90", "Y90", "-X90"),
)


def _word_unitary(word: tuple[str, ...]) -> np.ndarray:
    u = _ID
    for name in word:
        u = PRIMITIVES[name] @ u
    return u


@lru_cache(maxsize=1)
def clifford_unitaries() -> np.ndarray:
    """(24, 2, 2) array of the table's unitaries, in application order."""
    return np.stack([_word_unitary(w) for w in CLIFFORD_DECOMPOSITIONS])


def same_up_to_phase(a: np.ndarray, b: np.ndarray, tol: float = 1e-9) -> bool:
    """True when two 2x2 unitaries differ only by a global phase."""
    return abs(abs(np.trace(a.conj().T @ b)) - 2.0) < tol


def _index_of(u: np.ndarray) -> int:
    table = clifford_unitaries()
    overlaps = np.abs(np.einsum("kij,ij->k", table.conj(), u))
    k = int(np.argmax(overlaps))
    if abs(overlaps[k] - 2.0) > 1e-6:
        raise ValueError("unitary is not in the Clifford table")
    return k


@lru_cache(maxsize=1)
def compose_table() -> np.ndarray:
    """``table[i, j]`` = index of (Clifford i followed by Clifford j)."""
    us = clifford_unitaries()
    out = np.empty((24, 24), dtype=np.int8)
    for i in range(24):
        for j in range(24):
            out[i, j] = _index_of(us[j] @ us[i])
    return out


@lru_cache(maxsize=1)
def inverse_indices() -> np.ndarray:
    us = clifford_unitaries()
    return np.array([_index_of(us[i].conj().T) for i in range(24)], dtype=np.int8)


def primitive_counts() -> np.ndarray:
    return np.array([len(w) for w in CLIFFORD_DECOMPOSITIONS])


def mean_primitives_per_clifford() -> float:
    return float(primitive_counts().mean())


def minimal_word_lengths() -> np.ndarray:
    """BFS distance from the identity over the non-idle primitives.

    The identity Clifford reports 1: it is realized as an explicit idle
    pulse, never as an empty word.
    """
    gens = [PRIMITIVES[k] for k in PRIMITIVES if k != "I"]
    dist = np.full(24, -1)
    frontier = [_ID]
    depth = 0
    while np.any(dist < 0):
        depth += 1
        nxt = []
        for u in frontier:
            for g in gens:
                v = g @ u
                k = _index_of(v)
                if dist[k] < 0:
                    dist[k] = depth
                    nxt.append(v)
        frontier = nxt
        if depth > 6:
            raise RuntimeError("primitive set does not generate the group")
    dist[0] = 1  # idle convention
    return dist


# ---------------------------------------------------------------------------
# Error model


def clifford_fidelity_from_depolarizing(d: float) -> float:
    """Average Clifford fidelity implied by a per-primitive contraction d.

    The RB decay per Clifford is p = mean_C (1-d)^(L_C); average fidelity
    follows as (1 + p)/2.
    """
    p = float(np.mean((1.0 - d) ** primitive_counts()))
    return (1.0 + p) / 2.0


def depolarizing_from_clifford_fidelity(f_clifford: float) -> float:
    """Invert :func:`clifford_fidelity_from_depolarizing` for d."""
    if not 0.5 < f_clifford < 1.0:
        raise ValueError(f"Clifford fidelity must be in (0.5, 1), got {f_clifford}")
    return float(_optimize.brentq(
        lambda d: clifford_fidelity_from_depolarizing(d) - f_clifford, 0.0, 0.9))


def primitive_fidelity_from_clifford(f_clifford: float) -> float:
    """Per-primitive fidelity from the Clifford average via the 1.875 ratio."""
    return 1.0 - (1.0 - f_clifford) / mean_primitives_per_clifford()


def sequence_duration(words: list[tuple[str, ...]],
                      gap_s: float = INTER_PRIMITIVE_GAP_S) -> float:
    """Wall-clock duration of a pulse sequence including inter-pulse gaps."""
    names = [name for w in words for name in w]
    if not names:
        return 0.0
    return sum(PRIMITIVE_DURATIONS[n] for n in names) + gap_s * (len(names) - 1)


def rb_survival_probability(total_primitives: int, d: float) -> float:
    """Ideal-recovery survival after a length-L depolarized sequence."""
    return 0.5 + 0.5 * (1.0 - d) ** total_primitives


# ---------------------------------------------------------------------------
# Experiments


@dataclass(frozen=True)
class RbCurve:
    """Mean survival versus number of Cliffords M (recovery excluded from M)."""

    depths: np.ndarray
    mean_survival: np.ndarray
    std_err: np.ndarray
    n_sequences: int
    label: str = "reference"

    def __post_init__(self):
        object.__setattr__(self, "depths", np.asarray(self.depths, dtype=int))
        for name in ("mean_survival", "std_err"):
            object.__setattr__(self, name, np.asarray(getattr(self, name), dtype=float))
        if not (self.depths.shape == self.mean_survival.shape == self.std_err.shape):
            raise ValueError("RB curve arrays must be congruent")


def _simulate_rb(depths, n_sequences: int, d: float, seed: int,
                 readout: ReadoutModel, shots: int | None,
                 interleaved: int | None, label: str) -> RbCurve:
    counts = primitive_counts()
    comp = compose_table()
    inv = inverse_indices()
    means = []
    errs = []
    for di, m in enumerate(depths):
        vals = np.empty(n_sequences)
        for k, rng in enumerate(derive_rngs(seed, n_sequences, di)):
            choice = rng.integers(0, 24, size=m)
            net = 0
            total = 0
            for c in choice:
                net = comp[net, c]
                total += counts[c]
                if interleaved is not None:
                    net = comp[net, interleaved]
                    total += counts[interleaved]
            rec = inv[net]
            total += counts[rec]
            p_obs = readout.apply(rb_survival_probability(int(total), d))
            if shots is not None:
                p_obs = rng.binomial(shots, min(max(p_obs, 0.0), 1.0)) / shots
            vals[k] = p_obs
        means.append(vals.mean())
        errs.append(vals.std(ddof=1) / math.sqrt(n_sequences))
    return RbCurve(depths=np.asarray(depths), mean_survival=np.array(means),
                   std_err=np.array(errs), n_sequences=n_sequences, label=label)


def rb_reference(depths, n_sequences: int, d: float, seed: int, *,
                 readout: ReadoutModel = ReadoutModel(),
                 shots: int | None = None) -> RbCurve:
    """Standard RB: random Cliffords plus an exact recovery, depolarized."""
    return _simulate_rb(depths, n_sequences, d, seed, readout, shots,
                        interleaved=None, label="reference")


def rb_interleaved(gate_index: int, depths, n_sequences: int, d: float,
                   seed: int, *, readout: ReadoutModel = ReadoutModel(),
                   shots: int | None = None) -> RbCurve:
    """Interleaved RB for the Clifford at ``gate_index``."""
    if not 0 <= gate_index < 24:
        raise ValueError(f"gate_index must be in [0, 24), got {gate_index}")
    return _simulate_rb(depths, n_sequences, d, seed, readout, shots,
                        interleaved=gate_index,
                        label=f"interleaved:{'+'.join(CLIFFORD_DECOMPOSITIONS[gate_index])}")


@dataclass(frozen=True)
class RbFit:
    """a * p^M + b decay parameters and the fidelities they imply."""

    p: float
    p_err: float
    amplitude: float
    offset: float
    clifford_fidelity: float
    clifford_fidelity_err: float
    primitive_fidelity: float

    def evaluate(self, depths):
        return self.amplitude * self.p ** np.asarray(depths, dtype=float) + self.offset


def fit_rb(curve: RbCurve) -> RbFit:
    """Fit the exponential RB decay; p is invariant under affine readout."""
    m = curve.depths.astype(float)
    y = curve.mean_survival
    sig = curve.std_err if np.any(curve.std_err > 0) else None
    if sig is not None:
        sig = np.maximum(sig, sig[sig > 0].min() * 1e-3)
    b0 = float(min(max(y[-1], -0.4), 0.9))
    a0 = float(min(max(y[0] - b0, 1e-3), 1.4))
    p0 = 0.995

    def model(mm, a, p, b):
        return a * p**mm + b

    try:
        popt, pcov = _optimize.curve_fit(
            model, m, y, p0=[a0, p0, b0], sigma=sig,
            absolute_sigma=sig is not None,
            bounds=([0.0, 0.5, -0.5], [1.5, 1.0, 1.0]), maxfev=20000)
    except (RuntimeError, ValueError) as exc:
        raise FitError(f"RB fit failed: {exc}",
                       {"depths": m.tolist(), "survival": y.tolist()}) from exc
    a, p, b = popt
    perr = np.sqrt(np.diag(pcov))
    if not np.all(np.isfinite(perr)):
        raise FitError("RB fit covariance is degenerate",
                       {"popt": [float(v) for v in popt]})
    f_c = (1.0 + p) / 2.0
    return RbFit(p=float(p), p_err=float(perr[1]), amplitude=float(a),
                 offset=float(b), clifford_fidelity=f_c,
                 clifford_fidelity_err=float(perr[1] / 2.0),
                 primitive_fidelity=primitive_fidelity_from_clifford(f_c))


def interleaved_gate_fidelity(p_reference: float, p_interleaved: float) -> float:
    """Gate fidelity from the ratio of interleaved to reference decays."""
    return 1.0 - (1.0 - p_interleaved / p_reference) / 2.0


def export_rb_curve(curve: RbCurve, path) -> None:
    write_columns(path, RB_HEADER, (curve.depths, curve.mean_survival, curve.std_err,
                                    np.full(curve.depths.size, curve.n_sequences)))


def import_rb_curve(path) -> RbCurve:
    _, (depths, survival, std_err, n_seq) = read_columns(path, RB_HEADER)
    return RbCurve(depths=depths.astype(int), mean_survival=survival,
                   std_err=std_err, n_sequences=int(n_seq[0]))
