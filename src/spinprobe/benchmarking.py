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

from ._rng import derive_rngs
from ._solve import brentq, fit_rb_decay
from .analysis import bounded_fit
from .qubitsim import ReadoutModel

__all__ = [
    "MAX_DEPOLARIZING",
    "PRIMITIVES",
    "CLIFFORD_DECOMPOSITIONS",
    "RbCurve",
    "RbFit",
    "clifford_unitaries",
    "compose_table",
    "inverse_indices",
    "primitive_counts",
    "mean_primitives_per_clifford",
    "clifford_fidelity_from_depolarizing",
    "depolarizing_from_clifford_fidelity",
    "primitive_fidelity_from_clifford",
    "rb_survival_probability",
    "rb_reference",
    "rb_interleaved",
    "fit_rb",
    "interleaved_gate_fidelity",
]

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


def _indices_of(us: np.ndarray) -> np.ndarray:
    """Table index of each unitary in ``us`` (shape ``(..., 2, 2)``), up to
    a global phase, as int8, from one lookup against the whole table."""
    table = clifford_unitaries()
    overlaps = np.abs(np.einsum("kij,...ij->...k", table.conj(), us))
    if np.any(np.abs(overlaps.max(axis=-1) - 2.0) > 1e-6):
        raise ValueError("unitary is not in the Clifford table")
    return np.argmax(overlaps, axis=-1).astype(np.int8)


@lru_cache(maxsize=1)
def compose_table() -> np.ndarray:
    """``table[i, j]`` = index of (Clifford i followed by Clifford j)."""
    us = clifford_unitaries()
    return _indices_of(np.einsum("jab,ibc->ijac", us, us))


@lru_cache(maxsize=1)
def inverse_indices() -> np.ndarray:
    return _indices_of(clifford_unitaries().conj().transpose(0, 2, 1))


def primitive_counts() -> np.ndarray:
    return np.array([len(w) for w in CLIFFORD_DECOMPOSITIONS])


def mean_primitives_per_clifford() -> float:
    return float(primitive_counts().mean())


# ---------------------------------------------------------------------------
# Error model


# largest per-primitive contraction d the error model inverts a Clifford
# fidelity for; clifford_fidelity_from_depolarizing(MAX_DEPOLARIZING) is
# the lowest fidelity it reaches
MAX_DEPOLARIZING = 0.9


def clifford_fidelity_from_depolarizing(d: float) -> float:
    """Average Clifford fidelity implied by a per-primitive contraction d.

    The RB decay per Clifford is p = mean_C (1-d)^(L_C); average fidelity
    follows as (1 + p)/2.
    """
    p = float(np.mean((1.0 - d) ** primitive_counts()))
    return (1.0 + p) / 2.0


def depolarizing_from_clifford_fidelity(f_clifford: float) -> float:
    """Invert :func:`clifford_fidelity_from_depolarizing` for d in
    [0, :data:`MAX_DEPOLARIZING`]."""
    floor = clifford_fidelity_from_depolarizing(MAX_DEPOLARIZING)
    if not floor <= f_clifford < 1.0:
        raise ValueError(f"Clifford fidelity must be in [{floor}, 1), "
                         f"got {f_clifford}")
    return float(brentq(lambda d: clifford_fidelity_from_depolarizing(d) - f_clifford,
                        0.0, MAX_DEPOLARIZING))


def primitive_fidelity_from_clifford(f_clifford: float) -> float:
    """Per-primitive fidelity from the Clifford average via the 1.875 ratio."""
    return 1.0 - (1.0 - f_clifford) / mean_primitives_per_clifford()


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

    def __post_init__(self):
        object.__setattr__(self, "depths", np.asarray(self.depths, dtype=int))
        for name in ("mean_survival", "std_err"):
            object.__setattr__(self, name, np.asarray(getattr(self, name), dtype=float))
        if not (self.depths.shape == self.mean_survival.shape == self.std_err.shape):
            raise ValueError("RB curve arrays must be congruent")


def _simulate_rb(depths, n_sequences: int, d: float, seed: int,
                 readout: ReadoutModel, shots: int | None,
                 interleaved: int | None) -> RbCurve:
    # Python lists and ints: indexing numpy arrays per Clifford would make
    # every step numpy scalar math
    counts = primitive_counts().tolist()
    comp = compose_table().tolist()
    inv = inverse_indices().tolist()
    means = []
    errs = []
    for di, m in enumerate(depths):
        vals = np.empty(n_sequences)
        for k, rng in enumerate(derive_rngs(seed, n_sequences, di)):
            net = 0
            total = 0
            for c in rng.integers(0, 24, size=m).tolist():
                net = comp[net][c]
                total += counts[c]
                if interleaved is not None:
                    net = comp[net][interleaved]
                    total += counts[interleaved]
            total += counts[inv[net]]
            # readout keeps p_obs inside [0, 1]
            p_obs = readout.apply(rb_survival_probability(total, d))
            if shots is not None:
                p_obs = rng.binomial(shots, p_obs) / shots
            vals[k] = p_obs
        means.append(vals.mean())
        errs.append(vals.std(ddof=1) / math.sqrt(n_sequences))
    return RbCurve(depths=np.asarray(depths), mean_survival=np.array(means),
                   std_err=np.array(errs), n_sequences=n_sequences)


def rb_reference(depths, n_sequences: int, d: float, seed: int, *,
                 readout: ReadoutModel = ReadoutModel(),
                 shots: int | None = None) -> RbCurve:
    """Standard RB: random Cliffords plus an exact recovery, depolarized."""
    return _simulate_rb(depths, n_sequences, d, seed, readout, shots,
                        interleaved=None)


def rb_interleaved(gate_index: int, depths, n_sequences: int, d: float,
                   seed: int, *, readout: ReadoutModel = ReadoutModel(),
                   shots: int | None = None) -> RbCurve:
    """Interleaved RB for the Clifford at ``gate_index``."""
    if not 0 <= gate_index < 24:
        raise ValueError(f"gate_index must be in [0, 24), got {gate_index}")
    return _simulate_rb(depths, n_sequences, d, seed, readout, shots,
                        interleaved=gate_index)


@dataclass(frozen=True)
class RbFit:
    """p of the a * p^M + b decay, and the fidelities it implies."""

    p: float
    p_err: float
    clifford_fidelity: float
    clifford_fidelity_err: float
    primitive_fidelity: float


def fit_rb(curve: RbCurve) -> RbFit:
    """Fit the exponential RB decay; p is invariant under affine readout."""
    m = curve.depths.astype(float)
    y = curve.mean_survival
    b0 = float(min(max(y[-1], -0.4), 0.9))
    a0 = float(min(max(y[0] - b0, 1e-3), 1.4))
    popt, perr, _ = bounded_fit(
        fit_rb_decay, m, y, curve.std_err, [a0, 0.995, b0],
        ([0.0, 0.5, -0.5], [1.5, 1.0, 1.0]), "RB",
        {"depths": m.tolist(), "survival": y.tolist()})
    p = popt[1]
    f_c = (1.0 + p) / 2.0
    return RbFit(p=float(p), p_err=float(perr[1]), clifford_fidelity=f_c,
                 clifford_fidelity_err=float(perr[1] / 2.0),
                 primitive_fidelity=primitive_fidelity_from_clifford(f_c))


def interleaved_gate_fidelity(p_reference: float, p_interleaved: float) -> float:
    """Gate fidelity from the ratio of interleaved to reference decays."""
    return 1.0 - (1.0 - p_interleaved / p_reference) / 2.0
