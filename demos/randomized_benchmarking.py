"""Randomized benchmarking end to end: group table, decay, fidelity.

The 24 single-qubit Cliffords are compiled to {I, +-X90, +-Y90, X180,
Y180} words (1.875 primitives per Clifford on average).  A depolarizing
channel of strength d acts once per Clifford; the survival decay
recovers the fidelity it implies, through a hardware-like readout.
"""

import numpy as np

from spinprobe.benchmarking import (CLIFFORD_DECOMPOSITIONS,
                                    clifford_fidelity_from_depolarizing,
                                    depolarizing_from_clifford_fidelity,
                                    fit_rb, interleaved_gate_fidelity,
                                    mean_primitives_per_clifford,
                                    primitive_fidelity_from_clifford,
                                    rb_interleaved, rb_reference)
from spinprobe.qubitsim import ReadoutModel

F_TARGET = 0.9983
DEPTHS = [1, 2, 4, 8, 16, 32, 64, 128, 200, 300]
READOUT = ReadoutModel(visibility=0.55, floor=0.225)

d = depolarizing_from_clifford_fidelity(F_TARGET)
print(f"target F_c {F_TARGET} -> depolarizing d {d:.6g}")
print(f"round trip F_c {clifford_fidelity_from_depolarizing(d):.6f}")
print(f"mean primitives per Clifford {mean_primitives_per_clifford()}")
print(f"implied primitive fidelity {primitive_fidelity_from_clifford(F_TARGET):.6f}")

curve = rb_reference(DEPTHS, 30, d, seed=7, readout=READOUT, shots=100)
fit = fit_rb(curve)
print("\nreference RB, 30 sequences x 100 shots:")
for m, s, e in zip(curve.depths, curve.mean_survival, curve.std_err):
    print(f"  depth {m:3d}: {s:.3f} +- {e:.3f}")
print(f"fit: p {fit.p:.5f}, F_c {fit.clifford_fidelity:.5f} "
      f"+- {fit.clifford_fidelity_err:.5f}")

# interleaving a specific Clifford isolates its own fidelity
inter = rb_interleaved(5, DEPTHS, 30, d, seed=8, readout=READOUT, shots=100)
fit_i = fit_rb(inter)
f_gate = interleaved_gate_fidelity(fit.p, fit_i.p)
word = "+".join(CLIFFORD_DECOMPOSITIONS[5])
print(f"\ninterleaved ({word}): p {fit_i.p:.5f}, "
      f"gate fidelity {f_gate:.5f}")
