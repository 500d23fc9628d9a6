"""Two routes to the same decay: analytic filter integral vs Monte Carlo.

coherence_mc draws noise phases on the trace grid of a decay point
(mc_point) and averages cos(phase); chi_ff integrates S(f)|Y(2 pi f)|^2.  They must agree for every spectrum and
pulse count, which is the toolkit's core self-check.
"""

import math

import numpy as np

from spinprobe.qubitsim import chi_ff, coherence_mc, decay_vs_time, mc_point
from spinprobe.sequences import make_cpmg
from spinprobe.spectra import PowerLawTerm, SpectrumModel

WHITE = SpectrumModel(powerlaws=(), white_floor=350.0, lines=())
PINK = SpectrumModel(powerlaws=(PowerLawTerm(3e7, 1.0),),
                     white_floor=0.0, lines=())

# -- white noise, one schedule, both engines ------------------------------
sched = make_cpmg(8, 2e-3)
w_ff = math.exp(-chi_ff(WHITE, sched))
point = coherence_mc(WHITE, mc_point(8, 2e-3, samples_per_interval=64), 2000,
                     seed=3)
print(f"white CPMG-8, T = 2 ms:")
print(f"  analytic  W = {w_ff:.4f}")
print(f"  monte carlo W = {point.w:.4f} +- {point.std_err:.4f}")

# -- chi values are additive in the spectrum ------------------------------
chi_w = chi_ff(WHITE, sched)
chi_p = chi_ff(PINK, sched)
both = SpectrumModel(powerlaws=PINK.powerlaws, white_floor=350.0, lines=())
print(f"\nchi additivity: {chi_w:.5f} + {chi_p:.5f} = "
      f"{chi_ff(both, sched):.5f}")

# -- a full decay curve under 1/f noise -----------------------------------
times = np.geomspace(2e-4, 6e-3, 8)
curve = decay_vs_time(PINK, 4, times, 400, seed=21, samples_per_interval=32)
print("\n1/f decay, CPMG-4:")
for t, w, e in zip(curve.times, curve.w, curve.std_err):
    bar = "#" * int(round(40 * max(w, 0.0)))
    print(f"  t = {t * 1e3:6.2f} ms  W = {w:6.3f} +- {e:.3f}  {bar}")
