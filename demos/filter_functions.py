"""Pulse schedules and the spectral filters they implement.

A CPMG train with wait time tau passes a band at 1/(2 tau) and rejects
even harmonics; more pulses sharpen the band.  Everything here is the
exact closed form, no sampling.
"""

import numpy as np

from spinprobe.sequences import filter_function, make_cpmg, make_ramsey

TOTAL = 1e-3

# free evolution integrates everything down to DC; one echo (CPMG-1, the
# Hahn echo) kills DC
ramsey = make_ramsey(TOTAL)
hahn = make_cpmg(1, TOTAL)
print("dc weight  ramsey", filter_function(ramsey, 0.0),
      " hahn", filter_function(hahn, 0.0))

for n in (2, 4, 16):
    sched = make_cpmg(n, TOTAL)
    f1 = n / (2 * TOTAL)
    peak = filter_function(sched, f1)
    print(f"\nCPMG-{n}: passband {f1:7.0f} Hz")
    for k in (2, 3, 4, 5):
        rel = filter_function(sched, k * f1) / peak
        print(f"   harmonic {k}: {rel:10.3e} of peak")

# total weight is conserved: int |Y|^2 df = T/2 whatever the pulses do
sched = make_cpmg(8, TOTAL)
cap = 400 * 8 / (2 * TOTAL)
f = np.linspace(1e-2, cap, 400_001)
integral = np.trapezoid(filter_function(sched, f), f)
tail = (4 * 8 + 2) / (4 * np.pi ** 2 * cap)
print(f"\nparseval: {integral + tail:.8g} vs T/2 = {TOTAL / 2:.8g}")
