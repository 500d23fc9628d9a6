"""Where the PSD-to-coherence calibration constant comes from.

The spectroscopy protocol maps a 1/e time to a spectral density via
S = pi^2 / (4 T2).  Under the raw physical convention chi = S0 T / 4
for white noise, that mapping would return pi^2/16 of the true S0, so
the toolkit multiplies the PSD by 16/pi^2 inside both coherence engines
and nowhere else.  This script re-derives the constant by brute force
instead of trusting the algebra.
"""

import math

import numpy as np

from spinprobe import derive_child_seed
from spinprobe.analysis import fit_exponential, spectroscopy_scan
from spinprobe.qubitsim import PSD_CHI_CALIBRATION, coherence_mc
from spinprobe.sequences import make_cpmg
from spinprobe.spectra import SpectrumModel

S0 = 350.0
WHITE = SpectrumModel(powerlaws=(), white_floor=S0, lines=())

# 1. raw convention: measure the white 1/e time at calibration = 1, one
#    fixed-wait point per pulse count
tau = 1.0 / (2 * 5000.0)
counts = [2, 4, 8, 16, 32, 64]
times = [n * tau for n in counts]
points = [coherence_mc(WHITE, make_cpmg(n, t), 3000, derive_child_seed(42, i),
                       calibration=1.0, samples_per_interval=64)
          for i, (n, t) in enumerate(zip(counts, times))]
fit = fit_exponential(times, [p.w for p in points], [p.std_err for p in points])
print(f"raw 1/e time {fit.t2 * 1e3:.3f} ms vs 4/S0 = {4 / S0 * 1e3:.3f} ms")

# 2. push it through the protocol's mapping: S = pi^2 / (4 T2)
s_raw = math.pi ** 2 / (4 * fit.t2)
print(f"protocol returns {s_raw:.1f}, i.e. {s_raw / S0:.4f} of S0")
print(f"pi^2/16 = {math.pi ** 2 / 16:.4f}")

# 3. the fix-up constant is therefore 16/pi^2, which the package pins
print(f"\nPSD_CHI_CALIBRATION = {PSD_CHI_CALIBRATION!r}")
print(f"16/pi^2             = {16 / math.pi ** 2!r}")

# 4. with the constant in place the white round trip closes
scan = spectroscopy_scan(WHITE, np.geomspace(2e3, 3e4, 5), counts, 800,
                         seed=43, samples_per_interval=32)
for f, s in zip(scan.f, scan.s):
    print(f"  {f:8.0f} Hz: S = {s:6.1f}  (deviation {s / S0 - 1:+.1%})")
