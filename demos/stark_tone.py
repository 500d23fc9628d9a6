"""Stark shifts turned into a calibrated noise-injection instrument.

A plane fit over gate voltages gives df/dV per gate; a sinusoidal tone
on one gate then injects a detuning line of known integrated power, and
a passband scan sees it only where the filter has odd-harmonic weight.
"""

import numpy as np

from spinprobe.qubitsim import ReadoutModel
from spinprobe.sequences import cpmg_filter_function
from spinprobe.spectra import PowerLawTerm, SpectralLine, SpectrumModel
from spinprobe.starktone import (StarkMap, detect_tone_threshold,
                                 esr_frequency, fit_stark_map, scan_columns,
                                 tone_amplitude, tone_scan)

STARK = StarkMap(f0_ref_hz=38.7765e9,
                 coefficients_hz_per_v={"G1": -36.21e6, "G2": -22.88e6})

# -- plane fit from a noisy voltage grid ----------------------------------
rng = np.random.default_rng(4)
v1 = rng.uniform(-0.016, 0.016, 40)
v2 = rng.uniform(-0.016, 0.016, 40)
f = np.array([esr_frequency(STARK, {"G1": a, "G2": b})
              for a, b in zip(v1, v2)]) + rng.normal(0.0, 10e3, 40)
fitted = fit_stark_map({"G1": v1, "G2": v2}, f)
for g in ("G1", "G2"):
    print(f"{g}: true {STARK.coefficient(g) / 1e6:+.2f} MHz/V, "
          f"fit {fitted.coefficient(g) / 1e6:+.2f} MHz/V")

# -- tone amplitude bookkeeping -------------------------------------------
amplitude = tone_amplitude(STARK.coefficient("G2"), 160e-6)
print(f"\n160 uVpp on G2 -> {amplitude:.1f} rad/s peak detuning")

# odd submultiples of the tone keep full weight, even ones are nulls:
# position k waits k/(2 f_tone), so the tone rides the filter's k-th harmonic
print("\nfilter weight at tone frequency, scan position k:")
weights = [cpmg_filter_function(4, 4 * (k / (2 * 20e3)), 20e3)
           for k in range(1, 7)]
for k, w in enumerate(weights, 1):
    print(f"  k = {k}: {w / weights[0]:.3g}")

# -- the scan itself -------------------------------------------------------
MODEL = SpectrumModel(
    powerlaws=(PowerLawTerm(3e13, 2.5), PowerLawTerm(3e7, 1.0)),
    white_floor=350.0, lines=(SpectralLine(3600.0, 1.5e6, 150.0),))
columns = [10e3 / 3, 4e3, 5e3, 20e3 / 3, 8e3, 10e3, 40e3 / 3, 16e3, 20e3,
           80e3 / 3, 33e3, 40e3]
ladder = [4.0e-5, 8.0e-5, 1.6e-4, 3.2e-4, 6.4e-4]
# a free-running 20 kHz tone on G2: a fresh phase every shot
result = tone_scan(MODEL, STARK.coefficient("G2"), 20e3, None,
                   scan_columns([1 / (2 * f) for f in columns], 300e-6),
                   ladder, 160, seed=2009,
                   readout=ReadoutModel(0.55, 0.225))
det = detect_tone_threshold(result, 20e3)
print(f"\ndetection threshold: {det['threshold_vpp']} Vpp "
      f"(tone column {det['tone_column_hz'] / 1e3:.0f} kHz)")
header = "amp\\f(kHz) " + " ".join(f"{f / 1e3:5.1f}" for f in result.f_hz)
print(header)
for i, amp in enumerate(result.amplitudes_vpp):
    row = " ".join(f"{p:5.2f}" for p in result.p_up[i])
    print(f"{amp * 1e6:7.0f} uV  {row}")
