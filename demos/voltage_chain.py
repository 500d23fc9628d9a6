"""From a gate-voltage monitor trace to the qubit's own noise spectrum.

45 seconds of synthesized voltage noise (white floor plus a 3.6 kHz
spur) are reduced to a Welch PSD and an in-band rms; the Stark
coefficient then converts the voltage model to detuning units, and a
CPMG scan on the resulting qubit model finds the same spur.
"""

import numpy as np

from spinprobe.analysis import spectroscopy_scan, spectroscopy_table
from spinprobe.spectra import (SpectralLine, SpectrumModel, integrate_rms,
                               psd_welch, synthesize,
                               voltage_to_detuning_model)

RATE = 120e3
VOLTAGE = SpectrumModel(powerlaws=(), white_floor=8.43e-18,
                        lines=(SpectralLine(3600.0, 1.2e-12, 150.0),))

trace = synthesize(VOLTAGE, RATE, 45.0, seed=606)
est = psd_welch(trace, nperseg=int(5.0 * RATE))
rms = integrate_rms(est, 0.2, 5e4)
print(f"monitor rms over 0.2 Hz - 50 kHz: {rms * 1e6:.3f} uV")

window = (est.f > 3000) & (est.f < 4200)
f_peak = est.f[window][np.argmax(est.s[window])]
print(f"voltage PSD spur at {f_peak:.1f} Hz, "
      f"{est.s[window].max():.3g} V^2/Hz vs floor {VOLTAGE.white_floor:.3g}")

# volts to rad/s through the G2 lever arm, plus the qubit's own floor
converted = voltage_to_detuning_model(VOLTAGE, -22.88e6)
qubit_model = SpectrumModel(powerlaws=converted.powerlaws,
                            white_floor=converted.white_floor + 350.0,
                            lines=converted.lines)
print(f"converted spur power {converted.lines[0].power:.4g} (rad/s)^2")

f_grid = np.geomspace(1800.0, 7200.0, 7)
scan = spectroscopy_scan(qubit_model, f_grid,
                         spectroscopy_table(f_grid, [2, 4, 8, 16, 32]), 1500,
                         seed=77)
print("\nqubit-side reconstruction:")
for f, s in zip(scan.f, scan.s):
    mark = "  <- spur" if abs(f - 3600.0) < 1 else ""
    print(f"  {f:7.1f} Hz  S = {s:7.1f} (rad/s)^2/Hz{mark}")
