"""Reconstruct a composite noise spectrum with fixed-wait CPMG scans.

Each target frequency f gets a pulse-count scan at wait 1/(2f); the 1/e
times map to S(f) through the passband weight.  The output is compared
band by band against the generating model.
"""

import numpy as np

from spinprobe.analysis import (fit_power_law, spectroscopy_scan,
                                spectroscopy_table)
from spinprobe.spectra import PowerLawTerm, SpectralLine, SpectrumModel, eval_psd

MODEL = SpectrumModel(
    powerlaws=(PowerLawTerm(3e13, 2.5), PowerLawTerm(3e7, 1.0)),
    white_floor=350.0,
    lines=(SpectralLine(3600.0, 1.5e6, 150.0),))

# ratio-1.2 grid with the spur center as an exact grid point
f_grid = 3600.0 * 1.2 ** np.arange(-5, 20)
scan = spectroscopy_scan(MODEL, f_grid,
                         spectroscopy_table(f_grid, [2, 4, 8, 16, 32]), 500,
                         seed=515)

print("reconstructed spectrum (sim vs generating model):")
for f, s, lo, hi in zip(scan.f, scan.s, scan.ci_low, scan.ci_high):
    truth = eval_psd(MODEL, f)
    print(f"  {f:9.1f} Hz  S = {s:10.3g}  [{lo:9.3g}, {hi:9.3g}]"
          f"   model {truth:10.3g}")

for lo, hi, label in ((1300.0, 2100.0, "steep"), (2100.0, 20000.0, "1/f"),
                      (21000.0, 116000.0, "floor")):
    band = (scan.f >= lo) & (scan.f <= hi)
    slope = fit_power_law(scan.f[band], scan.s[band],
                          (scan.ci_high[band] - scan.ci_low[band])
                          / (2 * 1.959964))
    print(f"band {label:6s} [{lo:6.0f}, {hi:6.0f}]: slope {slope.slope:+.3f} "
          f"+- {slope.slope_err:.3f}")

# the spur shows up as residual over the smooth continuum
sel = (scan.f >= 2100.0) & (scan.f <= 20000.0) & (np.abs(scan.f - 3600.0) > 1)
cont = fit_power_law(scan.f[sel], scan.s[sel],
                     (scan.ci_high[sel] - scan.ci_low[sel]) / (2 * 1.959964))
window = (scan.f >= 2100.0) & (scan.f <= 20000.0)
resid = scan.s[window] / cont.evaluate(scan.f[window])
i = int(np.argmax(resid))
print(f"largest continuum residual {resid[i]:.2f}x at {scan.f[window][i]:.0f} Hz")
