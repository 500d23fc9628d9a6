"""T2 versus pulse number under power-law noise.

Under S ~ 1/f^alpha, adding pulses buys coherence as T2 ~ N^(alpha/(alpha+1))
and the decays are stretched with exponent 1 + alpha.  Both exponents are
read off from simulated scans and compared with the closed forms.
"""

import numpy as np

from spinprobe.analysis import fit_stretched, t2_scaling_exponent
from spinprobe.qubitsim import cpmg_chi, decay_vs_time
from spinprobe.spectra import PowerLawTerm, SpectrumModel

COUNTS = [1, 2, 4, 8, 16, 32, 64]

for amplitude, alpha in ((3e7, 1.0), (3e13, 2.5)):
    model = SpectrumModel(powerlaws=(PowerLawTerm(amplitude, alpha),),
                          white_floor=0.0, lines=())
    t2s, errs, stretches = [], [], []
    for i, n in enumerate(COUNTS):
        # center the time grid on the analytic 1/e time
        t_pred = cpmg_chi(model, n).t2
        times = np.geomspace(0.3 * t_pred, 2.5 * t_pred, 8)
        curve = decay_vs_time(model, n, times, 300, seed=1000 + i,
                              samples_per_interval=32)
        fit = fit_stretched(curve.times, curve.w, curve.std_err)
        t2s.append(fit.t2)
        errs.append(fit.t2_err)
        stretches.append(fit.exponent)
    beta = t2_scaling_exponent(COUNTS, t2s, errs)
    print(f"alpha = {alpha}:")
    print(f"  T2(N=1) {t2s[0] * 1e3:.3f} ms ... T2(N=64) {t2s[-1] * 1e3:.3f} ms")
    print(f"  scaling beta {beta.slope:+.3f} +- {beta.slope_err:.3f}"
          f"   closed form {alpha / (alpha + 1):+.3f}")
    print(f"  stretching exponent {np.mean(stretches[2:]):.2f}"
          f"   closed form {1 + alpha:.2f}")
