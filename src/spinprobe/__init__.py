"""spinprobe: a spin qubit as a probe of its own noise environment.

Forward-simulate dephasing of a single spin under configurable classical
noise, then reconstruct the noise from the simulated measurements:
CPMG filter-function spectroscopy, stretched-exponential decay fits,
randomized benchmarking, and Stark-tone injection.  Every analytic result
has a brute-force Monte Carlo counterpart so the two can police each other.
"""

from ._rng import derive_child_seed, derive_rng, derive_seedseq
from .analysis import (ExponentialFit, FitError, PowerLawFit, SpectroscopyPoint,
                       StretchedFit, band_slope, expected_scaling_exponent,
                       expected_stretching_exponent, fit_exponential,
                       fit_power_law, fit_stretched, reconstruct_psd,
                       spectroscopy_point, t2_scaling_exponent)
from .benchmarking import (CLIFFORD_DECOMPOSITIONS, RbCurve, RbFit,
                           clifford_fidelity_from_depolarizing,
                           depolarizing_from_clifford_fidelity, fit_rb,
                           interleaved_gate_fidelity,
                           mean_primitives_per_clifford,
                           primitive_fidelity_from_clifford, rb_interleaved,
                           rb_reference)
from .qubitsim import (PSD_CHI_CALIBRATION, CoherencePoint, DecayCurve,
                       QubitParams, ReadoutModel, accumulate_phase, chi_ff,
                       coherence_ff, coherence_mc, coherence_replay,
                       decay_vs_pulses, decay_vs_time, rabi_chevron, rabi_p_up,
                       resonance_frequency_hz)
from .sequences import (PulseSchedule, cpmg_filter_function, filter_function,
                        make_cpmg, make_hahn, make_ramsey, response)
from .spectra import (NoiseTrace, PowerLawTerm, PsdEstimate, SpectralLine,
                      SpectrumModel, eval_psd, integrate_rms, psd_welch,
                      synthesize, voltage_to_detuning_model)
from .starktone import (StarkMap, ToneConfig, ToneScanResult,
                        default_stark_map, detect_tone_threshold,
                        esr_frequency, fit_stark_map, harmonic_weights,
                        tone_scan, tone_to_detuning)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # rng
    "derive_seedseq", "derive_rng", "derive_child_seed",
    # spectra
    "PowerLawTerm", "SpectralLine", "SpectrumModel", "NoiseTrace",
    "PsdEstimate", "eval_psd", "synthesize", "psd_welch", "integrate_rms",
    "voltage_to_detuning_model",
    # sequences
    "PulseSchedule", "make_ramsey", "make_hahn", "make_cpmg",
    "filter_function", "cpmg_filter_function", "response",
    # qubitsim
    "PSD_CHI_CALIBRATION", "QubitParams", "ReadoutModel", "CoherencePoint",
    "DecayCurve", "resonance_frequency_hz", "rabi_p_up", "rabi_chevron",
    "accumulate_phase", "coherence_mc", "coherence_replay", "chi_ff",
    "coherence_ff", "decay_vs_time", "decay_vs_pulses",
    # analysis
    "FitError", "ExponentialFit", "StretchedFit", "PowerLawFit",
    "SpectroscopyPoint", "fit_exponential", "fit_stretched", "fit_power_law",
    "band_slope", "t2_scaling_exponent", "expected_scaling_exponent",
    "expected_stretching_exponent", "spectroscopy_point", "reconstruct_psd",
    # benchmarking
    "CLIFFORD_DECOMPOSITIONS", "RbCurve", "RbFit", "rb_reference",
    "rb_interleaved", "fit_rb", "interleaved_gate_fidelity",
    "clifford_fidelity_from_depolarizing",
    "depolarizing_from_clifford_fidelity", "primitive_fidelity_from_clifford",
    "mean_primitives_per_clifford",
    # starktone
    "StarkMap", "ToneConfig", "ToneScanResult", "default_stark_map",
    "esr_frequency", "fit_stark_map", "tone_to_detuning", "harmonic_weights",
    "tone_scan", "detect_tone_threshold",
]
