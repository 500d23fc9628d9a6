"""spinprobe: a spin qubit as a probe of its own noise environment.

Forward-simulate dephasing of a single spin under configurable classical
noise, then reconstruct the noise from the simulated measurements:
CPMG filter-function spectroscopy, stretched-exponential decay fits,
randomized benchmarking, and Stark-tone injection.  Every analytic result
has a brute-force Monte Carlo counterpart so the two can police each other.

Each name is imported from its own module (``spinprobe.qubitsim``,
``spinprobe.spectra``, ...); the package itself holds the version and
the seed derivation a script starts from.
"""

from ._rng import derive_child_seed

__version__ = "0.1.0"

__all__ = ["__version__", "derive_child_seed"]
