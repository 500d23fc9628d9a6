"""Experiment configuration: YAML surface, one field table, defaults.

A config is one YAML document, in which no mapping repeats a key.
Required everywhere: ``kind``, ``seed``, ``output_dir``.  ``spectrum``
describes detuning noise in rad^2/s for the coherence kinds and voltage
noise in V^2/Hz for ``voltage_psd``.  Grids can be given as explicit
lists or as ``{start, stop, num, spacing}`` with spacing ``linear`` (the
default) or ``log``; a given grid replaces the default whole.

Every field is declared once, as a :class:`Field` in :data:`TOP` or, for
``protocol``, in :data:`PROTOCOLS`: its accepted JSON types, its bounds,
any enum, item or extra rule, and its default.  :func:`validate_config`
walks a config against that table.  The walk rejects unknown keys,
missing required keys, wrong types (a bool is never a number, a float
never an integer), NaN and +-inf, and values out of bounds, and fills in
every default; each error names the field's dotted path.  One magnitude
rule covers every number: a value of a ``number`` field has magnitude
below :data:`MAX_SQUARED`, so a pipeline may square it or multiply two
such values without overflow.  Integer fields keep their own bounds,
an upper one included unless the kind's plan bounds the field.

What a run derives from several fields is checked where it is derived,
by the kind's plan in :mod:`.pipelines`, which follows the walk.
"""

from __future__ import annotations

import math
import operator
from collections.abc import Hashable
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np
import yaml

from .._solve import distinct
from ..analysis import SPECTROSCOPY_SAMPLES_PER_INTERVAL
from ..benchmarking import MAX_DEPOLARIZING, clifford_fidelity_from_depolarizing
from ..qubitsim import (DURATION_FACTOR, HARDWARE_READOUT,
                        SAMPLES_PER_INTERVAL, QubitParams)
from ..starktone import TONE_SAMPLES_PER_INTERVAL, default_stark_map


class ConfigError(ValueError):
    """Invalid configuration; message names the offending field."""


REQUIRED = object()  # Field.default: the key must be given
OMITTED = object()   # Field.default: the key may be left out, and stays out


@dataclass(frozen=True)
class Field:
    """One config value.  ``types`` lists the accepted JSON types
    (``"number"`` takes integers too); the bounds apply to numbers and
    ``length`` to strings, arrays and maps.  An ``array`` checks each of
    its ``items``; an ``object`` has the fixed keys of ``fields`` or, as
    a map, free keys whose values follow ``values``.  ``rule`` runs last,
    on the normalized value, and raises :class:`ConfigError`."""

    types: str
    default: object = REQUIRED
    ge: float | None = None
    gt: float | None = None
    le: float | None = None
    lt: float | None = None
    enum: tuple = ()
    length: tuple[int, int | None] = (0, None)
    items: Field | None = None
    fields: dict[str, Field] | None = None
    values: Field | None = None
    rule: Callable | None = None


def _json_type(value) -> str:
    if value is None:
        return "null"
    for cls, name in ((bool, "boolean"), (int, "integer"), (float, "number"),
                      (str, "string"), (list, "array"), (dict, "object")):
        if isinstance(value, cls):
            return name
    return type(value).__name__


# largest magnitude of a number field's value: 1e150 squared, or times
# another such value, stays finite
MAX_SQUARED = 1e150

_BOUNDS = (("ge", ">=", operator.ge), ("gt", ">", operator.gt),
           ("le", "<=", operator.le), ("lt", "<", operator.lt))


def _check(value, spec: Field, path: str):
    """``value`` checked against ``spec``, defaults filled in below it.

    Arrays and objects come back as new containers, so the result shares
    nothing with the input."""
    kind, types = _json_type(value), spec.types.split()
    if kind not in types and not (kind == "integer" and "number" in types):
        raise ConfigError(f"{path}: must be {' or '.join(types)}, got {value!r}")
    if spec.enum and value not in spec.enum:
        raise ConfigError(f"{path}: {value!r} is not one of "
                          f"{', '.join(map(str, spec.enum))}")
    if kind == "number" and not math.isfinite(value):
        raise ConfigError(f"{path}: must be finite, got {value!r}")
    if ("number" in types and kind in ("integer", "number")
            and not abs(value) < MAX_SQUARED):
        raise ConfigError(f"{path}: magnitude must be < {MAX_SQUARED}, "
                          f"got {value!r}")
    if kind in ("integer", "number"):
        for name, sign, holds in _BOUNDS:
            bound = getattr(spec, name)
            if bound is not None and not holds(value, bound):
                raise ConfigError(f"{path}: must be {sign} {bound}, got {value!r}")
    if kind in ("string", "array") or (kind == "object" and spec.fields is None):
        lo, hi = spec.length
        if len(value) < lo or (hi is not None and len(value) > hi):
            span = f"at least {lo}" if hi is None else f"{lo} to {hi}"
            raise ConfigError(f"{path}: needs {span} entries, got {len(value)}")
    if kind == "array":
        value = [_check(v, spec.items, f"{path}.{i}") for i, v in enumerate(value)]
    elif kind == "object" and spec.fields is not None:
        value = _check_fields(value, spec.fields, f"{path}.")
    elif kind == "object":
        for key in value:
            if not isinstance(key, str):
                raise ConfigError(f"{path}: keys must be strings, got {key!r}")
        value = {k: _check(v, spec.values, f"{path}.{k}") for k, v in value.items()}
    if spec.rule is not None:
        try:
            spec.rule(value)
        except ConfigError as exc:
            raise ConfigError(f"{path}: {exc}") from None
    return value


def _check_fields(given: dict, fields: dict[str, Field], prefix: str) -> dict:
    for key in given:
        if key not in fields:
            raise ConfigError(f"{prefix}{key}: unknown field (expected one of "
                              f"{', '.join(fields)})")
    out = {}
    for key, spec in fields.items():
        if key in given:
            value = given[key]
        elif spec.default is REQUIRED:
            raise ConfigError(f"{prefix}{key}: required")
        elif spec.default is OMITTED:
            continue
        else:
            value = spec.default
        out[key] = _check(value, spec, prefix + key)
    return out


def grid_values(spec) -> np.ndarray:
    """Materialize a grid spec (list or start/stop/num) into an array."""
    if isinstance(spec, (list, tuple)):
        return np.asarray(spec, dtype=float)
    spacing = spec.get("spacing", "linear")
    if spacing == "log":
        if spec["start"] <= 0 or spec["stop"] <= 0:
            raise ConfigError("log-spaced grid needs positive start/stop")
        return np.geomspace(spec["start"], spec["stop"], spec["num"])
    return np.linspace(spec["start"], spec["stop"], spec["num"])


# most points of a grid, or of the stark_map mesh, which validation builds
MAX_GRID_POINTS = 10 ** 6

_NUMBER = Field("number")
_POSINT = Field("integer", ge=1)
_GRID_FIELDS = {
    "start": _NUMBER,
    "stop": _NUMBER,
    "num": Field("integer", ge=1, le=MAX_GRID_POINTS),
    "spacing": Field("string", "linear", enum=("linear", "log")),
}


def _repeated(values) -> list:
    """The values that occur more than once in ``values``, sorted."""
    a = np.sort(np.asarray(values, dtype=float))
    return distinct(a[1:][a[1:] == a[:-1]]).tolist()


def _grid(default=REQUIRED, *, positive: bool = False,
          min_points: int = 1, unique: bool = False) -> Field:
    """A list of numbers or ``{start, stop, num, spacing}``.  A log grid
    needs endpoints > 0; ``min_points`` counts distinct values (a fit or a
    plane needs spread, not repeats); a ``positive`` grid (times,
    frequencies) needs every value > 0; a ``unique`` one (a spectroscopy
    grid, one PSD point per frequency) no value twice."""
    def rule(spec):
        values = grid_values(spec)
        if (n_distinct := distinct(values).size) < min_points:
            raise ConfigError(f"needs at least {min_points} distinct points, "
                              f"got {n_distinct}")
        if positive and np.any(values <= 0):
            raise ConfigError(f"values must be > 0, got {float(values.min())!r}")
        if unique and (repeated := _repeated(values)):
            raise ConfigError(f"values must be distinct, got "
                              f"{', '.join(map(repr, repeated))} more than once")
    return Field("array object", default, length=(1, None), items=_NUMBER,
                 fields=_GRID_FIELDS, rule=rule)


def _spaced(spacing, start, stop, num, **kwargs) -> Field:
    """A grid whose default is ``{start, stop, num, spacing}``."""
    return _grid({"start": start, "stop": stop, "num": num, "spacing": spacing},
                 **kwargs)


# most refocusing pulses in one sequence: validation tabulates 640*N
# filter points per CPMG pulse count, and a tone-scan column builds its
# whole pulse train
MAX_PULSES = 1024

# most samples in a trace (so also in one Monte Carlo interval): six times
# the shipped voltage_psd 5.4M.  Computed, not measured at this length:
# synthesis rises about 2.0 times the 268 MB of samples when 4 divides the
# length (four quarter-length inverse FFTs), about 0.55 GB, 2.5 times for
# other even lengths (two half-length ones), about 0.67 GB, and 4.0 times
# for odd ones (numpy's irfft), about 1.1 GB.  A largest prime factor of
# 97 keeps those ratios: 2.04, 2.54 and 4.01 at 4,195,056, 4,195,638 and
# 4,194,765, each with the factor 97.  MAX_FFT_PRIME refuses the lengths
# on which pocketfft runs Bluestein's algorithm, which rose 20.0 times at
# 4,194,305 = 5 * 397 * 2113 (numpy 2.4, CPython 3.11, x86-64)
MAX_TRACE_SAMPLES = 2 ** 25

# largest prime factor a voltage_psd trace length or Welch segment length
# may have: pocketfft runs Bluestein's algorithm on a length with a large
# one.  One rfft near 600,000 samples took 15 ms at 600,000, 29-31 ms at
# largest prime factors 97 and 101, 68-108 ms at 401-499 and 82-196 ms
# from 601 up; psd_welch on 1.2M samples took 0.034 s at nperseg 120,000
# and 0.29 s at the prime 119,993 (numpy 2.4, x86-64)
MAX_FFT_PRIME = 100

# most points the T2 search of a cpmg_t2_vs_n pulse count integrates its
# Lorentzian lines on (qubitsim.CpmgChi.points at its t_max): a run just
# inside it peaks at 357 MB against the shipped run's 45 MB, about 75 B a
# point (numpy 2.4, x86-64)
MAX_CHI_POINTS = 2 ** 22

# most Cliffords one RB curve simulates: n_sequences times the sum of the
# depths, twice that for the interleaved curve.  A Clifford costs about
# 0.09 us and a sequence 14 us more (its stream and its shots), so a
# curve at this bound took 0.09 s with long sequences (depths 1, 2 and
# 524,285, 2 sequences) and 7.2 s with the shortest (depths 1, 2 and 3,
# 174,762 sequences), peaking at 44 and 58 MB; the shipped bringup's
# 90,600 Cliffords took 0.043 s (numpy 2.4, x86-64)
MAX_RB_CLIFFORDS = 2 ** 20

# most trajectories of one Monte Carlo point (n_traj).  A trajectory took
# 4.5 us at n = 64 and 21 us at n = 2,049, and a point held 46-47 B per
# trajectory (its phases, their cosines and its streams' states): a point
# at this bound took 4.7 s at n = 64 and peaked 46 MB above the process.
# The shipped runs play at most 3,000 (numpy 2.4, CPython 3.11, x86-64)
MAX_TRAJ = 2 ** 20

# most shots of a tone-scan cell or an RB sequence.  A cell at this bound
# takes 2.6 s at n = 385, 2.5 us a shot, and peaks 46.4 MB above the
# process, 44 B a shot, its streams' states and phases (a per-pair scalar
# loop took 3.9 s and 46.4 MB on the same 2-vCPU Xeon).  An RB sequence
# draws all its shots as one binomial, 24-26 us a sequence at 1 shot and
# at 2**62 alike.  The shipped runs play at most 160 (numpy 2.4, CPython
# 3.11, x86-64)
MAX_SHOTS = 2 ** 20

# most workers in a run.  A run does all its work in one thread, so the
# count changes nothing; the field and its bounds stay because old
# manifests, which rerun reads back, hold it
MAX_WORKERS = 64


def _pulse_counts(default=REQUIRED) -> Field:
    """Distinct pulse counts: every kind fits or averages over N, and a
    repeated N adds no point."""
    def rule(counts):
        if repeated := _repeated(counts):
            raise ConfigError(f"repeats N = "
                              f"{', '.join(str(int(n)) for n in repeated)}")
    return Field("array", default, items=Field("integer", ge=1, le=MAX_PULSES),
                 length=(2, None), rule=rule)


def _monte_carlo(n_traj, samples_per_interval=SAMPLES_PER_INTERVAL,
                 duration_factor=DURATION_FACTOR) -> dict:
    """Trajectory fields of the Monte Carlo kinds.  The library needs two
    trajectories for a standard error and a trace at least as long as the
    sequence; ``duration_factor=None`` leaves that field out."""
    fields = {"n_traj": Field("integer", n_traj, ge=2, le=MAX_TRAJ),
              "samples_per_interval": Field("integer", samples_per_interval, ge=1,
                                            le=MAX_TRACE_SAMPLES)}
    if duration_factor is not None:
        fields["duration_factor"] = Field("number", duration_factor, ge=1)
    return fields


_FIT = Field("string", "stretched", enum=("exponential", "stretched"))


def _decay(start, stop) -> dict:
    """ramsey and hahn: one decay curve over ``times_s``, then a fit; only
    the default time span differs."""
    times_s = _spaced("log", start, stop, 12, positive=True, min_points=2)
    return {"times_s": times_s, "fit": _FIT, **_monte_carlo(500)}


def _depths_spread(depths) -> None:
    """The RB decay fit has three parameters, so it needs three depths."""
    if (n_distinct := distinct(depths).size) < 3:
        raise ConfigError(f"needs at least 3 distinct depths, got {n_distinct}")


_RB = {
    "depths": Field("array", [1, 2, 4, 8, 16, 32, 64, 128, 200, 300],
                    items=_POSINT, rule=_depths_spread),
    "n_sequences": Field("integer", 30, ge=2),  # two for a standard error
    "shots": Field("integer", 100, ge=1, le=MAX_SHOTS),
    # the error model's depolarizing d stops at MAX_DEPOLARIZING
    "clifford_fidelity": Field(
        "number", 0.9983, lt=1,
        ge=clifford_fidelity_from_depolarizing(MAX_DEPOLARIZING)),
}

_AMP_LADDER = [40e-6 * 2 ** (k / 2) for k in range(10)]  # 40 uVpp to ~905 uVpp

PROTOCOLS: dict[str, dict[str, Field]] = {
    "rabi_chevron": {
        "detuning_hz": _spaced("linear", -1.5e6, 1.5e6, 61),
        "duration_s": _spaced("linear", 4e-8, 6.4e-6, 81),
    },
    "ramsey": _decay(2e-6, 3e-4),
    "hahn": _decay(5e-6, 2e-3),
    "cpmg_t2_vs_n": {
        "pulse_counts": _pulse_counts([1, 2, 4, 8, 16, 32, 64]),
        "n_times": Field("integer", 8, ge=3, le=MAX_GRID_POINTS),
        "t_factor_min": Field("number", 0.3, gt=0),
        "t_factor_max": Field("number", 2.2, gt=0),
        "fit": _FIT,
        **_monte_carlo(400),
    },
    "noise_spectroscopy": {
        "f_grid_hz": _spaced("log", 1300.0, 50000.0, 12, positive=True,
                             unique=True),
        "pulse_counts": _pulse_counts([2, 4, 8, 16, 32]),
        "t2_hahn_s": Field("number null", None, gt=0),
        **_monte_carlo(500, SPECTROSCOPY_SAMPLES_PER_INTERVAL),
    },
    "rbm": _RB,
    "interleaved_rbm": {**_RB, "gate": Field("string integer", "X90")},
    "stark_map": {
        # the plane fit needs spread in both voltages
        "v_g1_v": _spaced("linear", -0.016, 0.016, 5, min_points=2),
        "v_g2_v": _spaced("linear", -0.016, 0.016, 5, min_points=2),
        "jitter_hz": Field("number", 10e3, ge=0),
    },
    "tone_scan": {
        "f_tone_hz": Field("number", 20e3, gt=0),
        "gate": Field("string", "G2"),
        "amplitudes_vpp": Field("array", _AMP_LADDER,
                                items=Field("number", ge=0), length=(1, None)),
        "f_columns_hz": Field("array", [10e3 / 3, 4e3, 5e3, 20e3 / 3, 8e3, 10e3,
                                        40e3 / 3, 16e3, 20e3, 80e3 / 3, 33e3, 40e3],
                              items=Field("number", gt=0), length=(2, None)),
        "total_time_s": Field("number", 300e-6, gt=0),
        "shots": Field("integer", 160, ge=1, le=MAX_SHOTS),
        "phase": Field("number null", None),
        "samples_per_interval": Field("integer", TONE_SAMPLES_PER_INTERVAL,
                                      ge=1, le=MAX_TRACE_SAMPLES),
    },
    "voltage_psd": {
        "sample_rate_hz": Field("number", 120e3, gt=0),
        "duration_s": Field("number", 45.0, gt=0),
        "nperseg_s": Field("number", 5.0, gt=0),
        "band_hz": Field("array", [0.2, 50e3], items=Field("number", ge=0),
                         length=(2, 2)),
        "stark_gate": Field("string", "G2"),
        "qubit_floor_rad2_s": Field("number", 350.0, ge=0),
        "spectroscopy": Field("object null", None, fields={
            "f_grid_hz": _grid(positive=True, unique=True),
            "pulse_counts": _pulse_counts(),
            **_monte_carlo(REQUIRED, SPECTROSCOPY_SAMPLES_PER_INTERVAL,
                            duration_factor=None),
        }),
        "export_trace": Field("boolean", False),
    },
}

KINDS = tuple(PROTOCOLS)

_STARK = default_stark_map()

TOP: dict[str, Field] = {
    "kind": Field("string", enum=KINDS),
    # streams are seeded from 64 bits, so a larger seed would alias one below
    "seed": Field("integer", ge=0, le=2**64 - 1),
    "output_dir": Field("string", length=(1, None)),
    "workers": Field("integer null", None, ge=1, le=MAX_WORKERS),
    "qubit": Field("object", {}, fields={
        "g_factor": Field("number", QubitParams.g_factor, gt=0),
        "field_t": Field("number", QubitParams.field_t, gt=0),
        # rabi_p_up divides the drive's square by itself plus the
        # detuning's, so that square must not reach 0
        "rabi_hz": Field("number", QubitParams.rabi_hz, gt=1 / MAX_SQUARED)}),
    "readout": Field("object", {}, fields={
        "visibility": Field("number", HARDWARE_READOUT.visibility, gt=0, le=1),
        "floor": Field("number", HARDWARE_READOUT.floor, ge=0, le=1),
    }),
    "spectrum": Field("object", {}, fields={
        "powerlaws": Field("array", OMITTED, items=Field("object", fields={
            "amplitude": Field("number", ge=0),
            "exponent": Field("number", ge=0, le=3),
        })),
        "white_floor": Field("number", OMITTED, ge=0),
        "lines": Field("array", OMITTED, items=Field("object", fields={
            "center_hz": Field("number", gt=0),
            "power": Field("number", ge=0),
            "width_hz": Field("number null", OMITTED, gt=0),
        })),
    }),
    # default_stark_map(); a given map names its f0 and coefficients
    "stark": Field("object", {"f0_ref_hz": _STARK.f0_ref_hz,
                              "coefficients_hz_per_v": _STARK.coefficients_hz_per_v},
                   fields={
        "f0_ref_hz": _NUMBER,
        "coefficients_hz_per_v": Field("object", values=_NUMBER,
                                       length=(1, None)),
        "reference_voltages": Field("object", _STARK.reference_voltages,
                                    values=_NUMBER),
    }),
    "protocol": Field("object", {}, fields={}),  # replaced by PROTOCOLS[kind]
}


def validate_config(raw: dict) -> dict:
    """Validate a parsed config and return the normalized form: the field
    walk, then the kind's plan (:func:`pipelines.plan`).  Normalization
    applies all defaults, so the returned dict alone reproduces the run.
    """
    from .pipelines import plan  # pipelines imports this module

    if not isinstance(raw, dict):
        raise ConfigError("config must be a mapping")
    kind = raw.get("kind")
    fields = TOP
    if isinstance(kind, str) and kind in PROTOCOLS:  # else the walk names kind
        fields = {**TOP, "protocol": Field("object", {}, fields=PROTOCOLS[kind])}
    cfg = _check_fields(raw, fields, "")
    plan(cfg)
    return cfg


class _UniqueKeyLoader(yaml.SafeLoader):
    """``yaml.SafeLoader`` that rejects a mapping which repeats a key,
    naming the key and its line; a key is checked before any ``<<`` merge,
    and an unhashable one is left to the base class, which rejects it."""

    def construct_mapping(self, node, deep=False):
        seen = set()
        for key_node, _ in node.value:
            if key_node.tag == "tag:yaml.org,2002:merge":  # a << key
                continue
            key = self.construct_object(key_node, deep=deep)
            if isinstance(key, Hashable):
                if key in seen:
                    raise yaml.constructor.ConstructorError(
                        "while constructing a mapping", node.start_mark,
                        f"found duplicate key {key!r}", key_node.start_mark)
                seen.add(key)
        return super().construct_mapping(node, deep=deep)


def load_config(path) -> dict:
    """Read and validate a YAML config file; a repeated key is a YAML
    parse error."""
    path = Path(path)
    if not path.is_file():
        raise ConfigError(f"config file not found: {path}")
    try:
        with path.open(encoding="utf-8") as fh:
            raw = yaml.load(fh, Loader=_UniqueKeyLoader)
    except yaml.YAMLError as exc:
        raise ConfigError(f"YAML parse error in {path}: {exc}") from None
    except UnicodeDecodeError as exc:
        raise ConfigError(f"config file {path} is not UTF-8 text: {exc}") from None
    return validate_config(raw)
