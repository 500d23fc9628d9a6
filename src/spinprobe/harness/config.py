"""Experiment configuration: YAML surface, schema validation, defaults.

A config is one YAML document.  Required everywhere: ``kind``, ``seed``,
``output_dir``.  ``spectrum`` describes detuning noise in rad^2/s for the
coherence kinds and voltage noise in V^2/Hz for ``voltage_psd``.  Grids can
be given as explicit lists or as ``{start, stop, num, spacing}`` with
spacing ``linear`` or ``log``.
"""

from __future__ import annotations

import copy
import math
from pathlib import Path

import jsonschema
import numpy as np
import yaml

from ..benchmarking import CLIFFORD_DECOMPOSITIONS
from ..qubitsim import cpmg_chi
from ..spectra import SpectrumModel
from ..starktone import scan_columns, tone_column

KINDS = (
    "rabi_chevron",
    "ramsey",
    "hahn",
    "cpmg_t2_vs_n",
    "noise_spectroscopy",
    "rbm",
    "interleaved_rbm",
    "stark_map",
    "tone_scan",
    "voltage_psd",
)

# kinds whose pipelines sample the spectrum model
SPECTRUM_KINDS = ("ramsey", "hahn", "cpmg_t2_vs_n", "noise_spectroscopy",
                  "tone_scan", "voltage_psd")


class ConfigError(ValueError):
    """Invalid configuration; message names the offending field."""


_GRID = {
    "oneOf": [
        {"type": "array", "items": {"type": "number"}, "minItems": 1},
        {
            "type": "object",
            "required": ["start", "stop", "num"],
            "additionalProperties": False,
            "properties": {
                "start": {"type": "number"},
                "stop": {"type": "number"},
                "num": {"type": "integer", "minimum": 1},
                "spacing": {"enum": ["linear", "log"]},
            },
        },
    ]
}

_SPECTRUM = {
    "type": "object",
    "additionalProperties": False,
    "properties": {
        "powerlaws": {
            "type": "array",
            "items": {
                "type": "object",
                "required": ["amplitude", "exponent"],
                "additionalProperties": False,
                "properties": {
                    "amplitude": {"type": "number", "minimum": 0},
                    "exponent": {"type": "number", "minimum": 0, "maximum": 3},
                },
            },
        },
        "white_floor": {"type": "number", "minimum": 0},
        "lines": {
            "type": "array",
            "items": {
                "type": "object",
                "required": ["center_hz", "power"],
                "additionalProperties": False,
                "properties": {
                    "center_hz": {"type": "number", "exclusiveMinimum": 0},
                    "power": {"type": "number", "minimum": 0},
                    "width_hz": {"type": ["number", "null"], "exclusiveMinimum": 0},
                },
            },
        },
    },
}

_STARK = {
    "type": "object",
    "required": ["f0_ref_hz", "coefficients_hz_per_v"],
    "additionalProperties": False,
    "properties": {
        "f0_ref_hz": {"type": "number"},
        "coefficients_hz_per_v": {
            "type": "object",
            "additionalProperties": {"type": "number"},
            "minProperties": 1,
        },
        "reference_voltages": {
            "type": "object",
            "additionalProperties": {"type": "number"},
        },
    },
}

_POSINT = {"type": "integer", "minimum": 1}
_POSNUM = {"type": "number", "exclusiveMinimum": 0}

PROTOCOL_SCHEMAS: dict[str, dict] = {
    "rabi_chevron": {
        "detuning_hz": _GRID,
        "duration_s": _GRID,
    },
    "ramsey": {
        "times_s": _GRID,
        "n_traj": _POSINT,
        "fit": {"enum": ["exponential", "stretched"]},
        "duration_factor": _POSNUM,
        "samples_per_interval": _POSINT,
    },
    "hahn": {
        "times_s": _GRID,
        "n_traj": _POSINT,
        "fit": {"enum": ["exponential", "stretched"]},
        "duration_factor": _POSNUM,
        "samples_per_interval": _POSINT,
    },
    "cpmg_t2_vs_n": {
        "pulse_counts": {"type": "array", "items": _POSINT, "minItems": 2},
        "n_traj": _POSINT,
        "n_times": {"type": "integer", "minimum": 3},
        "t_factor_min": _POSNUM,
        "t_factor_max": _POSNUM,
        "fit": {"enum": ["exponential", "stretched"]},
        "duration_factor": _POSNUM,
        "samples_per_interval": _POSINT,
    },
    "noise_spectroscopy": {
        "f_grid_hz": _GRID,
        "pulse_counts": {"type": "array", "items": _POSINT, "minItems": 2},
        "n_traj": _POSINT,
        "t2_hahn_s": {"type": ["number", "null"], "exclusiveMinimum": 0},
        "duration_factor": _POSNUM,
        "samples_per_interval": _POSINT,
    },
    "rbm": {
        "depths": {"type": "array", "items": _POSINT, "minItems": 3},
        "n_sequences": _POSINT,
        "shots": _POSINT,
        "clifford_fidelity": {"type": "number",
                              "exclusiveMinimum": 0.5, "exclusiveMaximum": 1},
    },
    "interleaved_rbm": {
        "depths": {"type": "array", "items": _POSINT, "minItems": 3},
        "n_sequences": _POSINT,
        "shots": _POSINT,
        "clifford_fidelity": {"type": "number",
                              "exclusiveMinimum": 0.5, "exclusiveMaximum": 1},
        "gate": {"type": ["string", "integer"]},
    },
    "stark_map": {
        "v_g1_v": _GRID,
        "v_g2_v": _GRID,
        "jitter_hz": {"type": "number", "minimum": 0},
    },
    "tone_scan": {
        "f_tone_hz": _POSNUM,
        "gate": {"type": "string"},
        "amplitudes_vpp": {"type": "array", "items": {"type": "number", "minimum": 0},
                           "minItems": 1},
        "f_columns_hz": {"type": "array", "items": _POSNUM, "minItems": 2},
        "total_time_s": _POSNUM,
        "shots": _POSINT,
        "phase": {"type": ["number", "null"]},
        "samples_per_interval": _POSINT,
    },
    "voltage_psd": {
        "sample_rate_hz": _POSNUM,
        "duration_s": _POSNUM,
        "nperseg_s": _POSNUM,
        "band_hz": {"type": "array", "items": {"type": "number", "minimum": 0},
                    "minItems": 2, "maxItems": 2},
        "stark_gate": {"type": "string"},
        "qubit_floor_rad2_s": {"type": "number", "minimum": 0},
        "spectroscopy": {
            "type": ["object", "null"],
            "properties": {
                "f_grid_hz": _GRID,
                "pulse_counts": {"type": "array", "items": _POSINT,
                                 "minItems": 2},
                "n_traj": _POSINT,
                "samples_per_interval": _POSINT,
            },
            "required": ["f_grid_hz", "pulse_counts", "n_traj"],
            "additionalProperties": False,
        },
        "export_trace": {"type": "boolean"},
    },
}

_AMP_LADDER = [40e-6 * 2 ** (k / 2) for k in range(10)]  # 40 uVpp to ~905 uVpp

PROTOCOL_DEFAULTS: dict[str, dict] = {
    "rabi_chevron": {
        "detuning_hz": {"start": -1.5e6, "stop": 1.5e6, "num": 61,
                        "spacing": "linear"},
        "duration_s": {"start": 4e-8, "stop": 6.4e-6, "num": 81,
                       "spacing": "linear"},
    },
    "ramsey": {
        "times_s": {"start": 2e-6, "stop": 3e-4, "num": 12, "spacing": "log"},
        "n_traj": 500, "fit": "stretched",
        "duration_factor": 2.0, "samples_per_interval": 16,
    },
    "hahn": {
        "times_s": {"start": 5e-6, "stop": 2e-3, "num": 12, "spacing": "log"},
        "n_traj": 500, "fit": "stretched",
        "duration_factor": 2.0, "samples_per_interval": 16,
    },
    "cpmg_t2_vs_n": {
        "pulse_counts": [1, 2, 4, 8, 16, 32, 64],
        "n_traj": 400, "n_times": 8, "t_factor_min": 0.3, "t_factor_max": 2.2,
        "fit": "stretched", "duration_factor": 2.0, "samples_per_interval": 16,
    },
    "noise_spectroscopy": {
        "f_grid_hz": {"start": 1300.0, "stop": 50000.0, "num": 12,
                      "spacing": "log"},
        "pulse_counts": [2, 4, 8, 16, 32],
        "n_traj": 500, "t2_hahn_s": None,
        "duration_factor": 2.0, "samples_per_interval": 32,
    },
    "rbm": {
        "depths": [1, 2, 4, 8, 16, 32, 64, 128, 200, 300],
        "n_sequences": 30, "shots": 100, "clifford_fidelity": 0.9983,
    },
    "interleaved_rbm": {
        "depths": [1, 2, 4, 8, 16, 32, 64, 128, 200, 300],
        "n_sequences": 30, "shots": 100, "clifford_fidelity": 0.9983,
        "gate": "X90",
    },
    "stark_map": {
        "v_g1_v": {"start": -0.016, "stop": 0.016, "num": 5, "spacing": "linear"},
        "v_g2_v": {"start": -0.016, "stop": 0.016, "num": 5, "spacing": "linear"},
        "jitter_hz": 10e3,
    },
    "tone_scan": {
        "f_tone_hz": 20e3, "gate": "G2",
        "amplitudes_vpp": _AMP_LADDER,
        "f_columns_hz": [10e3 / 3, 4e3, 5e3, 20e3 / 3, 8e3, 10e3,
                         40e3 / 3, 16e3, 20e3, 80e3 / 3, 33e3, 40e3],
        "total_time_s": 300e-6, "shots": 160, "phase": None,
        "samples_per_interval": 32,
    },
    "voltage_psd": {
        "sample_rate_hz": 120e3, "duration_s": 45.0, "nperseg_s": 5.0,
        "band_hz": [0.2, 50e3], "stark_gate": "G2",
        "qubit_floor_rad2_s": 350.0, "spectroscopy": None,
        "export_trace": False,
    },
}

QUBIT_DEFAULTS = {"g_factor": 1.9789, "field_t": 1.4, "rabi_hz": 390625.0}
READOUT_DEFAULTS = {"visibility": 0.55, "floor": 0.225}
STARK_DEFAULTS = {
    "f0_ref_hz": 38.7765e9,
    "coefficients_hz_per_v": {"G1": -36.21e6, "G2": -22.88e6},
    "reference_voltages": {"G1": 0.0, "G2": 0.0},
}

TOP_SCHEMA = {
    "type": "object",
    "required": ["kind", "seed", "output_dir"],
    "additionalProperties": False,
    "properties": {
        "kind": {"enum": list(KINDS)},
        "seed": {"type": "integer", "minimum": 0},
        "output_dir": {"type": "string", "minLength": 1},
        "workers": {"type": ["integer", "null"], "minimum": 1},
        "qubit": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                "g_factor": _POSNUM, "field_t": _POSNUM, "rabi_hz": _POSNUM,
            },
        },
        "readout": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                "visibility": {"type": "number", "exclusiveMinimum": 0,
                               "maximum": 1},
                "floor": {"type": "number", "minimum": 0, "maximum": 1},
            },
        },
        "spectrum": _SPECTRUM,
        "stark": _STARK,
        "protocol": {"type": "object"},
    },
}


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


def _merge_defaults(defaults: dict, given: dict | None) -> dict:
    out = copy.deepcopy(defaults)
    for key, val in (given or {}).items():
        if isinstance(val, dict) and isinstance(out.get(key), dict) \
                and key not in ("coefficients_hz_per_v", "reference_voltages"):
            out[key] = _merge_defaults(out[key], val)
        else:
            out[key] = copy.deepcopy(val)
    return out


def _schema_error(exc: jsonschema.ValidationError, where: str) -> ConfigError:
    path = ".".join(str(p) for p in exc.absolute_path) or "(top level)"
    return ConfigError(f"{where}{path}: {exc.message}")


def _check_finite(node, path: str) -> None:
    """Reject NaN and infinity anywhere; jsonschema's bounds let NaN by."""
    if isinstance(node, dict):
        for key, val in node.items():
            _check_finite(val, f"{path}.{key}" if path else str(key))
    elif isinstance(node, list):
        for i, val in enumerate(node):
            _check_finite(val, f"{path}.{i}")
    elif isinstance(node, float) and not math.isfinite(node):
        raise ConfigError(f"{path}: must be finite, got {node!r}")


def _grid(spec, path: str) -> np.ndarray:
    try:
        return grid_values(spec)
    except ConfigError as exc:
        raise ConfigError(f"{path}: {exc}") from None


def _check_positive_grid(spec, path: str, min_points: int = 1) -> None:
    """Evolution times or probe frequencies: enough points, all of them > 0."""
    values = _grid(spec, path)
    if values.size < min_points:
        raise ConfigError(f"{path}: needs at least {min_points} points, "
                          f"got {values.size}")
    if np.any(values <= 0):
        raise ConfigError(f"{path}: values must be > 0, "
                          f"got {float(values.min())!r}")


def gate_index(spec) -> int:
    """Clifford index of an ``interleaved_rbm`` gate: an index in [0, 24)
    or the name of a single-primitive Clifford such as ``"X90"``."""
    if isinstance(spec, int):
        if not 0 <= spec < 24:
            raise ConfigError(f"protocol.gate: index {spec} out of range [0, 24)")
        return spec
    try:
        return CLIFFORD_DECOMPOSITIONS.index((spec,))
    except ValueError:
        raise ConfigError(f"protocol.gate: {spec!r} is not a single-primitive "
                          f"Clifford") from None


def _check_welch_band(proto: dict) -> None:
    """The ``voltage_psd`` band must lie inside the Welch estimate's
    frequency range, computed as :func:`spectra.synthesize` and
    :func:`spectra.psd_welch` will compute it."""
    rate = float(proto["sample_rate_hz"])
    n = int(round(rate * proto["duration_s"]))
    if n < 64:
        raise ConfigError(f"protocol.duration_s: duration_s*sample_rate_hz = "
                          f"{n} samples; need at least 64")
    nperseg = min(int(round(proto["nperseg_s"] * rate)), n)
    if nperseg < 2:
        raise ConfigError(f"protocol.nperseg_s: nperseg_s*sample_rate_hz = "
                          f"{nperseg} samples; need at least 2")
    lo, hi = proto["band_hz"]
    if not lo < hi:
        raise ConfigError(f"protocol.band_hz: need lo < hi, got [{lo}, {hi}]")
    df = 1.0 / (nperseg * (1 / rate))  # rfftfreq's bin spacing, bit for bit
    f_min, f_max = df, (nperseg // 2) * df
    if lo < f_min or hi > f_max:
        raise ConfigError(f"protocol.band_hz: [{lo}, {hi}] Hz is outside the "
                          f"Welch range [{f_min:.6g}, {f_max:.6g}] Hz "
                          f"(nperseg = {nperseg} samples)")


def _check_tone_column(proto: dict) -> None:
    """The ``tone_scan`` tone must fall on one of the columns the scan
    keeps, by the rule :func:`starktone.detect_tone_threshold` applies,
    and detection needs at least one other kept column to compare with."""
    taus = [1.0 / (2.0 * f) for f in proto["f_columns_hz"]]
    keep, _ = scan_columns(taus, proto["total_time_s"])
    f_kept = [1.0 / (2 * tau) for tau, _ in keep]
    if len(f_kept) < 2:
        raise ConfigError(f"protocol.f_columns_hz: {len(f_kept)} of the columns "
                          f"fit half a wait into total_time_s; need at least 2")
    try:
        tone_column(f_kept, proto["f_tone_hz"])
    except ValueError:
        raise ConfigError(
            f"protocol.f_tone_hz: {proto['f_tone_hz']!r} Hz is not within 5% of "
            f"any scanned column (kept: "
            f"{', '.join(f'{f:.6g}' for f in f_kept) or 'none'} Hz)") from None


def _check_t2_search(cfg: dict) -> None:
    """``cpmg_t2_vs_n`` centres each time grid on :func:`qubitsim.cpmg_t2`,
    which needs a filter integral that converges at f -> 0 and a chi = 1
    crossing in its search range at every pulse count.  The tables built
    here stay cached for the pipeline."""
    for i, term in enumerate(cfg["spectrum"].get("powerlaws", ())):
        if term["amplitude"] > 0 and term["exponent"] >= 3:
            raise ConfigError(
                f"spectrum.powerlaws.{i}.exponent: {term['exponent']!r} with "
                f"amplitude > 0 diverges at f -> 0; cpmg_t2_vs_n needs < 3")
    model = SpectrumModel.from_dict(cfg["spectrum"])
    for n in cfg["protocol"]["pulse_counts"]:
        try:
            cpmg_chi(model, n).bracket
        except ValueError as exc:
            raise ConfigError(f"protocol.pulse_counts: N = {n}: {exc}, so "
                              f"there is no T2 to centre the times on") from None


def validate_config(raw: dict) -> dict:
    """Validate a parsed config and return the normalized form.

    Normalization applies all defaults, so the returned dict alone is
    enough to reproduce the run.
    """
    if not isinstance(raw, dict):
        raise ConfigError("config must be a mapping")
    try:
        jsonschema.validate(raw, TOP_SCHEMA)
    except jsonschema.ValidationError as exc:
        raise _schema_error(exc, "") from None
    kind = raw["kind"]
    cfg = copy.deepcopy(raw)
    cfg["qubit"] = _merge_defaults(QUBIT_DEFAULTS, raw.get("qubit"))
    cfg["readout"] = _merge_defaults(READOUT_DEFAULTS, raw.get("readout"))
    cfg["stark"] = _merge_defaults(STARK_DEFAULTS, raw.get("stark"))
    cfg["workers"] = raw.get("workers")
    cfg["protocol"] = _merge_defaults(PROTOCOL_DEFAULTS[kind],
                                      raw.get("protocol"))
    proto_schema = {
        "type": "object",
        "additionalProperties": False,
        "properties": PROTOCOL_SCHEMAS[kind],
    }
    try:
        jsonschema.validate(cfg["protocol"], proto_schema)
    except jsonschema.ValidationError as exc:
        raise _schema_error(exc, "protocol.") from None
    _check_finite(cfg, "")
    proto = cfg["protocol"]
    for key, schema in PROTOCOL_SCHEMAS[kind].items():
        if schema is _GRID:  # a log grid with an endpoint <= 0 cannot be built
            _grid(proto[key], f"protocol.{key}")
    if "times_s" in proto:
        _check_positive_grid(proto["times_s"], "protocol.times_s", min_points=2)
    if "f_grid_hz" in proto:
        _check_positive_grid(proto["f_grid_hz"], "protocol.f_grid_hz")
    if proto.get("spectroscopy"):
        _check_positive_grid(proto["spectroscopy"]["f_grid_hz"],
                             "protocol.spectroscopy.f_grid_hz")
    gate_field = {"tone_scan": "gate", "voltage_psd": "stark_gate"}.get(kind)
    gates = cfg["stark"]["coefficients_hz_per_v"]
    if gate_field and proto[gate_field] not in gates:
        raise ConfigError(f"protocol.{gate_field}: {proto[gate_field]!r} is not "
                          f"in stark.coefficients_hz_per_v (has {sorted(gates)})")
    if kind == "stark_map":
        if sorted(gates) != ["G1", "G2"]:
            raise ConfigError(f"stark.coefficients_hz_per_v: stark_map needs "
                              f"exactly gates G1 and G2, got {sorted(gates)}")
        for key in ("v_g1_v", "v_g2_v"):  # the plane fit needs spread in both
            n_distinct = np.unique(grid_values(proto[key])).size
            if n_distinct < 2:
                raise ConfigError(f"protocol.{key}: needs at least 2 distinct "
                                  f"voltages, got {n_distinct}")
    if kind == "tone_scan":
        _check_tone_column(proto)
    if kind == "interleaved_rbm":
        gate_index(proto["gate"])
    if kind == "voltage_psd":
        _check_welch_band(proto)
    if kind in SPECTRUM_KINDS:
        if "spectrum" not in cfg or not cfg["spectrum"]:
            raise ConfigError(f"spectrum: required for kind={kind}")
    if kind == "cpmg_t2_vs_n":
        _check_t2_search(cfg)
    cfg.setdefault("spectrum", {})
    return cfg


def load_config(path) -> dict:
    """Read and validate a YAML config file."""
    path = Path(path)
    if not path.is_file():
        raise ConfigError(f"config file not found: {path}")
    try:
        with path.open() as fh:
            raw = yaml.safe_load(fh)
    except yaml.YAMLError as exc:
        raise ConfigError(f"YAML parse error in {path}: {exc}") from None
    return validate_config(raw)
