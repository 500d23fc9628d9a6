"""Declarative experiment runner: configs, pipelines, manifests, CLI."""

from .config import KINDS, ConfigError, load_config, validate_config
from .runner import RunError, execute, rerun, run

__all__ = [
    "KINDS",
    "ConfigError",
    "load_config",
    "validate_config",
    "run",
    "rerun",
    "execute",
    "RunError",
]
