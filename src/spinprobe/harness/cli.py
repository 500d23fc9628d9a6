"""Command-line front end for the experiment harness."""

from __future__ import annotations

import argparse
import sys

from .config import KINDS, PROTOCOLS, ConfigError, load_config
from .runner import RunError, rerun, run


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="spinprobe",
        description="Run spin-qubit noise spectroscopy experiments from "
                    "YAML configs.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="validate a config and execute it")
    p_run.add_argument("config", help="path to a YAML experiment config")
    p_run.add_argument("--workers", type=int, default=None,
                       help="worker processes for the run "
                            "(overrides the config's workers)")

    p_val = sub.add_parser("validate",
                           help="check a config without running anything")
    p_val.add_argument("config", help="path to a YAML experiment config")

    sub.add_parser("list-experiments", help="print the supported kinds")

    p_rerun = sub.add_parser(
        "rerun", help="re-execute a manifest and compare checksums")
    p_rerun.add_argument("manifest", help="path to a manifest.json")
    p_rerun.add_argument("--workers", type=int, default=None)
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    if args.command == "list-experiments":
        for kind in KINDS:
            keys = ", ".join(sorted(PROTOCOLS[kind]))
            print(f"{kind}: {keys}")
        return 0
    if args.command == "validate":
        try:
            load_config(args.config)
        except ConfigError as exc:
            print(f"error: {exc}")
            return 2
        print("config OK")
        return 0
    if args.command == "run":
        return run(args.config, workers=args.workers)
    try:
        return rerun(args.manifest, workers=args.workers)
    except RunError as exc:
        print(f"error: {exc}")
        return 2


if __name__ == "__main__":
    sys.exit(main())
