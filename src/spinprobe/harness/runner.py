"""Experiment runner: config in, manifest plus data files out.

Exit codes: 0 success, 2 invalid config, invalid worker count, locked
output directory or malformed manifest, 3 completed with fit failures
recorded in the manifest.  ``rerun`` re-executes a manifest's config echo
and returns 1 on any checksum mismatch.  A run writes every file under
``output_dir`` and finishes with ``manifest.json``, renamed into place
only once it is complete; the manifest's inventory lists the sha256 of
every file the run wrote, so reruns can be compared byte for byte.
Validation plans the run but keeps only the config, so :func:`execute`
plans again (well under a millisecond: the CPMG tables, and the T2s
found on them, stay cached).

The first run of a process freezes the heap (``gc.freeze``) just before
its pipeline starts, so before the first of the maps that may fork
workers: the ~24,000 container objects that imports and validation built
move to the collector's permanent generation.  The run's own full
collections and the ones at interpreter exit then no longer walk them,
which saves about 20 ms per process; outputs do not change.  The
workers a map forks (:mod:`spinprobe._parallel`) inherit the frozen heap
and leave the collector as they find it: a ``gc.freeze()`` in each
worker, of what the run built after the freeze, measured no gain.  Later
runs in the same process (``rerun``, the test suite, a script looping
over configs) freeze nothing more, so what a long-lived caller builds
between runs stays collectable.
"""

from __future__ import annotations

import gc
import hashlib
import json
import os
import tempfile
import time
from pathlib import Path

from .. import __version__
from .._csvio import write_files
from .._parallel import run_pool
from .config import TOP, ConfigError, _check, load_config, validate_config
from .pipelines import PIPELINES

LOCK_NAME = ".spinprobe.lock"
MANIFEST_NAME = "manifest.json"
MANIFEST_TMP_NAME = MANIFEST_NAME + ".tmp"


class RunError(RuntimeError):
    """Run could not start (unusable or locked output directory, bad
    manifest, bad worker count)."""


def _sha256(path: Path) -> str:
    h = hashlib.sha256()
    with path.open("rb") as fh:
        while chunk := fh.read(1 << 16):
            h.update(chunk)
    return h.hexdigest()


def _inventory(out: Path, names) -> dict[str, str]:
    """sha256 of each file the run wrote, by name: files an earlier run
    left in ``out`` stay out of it."""
    return {name: _sha256(out / name) for name in sorted(names)}


def _lock_holder(lock: Path) -> str:
    """The lock's holder as the "locked" error names it: its pid, and
    whether that process is gone (the lock is then stale)."""
    try:
        pid = int(lock.read_text().removeprefix("pid=").strip())
    except (OSError, ValueError):
        pid = 0
    if pid <= 0:  # kill(pid <= 0) would address process groups
        return "holder unknown"
    try:
        os.kill(pid, 0)  # signal 0 only asks whether the process exists
    except ProcessLookupError:
        return f"pid {pid}, no longer running"
    except (OSError, OverflowError):
        pass  # it exists but is not ours to signal, or pid is out of range
    return f"pid {pid}"


def _acquire_lock(out: Path) -> Path:
    """Create ``out`` if it is missing and take its lock.  A directory
    that cannot be created or locked raises :class:`RunError`."""
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise RunError(f"cannot create output directory {out}: "
                       f"{exc.strerror}") from None
    lock = out / LOCK_NAME
    try:
        fd = os.open(lock, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
    except FileExistsError:
        raise RunError(f"output directory {out} is locked by another run "
                       f"({_lock_holder(lock)}; remove {lock} if stale)") from None
    except OSError as exc:
        raise RunError(f"cannot lock output directory {out}: "
                       f"{exc.strerror}") from None
    with os.fdopen(fd, "w") as fh:
        fh.write(f"pid={os.getpid()}\n")
    return lock


def _write_manifest(out: Path, manifest: dict) -> None:
    """Write ``manifest.json`` whole or not at all: write it to a
    temporary file beside it, then rename it into place."""
    tmp = out / MANIFEST_TMP_NAME
    try:
        write_files({tmp: manifest})
        os.replace(tmp, out / MANIFEST_NAME)
    finally:
        tmp.unlink(missing_ok=True)


def execute(cfg: dict, out: Path, *, workers: int | None = None) -> dict:
    """Run one validated config into ``out`` and write the manifest.

    Returns the manifest dict.  Worker-count precedence: the ``workers``
    argument, then ``cfg["workers"]``, then 1; a ``workers`` argument the
    config's ``workers`` field would reject, or an ``out`` that cannot be
    created or is locked, raises :class:`RunError` before anything is
    written.
    Each parallel map of the pipeline forks at most that many workers
    (none at one worker), all reaped before the manifest is written; if
    the pipeline raises, the workers still running are killed and reaped
    and the lock is released before the exception propagates, with no
    manifest left in ``out``.
    If nothing in the process has been frozen yet, the heap is frozen
    just before the pipeline starts, so the workers fork from a frozen
    heap (see the module docstring); with no ``gc.collect()`` first, as
    that full pass would cost about a third of what the freeze saves.
    """
    try:
        workers = _check(workers, TOP["workers"], "--workers")
    except ConfigError as exc:
        raise RunError(str(exc)) from None
    n_workers = workers or cfg.get("workers") or 1
    lock = _acquire_lock(out)
    try:
        # an earlier run's manifest would not describe files this run
        # overwrites, and must not outlive a run that fails
        (out / MANIFEST_NAME).unlink(missing_ok=True)
        t0 = time.perf_counter()
        if gc.get_freeze_count() == 0:
            gc.freeze()
        with run_pool(n_workers):
            report = PIPELINES[cfg["kind"]](cfg, out)
        manifest = {
            "toolkit_version": __version__,
            "kind": cfg["kind"],
            "seed": cfg["seed"],
            "config": cfg,
            "stages": report.stages,
            "fit_failures": report.fit_failures,
            "summary": report.summary,
            "wall_clock_s": round(time.perf_counter() - t0, 3),
            "inventory": _inventory(out, report.files),
        }
        _write_manifest(out, manifest)
        return manifest
    finally:
        lock.unlink(missing_ok=True)


def run(config_path, *, workers: int | None = None,
        output_dir=None) -> int:
    """Load, validate, and execute a YAML config.  Returns an exit code."""
    try:
        cfg = load_config(config_path)
    except ConfigError as exc:
        print(f"error: {exc}")
        return 2
    out = Path(output_dir) if output_dir is not None else Path(cfg["output_dir"])
    try:
        manifest = execute(cfg, out, workers=workers)
    except RunError as exc:
        print(f"error: {exc}")
        return 2
    n_fail = len(manifest["fit_failures"])
    print(f"wrote {len(manifest['inventory'])} files to {out} "
          f"in {manifest['wall_clock_s']} s")
    if n_fail:
        for f in manifest["fit_failures"]:
            print(f"fit failure in stage {f['stage']}: {f['message']}")
        return 3
    return 0


def rerun(manifest_path, *, workers: int | None = None) -> int:
    """Re-execute a manifest's config echo and compare file checksums.

    Runs into a temporary directory, so the original outputs are never
    touched.  Returns 0 if every file matches, 1 otherwise.  A manifest
    that cannot be read, is not a mapping with a ``config`` and an
    ``inventory`` mapping, or holds an invalid config raises
    :class:`RunError` before anything runs.
    """
    manifest_path = Path(manifest_path)
    try:
        with manifest_path.open(encoding="utf-8") as fh:
            manifest = json.load(fh)
    except (OSError, UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise RunError(f"cannot read manifest {manifest_path}: {exc}") from None
    if not (isinstance(manifest, dict)
            and all(isinstance(manifest.get(k), dict) for k in ("config", "inventory"))):
        raise RunError(f"manifest {manifest_path} needs a 'config' and an "
                       f"'inventory' mapping")
    try:
        cfg = validate_config(manifest["config"])
    except ConfigError as exc:
        raise RunError(f"manifest {manifest_path}: {exc}") from None
    with tempfile.TemporaryDirectory(prefix="spinprobe_rerun_") as tmp:
        fresh = execute(cfg, Path(tmp), workers=workers)
    old, new = manifest["inventory"], fresh["inventory"]
    mismatched = sorted(set(old) ^ set(new))
    mismatched += sorted(k for k in set(old) & set(new) if old[k] != new[k])
    if mismatched:
        print(f"rerun MISMATCH ({len(mismatched)} files):")
        for name in mismatched:
            print(f"  {name}: {old.get(name, 'missing')} -> "
                  f"{new.get(name, 'missing')}")
        return 1
    print(f"rerun reproduced all {len(new)} files bit for bit")
    return 0
