"""Suite-wide hooks, and the helpers more than one test module uses."""

import os
import re
import subprocess
import sys
from pathlib import Path

import yaml

CRITERIA = {
    1: "white-floor spectroscopy round trip within 20%",
    2: "composite spectrum band exponents and line recovery",
    3: "T2 vs N scaling exponents for 1/f and 1/f^2.5",
    4: "Monte Carlo vs filter-function chi equivalence battery",
    5: "CPMG filter peak, even-harmonic and Parseval properties",
    6: "RB Clifford fidelity recovery and group checks",
    7: "tone injection harmonics and detection threshold",
    8: "Zeeman frequency and Rabi chevron anchors",
    9: "voltage PSD round trip and line conversion",
    10: "bit-identical reruns across worker counts",
}


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    buckets: dict[int, list[str]] = {}
    for outcome in ("passed", "failed", "error", "xfailed", "xpassed",
                    "skipped"):
        for rep in terminalreporter.stats.get(outcome, []):
            nodeid = getattr(rep, "nodeid", "")
            if "test_acceptance" not in nodeid:
                continue
            m = re.search(r"criterion_?0?(\d+)", nodeid)
            if m:
                buckets.setdefault(int(m.group(1)), []).append(outcome)
    if not buckets:
        return
    terminalreporter.section("acceptance criteria")
    for num in sorted(buckets):
        outs = buckets[num]
        if any(o in ("failed", "error", "xpassed") for o in outs):
            status = "FAIL"
        elif all(o == "skipped" for o in outs):
            status = "SKIP"
        elif any(o == "xfailed" for o in outs):
            status = "PASS with documented expected failures"
        else:
            status = "PASS"
        title = CRITERIA.get(num, "")
        terminalreporter.write_line(
            f"criterion {num:2d} [{status}] {title} ({len(outs)} checks)")


def _src_env() -> dict:
    """The environment with the ``spinprobe`` this suite imports first on
    ``PYTHONPATH``: ``src/`` in a checkout, site-packages once installed."""
    import spinprobe  # here, so that a missing package fails tests, not the suite

    src = str(Path(spinprobe.__file__).resolve().parents[1])
    return {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}


def _write_yaml(tmp_path, cfg, name="cfg.yaml"):
    p = tmp_path / name
    p.write_text(yaml.safe_dump(cfg))
    return p


def _reject_constant(name):
    raise ValueError(f"{name} is not strict JSON")


def _csv_cells(path) -> tuple[str, list[list[str]]]:
    """Header and the cells of every row of a CSV the run wrote."""
    header, *rows = path.read_text().splitlines()
    return header, [row.split(",") for row in rows]


def _plot_columns(plot: dict) -> list[str]:
    """Every CSV column a ``plot_*.json`` file names."""
    y_err = plot.get("y_err", {})
    columns = [plot[key]["column"] for key in ("x", "y", "z") if key in plot]
    return columns + ([y_err] if isinstance(y_err, str) else list(y_err.values()))


# the start of every pool script: the map under test, and a check that
# this process has no child left, running or not yet reaped, and no pipe
# of a map left open
POOL_PRELUDE = """\
import os, signal, sys, time
from spinprobe import _parallel
from spinprobe._parallel import run_pool, submit

def no_child_left():
    try:
        os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:
        return not _parallel._fds
    return False
"""


def _run_pool_script(body: str) -> str:
    """Run ``body`` after :data:`POOL_PRELUDE` in a fresh interpreter and
    return what it printed; a script that fails or takes more than 60 s
    (a hung map) fails the test."""
    proc = subprocess.run([sys.executable, "-c", POOL_PRELUDE + body],
                          env=_src_env(), capture_output=True, text=True,
                          timeout=60)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout
