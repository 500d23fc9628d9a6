"""The package as a user runs it: ``python -m spinprobe.harness.cli`` in a
child process, from a directory outside the source tree, with scipy
unimportable and warnings as errors.

The child imports the ``spinprobe`` this suite imports: ``src/`` in a
checkout, site-packages once the package is installed, so the same
module checks a ``pip install .`` when pytest runs it from outside the
checkout.
"""

import json
import os
import re
import shlex
import shutil
import subprocess
import sys
import threading
from pathlib import Path

import pytest
import yaml

from conftest import (_csv_cells, _plot_columns, _reject_constant, _src_env,
                      _write_yaml)

ROOT = Path(__file__).resolve().parents[1]
SHIPPED = sorted((ROOT / "configs").glob("*.yaml"))
# the shipped kinds whose runs draw trajectories or shots
MONTE_CARLO = ["ramsey", "hahn", "cpmg_t2_vs_n", "noise_spectroscopy",
               "tone_scan", "voltage_psd"]
# scipy is blocked before anything imports it; the module then runs as
# ``python -m`` runs it
_CLI = ("import runpy, sys; sys.modules['scipy'] = None; "
        "runpy.run_module('spinprobe.harness.cli', run_name='__main__', "
        "alter_sys=True)")


def _cli_argv(*args) -> list[str]:
    return [sys.executable, "-W", "error", "-c", _CLI, *map(str, args)]


def _spinprobe(cwd, *args) -> subprocess.CompletedProcess:
    done = subprocess.run(_cli_argv(*args), cwd=cwd, env=_src_env(),
                          capture_output=True, text=True, timeout=600)
    assert done.returncode == 0, (args, done.stdout[-2000:], done.stderr[-2000:])
    return done


@pytest.fixture(scope="module")
def runs(tmp_path_factory) -> Path:
    """``runs/`` after every shipped config ran at two workers."""
    cwd = tmp_path_factory.mktemp("shipped")
    for cfg in SHIPPED:
        _spinprobe(cwd, "run", cfg, "--workers", 2)
    return cwd / "runs"


@pytest.mark.parametrize("cfg", SHIPPED, ids=lambda p: p.stem)
def test_shipped_config_validates(tmp_path, cfg):
    assert _spinprobe(tmp_path, "validate", cfg).stdout == "config OK\n"


def test_every_shipped_config_runs(runs):
    assert sorted(p.name for p in runs.iterdir()) == [p.stem for p in SHIPPED]


def test_every_json_file_is_strict_and_every_plot_resolves(runs):
    """NaN and Infinity tokens are not JSON, manifests included; a plot
    file names a CSV of its run and columns of that CSV's header."""
    paths = sorted(runs.glob("**/*.json"))
    plots = [p for p in paths if p.name.startswith("plot_")]
    assert len(paths) > len(plots) >= len(SHIPPED)
    for path in paths:
        obj = json.loads(path.read_text(encoding="utf-8"),
                         parse_constant=_reject_constant)
        if path in plots:
            csv = path.parent / obj["csv"]
            header = _csv_cells(csv)[0].split(",")
            assert set(_plot_columns(obj)) <= set(header), path


@pytest.mark.parametrize("kind", MONTE_CARLO)
def test_monte_carlo_run_reruns_bit_for_bit(runs, kind):
    """A run made at two workers comes back bit for bit at two and at one."""
    for workers in (2, 1):
        done = _spinprobe(runs.parent, "rerun", runs / kind / "manifest.json",
                          "--workers", workers)
        assert "bit for bit" in done.stdout


def test_voltage_trace_export_peaks_under_600_mb(tmp_path):
    """The shipped voltage_psd with ``export_trace: true`` writes its 5.4 M
    trace rows in slices; formatting them all at once peaked at 1 GB."""
    cfg = yaml.safe_load((ROOT / "configs" / "voltage_psd.yaml").read_text())
    cfg["protocol"]["export_trace"] = True
    cfg["output_dir"] = "runs/voltage_trace"
    argv = _cli_argv("run", _write_yaml(tmp_path, cfg, "voltage_trace.yaml"))
    try:
        with subprocess.Popen(argv, cwd=tmp_path, env=_src_env(), text=True,
                              stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT) as proc:
            timer = threading.Timer(600, proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                timer.cancel()
            proc.returncode = os.waitstatus_to_exitcode(status)
            printed = proc.stdout.read()
        assert proc.returncode == 0, printed[-2000:]
        peak_mb = usage.ru_maxrss / 1024
        assert peak_mb <= 600, f"peak RSS {peak_mb:.0f} MB"
    finally:
        shutil.rmtree(tmp_path / "runs", ignore_errors=True)


# a 2^22-sample synthesis and its Welch estimate (2^19 samples per
# segment) after small ones have loaded numpy's FFT: the child prints how
# far its peak RSS rose above the warm RSS, in units of the trace's sample
# bytes
_SYNTHESIS_RSS = """
import sys
sys.modules['scipy'] = None
from spinprobe import spectra

def status(key):
    with open('/proc/self/status') as f:
        return next(int(line.split()[1]) * 1024 for line in f
                    if line.startswith(key + ':'))

model = spectra.SpectrumModel(white_floor=1.0)
spectra.psd_welch(spectra.synthesize(model, 2 ** 16, 1.0, 0), nperseg=2 ** 13)
warm = status('VmRSS')
trace = spectra.synthesize(model, 2 ** 22, 1.0, 0)
spectra.psd_welch(trace, nperseg=2 ** 19)
print((status('VmHWM') - warm) / trace.samples.nbytes)
"""


@pytest.mark.skipif(not Path("/proc/self/status").is_file(),
                    reason="reads VmRSS and VmHWM from /proc")
def test_synthesis_and_welch_peak_rss_within_2_3_times_the_samples(tmp_path):
    """Real RSS, which tracemalloc cannot see: pocketfft's workspace is
    outside it.  A whole-length ``irfft`` after the coefficients rose 4.1
    times the sample bytes, two half-length transforms 2.5 and, with a
    Welch matrix of every segment's power, 2.7; four quarter-length
    transforms and a Welch sum that holds 4 power rows rise about 2.0."""
    done = subprocess.run([sys.executable, "-W", "error", "-c", _SYNTHESIS_RSS],
                          cwd=tmp_path, env=_src_env(), capture_output=True,
                          text=True, timeout=600)
    assert done.returncode == 0, done.stderr[-2000:]
    assert float(done.stdout) <= 2.3


def test_ci_runs_these_checks_on_the_installed_package():
    """The workflow cannot run offline, so its wiring is checked here: the
    tests job runs ROADMAP's tier-1 command, and the installed job runs
    the console script on a shipped config and pytest on test files that
    exist, with no config or script written inline.  Each job has a
    timeout, so a hung run cannot hold a runner for hours.  Tier-1 runs on
    every Python from pyproject's oldest to 3.12."""
    text = (ROOT / ".github" / "workflows" / "tier1.yml").read_text()
    assert "<<" not in text
    jobs = yaml.safe_load(text)["jobs"]
    assert all(0 < job.get("timeout-minutes", 0) <= 60 for job in jobs.values())
    tier1 = re.search(r"\*\*Tier-1 verify:\*\* `(.+)`",
                      (ROOT / "ROADMAP.md").read_text()).group(1)
    assert [s["run"] for s in jobs["tests"]["steps"]
            if "pytest" in s.get("run", "")] == [tier1]
    assert jobs["tests"]["strategy"]["matrix"]["python-version"] == [
        "3.10", "3.11", "3.12"]

    def paths(command):
        return [ROOT / a.removeprefix("$GITHUB_WORKSPACE/")
                for a in shlex.split(command) if a.startswith("$GITHUB_WORKSPACE/")]

    installed = [s["run"] for s in jobs["installed"]["steps"] if "run" in s]
    smoke = [r for r in installed if r.startswith("spinprobe validate ")]
    pytest_runs = [r for r in installed if r.startswith("python -m pytest ")]
    assert len(smoke) == len(pytest_runs) == 1
    assert [p.parent for p in paths(smoke[0])] == [ROOT / "configs"]
    tested = paths(pytest_runs[0])
    assert Path(__file__).resolve() in tested
    assert all(p.is_file() for p in tested + paths(smoke[0]))
    # voltage_psd run at two workers, then rerun at three: the console
    # script's rerun round trip, which every byte must survive
    (pair,) = [r.splitlines() for r in installed if r.startswith("spinprobe run ")]
    assert pair == ['spinprobe run "$GITHUB_WORKSPACE/configs/voltage_psd.yaml" '
                    "--workers 2",
                    "spinprobe rerun runs/voltage_psd/manifest.json --workers 3"]
    config = yaml.safe_load((ROOT / "configs" / "voltage_psd.yaml").read_text())
    assert config["output_dir"] == "runs/voltage_psd"
