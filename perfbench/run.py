"""spinprobe benchmark: shipped configs end to end, and a traced layer run.

Usage (from the repository root)::

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

NAME is ``t2_scaling``, ``spectrometer``, ``bringup`` or ``all``.  One
client runs the workload's configs in a closed loop: each config is a
fresh ``spinprobe run`` process, and the next starts when the previous
one has exited.  Config seeds derive from ``--seed``; everything else in
the shipped configs is used unchanged.

``--trace 0`` repeats the workload until ``--seconds`` have passed (at
least once) and until set-up has been measured twice, checks every output
and prints the end-to-end metrics.  Extra set-up samples come from
set-up-only processes, or from whole passes when a pass is mostly set-up.
``--trace 1`` runs the workload untraced at its worker count, then twice
traced at one worker (so every span lands in one process), and prints the
per-layer metrics and the tracing overhead.  Times are in reference
seconds: every child is paused every SAMPLE_PERIOD_S (TRACE_SAMPLE_PERIOD_S
in traced runs) while a fixed kernel measures the speed of its CPUs.  The
last line of output is one JSON object; the exit code is 0 only when every
check passed.  See README.md in this directory.
"""

from __future__ import annotations

import argparse
import compileall
import contextlib
import hashlib
import json
import os
import platform
import shutil
import signal
import subprocess
import sys
import tempfile
import threading
import time
from importlib import metadata
from pathlib import Path
from statistics import median
from typing import NamedTuple

import numpy as np
import yaml

import checks
import spans

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
CONFIGS = ROOT / "configs"

# name -> (configs run in order, workers)
WORKLOADS = {
    "t2_scaling": (("cpmg_t2_vs_n",), 1),
    "spectrometer": (("noise_spectroscopy", "voltage_psd"), 2),
    "bringup": (("rabi_chevron", "stark_map", "rbm", "interleaved_rbm",
                 "ramsey", "hahn", "tone_scan"), 1),
}
SETUP_SAMPLES = 2
# typical duration of speed_kernel() on a 2-vCPU Intel Xeon VM; set-up and
# run times are reported in seconds of a machine that runs the kernel this fast
REF_KERNEL_S = 0.02
# a running child is paused this often to measure the speed of its CPUs
SAMPLE_PERIOD_S = 0.25
# traced runs are paused less often: they are long, and only their
# tracing overhead is in reference seconds
TRACE_SAMPLE_PERIOD_S = 1.0
KERNEL_INPUT = np.random.default_rng(0).normal(size=2049)
CHILD_TIMEOUT_S = 170.0

END_TO_END = (("run_s", "s"), ("setup_s", "s"), ("peak_rss_mb", "MB"))

# per-layer metric -> unit
PER_LAYER = {
    "spectra.draw.calls": "count", "spectra.draw.samples": "count",
    "spectra.draw.slow_len_share": "1", "spectra.draw.self_s": "s",
    "spectra.bins.self_s": "s",
    "spectra.synth.samples": "count", "spectra.synth.self_s": "s",
    "spectra.welch.self_s": "s",
    "spectra.csv.bytes": "B", "spectra.csv.self_s": "s",
    "sequences.ff.calls": "count", "sequences.ff.seg_points": "count",
    "sequences.ff.max_mb": "MB", "sequences.ff.self_s": "s",
    "qubitsim.mc.calls": "count", "qubitsim.mc.traj": "count",
    "qubitsim.mc.self_s": "s",
    "qubitsim.ff.calls": "count", "qubitsim.ff.self_s": "s",
    "parallel.calls": "count", "parallel.jobs": "count",
    "parallel.cpu_util": "1",
    "analysis.fit.calls": "count", "analysis.fit.failures": "count",
    "analysis.fit.self_s": "s", "analysis.scan.self_s": "s",
    "benchmarking.rb.cliffords": "count", "benchmarking.rb.self_s": "s",
    "benchmarking.fit.self_s": "s",
    "starktone.scan.shots": "count", "starktone.scan.self_s": "s",
    "harness.import_s": "s", "harness.validate_s": "s",
    "harness.execute.self_s": "s", "harness.pipeline.self_s": "s",
    "harness.out.bytes": "B",
    "trace.overhead_s": "s",
}
# counts that must repeat exactly between two traced runs at one seed
DETERMINISTIC = ("spectra.draw.calls", "spectra.draw.samples",
                 "spectra.draw.slow_len_share", "spectra.synth.samples",
                 "sequences.ff.calls", "sequences.ff.seg_points",
                 "sequences.ff.max_mb", "qubitsim.mc.calls",
                 "qubitsim.mc.traj", "qubitsim.ff.calls", "parallel.calls",
                 "parallel.jobs", "analysis.fit.calls",
                 "benchmarking.rb.cliffords", "starktone.scan.shots",
                 "spectra.csv.bytes", "harness.out.bytes")


class Failure(Exception):
    """A check failed; the message says which."""


# ---------------------------------------------------------------------------
# Child processes


def child_env() -> dict:
    env = dict(os.environ)
    env.pop("SPINPROBE_WORKERS", None)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return env


def kill_group(pid: int) -> None:
    try:
        os.killpg(pid, signal.SIGKILL)
    except ProcessLookupError:
        pass


def config_seed(seed: int, name: str) -> int:
    digest = hashlib.sha256(f"{seed}:{name}".encode()).digest()
    return int.from_bytes(digest[:4], "big")


def spawn(name: str, seed: int, workdir: Path, workers: int, *,
          trace: bool = False, setup_only: bool = False,
          period: float = SAMPLE_PERIOD_S) -> dict:
    """Run one config in a fresh process; return its timings and rusage.

    A sampler pauses the child's process group every ``period`` s and
    times the speed kernel on the child's CPUs meanwhile (see README.md,
    "Reference seconds").  Set-up and run times count only the time the
    child was not paused, in wall-clock and in reference seconds.
    """
    workdir.mkdir(parents=True)
    raw = yaml.safe_load((CONFIGS / f"{name}.yaml").read_text())
    out = workdir / "out"
    raw["seed"] = config_seed(seed, name)
    raw["output_dir"] = str(out)
    cfg_path = workdir / "config.yaml"
    cfg_path.write_text(yaml.safe_dump(raw, sort_keys=False))
    result_path = workdir / "result.json"
    cmd = [sys.executable, str(HERE / "child.py"), str(cfg_path), str(out),
           str(result_path), "--workers", str(workers)]
    cmd += ["--trace"] * trace + ["--setup-only"] * setup_only
    cpus = child_cpus(workers)
    with (workdir / "log.txt").open("wb") as log:
        marks = [measure(cpus)]
        t_spawn = time.monotonic()
        # own process group, so a pause or kill also reaches pool workers
        proc = subprocess.Popen(cmd, env=child_env(), stdout=log,
                                stderr=subprocess.STDOUT,
                                start_new_session=True)
        sampler = Sampler(proc.pid, cpus, period)
        timer = threading.Timer(CHILD_TIMEOUT_S, kill_group, (proc.pid,))
        try:
            with contextlib.suppress(ProcessLookupError):
                os.sched_setaffinity(proc.pid, cpus)
            timer.start()
            sampler.start()
            # wait without reaping, so the group id stays the child's
            # until the sampler has stopped
            os.waitid(os.P_PID, proc.pid, os.WEXITED | os.WNOWAIT)
            t_exit = time.monotonic()
        except BaseException:
            kill_group(proc.pid)
            raise
        finally:
            timer.cancel()
            sampler.finish()
            _, status, usage = os.wait4(proc.pid, 0)
        marks += [m for m in sampler.marks if m.paused_at < t_exit]
        marks.append(measure(cpus))
    proc.returncode = code = os.waitstatus_to_exitcode(status)
    rec = {"name": name, "code": code, "out": out, "cfg_path": cfg_path,
           "cpu_s": usage.ru_utime + usage.ru_stime,
           "rss_mb": usage.ru_maxrss * 1024 / 1e6, "result": None,
           "manifest": None}
    t_valid = t_spawn
    if result_path.is_file():
        rec["result"] = json.loads(result_path.read_text())
        t_valid = rec["result"]["t_validated"]
        rec["rss_mb"] = rec["result"].get("peak_rss_mb", rec["rss_mb"])
    rec["setup_s"], rec["setup_ref_s"] = active_seconds(t_spawn, t_valid, marks)
    rec["run_s"], rec["run_ref_s"] = active_seconds(t_valid, t_exit, marks)
    rec["wall_s"] = rec["setup_s"] + rec["run_s"]
    if (out / "manifest.json").is_file():
        rec["manifest"] = json.loads((out / "manifest.json").read_text())
    if code not in (0, 3):
        tail = (workdir / "log.txt").read_text(errors="replace")[-2000:]
        print(f"{name}: exit code {code}\n{tail}", file=sys.stderr)
    return rec


def speed_kernel() -> float:
    """Duration of one run of the speed kernel, in seconds.

    The kernel mixes what the workloads spend time on: irfft at a Monte
    Carlo trace length, interpreter-bound dict, str and list work, and a
    fresh 16 MB array (page faults and memory bandwidth).  It does not
    touch spinprobe, so a change to the package cannot move it.
    """
    t0 = time.perf_counter()
    for _ in range(50):
        np.fft.irfft(KERNEL_INPUT, 2049)
    table = {}
    for i in range(25_000):
        table[i % 1000] = str(i)
    doubled = [2 * i for i in range(50_000)]
    block = np.ones(2_000_000)
    block *= 2.0
    elapsed = time.perf_counter() - t0
    del table, doubled, block
    return elapsed


def child_cpus(workers: int) -> list[int]:
    """CPUs a child with this many workers is pinned to."""
    cpus = sorted(os.sched_getaffinity(0))
    return cpus[-workers:] if workers < len(cpus) else cpus


def cpu_speeds(cpus) -> tuple:
    """Reference seconds per wall-clock second on each of these CPUs now.

    Times the speed kernel once on each CPU, with the calling thread
    pinned to it: REF_KERNEL_S / duration.
    """
    own = os.sched_getaffinity(0)
    speeds = []
    try:
        for cpu in cpus:
            os.sched_setaffinity(0, {cpu})
            speeds.append(REF_KERNEL_S / speed_kernel())
    finally:
        os.sched_setaffinity(0, own)
    return tuple(speeds)


def busy_ticks(cpus) -> tuple:
    """Clock ticks each CPU has spent busy so far, from /proc/stat.

    Busy is user, nice, system, irq and softirq time.  Zeros when the
    file cannot be read; ``active_seconds`` then weighs CPUs equally.
    """
    try:
        with open("/proc/stat") as fh:
            rows = {f[0]: f[1:] for f in map(str.split, fh)
                    if f and f[0].startswith("cpu")}
    except OSError:
        rows = {}
    out = []
    for cpu in cpus:
        f = [int(x) for x in rows.get(f"cpu{cpu}", ())]
        out.append(f[0] + f[1] + f[2] + f[5] + f[6] if len(f) >= 7 else 0)
    return tuple(out)


class Mark(NamedTuple):
    """One pause of a child, and what was measured while it lasted."""
    paused_at: float
    resumed_at: float
    speeds: tuple        # cpu_speeds() of the child's CPUs
    busy_paused: tuple   # busy_ticks() of those CPUs when it paused
    busy_resumed: tuple  # and when it resumed


def measure(cpus, pgid: int | None = None) -> Mark:
    """Pause process group ``pgid`` (if any) and measure its CPUs' speed."""
    busy_paused = busy_ticks(cpus)
    paused_at = time.monotonic()
    if pgid is not None:
        os.killpg(pgid, signal.SIGSTOP)
    try:
        speeds = cpu_speeds(cpus)
    finally:
        if pgid is not None:
            with contextlib.suppress(ProcessLookupError):
                os.killpg(pgid, signal.SIGCONT)
    resumed_at = time.monotonic()
    return Mark(paused_at, resumed_at, speeds, busy_paused, busy_ticks(cpus))


class Sampler(threading.Thread):
    """Pauses a process group every ``period`` s to measure CPU speed."""

    def __init__(self, pgid: int, cpus, period: float) -> None:
        super().__init__(daemon=True)
        self.pgid, self.cpus, self.period, self.marks = pgid, cpus, period, []
        self.done = threading.Event()

    def run(self) -> None:
        while not self.done.wait(self.period):
            try:
                self.marks.append(measure(self.cpus, self.pgid))
            except ProcessLookupError:
                return

    def finish(self) -> None:
        self.done.set()
        if self.is_alive():
            self.join()


def active_seconds(t0: float, t1: float, marks) -> tuple[float, float]:
    """Time a child was active in [t0, t1], wall-clock and reference.

    ``marks`` are in time order, the first taken before the child started
    and the last after it exited.  Between two marks the child ran, and
    each CPU ran at the mean of the speeds measured at the two marks.  The
    CPUs are weighed by the ticks each spent busy in between.
    """
    wall = ref = 0.0
    for m0, m1 in zip(marks, marks[1:]):
        overlap = min(m1.paused_at, t1) - max(m0.resumed_at, t0)
        if overlap <= 0:
            continue
        busy = [b1 - b0 for b0, b1 in zip(m0.busy_resumed, m1.busy_paused)]
        if sum(busy) <= 0:
            busy = [1] * len(busy)
        speed = sum(w * (s0 + s1) / 2 for w, s0, s1
                    in zip(busy, m0.speeds, m1.speeds)) / sum(busy)
        wall += overlap
        ref += overlap * speed
    return wall, ref


def run_pass(configs, seed: int, tmp: Path, tag: str, workers: int,
             trace: bool = False,
             period: float = SAMPLE_PERIOD_S) -> list[dict]:
    recs = [spawn(name, seed, tmp / f"{tag}-{name}", workers, trace=trace,
                  period=period)
            for name in configs]
    for rec in recs:
        rec["problems"] = checks.output_problems(
            rec["name"], rec["out"], rec["manifest"], rec["code"])
        rec["inventory"] = (rec["manifest"] or {}).get("inventory", {})
        rec["out_bytes"] = sum((rec["out"] / f).stat().st_size
                               for f in rec["inventory"]
                               if (rec["out"] / f).is_file())
    return recs


def setup_probe(configs, seed: int, tmp: Path, tag: str) -> list[dict]:
    recs = [spawn(name, seed, tmp / f"{tag}-{name}", 1, setup_only=True)
            for name in configs]
    for rec in recs:
        if rec["code"] != 0 or rec["result"] is None:
            raise Failure(f"set-up of {rec['name']} failed with exit code "
                          f"{rec['code']}")
    return recs


def drop_outputs(recs) -> None:
    for rec in recs:
        shutil.rmtree(rec["out"], ignore_errors=True)


# ---------------------------------------------------------------------------
# Checks shared by both modes


def check_passes(passes) -> tuple[list[str], int, int]:
    """Output problems, and (attempted, failed) operations over all passes.

    Passes run the same configs at the same seeds, so their inventories
    must be identical file for file.
    """
    from spinprobe.harness.config import load_config
    problems, attempted, failed = [], 0, 0
    first = passes[0]
    for recs in passes:
        for rec, ref in zip(recs, first):
            cfg = load_config(rec["cfg_path"])
            a, f = checks.count_ops(cfg["kind"], cfg["protocol"],
                                    rec["manifest"], not rec["problems"])
            attempted += a
            failed += f
            problems += [f"{rec['name']}: {p}" for p in rec["problems"]]
            if rec["inventory"] != ref["inventory"]:
                problems.append(f"{rec['name']}: inventory differs between "
                                f"runs at one seed")
    return problems, attempted, failed


def accuracy(recs) -> dict:
    """decay_z_rms and psd_log_err over the configs that produce them."""
    from spinprobe.harness.config import load_config
    z, errs = [], []
    for rec in recs:
        if rec["problems"]:
            continue
        cfg = load_config(rec["cfg_path"])
        if cfg["kind"] in ("ramsey", "hahn", "cpmg_t2_vs_n"):
            z += checks.decay_z(cfg, rec["out"])
        elif cfg["kind"] in ("noise_spectroscopy", "voltage_psd"):
            errs += checks.psd_log_errors(cfg, rec["out"])
    out = {}
    if z:
        out["decay_z_rms"] = (checks.rms(z), "1", len(z), checks.MAX_DECAY_Z_RMS)
    if errs:
        out["psd_log_err"] = (median(errs), "dex", len(errs),
                              checks.MAX_PSD_LOG_ERR)
    return out


def environment() -> str:
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next(line.split(":", 1)[1].strip() for line in fh
                       if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    return (f"env nproc={os.cpu_count()} cpu={cpu!r} "
            f"python={platform.python_version()} "
            f"numpy={metadata.version('numpy')} "
            f"scipy={metadata.version('scipy')} blas_threads=1")


# ---------------------------------------------------------------------------
# Modes


def timed(workload: str, seed: int, seconds: float, tmp: Path) -> dict:
    configs, workers = WORKLOADS[workload]
    start = time.monotonic()
    passes = []
    while not passes or time.monotonic() - start < seconds:
        recs = run_pass(configs, seed, tmp, f"p{len(passes)}", workers)
        if passes:
            drop_outputs(recs)
        passes.append(recs)
    setups = list(passes)
    while len(setups) < SETUP_SAMPLES:
        recs = passes[-1]
        if sum(r["wall_s"] for r in recs) < 2 * sum(r["setup_s"] for r in recs):
            # a pass that is mostly set-up costs little more than a
            # set-up-only probe, and it also gives another run sample
            recs = run_pass(configs, seed, tmp, f"p{len(passes)}", workers)
            drop_outputs(recs)
            passes.append(recs)
        else:
            recs = setup_probe(configs, seed, tmp, f"s{len(setups)}")
        setups.append(recs)

    problems, attempted, failed = check_passes(passes)
    acc = accuracy(passes[0])
    for name, (value, unit, n, limit) in acc.items():
        if not value <= limit:
            problems.append(f"{name} = {value:.4g} {unit} exceeds {limit}")

    def totals(samples, key):
        return [sum(r[key] for r in recs) for recs in samples]

    samples = {"run_s": totals(passes, "run_ref_s"),
               "setup_s": totals(setups, "setup_ref_s"),
               "peak_rss_mb": [max(r["rss_mb"] for r in recs)
                               for recs in passes]}
    wall = {"run_s": totals(passes, "run_s"),
            "setup_s": totals(setups, "setup_s")}
    metrics = {name: {"value": median(samples[name]), "unit": unit}
               for name, unit in END_TO_END}

    print(f"workload {workload}: seed {seed}, {len(configs)} config(s) per "
          f"pass, {workers} worker(s), closed loop with one client, "
          f"{len(passes)} pass(es)")
    print(f"  {'metric':<14}{'unit':<6}{'median':>12}  samples  "
          f"(times in reference seconds; wall-clock median after)")
    for name, unit in END_TO_END:
        extra = f"  wall {median(wall[name]):.4f} s" if name in wall else ""
        print(f"  {name:<14}{unit:<6}{metrics[name]['value']:>12.4f}  "
              f"{len(samples[name])} runs{extra}")
    print(f"  {'fail_share':<14}{'1':<6}{failed / attempted:>12.4f}  "
          f"{attempted} operations")
    for name, (value, unit, n, limit) in acc.items():
        print(f"  {name:<14}{unit:<6}{value:>12.4f}  {n} points "
              f"(limit {limit})")
    print("  per config, wall-clock median over passes: set-up s, run s, "
          "pipeline s (manifest wall_clock_s), peak RSS MB")
    for i, name in enumerate(configs):
        recs = [p[i] for p in passes]
        pipeline = [r["manifest"]["wall_clock_s"] for r in recs if r["manifest"]]
        print(f"    {name:<20}{median([r['setup_s'] for r in recs]):8.3f}"
              f"{median([r['run_s'] for r in recs]):9.3f}"
              f"{median(pipeline) if pipeline else float('nan'):9.3f}"
              f"{median([r['rss_mb'] for r in recs]):9.1f}")
    return {"correct": not problems, "attempted": attempted,
            "failed": failed, "metrics": metrics, "problems": problems}


def layer_metrics(recs) -> dict:
    """Per-layer figures of one traced pass, summed over its configs."""
    values = dict.fromkeys(PER_LAYER, 0.0)
    slow_draws = 0
    for rec in recs:
        res = rec["result"] or {}
        counts = res.get("counts", {})
        for key, n in counts.items():
            if key in values:
                values[key] += n
        slow_draws += counts.get("spectra.draw.slow_len", 0)
        for key, peak in res.get("maxima", {}).items():
            values[key] = max(values[key], peak)
        for name, st in spans.self_time_by_name(res.get("spans", [])).items():
            values[f"{name}.self_s"] += st
        values["harness.import_s"] += res.get("import_s", 0.0)
        values["harness.validate_s"] += res.get("validate_s", 0.0)
        values["harness.out.bytes"] += rec["out_bytes"]
    draws = values["spectra.draw.calls"]
    values["spectra.draw.slow_len_share"] = slow_draws / draws if draws else 0.0
    return values


def traced(workload: str, seed: int, tmp: Path) -> dict:
    configs, workers = WORKLOADS[workload]
    base = run_pass(configs, seed, tmp, "base", workers,
                    period=TRACE_SAMPLE_PERIOD_S)
    runs = [run_pass(configs, seed, tmp, f"trace{i}", 1, trace=True,
                     period=TRACE_SAMPLE_PERIOD_S)
            for i in range(2)]
    problems, attempted, failed = check_passes([base, *runs])
    layers = [layer_metrics(recs) for recs in runs]
    for key in DETERMINISTIC:
        if layers[0][key] != layers[1][key]:
            problems.append(f"{key} differs between traced runs: "
                            f"{layers[0][key]} vs {layers[1][key]}")
    missing = sorted({m for recs in runs for r in recs
                      for m in (r["result"] or {}).get("missing", [])})
    values = {key: median([lay[key] for lay in layers]) for key in PER_LAYER}
    values["parallel.cpu_util"] = (sum(r["cpu_s"] for r in base)
                                   / (sum(r["wall_s"] for r in base) * workers))
    traced_run_s = median([sum(r["run_ref_s"] for r in recs) for recs in runs])
    untraced_run_s = sum(r["run_ref_s"] for r in base)
    values["trace.overhead_s"] = traced_run_s - untraced_run_s

    print(f"workload {workload}: seed {seed}, untraced at {workers} "
          f"worker(s), then traced twice at 1 worker")
    print(f"  run_s in reference seconds: untraced {untraced_run_s:.4f}, "
          f"traced {traced_run_s:.4f}, overhead "
          f"{values['trace.overhead_s']:.4f}")
    if missing:
        print(f"  not traced (absent from the package): {', '.join(missing)}")
    print(f"  {'metric':<30}{'unit':<7}{'value':>16}")
    for key, unit in PER_LAYER.items():
        print(f"  {key:<30}{unit:<7}{values[key]:>16.6g}")
    metrics = {key: {"value": values[key], "unit": unit}
               for key, unit in PER_LAYER.items()}
    return {"correct": not problems, "attempted": attempted,
            "failed": failed, "metrics": metrics, "problems": problems}


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    scratch = ROOT / ".perfbench_tmp"
    scratch.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix=f"{workload}-", dir=scratch))
    try:
        if trace:
            return traced(workload, seed, tmp)
        return timed(workload, seed, seconds, tmp)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            scratch.rmdir()
        except OSError:
            pass


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "spinprobe").is_dir() or not CONFIGS.is_dir():
        print(f"error: {ROOT} holds no spinprobe sources (src/spinprobe) "
              f"or configs/", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    compileall.compile_dir(str(SRC), quiet=1)
    print(environment())
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = {}
    for name in names:
        try:
            results[name] = run_workload(name, args.seed, args.seconds,
                                         bool(args.trace))
        except Failure as exc:
            results[name] = {"correct": False, "attempted": 1, "failed": 1,
                             "metrics": {}, "problems": [str(exc)]}
        for problem in results[name]["problems"]:
            print(f"  CHECK FAILED: {problem}")
    if len(names) == 1:
        result = results[names[0]]
        del result["problems"]
    else:
        result = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{w}.{k}": v for w, r in results.items()
                        for k, v in r["metrics"].items()},
        }
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
