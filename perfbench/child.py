"""Run one spinprobe config in a fresh interpreter and report its timings.

Usage::

    python3 perfbench/child.py CONFIG OUT_DIR RESULT_JSON --workers N
        [--trace] [--setup-only]

Does what ``spinprobe run CONFIG --workers N`` does, writing into
``OUT_DIR``, and records monotonic timestamps at the end of set-up
(import plus config validation) and of the run.  ``--setup-only`` stops
after set-up.  ``--trace`` rebinds the layer functions to span-recording
wrappers (see ``spans.py``) and adds the spans and work counts to
``RESULT_JSON``.  The exit code is the one ``spinprobe run`` would give.
"""

import time

T_MAIN = time.monotonic()

import argparse  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402


def peak_rss_mb() -> float:
    """Peak resident set of this process or any pool worker it reaped.

    This process's own figure comes from VmHWM: after exec, rusage's
    ru_maxrss still carries the resident set of the parent that spawned
    it.  Pool workers are forked without exec, so their rusage is theirs.
    """
    import resource
    with open("/proc/self/status") as fh:
        own_kb = next(int(line.split()[1]) for line in fh
                      if line.startswith("VmHWM:"))
    workers_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own_kb, workers_kb) * 1024 / 1e6


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("config")
    parser.add_argument("out_dir")
    parser.add_argument("result")
    parser.add_argument("--workers", type=int, required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    t_import = time.monotonic()
    from spinprobe.harness import config, runner
    t_imported = time.monotonic()
    try:
        cfg = config.load_config(args.config)
    except config.ConfigError as exc:
        print(f"error: {exc}")
        return 2
    t_validated = time.monotonic()
    result = {"t_main": T_MAIN, "import_s": t_imported - t_import,
              "validate_s": t_validated - t_imported,
              "t_validated": t_validated}
    code = 0
    if not args.setup_only:
        out = Path(args.out_dir)
        if args.trace:
            import spans
            tracer = spans.Tracer()
            spans.install(tracer)
            manifest = tracer.call("harness.execute", runner.execute,
                                   (cfg, out), {"workers": args.workers})
            result.update(spans=tracer.spans, counts=dict(tracer.counts),
                          maxima=tracer.maxima, missing=tracer.missing)
        else:
            manifest = runner.execute(cfg, out, workers=args.workers)
        result["t_done"] = time.monotonic()
        result["peak_rss_mb"] = peak_rss_mb()
        code = 3 if manifest["fit_failures"] else 0
    with open(args.result, "w") as fh:
        json.dump(result, fh, separators=(",", ":"))
    return code


if __name__ == "__main__":
    sys.exit(main())
