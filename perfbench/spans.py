"""In-memory spans around calls into spinprobe's layers.

A traced run rebinds public functions of the spinprobe modules to
wrappers that open a span around each call and tally that layer's work
counts.  Spans stay in memory and are written out when the run ends; the
parent turns them into self times with :func:`self_times`.

Spans nest by call stack.  Two rules keep the layer attribution honest:

* a call that re-enters the span already open (``filter_function``
  calling ``response``) adds no span and no count;
* nothing opens inside a leaf span (``spectra.synth``), so the single
  long draw that ``synthesize`` makes is synthesis work, not a Monte Carlo
  draw.
"""

from __future__ import annotations

import os
import time
from collections import Counter

LEAVES = frozenset({"spectra.synth"})


class Tracer:
    """Span stack, finished spans and work counts of one config run."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index]
        self.counts: Counter = Counter()
        self.maxima: dict[str, float] = {}
        self.missing: list[str] = []
        self._stack: list[int] = []

    def count(self, key: str, amount=1) -> None:
        self.counts[key] += amount

    def peak(self, key: str, value: float) -> None:
        self.maxima[key] = max(self.maxima.get(key, 0.0), value)

    def call(self, name: str, fn, args=(), kwargs=None, hook=None):
        kwargs = kwargs or {}
        if self._stack:
            top = self.spans[self._stack[-1]][0]
            if top == name or top in LEAVES:
                return fn(*args, **kwargs)
        parent = self._stack[-1] if self._stack else -1
        idx = len(self.spans)
        self.spans.append([name, time.perf_counter(), None, parent])
        self._stack.append(idx)
        try:
            result = fn(*args, **kwargs)
        except Exception:
            if hook is not None:
                hook(self, args, kwargs, None, failed=True)
            raise
        finally:
            self.spans[idx][2] = time.perf_counter()
            self._stack.pop()
        if hook is not None:
            hook(self, args, kwargs, result, failed=False)
        return result

    def wrap(self, name: str, fn, hook=None):
        def traced(*args, **kwargs):
            return self.call(name, fn, args, kwargs, hook)
        return traced

    def rebind(self, module, attr: str, name: str, hook=None) -> None:
        """Replace ``module.attr`` by a traced wrapper.

        A name the module no longer has is recorded in ``missing`` instead
        of failing, so a refactor that drops a function still gets traced
        everywhere else.
        """
        fn = getattr(module, attr, None)
        if fn is None:
            self.missing.append(f"{module.__name__}.{attr}")
            return
        setattr(module, attr, self.wrap(name, fn, hook))


# ---------------------------------------------------------------------------
# Self-time arithmetic


def covered_length(intervals, lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to ``[lo, hi]``."""
    total = 0.0
    cur_lo = cur_hi = None
    for a, b in sorted((max(a, lo), min(b, hi)) for a, b in intervals):
        if b <= a:
            continue
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans) -> list[float]:
    """Each span's duration minus the time its child spans cover."""
    children: list[list] = [[] for _ in spans]
    for name, start, end, parent in spans:
        if parent >= 0:
            children[parent].append((start, end))
    return [(end - start) - covered_length(children[i], start, end)
            for i, (name, start, end, parent) in enumerate(spans)]


def self_time_by_name(spans) -> dict[str, float]:
    out: dict[str, float] = {}
    for (name, *_), st in zip(spans, self_times(spans)):
        out[name] = out.get(name, 0.0) + st
    return out


# ---------------------------------------------------------------------------
# Work counts per layer


def is_slow_len(n: int) -> bool:
    """True when ``n`` is not a fast FFT length for scipy.fft."""
    from scipy.fft import next_fast_len
    return int(n) != next_fast_len(int(n))


def _draw(t, args, kwargs, result, failed):
    if failed:
        return
    n = len(result)
    t.count("spectra.draw.calls")
    t.count("spectra.draw.samples", n)
    t.count("spectra.draw.slow_len", int(is_slow_len(n)))


def _synth(t, args, kwargs, result, failed):
    if not failed:
        t.count("spectra.synth.samples", result.n_samples)


def _csv(t, args, kwargs, result, failed):
    path = args[1] if len(args) > 1 else kwargs["path"]
    if not failed:
        t.count("spectra.csv.bytes", os.path.getsize(path))


def _ff(t, args, kwargs, result, failed):
    if failed:
        return
    import numpy as np
    schedule = args[0] if args else kwargs["schedule"]
    points = (schedule.n_pulses + 1) * int(np.size(result))
    t.count("sequences.ff.calls")
    t.count("sequences.ff.seg_points", points)
    t.peak("sequences.ff.max_mb", points * 16 / 1e6)


def _mc(t, args, kwargs, result, failed):
    if not failed:
        t.count("qubitsim.mc.calls")
        t.count("qubitsim.mc.traj", result.n_traj)


def _chi(t, args, kwargs, result, failed):
    t.count("qubitsim.ff.calls")


def _pmap(t, args, kwargs, result, failed):
    if not failed:
        t.count("parallel.calls")
        t.count("parallel.jobs", len(result))


def _fit(t, args, kwargs, result, failed):
    t.count("analysis.fit.calls")
    t.count("analysis.fit.failures", int(failed))


def _rb(factor):
    def hook(t, args, kwargs, result, failed):
        if not failed:
            t.count("benchmarking.rb.cliffords",
                    factor * int(result.depths.sum()) * result.n_sequences)
    return hook


def _tone(t, args, kwargs, result, failed):
    if not failed:
        t.count("starktone.scan.shots", int(result.p_up.size) * result.shots)


def install(tracer: Tracer) -> None:
    """Trace every layer boundary the benchmark reports on.

    Names bound by ``from ... import`` are rebound in the importing module
    too, since rebinding the defining module does not reach them.
    """
    from spinprobe import (_parallel, analysis, benchmarking, qubitsim,
                           sequences, spectra, starktone)
    from spinprobe.harness import pipelines

    rebind = tracer.rebind
    rebind(spectra, "draw_trace_samples", "spectra.draw", _draw)
    rebind(spectra, "rfft_bin_density", "spectra.bins")
    rebind(spectra, "synthesize", "spectra.synth", _synth)
    rebind(spectra, "psd_welch", "spectra.welch")
    rebind(spectra, "export_psd", "spectra.csv", _csv)
    for module in (sequences, qubitsim, starktone):
        rebind(module, "filter_function", "sequences.ff", _ff)
    for module in (sequences, starktone):
        rebind(module, "response", "sequences.ff", _ff)
    rebind(qubitsim, "coherence_mc", "qubitsim.mc", _mc)
    rebind(qubitsim, "chi_ff", "qubitsim.ff", _chi)
    # pmap gets counts but no span: the jobs it runs in-process belong to
    # the layer that submitted them
    for module in (_parallel, starktone):
        fn = getattr(module, "pmap", None)
        if fn is None:
            tracer.missing.append(f"{module.__name__}.pmap")
            continue
        setattr(module, "pmap", _counting(tracer, fn, _pmap))
    for name in ("fit_exponential", "fit_stretched", "fit_power_law"):
        rebind(analysis, name, "analysis.fit", _fit)
    rebind(analysis, "spectroscopy_scan", "analysis.scan")
    rebind(benchmarking, "rb_reference", "benchmarking.rb", _rb(1))
    # an interleaved sequence of depth m applies 2m Cliffords
    rebind(benchmarking, "rb_interleaved", "benchmarking.rb", _rb(2))
    rebind(benchmarking, "fit_rb", "benchmarking.fit")
    rebind(starktone, "tone_scan", "starktone.scan", _tone)
    for kind, fn in list(pipelines.PIPELINES.items()):
        pipelines.PIPELINES[kind] = tracer.wrap("harness.pipeline", fn)


def _counting(tracer: Tracer, fn, hook):
    def counted(*args, **kwargs):
        result = fn(*args, **kwargs)
        hook(tracer, args, kwargs, result, failed=False)
        return result
    return counted
