"""Order-preserving parallel map over scan points and output row blocks.

Worker processes only change wall-clock time, never results: every job
carries its own derived seed, so outputs are bit-identical for any worker
count.

A run maps everything through one pool (:func:`run_pool`).  At one
worker it creates no pool and every map runs inline.  At two or more it
forks its workers at the first map of more than one job, in the main
thread before the pool's manager thread starts, and shuts them down when
the run ends; a run that raises cancels the jobs still queued first.
:func:`submit` hands jobs to the run's pool and returns at once, so the
main process can work while they run; calling the handle it returns
gives the results in order.  :func:`pmap` is submit-and-collect.  Pool
workers start with a run pool of one worker, so a map inside a job runs
inline and never forks a nested pool.

Outside a run, each :func:`pmap` call opens a pool of its own, and
:func:`submit` maps at once.  The worker count then comes from, in
order: the ``workers`` argument, the ``SPINPROBE_WORKERS`` environment
variable, then 1.
"""

from __future__ import annotations

import os
from concurrent.futures import ProcessPoolExecutor
from contextlib import contextmanager

__all__ = ["worker_count", "run_pool", "submit", "pmap"]

ENV_VAR = "SPINPROBE_WORKERS"


def worker_count(workers: int | None = None) -> int:
    if workers is None:
        raw = os.environ.get(ENV_VAR, "").strip()
        workers = int(raw) if raw else 1
    if workers < 1:
        raise ValueError(f"worker count must be >= 1, got {workers}")
    return workers


class _Pool:
    """A worker count and, from the first map that needs one, a process
    pool of that many workers."""

    def __init__(self, workers: int):
        self.workers = worker_count(workers)
        self._executor: ProcessPoolExecutor | None = None

    def submit(self, fn, jobs: list):
        if self.workers == 1 or len(jobs) <= 1:
            return lambda: [fn(job) for job in jobs]
        if self._executor is None:
            self._executor = ProcessPoolExecutor(self.workers,
                                                 initializer=_in_worker)
        futures = [self._executor.submit(fn, job) for job in jobs]
        return lambda: [f.result() for f in futures]

    def close(self, *, cancel: bool) -> None:
        if self._executor is not None:
            self._executor.shutdown(cancel_futures=cancel)


_run: _Pool | None = None  # the pool of the run in progress, if any


def _in_worker() -> None:
    global _run
    _run = _Pool(1)


@contextmanager
def run_pool(workers: int):
    """Send every map made inside the block through one pool of
    ``workers`` workers, shut down when the block ends.  If the block
    raises, the jobs not yet started are cancelled and the exception
    propagates once the running ones have finished."""
    global _run
    outer, pool = _run, _Pool(workers)
    _run = pool
    try:
        yield
    except BaseException:
        pool.close(cancel=True)
        raise
    else:
        pool.close(cancel=False)
    finally:
        _run = outer


def submit(fn, jobs):
    """Apply ``fn`` to each job through the run's pool without waiting.
    Returns a handle; calling it once gives the results, in order."""
    if _run is None:
        results = pmap(fn, jobs)
        return lambda: results
    return _run.submit(fn, list(jobs))


def pmap(fn, jobs, workers: int | None = None) -> list:
    """Apply ``fn`` to each job, in order, optionally across processes:
    through the run's pool, or, outside a run or with ``workers`` given,
    through a pool of this call's own."""
    jobs = list(jobs)
    if workers is None and _run is not None:
        return _run.submit(fn, jobs)()
    with run_pool(min(worker_count(workers), max(len(jobs), 1))):
        return _run.submit(fn, jobs)()
