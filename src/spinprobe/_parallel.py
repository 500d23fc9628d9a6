"""Order-preserving parallel map over scan points.

Worker processes only change wall-clock time, never results: every job
carries its own derived seed, so outputs are bit-identical for any worker
count.

:func:`submit` is the one map.  It hands jobs to the run's pool
(:func:`run_pool`) and returns at once, so the main process can work
while they run; calling the handle it returns gives the results in
order.  At one worker a run creates no pool.  At two or more, at the
first map of more than one job, it imports the pool machinery
(``concurrent.futures.process`` and ``multiprocessing``, with the
socket, subprocess and logging modules they load) and forks its
workers, in the main thread before the pool's manager thread starts;
a run that opens no pool never loads that machinery.  The workers are
shut down when the run ends; a run that raises cancels the jobs still
queued first.

Outside a run, and inside a pool worker, no pool is in use: calling the
handle runs the jobs inline, so a map inside a job never forks a nested
pool.
"""

from __future__ import annotations

from contextlib import contextmanager

__all__ = ["run_pool", "submit"]


class _Pool:
    """A worker count and, from the first map that needs one, a process
    pool of that many workers."""

    def __init__(self, workers: int):
        self.workers = workers
        self._executor = None

    def submit(self, fn, jobs: list):
        if self._executor is None:
            # imported here, so only a run that opens a pool loads it
            from concurrent.futures import ProcessPoolExecutor
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
    _run = None  # the forked copy of the parent's pool is not this process's


@contextmanager
def run_pool(workers: int):
    """Send every map made inside the block through one pool of
    ``workers`` (>= 1) workers, shut down when the block ends.  If the
    block raises, the jobs not yet started are cancelled and the
    exception propagates once the running ones have finished."""
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
    jobs = list(jobs)
    if _run is None or _run.workers == 1 or len(jobs) <= 1:
        return lambda: [fn(job) for job in jobs]
    return _run.submit(fn, jobs)
