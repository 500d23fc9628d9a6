"""Order-preserving parallel map over scan points, on threads.

Workers change wall-clock time, never results: each job carries its own
derived seed.  Jobs spend most of their time in numpy calls that release
the GIL; they share memory, so no two jobs of a map may write one buffer.

In a run of two or more workers (:func:`run_pool`), :func:`submit` of
more than one job starts min(workers - 1, jobs) threads that take job
indices under one lock.  The thread that calls the returned handle runs
jobs too, then returns the results in order or raises the lowest-index
failed job's exception; a ``KeyboardInterrupt`` in a job it runs
propagates at once, and the map hands out no more jobs.  A run joins its
maps' threads as it ends, at once if it raises, so none outlives it.  At
one worker, outside a run, inside a job, and for a map of one job, the
handle runs the jobs inline.
"""

import threading
from contextlib import contextmanager

__all__ = ["run_pool", "submit"]

_run = None  # the run in progress, if any: its worker count and its maps
_job = threading.local()  # .running: this thread runs a job, so its maps run inline


class _Map:
    """One map's jobs, the indices not yet handed out, outcomes, threads."""

    def __init__(self, fn, jobs: list):
        self.fn, self.jobs, self.outcomes = fn, jobs, [None] * len(jobs)
        self.lock, self.todo, self.threads = threading.Lock(), iter(range(len(jobs))), []

    def _take(self) -> int | None:
        with self.lock:
            return next(self.todo, None)

    def _work(self, keep=()) -> None:
        """Run jobs until none is left; a ``keep`` exception propagates."""
        _job.running = True
        for i in iter(self._take, None):
            try:
                self.outcomes[i] = True, self.fn(self.jobs[i])
            except keep:
                raise
            except BaseException as exc:  # the handle raises it
                self.outcomes[i] = False, exc

    def join(self, stop: bool) -> None:
        """Join the threads; with ``stop``, hand out no more jobs first."""
        if stop:
            with self.lock:
                self.todo = iter(())
        for thread in self.threads:
            thread.join()
        self.threads = []

    def collect(self) -> list:
        running = getattr(_job, "running", False)
        try:
            self._work(keep=KeyboardInterrupt)
        finally:
            _job.running = running
            self.join(stop=True)
        for ok, value in self.outcomes:
            if not ok:
                raise value
        return [value for _, value in self.outcomes]


@contextmanager
def run_pool(workers: int):
    """Run the block's maps on ``workers`` threads each (>= 1), this one included."""
    global _run
    outer, _run = _run, (workers, [])
    maps, stop = _run[1], True
    try:
        yield
        stop = False
    finally:
        _run = outer
        for m in maps:
            m.join(stop)


def submit(fn, jobs):
    """Apply ``fn`` to each job in the run's workers without waiting.
    Returns a handle; calling it gives the results, in order."""
    jobs = list(jobs)
    if _run is None or _run[0] == 1 or len(jobs) <= 1 or getattr(_job, "running", False):
        return lambda: [fn(job) for job in jobs]
    workers, maps = _run
    maps[:] = [m for m in maps if m.threads]  # drop the maps already joined
    maps.append(m := _Map(fn, jobs))
    for _ in range(min(workers - 1, len(jobs))):  # the run joins those started
        thread = threading.Thread(target=m._work)
        thread.start()
        m.threads.append(thread)
    return m.collect
