"""Order-preserving parallel map over scan points.

Worker processes only change wall-clock time, never results: every job
carries its own derived seed, so outputs are bit-identical for any worker
count.

:func:`submit` is the one map.  In a run of two or more workers
(:func:`run_pool`), a map of more than one job forks min(workers, jobs)
workers and returns at once; calling the handle it returns gives the
results in order.  The workers inherit ``fn`` and the jobs through the
fork and take job indices from one shared pipe; each sends its results,
pickled, through a pipe of its own.  The handle reads all the pipes at
once and reaps every worker, then raises the exception of the
lowest-index failed job, if any.  A run waits for the maps it did not
collect; a run that raises kills and reaps their workers.  A map flushes
``sys.stdout`` and ``sys.stderr`` before it forks, and each worker
flushes them once its jobs are done, so what a job prints comes out
once.  Workers leave through ``os._exit``: no ``finally`` block or
``atexit`` handler of the main process runs in them.

At one worker, outside a run, inside a worker, and for a map of at most
one job, nothing forks: the handle runs the jobs inline.
"""

from __future__ import annotations

import os
import pickle
import sys
from contextlib import contextmanager

__all__ = ["run_pool", "submit"]

_PIPE_BUF = 4096  # a pipe takes a write of at most this size whole or not at all

_fds: set[int] = set()  # this process's ends of its maps' pipes, which workers close
_run = None  # the run in progress, if any: its worker count and its maps


def _close(fd: int) -> None:
    _fds.discard(fd)
    os.close(fd)


def _flush_stdio() -> None:
    for stream in sys.stdout, sys.stderr:
        try:
            stream.flush()
        except (AttributeError, ValueError):  # None, or closed
            pass


def _work(fn, jobs, job_r: int, w: int) -> None:
    """A forked worker: run each job whose index it reads from ``job_r``
    and send ``(index, ok, result or exception)`` through ``w``; never
    returns."""
    global _run
    try:
        _run = None  # the main process's run, not this process's
        for fd in _fds:
            os.close(fd)
        out = open(w, "wb")
        while len(index := os.read(job_r, 4)) == 4:  # a job index
            i = int.from_bytes(index, "little")
            try:
                ok, value = True, fn(jobs[i])
            except BaseException as exc:  # the handle re-raises it
                import traceback
                note = f"in a worker process:\n{traceback.format_exc()}"
                exc.__notes__ = [*getattr(exc, "__notes__", ()), note]
                ok, value = False, exc
            try:
                payload = pickle.dumps((i, ok, value), pickle.HIGHEST_PROTOCOL)
                pickle.loads(payload)  # what cannot be loaded here fails the job
            except Exception as exc:
                payload = pickle.dumps((i, False, RuntimeError(
                    f"job {i}: cannot pickle {type(value).__name__}: {exc}"
                    + ("" if ok else f"; {note}"))))
            out.write(payload)
            out.flush()
        _flush_stdio()
        os._exit(0)
    finally:
        os._exit(1)


class _Map:
    """The forked workers of one map and the results read from them."""

    def __init__(self, fn, jobs: list, workers: int):
        self.n, self.results, self.exit_codes = len(jobs), {}, []
        self.workers = {}  # result pipe's read end -> (pid, its file)
        self.todo = b"".join(i.to_bytes(4, "little") for i in range(self.n))
        job_r, self.job_w = os.pipe()
        _fds.add(self.job_w)
        _flush_stdio()  # or the workers would write the buffered text again
        try:
            for _ in range(min(workers, self.n)):
                r, w = os.pipe()
                _fds.add(r)
                try:
                    if (pid := os.fork()) == 0:
                        _work(fn, jobs, job_r, w)
                except OSError:
                    _close(r)
                    raise
                finally:
                    os.close(w)
                # closefd=False: a worker's copy of it must not close its fd
                self.workers[r] = pid, open(r, "rb", closefd=False)
            # the indices go in only now: the pipe holds 16,384 of them, and
            # writing more would block with no worker yet to read them
            os.set_blocking(self.job_w, False)
            self._feed(self.job_w)
        except BaseException:
            self.close(kill=True)
            raise
        finally:
            os.close(job_r)

    def _feed(self, fd: int) -> bool:
        """Write the job indices the pipe has room for; close it, and return
        True, after the last one or once no worker is left to read."""
        try:
            while self.todo:
                self.todo = self.todo[os.write(fd, self.todo[:_PIPE_BUF]):]
        except BlockingIOError:
            return False
        except BrokenPipeError:
            pass  # collect reports the jobs no worker took
        _close(fd)
        self.job_w = None
        return True

    def _read(self, fd: int) -> bool:
        """Read one result from ``fd``'s worker, which, once started, sends
        it whole; at the pipe's end, reap the worker and return True."""
        pid, file = self.workers[fd]
        try:
            i, ok, value = pickle.load(file)
        except (EOFError, pickle.UnpicklingError):  # or a result cut short
            _close(fd)
            del self.workers[fd]
            self.exit_codes.append(os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1]))
            return True
        self.results[i] = ok, value
        return False

    def close(self, *, kill: bool) -> None:
        """Reap every worker, after reading all it sends or, with ``kill``,
        at once."""
        import selectors
        if kill:
            import signal
            self.todo = b""
            for pid, _ in self.workers.values():
                os.kill(pid, signal.SIGKILL)
        with selectors.DefaultSelector() as selector:
            for fd in self.workers:
                selector.register(fd, selectors.EVENT_READ, self._read)
            if self.job_w is not None:
                selector.register(self.job_w, selectors.EVENT_WRITE, self._feed)
            while selector.get_map():
                for key, _ in selector.select():
                    if key.data(key.fd):  # closed just now
                        selector.unregister(key.fd)

    def collect(self) -> list:
        self.close(kill=False)
        for i in range(self.n):
            if i not in self.results:
                raise RuntimeError(f"job {i} of {self.n} has no result: a worker "
                                   f"process ended early (exit codes {self.exit_codes})")
            if not self.results[i][0]:
                raise self.results[i][1]
        return [self.results[i][1] for i in range(self.n)]


@contextmanager
def run_pool(workers: int):
    """Fork at most ``workers`` (>= 1) workers for each map made inside the
    block, none at one.  When the block ends its maps' workers are waited
    for; if it raises, they are killed and reaped before the exception
    propagates."""
    global _run
    outer, _run = _run, (workers, [])
    maps, kill = _run[1], True
    try:
        yield
        kill = False
    finally:
        _run = outer
        for m in maps:
            m.close(kill=kill)


def submit(fn, jobs):
    """Apply ``fn`` to each job in the run's workers without waiting.
    Returns a handle; calling it gives the results, in order."""
    jobs = list(jobs)
    if _run is None or _run[0] == 1 or len(jobs) <= 1:
        return lambda: [fn(job) for job in jobs]
    workers, maps = _run
    maps[:] = [m for m in maps if m.workers]  # drop the maps already reaped
    maps.append(_Map(fn, jobs, workers))
    return maps[-1].collect
