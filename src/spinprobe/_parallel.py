"""Order-preserving parallel map over scan points and output row blocks.

Worker processes only change wall-clock time, never results: every job
carries its own derived seed, so outputs are bit-identical for any worker
count.  The count comes from, in order: the ``workers`` argument, the
``SPINPROBE_WORKERS`` environment variable, then 1.
"""

from __future__ import annotations

import os
from concurrent.futures import ProcessPoolExecutor

__all__ = ["worker_count", "pmap"]

ENV_VAR = "SPINPROBE_WORKERS"


def worker_count(workers: int | None = None) -> int:
    if workers is None:
        raw = os.environ.get(ENV_VAR, "").strip()
        workers = int(raw) if raw else 1
    if workers < 1:
        raise ValueError(f"worker count must be >= 1, got {workers}")
    return workers


def pmap(fn, jobs, workers: int | None = None) -> list:
    """Apply ``fn`` to each job, in order, optionally across processes."""
    jobs = list(jobs)
    n = worker_count(workers)
    if n == 1 or len(jobs) <= 1:
        return [fn(job) for job in jobs]
    with ProcessPoolExecutor(max_workers=min(n, len(jobs))) as pool:
        return list(pool.map(fn, jobs, chunksize=1))
