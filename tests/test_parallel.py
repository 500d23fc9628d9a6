"""The thread map's results and failure paths, in this process: each test
ends with as many threads as it started with, so no map's thread
outlives its run."""

import threading
import time

import pytest

from spinprobe import _parallel
from spinprobe._parallel import run_pool, submit


class JobError(Exception):
    pass


@pytest.fixture(autouse=True)
def no_thread_left():
    before = threading.active_count()
    yield
    assert threading.active_count() == before
    assert _parallel._run is None


def test_lowest_index_failure_is_raised_with_its_type():
    # job 9 fails first; job 5 fails later but is the one raised
    def job(i):
        if i == 5:
            time.sleep(0.3)
        if i in (5, 9):
            raise JobError(i)
        return i

    with run_pool(3):
        with pytest.raises(JobError) as raised:
            submit(job, range(12))()
        assert raised.value.args == (5,)
        assert submit(abs, [-1, -2, -3])() == [1, 2, 3]


def _outcome_where(outcome, where: str):
    """What the handle of a two-job map at two workers gives when the job
    run in ``where`` ("worker" or "main", the collecting thread) returns
    ``outcome``, or raises it if it is an exception, and the other job
    returns None.  The worker thread takes job 0 and holds it until this
    thread runs job 1."""
    took, main_took = threading.Event(), threading.Event()

    def job(i):
        if i == 0:
            took.set()
            assert main_took.wait(10)
        else:
            main_took.set()
        if (i == 0) != (where == "worker"):
            return None
        if isinstance(outcome, BaseException):
            raise outcome
        return outcome

    with run_pool(2):
        handle = submit(job, range(2))
        assert took.wait(10)
        try:
            results = handle()
        except BaseException as exc:
            return type(exc), exc.args
        return results[0] if where == "worker" else results[1]


def test_a_job_run_here_has_the_outcome_it_has_in_a_worker():
    # a result comes back, and an exception is raised by the handle, alike
    # whichever thread runs the job
    for outcome in [7] * 3, ValueError("one"), SystemExit(7), KeyboardInterrupt():
        expected = ((type(outcome), outcome.args)
                    if isinstance(outcome, BaseException) else outcome)
        assert _outcome_where(outcome, "main") == expected
        assert _outcome_where(outcome, "worker") == expected


def test_the_calling_process_raises_the_lowest_index_failure_and_exits_not():
    # a job's SystemExit is raised by the handle, in whichever thread the
    # job ran, and the process goes on
    def job(i):
        if i in (5, 9):
            raise JobError(i)
        if i >= 10:
            raise SystemExit(7)
        return i

    for jobs, raised, args in ((range(12), JobError, (5,)),
                               (range(10, 14), SystemExit, (7,))):
        with run_pool(2):
            with pytest.raises(raised) as info:
                submit(job, jobs)()
            assert info.value.args == args
    assert submit(abs, [-1, -2])() == [1, 2]


def test_an_interrupt_in_a_job_run_here_starts_no_further_job():
    # each worker thread takes a job and sleeps; once both have, the job
    # this thread runs raises KeyboardInterrupt, which propagates, and of
    # the six jobs only the three taken already ran
    main, started, busy = threading.main_thread(), [], threading.Semaphore(0)

    def job(i):
        started.append(i)
        if threading.current_thread() is main:
            for _ in range(2):
                assert busy.acquire(timeout=10)
            raise KeyboardInterrupt
        busy.release()
        time.sleep(0.5)

    with run_pool(3):
        with pytest.raises(KeyboardInterrupt):
            submit(job, range(6))()
        assert sorted(started) == [0, 1, 2]
        assert submit(abs, [-1, -2])() == [1, 2]


def test_more_jobs_than_the_job_pipe_holds():
    # a 40,000-job map, then one left open while a map of large results
    # runs and is collected first; at 5 workers, four threads and the
    # collecting thread share the jobs
    for workers in 2, 5:
        with run_pool(workers):
            assert submit(abs, range(-40000, 0))() == list(range(40000, 0, -1))
            first = submit(abs, range(-40000, 0))
            second = submit(bytes, [1 << 20] * 4)
            assert second() == [bytes(1 << 20)] * 4
            assert first() == list(range(40000, 0, -1))


def test_no_child_after_success_failure_or_cancelled_run():
    # no child thread of a map outlives its run: a map not collected runs
    # all its jobs before the run ends; a run that raises hands out no
    # more jobs; a thread that fails to start fails the run, which joins
    # the others
    ran = []

    def nap(i):
        time.sleep(0.1)
        ran.append(i)

    with run_pool(2):
        submit(nap, range(3))
        assert submit(abs, [-1, 2])() == [1, 2]
    assert sorted(ran) == [0, 1, 2]

    del ran[:]
    with pytest.raises(OSError, match="cancel"):
        with run_pool(3):
            submit(nap, range(40))
            raise OSError("cancel")
    assert len(ran) <= 2  # the jobs its two threads had taken

    real, starts = threading.Thread.start, []

    def start_once(thread):
        starts.append(thread)
        if len(starts) > 1:
            raise RuntimeError("can't start new thread")
        real(thread)

    del ran[:]
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(threading.Thread, "start", start_once)
        with pytest.raises(RuntimeError, match="can't start"):
            with run_pool(3):
                submit(nap, range(40))
    assert len(starts) == 2 and len(ran) <= 1


def test_results_larger_than_a_pipe_come_back_from_both_workers():
    # jobs 0 and 1 each return 3 MB, and every result comes back whole and
    # in order; the short jobs after them sleep, so that the collecting
    # thread and the worker thread both take some
    def job(i):
        if i >= 2:
            time.sleep(0.05)
        return threading.get_ident(), bytes([i]) * (3 << 20 if i < 2 else 1)

    with run_pool(2):
        results = submit(job, range(12))()
    assert [r[1][0] for r in results] == list(range(12))
    assert [len(r[1]) for r in results[:2]] == [3 << 20] * 2
    assert len({ident for ident, _ in results[2:]}) == 2


def test_what_a_job_prints_comes_out_once(capsys):
    with run_pool(3):
        submit(print, ["job 0", "job 1", "job 2", "job 3"])()
    assert sorted(capsys.readouterr().out.splitlines()) == [
        "job 0", "job 1", "job 2", "job 3"]
