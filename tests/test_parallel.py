"""The forked map's failure paths, each in a fresh interpreter with a
60 s limit, so that a map that hangs fails its test quickly."""

import textwrap

from conftest import _run_pool_script


def _script(body: str) -> str:
    return _run_pool_script(textwrap.dedent(body))


def test_lowest_index_failure_is_raised_with_its_type():
    # job 9 fails first; job 5 fails later but is the one raised
    _script("""
        class JobError(Exception):
            pass

        def job(i):
            if i == 5:
                time.sleep(0.3)
            if i in (5, 9):
                raise JobError(i)
            return i

        with run_pool(2):
            try:
                submit(job, range(12))()
            except JobError as exc:
                assert exc.args == (5,), exc.args
                assert "in a worker process" in exc.__notes__[0]
            else:
                raise AssertionError("no exception")
            assert no_child_left()
            assert submit(abs, [-1, -2, -3])() == [1, 2, 3]
        assert no_child_left()
    """)


def test_unpicklable_exception_or_result_raises_a_runtime_error():
    _script("""
        class Unpicklable(Exception):
            def __reduce__(self):
                raise TypeError("not today")

        class Unloadable(Exception):  # pickled with one of its two arguments
            def __init__(self, a, b):
                super().__init__(f"{a} {b}")

        def job(i):
            if i == 2:
                raise Unpicklable("lost")
            if i == 4:
                raise Unloadable("also", "lost")
            return (lambda: i) if i == 3 else i

        for jobs, words in ((range(4), ("job 2", "Unpicklable", "lost")),
                            ([0, 1, 3], ("job 2", "cannot pickle function")),
                            ([0, 1, 4], ("job 2", "Unloadable", "also lost"))):
            with run_pool(2):
                try:
                    submit(job, jobs)()
                except RuntimeError as exc:
                    assert all(w in str(exc) for w in words), str(exc)
                else:
                    raise AssertionError("no exception")
            assert no_child_left()
    """)


def test_worker_killed_mid_map_raises_instead_of_hanging():
    # the forked worker dies on the first job it takes and reports its
    # index first; the calling process, slowed so that the worker takes
    # one, runs the others.  With more jobs than the job pipe holds, the
    # calling process then writes the last indices and runs those jobs too.
    _script("""
        main = os.getpid()
        lost_r, lost_w = os.pipe()

        def job(i):
            if os.getpid() != main:
                os.write(lost_w, i.to_bytes(4, "little"))
                os.kill(os.getpid(), signal.SIGKILL)
            time.sleep(0.05 if i < 8 else 0)
            return i

        for n in 8, 40000:
            with run_pool(2):
                try:
                    submit(job, range(n))()
                except RuntimeError as exc:
                    lost = int.from_bytes(os.read(lost_r, 4), "little")
                    assert f"job {lost} of {n} has no result" in str(exc), str(exc)
                    assert "-9" in str(exc), str(exc)
                else:
                    raise AssertionError("no exception")
            assert no_child_left()
    """)


def test_results_larger_than_a_pipe_come_back_from_both_workers():
    # jobs 0 and 1 each send 3 MB; a calling process that read the forked
    # worker's pipe to its end before taking jobs would leave the short
    # jobs to that worker
    out = _script("""
        def job(i):
            if i >= 2:
                time.sleep(0.05)
            return os.getpid(), bytes([i]) * (3 << 20 if i < 2 else 1)

        with run_pool(2):
            results = submit(job, range(12))()
        assert [r[1][0] for r in results] == list(range(12))
        assert [len(r[1]) for r in results[:2]] == [3 << 20] * 2
        assert no_child_left()
        print(len({pid for pid, _ in results[2:]}))
    """)
    assert out.split() == ["2"]


def test_more_jobs_than_the_job_pipe_holds():
    # 16,384 indices fill the pipe, and the results of the jobs past them
    # fill the workers' pipes before the last index goes in.  The second
    # map's workers, stuck on a full result pipe, must not hold the first
    # map's job pipe open, or its workers would never finish.  At 5
    # workers, four forked workers and the calling process share each
    # job pipe.
    _script("""
        for workers in 2, 5:
            with run_pool(workers):
                assert submit(abs, range(-40000, 0))() == list(range(40000, 0, -1))
                first = submit(abs, range(-40000, 0))
                second = submit(bytes, [1 << 20] * 4)
                assert first() == list(range(40000, 0, -1))
                assert second() == [bytes(1 << 20)] * 4
            assert no_child_left()
    """)


def test_no_child_after_success_failure_or_cancelled_run():
    out = _script("""
        import atexit
        atexit.register(lambda: print("atexit", os.getpid()))

        def job(i):
            if i == 1:
                raise SystemExit(7)  # reported, not a worker's exit
            return i

        with run_pool(2):
            uncollected = submit(time.sleep, [0.2, 0.2])
            assert submit(abs, [-1, 2])() == [1, 2]
            try:
                submit(job, range(3))()
            except SystemExit as exc:
                assert exc.code == 7
            else:
                raise AssertionError("no exception")
        assert no_child_left()

        t0 = time.perf_counter()
        try:
            with run_pool(2):
                submit(time.sleep, [30] * 4)
                raise OSError("cancel")
        except OSError:
            pass
        assert time.perf_counter() - t0 < 10
        assert no_child_left() and _parallel._run is None

        real, forks = os.fork, []

        def fork_once():
            forks.append(1)
            if len(forks) > 1:
                raise OSError("no more processes")
            return real()

        os.fork = fork_once
        try:
            with run_pool(3):  # two forks: the second fails
                submit(time.sleep, [30] * 4)
        except OSError as exc:
            assert "no more processes" in str(exc)
        else:
            raise AssertionError("no exception")
        os.fork = real
        assert no_child_left()
        print("main", os.getpid())
    """)
    main_pid = out.split()[1]
    assert out.split() == ["main", main_pid, "atexit", main_pid]


def test_an_interrupt_in_a_job_run_here_kills_the_workers():
    # the two forked workers each take a job that sleeps; a job the
    # calling process runs raises KeyboardInterrupt, which is not
    # recorded as the job's outcome but propagates at once
    _script("""
        main = os.getpid()

        def job(i):
            if os.getpid() == main:
                raise KeyboardInterrupt
            time.sleep(30)

        t0 = time.perf_counter()
        with run_pool(3):
            try:
                submit(job, range(6))()
            except KeyboardInterrupt as exc:
                assert not hasattr(exc, "__notes__")
            else:
                raise AssertionError("no exception")
            assert no_child_left()
            assert submit(abs, [-1, -2])() == [1, 2]
        assert time.perf_counter() - t0 < 10
        assert no_child_left() and _parallel._run is None
    """)


def test_what_a_job_prints_comes_out_once():
    # stdout, a pipe, made block-buffered: "before" is still in the
    # buffer when the workers fork, and a job's print is in a worker's
    # buffer when it ends
    out = _script("""
        sys.stdout = open(sys.stdout.fileno(), "w", closefd=False)
        print("before")
        with run_pool(2):
            submit(print, ["job 0", "job 1", "job 2"])()
        print("after")
        sys.stdout.flush()
    """)
    lines = out.splitlines()
    assert (lines[0], lines[-1]) == ("before", "after"), lines
    assert sorted(lines[1:-1]) == ["job 0", "job 1", "job 2"], lines


# outcomes(fn, jobs, where): each job's (ok, result or exception) as the
# map records it, every job run in the calling process ("main": its one
# forked worker leaves at once, taking no job) or in the forked worker
# ("worker": the map is closed, not collected, so this process takes none)
_OUTCOMES = """
def idle_worker(fn, jobs, job_r, w):
    os._exit(0)

def outcomes(fn, jobs, where):
    real = _parallel._work
    if where == "main":
        _parallel._work = idle_worker
    try:
        m = _parallel._Map(fn, list(jobs), 2)
    finally:
        _parallel._work = real
    results = m.results
    if where == "main":
        m._finish()  # the outcomes, with no failure raised
    else:
        m.close(kill=False)
    assert no_child_left()
    return [(ok, type(value), str(value)) for ok, value in
            (results[i] for i in range(len(jobs)))]
"""


def test_a_job_run_here_has_the_outcome_it_has_in_a_worker():
    # results, a raised exception, SystemExit, an unpicklable result or
    # exception, one pickled without what it needs to load: each is
    # recorded alike wherever the job runs
    out = _run_pool_script(_OUTCOMES + textwrap.dedent("""
        class Unpicklable(Exception):
            def __reduce__(self):
                raise TypeError("not today")

        class Unloadable(Exception):  # pickled with one of its two arguments
            def __init__(self, a, b):
                super().__init__(f"{a} {b}")

        def job(i):
            if i == 1:
                raise ValueError("one")
            if i == 2:
                raise SystemExit(7)
            if i == 3:
                raise Unpicklable("lost")
            if i == 4:
                raise Unloadable("also", "lost")
            if i == 5:
                return lambda: i
            return [i] * 3

        here = outcomes(job, range(7), "main")
        assert here == outcomes(job, range(7), "worker"), here
        assert [ok for ok, _, _ in here] == [True] + [False] * 5 + [True]
        assert [kind.__name__ for _, kind, _ in here[1:6]] == [
            "ValueError", "SystemExit", "RuntimeError", "RuntimeError",
            "RuntimeError"]
        assert "job 5: cannot pickle function" in here[5][2]
        print("ok")
    """))
    assert out.split() == ["ok"]


def test_the_calling_process_raises_the_lowest_index_failure_and_exits_not():
    # every job runs here, in index order: the failures of jobs 5 and 9
    # raise job 5's, and a job's SystemExit is raised, not exited, by the
    # handle; what a job prints here comes out once
    out = _run_pool_script(_OUTCOMES + textwrap.dedent("""
        class JobError(Exception):
            pass

        def job(i):
            print("job", i)
            if i in (5, 9):
                raise JobError(i)
            if i == 11:
                raise SystemExit(7)
            return i

        sys.stdout = open(sys.stdout.fileno(), "w", closefd=False)
        _parallel._work = idle_worker
        for jobs, raised in ((range(12), JobError), (range(10, 12), SystemExit)):
            with run_pool(2):
                try:
                    submit(job, jobs)()
                except raised as exc:
                    assert exc.args == ((5,) if raised is JobError else (7,))
                    assert "in a worker process" in exc.__notes__[0]
                else:
                    raise AssertionError("no exception")
            assert no_child_left()
        print("after")
        sys.stdout.flush()
    """))
    assert out.splitlines() == [f"job {i}" for i in [*range(12), 10, 11]] + ["after"]
