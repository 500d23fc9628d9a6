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
    _script("""
        def job(i):
            if i == 3:
                os.kill(os.getpid(), signal.SIGKILL)
            return i

        with run_pool(2):
            try:
                submit(job, range(8))()
            except RuntimeError as exc:
                assert "job 3 of 8 has no result" in str(exc), str(exc)
                assert "-9" in str(exc), str(exc)
            else:
                raise AssertionError("no exception")
        assert no_child_left()
    """)


def test_results_larger_than_a_pipe_come_back_from_both_workers():
    # jobs 0 and 1 each send 3 MB; a map that read one worker's pipe to
    # its end before the other's would leave the short jobs to one worker
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
    # map's job pipe open, or its workers would never finish.
    _script("""
        with run_pool(2):
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
            with run_pool(2):
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
