"""threads.share, the one way the package runs work on more than one
thread, and one_blas_thread across threads."""

import sys
import threading
import time

import pytest

import aspectgate.threads as threads_mod


def _helpers_alive() -> list[threading.Thread]:
    return [th for th in threading.enumerate() if th.name.startswith("share-")]


def _wait_for_no_helper():
    deadline = time.monotonic() + 10
    while _helpers_alive():
        assert time.monotonic() < deadline
        time.sleep(0.001)


@pytest.fixture
def cpus(monkeypatch):
    def set_cpus(n):
        monkeypatch.setattr(threads_mod, "usable_cpus", lambda: n)
    return set_cpus


def _recording_share(n_parts, threaded=True):
    """share over ``range(n_parts)``: each thread's parts, in the order it ran them."""
    ran: dict[str, list[int]] = {}

    def record(i):
        ran.setdefault(threading.current_thread().name, []).append(i)

    threads_mod.share("share", record, list(range(n_parts)), threaded)
    return ran


@pytest.mark.parametrize("n_cpus", [2, 3, 4])
def test_helper_n_starts_on_part_n_minus_1_and_the_caller_after_them(cpus, n_cpus):
    cpus(n_cpus)
    ran = _recording_share(8)
    caller = threading.current_thread().name
    for n in range(1, n_cpus):
        assert ran[f"share-{n}"][0] == n - 1
    assert ran[caller][0] == n_cpus - 1
    assert sorted(i for parts in ran.values() for i in parts) == list(range(8))
    assert all(parts == sorted(parts) for parts in ran.values())
    assert not _helpers_alive()


def test_two_parts_on_two_cpus_run_the_first_on_the_helper(cpus):
    """A block's first half always runs on its helper, the second on the caller."""
    cpus(2)
    for _ in range(20):
        assert _recording_share(2) == {"share-1": [0], threading.current_thread().name: [1]}


def test_unthreaded_runs_every_part_in_order_and_starts_no_thread(cpus, thread_starts):
    cpus(4)
    ran = _recording_share(5, threaded=False)
    assert ran == {threading.current_thread().name: [0, 1, 2, 3, 4]}
    assert thread_starts == []


@pytest.mark.parametrize("n_parts", [0, 1, 3, 8])
@pytest.mark.parametrize("n_cpus", [None, 1, 2, 4, 100])
def test_helpers_are_capped_by_the_cpus_and_the_parts(cpus, thread_starts, n_cpus, n_parts):
    """``None`` keeps the process's own CPU count, so under ``taskset -c 0``
    this is the real one-CPU path."""
    if n_cpus is not None:
        cpus(n_cpus)
    ran = _recording_share(n_parts)
    helpers = max(min(threads_mod.usable_cpus(), n_parts) - 1, 0)
    assert thread_starts == [f"share-{n}" for n in range(1, helpers + 1)]
    assert sorted(i for parts in ran.values() for i in parts) == list(range(n_parts))
    assert not _helpers_alive()


def test_a_helper_error_stops_new_parts_and_is_raised_after_the_join(cpus):
    """The helper fails on its first part; the caller finishes its own first
    part only once the helper has ended, and then takes no other."""
    cpus(2)
    error, ran = ArithmeticError("helper's part"), []

    def fn(i):
        if i == 0:
            raise error
        _wait_for_no_helper()
        ran.append(i)

    with pytest.raises(ArithmeticError) as raised:
        threads_mod.share("share", fn, list(range(10)))
    assert raised.value is error
    assert ran == [1]
    assert not _helpers_alive()


@pytest.mark.parametrize("caller_first", [False, True])
def test_when_both_fail_the_callers_error_is_raised(cpus, caller_first):
    cpus(2)
    errors = {side: ArithmeticError(side) for side in ("helper", "caller")}
    caller_failed = threading.Event()

    def fn(i):
        if i == 0:  # on the helper
            if caller_first:
                assert caller_failed.wait(10)
            raise errors["helper"]
        if not caller_first:
            _wait_for_no_helper()
        caller_failed.set()
        raise errors["caller"]

    with pytest.raises(ArithmeticError) as raised:
        threads_mod.share("share", fn, [0, 1, 2, 3])
    assert raised.value is errors["caller"]
    assert not _helpers_alive()


def test_every_part_runs_once_under_contention(cpus):
    """More threads than cores, switching as often as the interpreter allows:
    no part is lost or taken twice."""
    cpus(8)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        ran = _recording_share(2000)
    finally:
        sys.setswitchinterval(interval)
    assert sorted(i for parts in ran.values() for i in parts) == list(range(2000))
    assert len(ran) == 8
    assert not _helpers_alive()


def test_one_blas_thread_bodies_overlapping_across_threads_keep_one_thread(monkeypatch):
    """Thread A enters, then B; A leaves while B's body runs. B's body still
    runs at one BLAS thread, and once both have left the count is the one
    A found. The getter and setter are fakes, so this runs on any BLAS."""
    count = [2]
    monkeypatch.setattr(threads_mod, "_blas_thread_count",
                        lambda: (lambda: count[0], lambda n: count.__setitem__(0, n)))
    a_in, b_in, a_out = threading.Event(), threading.Event(), threading.Event()
    seen = []

    def a():
        with threads_mod.one_blas_thread():
            a_in.set()
            assert b_in.wait(10)
        a_out.set()

    def b():
        assert a_in.wait(10)
        with threads_mod.one_blas_thread():
            b_in.set()
            assert a_out.wait(10)
            seen.append(count[0])

    workers = [threading.Thread(target=f) for f in (a, b)]
    for th in workers:
        th.start()
    for th in workers:
        th.join(timeout=20)
    assert not any(th.is_alive() for th in workers)
    assert seen == [1]
    assert count == [2]
