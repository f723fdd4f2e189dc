"""The worker processes that sift an ensemble's noise realizations: outputs
at any worker count, task order for results, warnings and errors, and the
workers' lifetime."""

import os
import subprocess
import sys
import textwrap
import time
import warnings

import numpy as np
import pytest

from npceemd import EnsembleConfig, Signal, workers
from npceemd.ensemble import decompose
from npceemd.workers import WorkerError, WorkerPool

SRC = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src")
START_TIMEOUT_S = 120.0


def wait_ready(pool: WorkerPool, count: int) -> None:
    deadline = time.monotonic() + START_TIMEOUT_S
    while len(pool.ready()) < count and time.monotonic() < deadline:
        time.sleep(0.05)
    assert len(pool.ready()) == count


@pytest.fixture(scope="module", params=[1, 2, 3], ids=lambda k: f"{k}-workers")
def pool(request):
    pool = WorkerPool(request.param)
    wait_ready(pool, request.param)
    yield pool
    pool.close()
    assert all(w.proc.returncode is not None for w in pool.workers)


def served(pool: WorkerPool) -> list[int]:
    return [w.served for w in pool.workers]


def dealt(pool: WorkerPool, n: int) -> int:
    """The tasks of a map of n that go to workers: in each round the
    caller runs one and each worker one of the next."""
    count = i = 0
    while i < n:
        k = min(len(pool.workers), n - i - 1)
        count, i = count + k, i + 1 + k
    return count


class Unsent(int):
    """An int that cannot be pickled."""

    def __reduce__(self):
        raise TypeError("an Unsent stays in its process")


@pytest.mark.parametrize("method", ["eemd", "ceemd", "npceemd"])
def test_outputs_are_the_same_bits_at_any_worker_count(pool, method, monkeypatch):
    t = np.arange(1024) / 1024.0
    s = Signal(np.sin(2 * np.pi * 160.0 * t) + 2.0 * np.sin(2 * np.pi * 9.0 * t), 1024.0)
    cfg = EnsembleConfig(method=method, ensemble_size=4, master_seed=5)
    monkeypatch.setattr(workers, "shared_pool", lambda tasks: None)
    serial = decompose(s, cfg)
    before = served(pool)
    monkeypatch.setattr(workers, "shared_pool", lambda tasks: pool)
    spread = decompose(s, cfg)
    # the caller took the first of the four realizations, and each worker
    # one of the next
    assert all(after > b for after, b in zip(served(pool), before))
    assert spread.n_imfs == serial.n_imfs
    for a, b in zip(spread.imfs + [spread.residue], serial.imfs + [serial.residue]):
        assert np.array_equal(a, b)


def test_a_task_warning_reaches_the_caller(pool):
    tasks = [(np.array([v]),) for v in (1.0, 0.0, 4.0)]
    before = sum(served(pool))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        out = list(pool.map(np.log, tasks))
    assert sum(served(pool)) == before + dealt(pool, 3)
    assert [float(v[0]) for v in out] == [0.0, -np.inf, float(np.log(4.0))]
    assert [w.category for w in caught] == [RuntimeWarning]
    assert "divide by zero" in str(caught[0].message)
    # under an "error" filter the relayed warning is raised in the caller
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(RuntimeWarning, match="divide by zero"):
            list(pool.map(np.log, tasks))


def test_a_relayed_warning_names_its_module(pool):
    # warnings.warn, called by the task runner, names npceemd.workers, in
    # the caller and on a worker alike; a filter on that module applies to
    # the warning of the second task, which a worker raised
    before = sum(served(pool))
    with warnings.catch_warnings():
        warnings.filterwarnings("ignore", message="first")
        warnings.filterwarnings("error", message="second", module=r"npceemd\.workers\Z")
        with pytest.raises(UserWarning, match="second"):
            list(pool.map(warnings.warn, [("first", UserWarning), ("second", UserWarning)]))
    assert sum(served(pool)) == before + 1


def test_a_task_runs_under_the_callers_numpy_error_state(pool):
    # log(0) on a worker raises under the caller's errstate, as in the caller
    tasks = [(np.array([v]),) for v in (1.0, 0.0)]
    with np.errstate(divide="raise"):
        with pytest.raises(FloatingPointError, match="divide by zero") as err:
            list(pool.map(np.log, tasks))
    assert isinstance(err.value.__cause__, workers.WorkerTraceback)
    with np.errstate(divide="ignore"), warnings.catch_warnings():
        warnings.simplefilter("error")
        assert float(list(pool.map(np.log, tasks))[1][0]) == -np.inf


def test_a_task_error_is_raised_in_task_order(pool):
    # the second task's error, not the third's; the pool serves on after it
    got = []
    with pytest.raises(ZeroDivisionError) as err:
        for result in pool.map(divmod, [(7, 2), (1, 0), ("x", 1), (9, 4)]):
            got.append(result)
    assert got == [(3, 1)]
    assert isinstance(err.value.__cause__, workers.WorkerTraceback)
    assert "ZeroDivisionError" in str(err.value.__cause__)
    before = sum(served(pool))
    assert list(pool.map(divmod, [(7, 2), (9, 4), (8, 3)])) == [(3, 1), (2, 1), (2, 2)]
    assert sum(served(pool)) == before + dealt(pool, 3)


def test_an_error_in_the_callers_task_waits_for_the_earlier_tasks(pool):
    # the caller runs the round's first task; its error comes after the
    # results of earlier rounds, and the workers' replies are drained
    n = len(pool.workers) + 1
    tasks = [(7, 2)] * n + [(1, 0)] + [(9, 4)] * n
    got = []
    with pytest.raises(ZeroDivisionError) as err:
        for result in pool.map(divmod, tasks):
            got.append(result)
    assert got == [(3, 1)] * n
    assert err.value.__cause__ is None  # raised in the caller
    assert list(pool.map(divmod, [(8, 3)] * n)) == [(2, 2)] * n


def test_a_task_that_cannot_be_pickled_is_an_error_in_order(pool):
    # a lambda cannot make the trip back; the task fails in its place and
    # the pool serves on
    tasks = [("divmod(7, 2)",), ("lambda: 0",), ("divmod(9, 4)",)]
    got = []
    with pytest.raises(RuntimeError, match="pickle"):
        for result in pool.map(eval, tasks):
            got.append(result)
    assert got == [(3, 1)]
    assert list(pool.map(eval, [("divmod(9, 4)",)])) == [(2, 1)]
    # a task that cannot be sent runs in the caller, in its place
    before = served(pool)
    assert list(pool.map(divmod, [(7, 2), (Unsent(9), 4)])) == [(3, 1), (2, 1)]
    assert served(pool) == before
    assert list(pool.map(divmod, [(7, 2), (9, 4)])) == [(3, 1), (2, 1)]

def test_a_worker_that_ends_raises_with_its_exit_code():
    pool = WorkerPool(1)
    try:
        wait_ready(pool, 1)
        # the caller runs the first task and the worker the second
        with pytest.raises(WorkerError, match="exit code 3"):
            list(pool.map(eval, [("0",), ("__import__('os')._exit(3)",)]))
        assert pool.closed
        # a closed pool runs the tasks in the caller
        assert list(pool.map(divmod, [(7, 2)])) == [(3, 1)]
    finally:
        pool.close()


@pytest.fixture
def fresh_shared(monkeypatch):
    """The shared pool's state as in a new process, on 8 CPUs."""
    monkeypatch.setattr(workers, "usable_cpus", lambda: 8)
    monkeypatch.setattr(workers, "_shared", None)
    monkeypatch.setattr(workers, "_shared_work_s", 0.0)
    monkeypatch.setattr(workers.atexit, "register", lambda fn: None)
    yield
    if workers._shared is not None:
        workers._shared.close()


def test_the_shared_pool_starts_after_enough_work(fresh_shared, monkeypatch):
    monkeypatch.setattr(workers, "START_AFTER_S", 1.0)
    assert workers.shared_pool(3) is None  # no work done yet
    workers.add_work(0.6)
    workers.add_work(0.4)
    assert workers.shared_pool(3) is None  # not more than START_AFTER_S
    workers.add_work(0.01)
    assert workers.shared_pool(3) is workers._shared is not None


def test_the_shared_pool_holds_a_worker_per_task_after_the_callers(fresh_shared, monkeypatch):
    # on 8 CPUs a map of 3 tasks starts 2 workers, not 8; a later map of 4
    # adds one and a map of 2 keeps them
    monkeypatch.setattr(workers, "START_AFTER_S", 0.0)
    workers.add_work(0.01)
    pool = workers.shared_pool(3)
    assert len(pool.workers) == 2
    assert workers.shared_pool(4) is pool and len(pool.workers) == 3
    assert workers.shared_pool(2) is pool and len(pool.workers) == 3
    assert workers.shared_pool(1) is None


def test_a_worker_that_imported_another_copy_is_not_used(monkeypatch):
    # the handshake names the worker's package file; a worker whose file is
    # not the caller's is ended, and its tasks run in the caller
    monkeypatch.setattr(workers, "_package_file", lambda: "/elsewhere/npceemd/__init__.py")
    pool = WorkerPool(1)
    try:
        worker = pool.workers[0]
        deadline = time.monotonic() + START_TIMEOUT_S
        while worker.proc.poll() is None and time.monotonic() < deadline:
            assert pool.ready() == []
            time.sleep(0.05)
        assert worker.proc.returncode == 0
        assert list(pool.map(divmod, [(7, 2), (9, 4)])) == [(3, 1), (2, 1)]
        assert worker.served == 0
    finally:
        pool.close()


def run_fresh(script: str) -> str:
    return subprocess.run(
        [sys.executable, "-c", textwrap.dedent(script)],
        env=dict(os.environ, PYTHONPATH=SRC),
        capture_output=True, text=True, check=True, timeout=300,
    ).stdout


DECOMPOSE = """
    import os, time
    import numpy as np
    from npceemd import EnsembleConfig, Signal, decompose, workers
    s = Signal(np.sin(0.3 * np.arange(512)), 100.0)
    cfg = EnsembleConfig(method="npceemd", ensemble_size=4)
"""


def test_one_decomposition_starts_no_process():
    # not even when no work at all is needed before the workers start
    out = run_fresh(DECOMPOSE + """
    workers.START_AFTER_S = 0.0
    decompose(s, cfg)
    try:
        os.waitpid(-1, os.WNOHANG)
        print("a child process")
    except ChildProcessError:
        print("no child process")
    """)
    assert out.strip() == "no child process"


def _exists(pid: int) -> bool:
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    return True


@pytest.mark.skipif(workers.usable_cpus() < 2, reason="workers start only with 2 or more CPUs")
def test_workers_end_with_the_process():
    out = run_fresh(DECOMPOSE + """
    deadline = time.monotonic() + 120.0
    workers.START_AFTER_S = 0.0
    decompose(s, cfg)
    while time.monotonic() < deadline:
        decompose(s, cfg)
        pids = [w.proc.pid for w in workers._shared.workers if w.served]
        if pids:
            break
        time.sleep(0.05)
    print(*pids)
    """)
    pids = [int(p) for p in out.split()]
    assert pids
    deadline = time.monotonic() + 30.0
    alive = pids
    while alive and time.monotonic() < deadline:
        alive = [pid for pid in alive if _exists(pid)]
        time.sleep(0.05)
    assert alive == []

