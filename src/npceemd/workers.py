"""Worker processes that run a caller's tasks beside it, in task order.

``map(fn, tasks)`` is the one entry. It yields ``fn(*args)`` for each
task, in task order, and decides where each task runs: in the caller
until the process has spent more than START_AFTER_S in maps, and then
beside the process's workers, min(usable CPUs, tasks) - 1 of them, as
the caller runs one task of each round itself. Importing this module
starts nothing, and the workers end with the process.

Each worker is a child interpreter started as
``python -c "...; from npceemd.workers import serve; serve()"``. It reads
pickled ``(function, args, numpy error state)`` tasks on stdin and writes
pickled replies on stdout. The pickles travel only between a caller and its own workers.

``multiprocessing`` is not used. Its ``spawn`` and ``forkserver`` starts
re-run the caller's ``__main__`` in every worker, so a script without a
main guard, or ``python -`` fed on stdin, fails with ``RuntimeError`` and
a broken pool. It also leaves a resource tracker running for a few
milliseconds after the caller exits. ``fork`` is unsafe in a process with
threads, and ``score_imfs`` runs a thread pool.
"""

from __future__ import annotations

import atexit
import os
import pickle
import select
import signal
import subprocess
import sys
import threading
import time
import traceback
import warnings
from collections import deque
from collections.abc import Callable, Iterator, Sequence
from typing import Any

import numpy as np

# The directory that holds this package, put first on each worker's path
# so that a worker imports the caller's copy of the package.
_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
_SERVE = f"import sys; sys.path.insert(0, {_ROOT!r}); from npceemd.workers import serve; serve()"

# Seconds that close() waits for a worker to exit after its stdin closes.
CLOSE_TIMEOUT_S = 5.0

# Seconds that a process spends in maps, in the caller, before a map
# starts its workers. A worker's start is about 0.5 s of import beside
# the caller, which slows the caller's work meanwhile and pays off only
# over the work that follows; a process whose work ends before this never
# pays it.
START_AFTER_S = 2.0

# Registry for the warnings relayed from workers, so that the caller's
# "default" and "module" filters show each one once, as for its own.
_relayed_registry: dict = {}


def usable_cpus() -> int:
    """CPUs this process may run on: its affinity mask where the platform
    has one, else the machine's count."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def _package_file() -> str:
    return os.path.abspath(sys.modules[__package__].__file__)


def _reply(fd: int, message: object) -> None:
    # Unbuffered, so that a worker whose caller has gone leaves no bytes
    # for the interpreter to flush into a broken pipe at exit.
    view = memoryview(pickle.dumps(message, pickle.HIGHEST_PROTOCOL))
    while view:
        view = view[os.write(fd, view):]


def _module_of(filename: str) -> str | None:
    """The name of the loaded module whose file is filename: the module
    that ``warnings.warn`` names for a warning raised in it."""
    for name, module in list(sys.modules.items()):
        if getattr(module, "__file__", None) == filename:
            return name
    return None


def _run(fn: Callable, args: tuple, errstate: dict) -> tuple[bool, Any, list]:
    with warnings.catch_warnings(record=True) as caught, np.errstate(**errstate):
        warnings.simplefilter("always")
        try:
            ok, value = True, fn(*args)
        except Exception as exc:
            text = traceback.format_exc()
            try:
                pickle.loads(pickle.dumps(exc, pickle.HIGHEST_PROTOCOL))
            except Exception:
                exc = RuntimeError(text)  # an error that cannot make the trip
            ok, value = False, (exc, text)
    raised = [(w.message, w.category, w.filename, w.lineno, _module_of(w.filename)) for w in caught]
    return ok, value, raised


def serve() -> None:
    """Run tasks from stdin until it closes.

    The first message written is ``("ready", npceemd.__file__)``. A task
    is ``(function, args, errstate)`` and runs under the caller's numpy
    error state ``errstate``. Each reply is ``(ok, value, warnings)``: the
    task's result, or the exception it raised and its formatted traceback,
    and the warnings it raised, as ``(message, category, filename, lineno,
    module)``.
    """
    # The caller handles an interrupt and closes its workers.
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    tasks = sys.stdin.buffer
    replies = os.dup(sys.stdout.fileno())
    # A stray print goes to stderr, not into the replies.
    os.dup2(sys.stderr.fileno(), sys.stdout.fileno())
    try:
        _reply(replies, ("ready", _package_file()))
        while True:
            try:
                fn, args, errstate = pickle.load(tasks)
            except (EOFError, pickle.UnpicklingError):
                return  # the caller closed the pipe, or ended while writing
            ok, value, raised = _run(fn, args, errstate)
            try:
                _reply(replies, (ok, value, raised))
            except (pickle.PicklingError, TypeError, AttributeError):
                text = traceback.format_exc()
                _reply(replies, (False, (RuntimeError(text), text), []))
    except BrokenPipeError:
        return  # the caller closed the pipe without reading


class WorkerError(RuntimeError):
    """A worker process ended or broke the protocol."""


class WorkerTraceback(Exception):
    """The traceback, in its worker process, of a task's error; the error
    re-raised in the caller has it as its cause."""


class _Worker:
    """One child interpreter and its pipes."""

    def __init__(self) -> None:
        self.proc = subprocess.Popen(
            [sys.executable, "-c", _SERVE], stdin=subprocess.PIPE, stdout=subprocess.PIPE
        )
        self.served = 0
        # None until the first message is read; then whether the worker
        # imported this copy of the package.
        self.ready: bool | None = None

    def poll_ready(self) -> bool:
        """Whether the worker is ready, reading its first message once it
        has written it, or closed its stdout, without blocking. A worker
        that imported another copy of the package, or none, is ended.
        ``poll``, unlike ``select``, takes descriptors above 1023."""
        if self.ready is None:
            poller = select.poll()
            poller.register(self.proc.stdout, select.POLLIN)
            if poller.poll(0):
                try:
                    self.ready = pickle.load(self.proc.stdout) == ("ready", _package_file())
                except (EOFError, pickle.UnpicklingError):
                    self.ready = False
                if not self.ready:
                    self.close()
                    self.reap()
        return bool(self.ready)

    def send(self, task: bytes) -> None:
        try:
            self.proc.stdin.write(task)
            self.proc.stdin.flush()
        except BrokenPipeError:
            raise self._ended() from None

    def receive(self) -> tuple[bool, Any, list]:
        try:
            reply = pickle.load(self.proc.stdout)
        except (EOFError, pickle.UnpicklingError):
            raise self._ended() from None
        self.served += 1
        return reply

    def _ended(self) -> WorkerError:
        return WorkerError(f"worker process {self.proc.pid} ended with exit code {self.reap()}")

    def close(self) -> None:
        for pipe in (self.proc.stdin, self.proc.stdout):
            try:
                pipe.close()
            except OSError:
                pass  # a worker that has ended leaves a broken pipe to flush

    def reap(self) -> int:
        """Wait up to CLOSE_TIMEOUT_S for the worker to exit, kill it if it
        has not, and return its exit code."""
        try:
            return self.proc.wait(CLOSE_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            return self.proc.wait()


def _unpack(reply: tuple[bool, Any, list]) -> Any:
    """A task's result, after re-emitting its warnings; or raise its error."""
    ok, value, raised = reply
    for message, category, filename, lineno, module in raised:
        warnings.warn_explicit(
            message, category, filename, lineno, module=module, registry=_relayed_registry
        )
    if not ok:
        error, text = value
        raise error from WorkerTraceback(text)
    return value


class WorkerPool:
    """Worker processes that run a caller's tasks beside it, results in
    task order.

    The workers start at construction, or at ``grow``, and import the
    package; ``map`` gives them tasks once each has said that it is ready.
    ``close`` ends them.
    """

    def __init__(self, count: int) -> None:
        self._owner = os.getpid()
        self._lock = threading.Lock()
        self.closed = False
        self.workers: list[_Worker] = []
        self.grow(count)

    def grow(self, count: int) -> None:
        """Start workers until the pool has count of them."""
        try:
            while len(self.workers) < count:
                self.workers.append(_Worker())
        except OSError:
            self.close()
            raise

    def ready(self) -> list[_Worker]:
        """The ready workers, polled without blocking."""
        return [worker for worker in self.workers if worker.poll_ready()]

    def map(self, fn: Callable, tasks: Sequence[tuple]) -> Iterator:
        """Yield ``fn(*args)`` for each task, in task order.

        The tasks are dealt in rounds: the caller runs the round's first
        task while each ready worker runs one of the next, and then reads
        the workers' results in order. One task is in flight per worker,
        so blocking pipes cannot deadlock and at most one result per
        worker waits in memory. A task that cannot be pickled, and every
        task while no worker is ready, while another thread is using the
        workers, or once the pool is closed or in a process other than
        its owner, runs in the caller. A worker's task runs under the
        caller's numpy error state; its warnings are re-emitted and its
        exception re-raised at its place in task order. A worker that ends
        raises WorkerError and closes the pool.
        """
        if self.closed or os.getpid() != self._owner or not self._lock.acquire(blocking=False):
            yield from (fn(*args) for args in tasks)
            return
        flight: deque[_Worker] = deque()
        try:
            i = 0
            while i < len(tasks):
                errstate = np.geterr()
                for worker in self.ready()[: len(tasks) - i - 1]:
                    try:
                        task = pickle.dumps(
                            (fn, tasks[i + 1 + len(flight)], errstate), pickle.HIGHEST_PROTOCOL
                        )
                    except Exception:
                        break  # the caller runs it in the next round
                    worker.send(task)
                    flight.append(worker)
                yield fn(*tasks[i])
                i += 1 + len(flight)
                while flight:
                    yield _unpack(flight.popleft().receive())
        except WorkerError:
            self.close()
            raise
        except (Exception, GeneratorExit):
            # A task's error, or a caller that stopped reading: the other
            # workers finish their tasks, and their replies are read and
            # dropped, so the pool stays usable.
            try:
                while flight:
                    flight.popleft().receive()
            except BaseException:
                self.close()
                raise
            raise
        except BaseException:
            self.close()
            raise
        finally:
            self._lock.release()

    def close(self) -> None:
        """End the workers: kill those still starting, which hold no task,
        close the others' pipes, wait for each to exit for up to
        CLOSE_TIMEOUT_S, and kill one that does not."""
        if self.closed or os.getpid() != self._owner:
            return
        self.closed = True
        for worker in self.workers:
            if worker.ready is None:
                worker.proc.kill()
            worker.ready = False
            worker.close()
        for worker in self.workers:
            worker.reap()


_pool: WorkerPool | None = None
_work_s = 0.0
_pool_lock = threading.Lock()


def map(fn: Callable, tasks: Sequence[tuple]) -> Iterator:
    """Yield ``fn(*args)`` for each task, in task order, on the process's
    workers beside the caller (``WorkerPool.map``) or in the caller.

    Each map counts the seconds from its first result asked for to its
    end as the process's work. The tasks run in the caller while that work
    is at most START_AFTER_S, so a process's first map never starts a
    process; where min(usable CPUs, tasks) - 1 is no worker; on Windows,
    which cannot poll a pipe; and where no process could be started.
    Otherwise the process's pool holds that many workers: it starts, or
    grows when a map has more tasks, and a pool that was closed, or that
    another process started, is replaced. The workers are closed at exit.
    """
    global _pool, _work_s
    pool = None
    count = min(usable_cpus(), len(tasks)) - 1
    with _pool_lock:
        if count >= 1 and sys.platform != "win32" and _work_s > START_AFTER_S:
            try:
                if _pool is None or _pool.closed or _pool._owner != os.getpid():
                    _pool = WorkerPool(count)
                    atexit.register(_pool.close)
                else:
                    _pool.grow(count)
                pool = _pool
            except OSError:
                pass  # no process could be started: run in the caller
    start = time.perf_counter()
    yield from ((fn(*args) for args in tasks) if pool is None else pool.map(fn, tasks))
    with _pool_lock:
        _work_s += time.perf_counter() - start
