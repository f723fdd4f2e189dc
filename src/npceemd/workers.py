"""Worker processes that run a caller's tasks beside it, in task order.

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

The caller runs tasks beside its workers, so a process with W + 1 usable
CPUs starts at most W workers. Importing this module starts nothing.
``shared_pool`` starts the process's workers once it has done more than
START_AFTER_S of work that they could have run (``add_work``); they end
with the process.
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

# Seconds of work, counted by add_work, that a process does in the caller
# before shared_pool starts its workers. A worker's start is about 0.5 s
# of import beside the caller, which slows the caller's work meanwhile
# and pays off only over the work that follows; a process whose work ends
# before this never pays it.
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

    def has_spoken(self) -> bool:
        """Whether the worker has written, or closed its stdout, without
        blocking. ``poll``, unlike ``select``, takes descriptors above 1023."""
        poller = select.poll()
        poller.register(self.proc.stdout, select.POLLIN)
        return bool(poller.poll(0))

    def runs_this_package(self) -> bool:
        """Read the worker's first message: whether it imported this copy
        of the package (False where its import failed)."""
        try:
            return pickle.load(self.proc.stdout) == ("ready", _package_file())
        except (EOFError, pickle.UnpicklingError):
            return False

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
        try:
            code = self.proc.wait(CLOSE_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            code = "none: it closed its pipe but did not exit"
        return WorkerError(f"worker process {self.proc.pid} ended with exit code {code}")

    def close(self) -> None:
        for pipe in (self.proc.stdin, self.proc.stdout):
            try:
                pipe.close()
            except OSError:
                pass  # a worker that has ended leaves a broken pipe to flush

    def reap(self) -> None:
        try:
            self.proc.wait(CLOSE_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()


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
        self._starting: list[_Worker] = []
        self._ready: list[_Worker] = []
        self.grow(count)

    def grow(self, count: int) -> None:
        """Start workers until the pool has count of them."""
        try:
            while len(self.workers) < count:
                worker = _Worker()
                self.workers.append(worker)
                self._starting.append(worker)
        except OSError:
            self.close()
            raise

    def ready(self) -> list[_Worker]:
        """Poll the starting workers without blocking and return the ready
        ones. A worker that imported another copy of the package, or none,
        is ended and never used."""
        for worker in [w for w in self._starting if w.has_spoken()]:
            self._starting.remove(worker)
            if worker.runs_this_package():
                self._ready.append(worker)
            else:
                worker.close()
                worker.reap()
        return list(self._ready)

    def map(self, fn: Callable, tasks: Sequence[tuple]) -> Iterator:
        """Yield ``fn(*args)`` for each task, in task order.

        The tasks are dealt in rounds: the caller runs the round's first
        task while each ready worker runs one of the next, and then reads
        the workers' results in order. One task is in flight per worker,
        so blocking pipes cannot deadlock and at most one result per
        worker waits in memory. A task that cannot be pickled, and every
        task while no worker is ready or while another thread is using
        the workers, runs in the caller. A worker's task runs under the
        caller's numpy error state; its warnings are re-emitted and its
        exception re-raised at its place in task order. A worker that ends
        raises WorkerError and closes the pool.
        """
        if not self._lock.acquire(blocking=False):
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
        for worker in self._starting:
            worker.proc.kill()
        self._starting, self._ready = [], []
        for worker in self.workers:
            worker.close()
        for worker in self.workers:
            worker.reap()


_shared: WorkerPool | None = None
_shared_work_s = 0.0
_shared_lock = threading.Lock()


def _close_shared() -> None:
    if _shared is not None:
        _shared.close()


def add_work(seconds: float) -> None:
    """Count seconds of work that the shared pool could have run."""
    global _shared_work_s
    with _shared_lock:
        _shared_work_s += seconds


def shared_pool(tasks: int) -> WorkerPool | None:
    """The process's workers for a map of ``tasks`` tasks, or None.

    The caller runs one task of each round itself, so the pool holds
    min(usable CPUs, tasks) - 1 workers, and it grows when a later map has
    more tasks. None where that is no worker, on Windows, which cannot
    poll a pipe, and until the process has done more than START_AFTER_S
    of work (``add_work``), so a process's first map never starts a
    process. Then the workers start, and take tasks once each has
    imported the package; a pool that was closed is replaced. The workers
    are closed at exit.
    """
    global _shared
    count = min(usable_cpus(), tasks) - 1
    if count < 1 or sys.platform == "win32":
        return None
    with _shared_lock:
        if _shared_work_s <= START_AFTER_S:
            return None
        try:
            if _shared is None or _shared.closed or _shared._owner != os.getpid():
                if _shared is None:
                    atexit.register(_close_shared)
                _shared = WorkerPool(count)
            else:
                _shared.grow(count)
        except OSError:
            return None  # no process could be started: run in the caller
        return _shared
