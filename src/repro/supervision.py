"""Shared worker-farm lifecycle: start-up, serving, liveness, respawn.

Both process farms in this codebase — the gradient worker pool of
:mod:`repro.nn.parallel` and the dataset-factory farm of
:mod:`repro.datasets.factory` — start, serve, respawn and reap their
workers through this module; each farm keeps only its scheduling.

* :func:`serve` is the worker side of the one protocol: a start-up
  handshake, then one ``("ok", ...)`` or ``("error", traceback)`` reply
  per message until ``("close",)``.
* :class:`SupervisedWorker` is the parent side of one worker: a process
  started from :data:`CONTEXT` plus its pipe.  Liveness is polled: a
  worker whose process has exited with no pending pipe data is dead; one
  that exceeds its task deadline is hung (and gets killed).
  :meth:`~SupervisedWorker.respawn` reaps it and starts an identical
  replacement, spending a :class:`RestartBudget` — a crash loop (e.g. the
  OOM killer reaping every replacement) must eventually surface as an
  error instead of burning CPU forever.
* :func:`start_farm` starts a farm; if a worker fails to start, the ones
  already running are reaped before the error propagates.
* :class:`SupervisionPolicy` carries the per-run fault-tolerance settings.

Determinism note: supervision never changes *what* is computed.  Both
farms re-dispatch exactly the work the dead worker held — the gradient
pool re-sends the step against the same shared parameters, the factory
re-queues the unit whose RNG stream is a pure function of its index — so
a recovered run is bit-identical to a fault-free one.
"""

from __future__ import annotations

import dataclasses
import multiprocessing as mp
import time
import traceback
from typing import Callable, List, Optional, Sequence

from repro.testing.faults import fault_point

__all__ = [
    "CONTEXT",
    "LIVENESS_TICK",
    "SupervisionPolicy",
    "SupervisedWorker",
    "RestartBudget",
    "WorkerDied",
    "WorkerTimedOut",
    "RestartBudgetExceeded",
    "serve",
    "start_farm",
]

#: The context every worker process starts from: fork where the platform
#: has it (near-instant start), else spawn.
try:
    CONTEXT = mp.get_context("fork")
except ValueError:  # pragma: no cover - platforms without fork
    CONTEXT = mp.get_context("spawn")

#: Seconds between liveness and deadline checks while a parent waits.
LIVENESS_TICK = 0.2


class WorkerDied(RuntimeError):
    """A worker process exited (or its pipe broke) with work outstanding."""


class WorkerTimedOut(RuntimeError):
    """A worker exceeded its per-task deadline and is presumed hung."""


class RestartBudgetExceeded(RuntimeError):
    """The farm spent its whole respawn budget — a crash loop, not a blip."""


@dataclasses.dataclass
class SupervisionPolicy:
    """Fault-tolerance settings shared by the training and factory farms.

    Attributes
    ----------
    task_timeout:
        Seconds a single task may run on a worker before the worker is
        presumed hung, killed and respawned (``None`` disables — the
        default, since a legitimate task's cost is workload-dependent).
    max_retries:
        How many *additional* executions a failing task gets after its
        first attempt before it is given up on (quarantined, in the
        factory's vocabulary).  Crashes, timeouts and in-task exceptions
        all consume the same budget.
    max_restarts:
        Total worker respawns a farm may spend over its lifetime.
    """

    task_timeout: Optional[float] = None
    max_retries: int = 2
    max_restarts: int = 8

    def __post_init__(self) -> None:
        if self.task_timeout is not None and self.task_timeout <= 0:
            raise ValueError("task_timeout must be positive (or None to disable)")
        if self.max_retries < 0:
            raise ValueError("max_retries must be non-negative")
        if self.max_restarts < 0:
            raise ValueError("max_restarts must be non-negative")

    def deadline(self, tasks: int = 1) -> Optional[float]:
        """Absolute monotonic deadline for ``tasks`` queued tasks, or None."""
        if self.task_timeout is None:
            return None
        return time.monotonic() + self.task_timeout * max(1, tasks)


class RestartBudget:
    """Counts worker respawns against a farm-wide bound."""

    def __init__(self, limit: int) -> None:
        self.limit = limit
        self.spent = 0

    def spend(self, reason: str) -> None:
        """Consume one respawn; raise when the budget is exhausted."""
        if self.spent >= self.limit:
            raise RestartBudgetExceeded(
                f"worker restart budget ({self.limit}) exhausted; last fault: "
                f"{reason} — the farm is crash-looping, not hitting a blip "
                "(committed work is preserved; fix the cause and resume)")
        self.spent += 1


def serve(conn, rank: int, make_handler: Callable[[], Callable]) -> None:
    """Worker side of the farm protocol.

    ``make_handler()`` builds the worker's state and returns
    ``handle(message) -> tuple``.  The worker replies ``("ready",)`` once
    it is built (``("error", traceback)`` if building fails), then answers
    each message with ``("ok", *handle(message))`` — or ``("error",
    traceback)`` when the handler raises, after which it keeps serving —
    and exits on ``("close",)`` or EOF.
    """
    try:
        fault_point("supervision.worker.start", rank=rank)
        handle = make_handler()
    except Exception:  # noqa: BLE001 - report the failure instead of dying mute
        conn.send(("error", traceback.format_exc()))
        conn.close()
        return
    conn.send(("ready",))
    try:
        while True:
            message = conn.recv()
            if message[0] == "close":
                break
            try:
                reply = ("ok", *handle(message))
            except Exception:  # noqa: BLE001 - ship the traceback to the parent
                reply = ("error", traceback.format_exc())
            conn.send(reply)
    except (EOFError, OSError, KeyboardInterrupt):
        pass
    finally:
        try:
            conn.close()
        except OSError:
            pass


class SupervisedWorker:
    """One worker process + pipe, respawnable with identical start state.

    The process runs ``target(conn, rank, *args)``, which must call
    :func:`serve`; construction returns once the start-up handshake is
    answered, and raises ``"{role} worker {rank} died during start-up"``
    or ``"... failed to start"`` otherwise.  A respawn starts the same
    ``target`` with the same ``args``, so the replacement is
    indistinguishable from a fresh worker.
    """

    def __init__(self, rank: int, role: str, target: Callable,
                 args: Sequence = ()) -> None:
        self.rank = rank
        self.role = role
        self._target = target
        self._args = tuple(args)
        self._start()

    def _start(self) -> None:
        self.conn, child_conn = CONTEXT.Pipe()
        self.process = CONTEXT.Process(
            target=self._target, args=(child_conn, self.rank, *self._args),
            daemon=True)
        self.process.start()
        child_conn.close()
        try:
            reply = self.conn.recv()
        except (EOFError, OSError) as error:
            self.reap()
            raise RuntimeError(
                f"{self.role} worker {self.rank} died during start-up "
                f"({error!r})") from error
        if reply[0] == "error":
            self.reap()
            raise RuntimeError(
                f"{self.role} worker {self.rank} failed to start:\n{reply[1]}")

    # ------------------------------------------------------------------ #
    def alive(self) -> bool:
        return self.process.is_alive()

    def has_data(self) -> bool:
        try:
            return self.conn.poll(0)
        except (OSError, ValueError):
            return False

    def send(self, message) -> None:
        """Send a task message; a broken pipe means the worker is dead."""
        try:
            self.conn.send(message)
        except (BrokenPipeError, OSError) as error:
            raise WorkerDied(
                f"worker {self.rank} died before accepting work "
                f"({error!r}); its process may have been killed "
                "(e.g. by the OOM killer)") from error

    def is_dead(self) -> bool:
        """Process gone *and* nothing left to read — truly dead.

        A worker that wrote replies and then died still has readable data
        in the pipe; those replies are collected normally and only the
        unanswered tasks are re-dispatched after the respawn.
        """
        return not self.alive() and not self.has_data()

    def recv_within(self, deadline: Optional[float]):
        """Receive one reply, supervising liveness and the task deadline.

        Raises :class:`WorkerDied` when the process exits without
        replying, :class:`WorkerTimedOut` when ``deadline`` (monotonic
        seconds, ``None`` = no bound) passes first.
        """
        while True:
            try:
                if self.conn.poll(LIVENESS_TICK):
                    return self.conn.recv()
            except (EOFError, OSError) as error:
                raise WorkerDied(
                    f"worker {self.rank} died with work in flight "
                    f"({error!r}); its process may have been killed "
                    "(e.g. by the OOM killer)") from error
            if self.is_dead():
                raise WorkerDied(
                    f"worker {self.rank} (pid {self.process.pid}) exited "
                    f"with code {self.process.exitcode} while its work was "
                    "in flight")
            if deadline is not None and time.monotonic() > deadline:
                raise WorkerTimedOut(
                    f"worker {self.rank} (pid {self.process.pid}) exceeded "
                    "its task timeout and is presumed hung")

    # ------------------------------------------------------------------ #
    def reap(self, graceful_timeout: float = 0.5) -> None:
        """Tear the worker down for good (terminate, then kill)."""
        try:
            self.conn.close()
        except OSError:
            pass
        if self.process.is_alive():
            self.process.terminate()
            self.process.join(timeout=graceful_timeout)
            if self.process.is_alive():  # pragma: no cover - SIGTERM ignored
                self.process.kill()
                self.process.join(timeout=graceful_timeout)
        else:
            self.process.join(timeout=graceful_timeout)

    def respawn(self, budget: RestartBudget, reason: str) -> None:
        """Spend one restart of ``budget`` (raising
        :class:`RestartBudgetExceeded` when it is gone), reap the current
        process — a hung one is killed — and start an identical
        replacement."""
        budget.spend(reason)
        self.reap()
        self._start()

    def close(self, join_timeout: float = 5.0) -> None:
        """Orderly shutdown: send ``("close",)``, give the worker
        ``join_timeout`` seconds to exit, then reap it."""
        try:
            self.conn.send(("close",))
        except (OSError, ValueError):
            pass
        self.process.join(timeout=join_timeout)
        self.reap()


def start_farm(count: int, role: str, target: Callable,
               args: Sequence = ()) -> List[SupervisedWorker]:
    """Start workers ``0 .. count-1``; if one fails to start, reap the
    ones already running and re-raise, so a failed start-up leaves no
    orphan process behind."""
    workers: List[SupervisedWorker] = []
    try:
        for rank in range(count):
            workers.append(SupervisedWorker(rank, role, target, args))
    except BaseException:
        for worker in workers:
            worker.reap()
        raise
    return workers
