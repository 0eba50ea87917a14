"""Shared worker-farm resilience layer: liveness, timeouts, respawn.

Both long-running process farms in this codebase — the gradient worker
pool of :mod:`repro.nn.parallel` and the dataset-factory farm of
:mod:`repro.datasets.factory` — speak the same low-level dialect: a
parent holds one pipe per worker process, sends small task messages and
waits for replies.  Before this module, any worker death was fatal to the
whole run (and a hung worker blocked it forever).  This module factors
out the machinery both farms need to *survive* those faults:

* :class:`SupervisedWorker` wraps one (process, pipe) pair behind a
  ``spawn`` callable, so the worker can be **reaped and respawned** with
  identical start-up state after a crash.  Liveness is tracked by
  polling: a worker whose process has exited with no pending pipe data is
  dead; one that exceeds its task deadline is hung (and gets killed).
* :class:`RestartBudget` bounds how many respawns a farm may spend before
  giving up — a crash loop (e.g. the OOM killer reaping every replacement)
  must eventually surface as an error instead of burning CPU forever.
* :class:`SupervisionPolicy` carries the knobs (task timeout, per-task
  retry bound, restart budget, poll interval) through both farms and the
  CLI.

Determinism note: supervision never changes *what* is computed.  Both
farms re-dispatch exactly the work the dead worker held — the gradient
pool re-sends the step against the same shared parameters, the factory
re-queues the unit whose RNG stream is a pure function of its index — so
a recovered run is bit-identical to a fault-free one.
"""

from __future__ import annotations

import dataclasses
import time
from typing import Callable, Optional, Tuple

__all__ = [
    "SupervisionPolicy",
    "SupervisedWorker",
    "RestartBudget",
    "WorkerDied",
    "WorkerTimedOut",
    "RestartBudgetExceeded",
]


class WorkerDied(RuntimeError):
    """A worker process exited (or its pipe broke) with work outstanding."""


class WorkerTimedOut(RuntimeError):
    """A worker exceeded its per-task deadline and is presumed hung."""


class RestartBudgetExceeded(RuntimeError):
    """The farm spent its whole respawn budget — a crash loop, not a blip."""


@dataclasses.dataclass
class SupervisionPolicy:
    """Fault-tolerance knobs shared by the training and factory farms.

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
    poll_interval:
        Liveness-check tick in seconds: how often a waiting parent looks
        at process liveness and task deadlines between pipe polls.
    """

    task_timeout: Optional[float] = None
    max_retries: int = 2
    max_restarts: int = 8
    poll_interval: float = 0.2

    def __post_init__(self) -> None:
        if self.task_timeout is not None and self.task_timeout <= 0:
            raise ValueError("task_timeout must be positive (or None to disable)")
        if self.max_retries < 0:
            raise ValueError("max_retries must be non-negative")
        if self.max_restarts < 0:
            raise ValueError("max_restarts must be non-negative")
        if self.poll_interval <= 0:
            raise ValueError("poll_interval must be positive")

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


class SupervisedWorker:
    """One worker process + pipe, respawnable with identical start state.

    ``spawn(rank)`` must start the process, complete the farm's start-up
    handshake, and return ``(process, connection)`` — so a respawned
    worker is indistinguishable from a fresh one (same pickled payload,
    same shared buffers).  Spawn failures propagate to the caller.
    """

    def __init__(self, rank: int,
                 spawn: Callable[[int], Tuple[object, object]]) -> None:
        self.rank = rank
        self._spawn = spawn
        self.restarts = 0
        self.process, self.conn = spawn(rank)

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

    def recv_within(self, deadline: Optional[float],
                    poll_interval: float = 0.2):
        """Receive one reply, supervising liveness and the task deadline.

        Raises :class:`WorkerDied` when the process exits without
        replying, :class:`WorkerTimedOut` when ``deadline`` (monotonic
        seconds, ``None`` = no bound) passes first.
        """
        while True:
            try:
                if self.conn.poll(poll_interval):
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

    def respawn(self) -> None:
        """Reap the current process and start an identical replacement."""
        self.reap()
        self.restarts += 1
        self.process, self.conn = self._spawn(self.rank)

    def close(self, farewell=None, join_timeout: float = 5.0) -> None:
        """Best-effort orderly shutdown (used by the farms' close paths)."""
        if farewell is not None:
            try:
                self.conn.send(farewell)
            except (OSError, ValueError):
                pass
        self.process.join(timeout=join_timeout)
        if self.process.is_alive():
            self.process.terminate()
            self.process.join(timeout=1)
        try:
            self.conn.close()
        except OSError:
            pass
