"""Unit tests for the shared supervision layer, against a real echo-worker
process speaking the `serve` protocol: liveness detection, queued-reply
draining, task deadlines, in-task errors, respawn, and the restart
budget."""

import os
import time

import pytest

from repro.supervision import (
    RestartBudget,
    RestartBudgetExceeded,
    SupervisedWorker,
    SupervisionPolicy,
    WorkerDied,
    WorkerTimedOut,
    serve,
)


def _echo_worker_main(conn, rank):
    """Minimal `serve` worker: echo, sleep, raise, or die on command."""
    def handle(message):
        kind = message[0]
        if kind == "echo":
            return (message[1],)
        if kind == "sleep":
            time.sleep(message[1])
            return ("slept",)
        if kind == "reply_then_exit":
            conn.send(("ok", "bye"))
            conn.close()
            os._exit(0)
        if kind == "exit":
            os._exit(3)
        raise ValueError(f"echo worker cannot handle {kind!r}")

    serve(conn, rank, lambda: handle)


def _echo_worker() -> SupervisedWorker:
    return SupervisedWorker(0, "echo", _echo_worker_main)


class TestSupervisionPolicy:
    def test_validation(self):
        with pytest.raises(ValueError, match="task_timeout"):
            SupervisionPolicy(task_timeout=0)
        with pytest.raises(ValueError, match="max_retries"):
            SupervisionPolicy(max_retries=-1)
        with pytest.raises(ValueError, match="max_restarts"):
            SupervisionPolicy(max_restarts=-1)

    def test_deadline_scales_with_queued_tasks(self):
        assert SupervisionPolicy().deadline() is None
        policy = SupervisionPolicy(task_timeout=10.0)
        now = time.monotonic()
        assert policy.deadline() == pytest.approx(now + 10.0, abs=1.0)
        assert policy.deadline(tasks=3) == pytest.approx(now + 30.0, abs=1.0)
        assert policy.deadline(tasks=0) == pytest.approx(now + 10.0, abs=1.0)


class TestRestartBudget:
    def test_spend_raises_past_the_limit_naming_the_fault(self):
        budget = RestartBudget(2)
        budget.spend("first crash")
        budget.spend("second crash")
        assert budget.spent == 2
        with pytest.raises(RestartBudgetExceeded, match="third crash"):
            budget.spend("third crash")

    def test_zero_budget_fails_on_first_fault(self):
        with pytest.raises(RestartBudgetExceeded):
            RestartBudget(0).spend("any")


class TestSupervisedWorker:
    def test_echo_round_trip(self):
        worker = _echo_worker()
        try:
            worker.send(("echo", 42))
            assert worker.recv_within(None) == ("ok", 42)
        finally:
            worker.close()

    def test_death_raises_and_respawn_recovers(self):
        worker = _echo_worker()
        try:
            worker.send(("exit",))
            with pytest.raises(WorkerDied, match="worker 0"):
                worker.recv_within(None)
            budget = RestartBudget(2)
            worker.respawn(budget, "exited on command")
            assert budget.spent == 1
            worker.send(("echo", "again"))
            assert worker.recv_within(None) == ("ok", "again")
        finally:
            worker.close()

    def test_queued_replies_survive_the_workers_death(self):
        """A worker that answered and *then* died must not lose the answer:
        the reply is drained normally, and only afterwards does the pipe
        report the death."""
        worker = _echo_worker()
        try:
            worker.send(("reply_then_exit",))
            worker.process.join(timeout=10)
            assert not worker.alive()
            assert not worker.is_dead()  # data still readable
            assert worker.recv_within(None) == ("ok", "bye")
            with pytest.raises(WorkerDied):
                worker.recv_within(None)
        finally:
            worker.reap()

    def test_deadline_exceeded_raises_timed_out(self):
        worker = _echo_worker()
        try:
            worker.send(("sleep", 30.0))
            with pytest.raises(WorkerTimedOut, match="presumed hung"):
                worker.recv_within(time.monotonic() + 0.3)
        finally:
            worker.reap()  # kills the still-sleeping process
            assert not worker.alive()

    def test_send_to_dead_worker_raises(self):
        worker = _echo_worker()
        worker.send(("exit",))
        worker.process.join(timeout=10)
        worker.conn.close()
        with pytest.raises(WorkerDied):
            worker.send(("echo", 1))
        worker.reap()

    def test_handler_error_is_replied_and_the_worker_keeps_serving(self):
        worker = _echo_worker()
        try:
            worker.send(("unknown",))
            kind, trace = worker.recv_within(None)
            assert kind == "error"
            assert "ValueError: echo worker cannot handle 'unknown'" in trace
            worker.send(("echo", "still here"))
            assert worker.recv_within(None) == ("ok", "still here")
        finally:
            worker.close()

    def test_respawn_spends_the_budget_and_raises_once_it_is_gone(self):
        worker = _echo_worker()
        budget = RestartBudget(1)
        try:
            worker.respawn(budget, "first fault")
            assert budget.spent == 1
            with pytest.raises(RestartBudgetExceeded, match="second fault"):
                worker.respawn(budget, "second fault")
            assert budget.spent == 1
        finally:
            worker.close()
