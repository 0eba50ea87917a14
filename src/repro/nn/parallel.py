"""Multiprocess data-parallel gradient computation over merged batches.

The per-step Python loop — building the autograd graph, running the RNN
scan, the backward pass — is the training bottleneck once memory is under
control (see ROADMAP).  This module parallelises it across batches with a
persistent pool of worker *processes*: each worker holds a full model
replica, the parent broadcasts the current parameters, every worker runs
forward + backward on one merged batch and returns
``(flat_gradient, loss, num_paths)``, and the parent path-weight-averages
the gradients and takes a single optimiser step.

Synchronous data-parallel semantics
-----------------------------------
One optimiser step consumes a *group* of up to ``num_workers`` batches; the
group gradient is the **path-weighted average** of the per-batch gradients

``g = sum_i(num_paths_i * g_i) / sum_i(num_paths_i)``

— the same weighting :meth:`repro.models.trainer.RouteNetTrainer.evaluate_loss`
applies to losses, so the group gradient equals the gradient of the mean
per-path loss over all paths in the group, exactly as if the group had been
merged into one giant disjoint-union batch.  The update rule therefore
depends only on ``num_workers`` (the group size), not on which engine runs
the members: :class:`SerialGradientExecutor` executes the identical
semantics in-process, and the equivalence tests hold the two engines to
bit-identical parameter trajectories.

Shared-memory parameter broadcast
---------------------------------
Parameters travel through **one** flat shared-memory buffer allocated at
pool start: per group the parent writes the current parameter vector into
it (one memcpy, instead of pickling the vector once per worker through a
pipe) and each step message carries only a batch reference.  One buffer is
enough because at most one group is in flight: every worker copies the
parameters into its replica before it replies, and the parent writes the
buffer again only after :meth:`GradientWorkerPool.collect_group` has every
reply of the previous group.

Batches reach workers one of two ways: :meth:`set_batches` uploads a list
once and steps reference batches by index (the in-memory trainer, whose
pre-merged batches are reused every epoch), or
:meth:`submit_group_payload` ships the merged batches inside the step
messages (the streaming trainer, whose batches exist only transiently).

Fault tolerance
---------------
The workers live the supervised lifecycle of :mod:`repro.supervision`.
If one fails to start, the pool raises after reaping the ones already
started.  A worker that dies or exceeds its per-task timeout is reaped and
an identical replacement is spawned from the same pickled payload and
shared parameter buffer, the batch cache is re-uploaded, and every message
the dead worker had not answered is re-sent in order.  Recovery happens inside
:meth:`collect_group`, before the group is complete, so the parameter
buffer still holds the group's parameters and the replacement recomputes
exactly the same gradients — a recovered run is **bit-identical** to a
fault-free one.  Respawns draw on a bounded
restart budget so a crash-looping farm fails loudly instead of spinning.
Ordinary in-task exceptions are *not* retried: they re-raise the worker's
traceback in the parent, exactly as before (a deterministic Python error
would only fail again).
"""

from __future__ import annotations

import pickle
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.nn.losses import huber_loss, mse_loss
from repro.nn.module import Module
from repro.nn.tensor import Tensor
from repro.supervision import (
    CONTEXT,
    RestartBudget,
    SupervisedWorker,
    SupervisionPolicy,
    WorkerDied,
    WorkerTimedOut,
    serve,
    start_farm,
)
from repro.testing.faults import fault_point

__all__ = [
    "GradientWorkerPool",
    "SerialGradientExecutor",
    "make_gradient_executor",
    "path_weighted_average",
]

#: Result of one worker task: (flat gradient, scalar loss, paths in batch).
GradientResult = Tuple[np.ndarray, float, int]


def path_weighted_average(vectors: Sequence[np.ndarray],
                          weights: Sequence[int]) -> np.ndarray:
    """Average flat gradient vectors weighted by their batch's path count.

    ``sum_i(w_i * v_i) / sum_i(w_i)`` with ``w_i`` the number of paths in
    batch ``i`` — the weighting that makes a group of batches equivalent to
    one merged batch containing all their paths (each per-batch loss is
    already the *mean* over that batch's paths, so recombining means needs
    the path counts back).  Matches the loss weighting of
    ``RouteNetTrainer.evaluate_loss``.

    A single-element group returns its vector unchanged (bit-exact with the
    one-batch-per-step serial path).  The accumulation preserves the input
    dtype: float32 gradients are averaged in float32.
    """
    if len(vectors) != len(weights):
        raise ValueError("one weight per gradient vector is required")
    if not vectors:
        raise ValueError("cannot average an empty group of gradients")
    if len(vectors) == 1:
        return np.asarray(vectors[0])
    total = float(sum(weights))
    accumulated = np.zeros_like(np.asarray(vectors[0]))
    for vector, weight in zip(vectors, weights):
        accumulated += np.asarray(vector) * (float(weight) / total)
    return accumulated


def _compute_gradient(model: Module, batch, loss_name: str) -> GradientResult:
    """Forward + backward on one batch; the single compute kernel every
    execution engine (worker process or serial executor) runs, so their
    results are bit-identical for identical parameters and batch."""
    model.zero_grad()
    predictions = model(batch)
    targets = Tensor(np.asarray(batch.targets, dtype=predictions.data.dtype))
    if loss_name == "huber":
        loss = huber_loss(predictions, targets)
    elif loss_name == "mse":
        loss = mse_loss(predictions, targets)
    else:
        raise ValueError(f"unknown loss '{loss_name}'")
    loss.backward()
    return model.gradients_vector(), float(loss.item()), int(batch.num_paths)


def _replicate(model: Module) -> Module:
    """A fresh replica via a pickle round-trip (bit-identical parameters)."""
    return pickle.loads(pickle.dumps(model))


def _worker_main(conn, rank: int, payload: bytes, param_buffer,
                 param_dtype: str, param_count: int) -> None:
    """Worker process: cache batches, answer gradient requests.

    Messages (parent → worker), served by :func:`repro.supervision.serve`:
      ``("batches", [TensorizedSample, ...])``  replace the cached batches;
      ``("step", batch_index)``                 read the parameters from the
                                                shared buffer, compute on a
                                                cached batch;
      ``("step_payload", batch)``               same, on a shipped batch.
    Replies: ``("ok", count)`` and ``("ok", gradient, loss, num_paths)``.
    """
    def make_handler():
        model, loss_name = pickle.loads(payload)
        # A view into the shared buffer; load_parameters_vector copies per
        # parameter, so nothing in the model aliases the buffer afterwards.
        params = np.frombuffer(param_buffer, dtype=param_dtype,
                               count=param_count)
        batches: list = []
        steps_handled = 0

        def handle(message):
            nonlocal batches, steps_handled
            kind, work = message
            if kind == "batches":
                batches = list(work)
                return (len(batches),)
            fault_point("pool.step.start", rank=rank, step=steps_handled)
            steps_handled += 1
            model.load_parameters_vector(params)
            batch = batches[work] if kind == "step" else work
            return _compute_gradient(model, batch, loss_name)

        return handle

    serve(conn, rank, make_handler)


class _ExecutorBase:
    """Shared bookkeeping for both execution engines.

    Both engines expose the same two-phase interface: :meth:`submit_group`
    / :meth:`submit_group_payload` hand a group of work out (at most one
    group in flight), :meth:`collect_group` returns its results.  The
    one-shot :meth:`run_group` wrapper submits and collects in one call.
    """

    def __init__(self) -> None:
        self._uploaded_ids: Optional[tuple] = None
        self._in_flight: Optional[int] = None

    def set_batches(self, batches: Sequence) -> None:  # pragma: no cover - abstract
        raise NotImplementedError

    def ensure_batches(self, batches: Sequence) -> None:
        """Upload ``batches`` unless the identical list is already cached.

        Identity (not equality) is the right key: pre-merged static batches
        are the same objects every epoch, so the upload happens once per
        ``fit``; per-epoch re-merged batches are fresh objects and re-upload.
        """
        ids = tuple(id(batch) for batch in batches)
        if ids != self._uploaded_ids:
            self.set_batches(batches)
            self._uploaded_ids = ids

    # ------------------------------------------------------------------ #
    def _check_idle(self) -> None:
        if self._in_flight is not None:
            raise RuntimeError(
                "a group is already in flight; collect_group() it first")

    def submit_group(self, flat_params: np.ndarray,
                     indices: Sequence[int]) -> None:  # pragma: no cover - abstract
        raise NotImplementedError

    def submit_group_payload(self, flat_params: np.ndarray,
                             batches: Sequence) -> None:  # pragma: no cover
        raise NotImplementedError

    def collect_group(self) -> List[GradientResult]:  # pragma: no cover - abstract
        raise NotImplementedError

    def run_group(self, flat_params: np.ndarray,
                  indices: Sequence[int]) -> List[GradientResult]:
        """Synchronous submit + collect over cached-batch indices."""
        self.submit_group(flat_params, indices)
        return self.collect_group()

    def close(self) -> None:  # pragma: no cover - abstract
        raise NotImplementedError

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()


class SerialGradientExecutor(_ExecutorBase):
    """In-process engine with the exact semantics of :class:`GradientWorkerPool`.

    Runs every group member sequentially on a pickle-round-tripped replica —
    no processes, no IPC — so ``num_workers > 1`` training can be executed
    (and debugged, and tested for bit-exact equivalence) on a single core.
    ``submit_group`` merely records the work; the compute happens at
    :meth:`collect_group`.
    """

    def __init__(self, model: Module, num_workers: int = 1, loss: str = "mse") -> None:
        super().__init__()
        if num_workers < 1:
            raise ValueError("num_workers must be at least 1")
        self.num_workers = num_workers
        self._loss_name = loss
        self._replica = _replicate(model)
        self._batches: list = []
        self._pending = None

    def set_batches(self, batches: Sequence) -> None:
        self._batches = list(batches)

    def submit_group(self, flat_params: np.ndarray,
                     indices: Sequence[int]) -> None:
        self._check_idle()
        self._pending = ("indices", list(indices), np.asarray(flat_params))
        self._in_flight = len(self._pending[1])

    def submit_group_payload(self, flat_params: np.ndarray,
                             batches: Sequence) -> None:
        self._check_idle()
        self._pending = ("payload", list(batches), np.asarray(flat_params))
        self._in_flight = len(self._pending[1])

    def collect_group(self) -> List[GradientResult]:
        if self._pending is None:
            raise RuntimeError("no group in flight")
        kind, members, flat_params = self._pending
        self._pending = None
        self._in_flight = None
        results = []
        for member in members:
            self._replica.load_parameters_vector(flat_params)
            batch = self._batches[member] if kind == "indices" else member
            results.append(_compute_gradient(self._replica, batch,
                                             self._loss_name))
        return results

    def close(self) -> None:
        self._batches = []
        self._pending = None
        self._in_flight = None


class GradientWorkerPool(_ExecutorBase):
    """A persistent pool of worker processes computing per-batch gradients.

    Each worker is started once with a pickled replica of ``model`` and kept
    alive for the executor's lifetime; a group then costs one shared-memory
    parameter publish plus one small step message per member, and one flat
    gradient back per member.  Workers cache an uploaded batch list (steps
    reference indices into it), or receive streaming batches inline via
    :meth:`submit_group_payload`.

    Parameters
    ----------
    model:
        The module whose replicas the workers hold.  Must be picklable
        (every model in :mod:`repro.models` is).
    num_workers:
        Number of worker processes (≥ 1).
    loss:
        ``"mse"`` or ``"huber"`` — must match the trainer's loss.
    task_timeout:
        Seconds one gradient task may run before its worker is presumed
        hung, killed and respawned.  ``None`` (default) disables the
        timeout.  Respawns draw on a restart budget of 8 per pool.

    If a worker fails to start, the workers already started are reaped and
    the start-up error raised (the trainer then falls back to the serial
    backend).
    """

    def __init__(self, model: Module, num_workers: int = 1, loss: str = "mse",
                 task_timeout: Optional[float] = None) -> None:
        super().__init__()
        if num_workers < 1:
            raise ValueError("num_workers must be at least 1")
        self.num_workers = num_workers
        self._policy = SupervisionPolicy(task_timeout=task_timeout)
        self._restart_budget = RestartBudget(self._policy.max_restarts)
        # The parameter broadcast buffer (see the module docstring).
        template = model.parameters_vector()
        self._param_dtype = template.dtype
        self._param_count = int(template.size)
        self._param_buffer = CONTEXT.RawArray(
            "b", max(1, self._param_count * self._param_dtype.itemsize))
        #: Messages sent to each worker whose reply has not yet arrived,
        #: in send order — exactly what must be re-dispatched after a
        #: respawn ("batches" uploads are re-sent from _last_batches
        #: instead, so they are not tracked here).
        self._outstanding: Dict[int, List[tuple]] = {
            rank: [] for rank in range(num_workers)}
        self._last_batches: Optional[list] = None
        # The restart budget covers only faults after start-up.
        self._workers: List[SupervisedWorker] = start_farm(
            num_workers, "gradient", _worker_main,
            (pickle.dumps((model, loss)), self._param_buffer,
             self._param_dtype.str, self._param_count))

    # ------------------------------------------------------------------ #
    def _recover(self, rank: int, reason: str) -> None:
        """Replace a dead/hung worker and re-dispatch its unanswered work.

        The replacement is started from the same pickled payload and the
        same shared parameter buffer; the batch cache is re-uploaded and the
        rank's outstanding messages are re-sent in their original order —
        and since the buffer is never rewritten while their group is in
        flight, the recomputed gradients are bit-identical to what the dead
        worker would have produced.
        """
        worker = self._workers[rank]
        while True:
            worker.respawn(self._restart_budget, reason)
            try:
                if self._last_batches is not None:
                    worker.send(("batches", self._last_batches))
                    reply = worker.recv_within(self._policy.deadline())
                    if reply[0] == "error":  # pragma: no cover - upload bug
                        raise RuntimeError(
                            f"gradient worker {rank} rejected its batch "
                            f"re-upload after a respawn:\n{reply[1]}")
                for message in self._outstanding[rank]:
                    worker.send(message)
                return
            except (WorkerDied, WorkerTimedOut) as error:
                reason = f"respawned worker {rank} failed again: {error}"

    def _expect_ok(self, rank: int, tasks_queued: int = 1):
        """Receive one reply from ``rank``, recovering from farm faults.

        Returns the worker's ``("ok", ...)`` tuple; an in-task ``("error",
        traceback)`` reply raises (deterministic failures are not retried).
        Worker death or a task timeout triggers :meth:`_recover` and the
        receive is retried against the replacement.
        """
        while True:
            worker = self._workers[rank]
            try:
                reply = worker.recv_within(
                    self._policy.deadline(tasks_queued))
            except (WorkerDied, WorkerTimedOut) as error:
                self._recover(rank, str(error))
                continue
            if self._outstanding[rank]:
                self._outstanding[rank].pop(0)
            if reply[0] == "error":
                raise RuntimeError(
                    f"gradient worker {rank} failed:\n{reply[1]}")
            return reply

    def _send_tracked(self, rank: int, message: tuple) -> None:
        """Send a step message, recovering if the worker is already dead."""
        while True:
            try:
                self._workers[rank].send(message)
            except WorkerDied as error:
                self._recover(rank, str(error))
                continue
            self._outstanding[rank].append(message)
            return

    # ------------------------------------------------------------------ #
    def set_batches(self, batches: Sequence) -> None:
        """Broadcast the batch list to every worker (replacing its cache)."""
        self._last_batches = list(batches)
        acknowledged = set()
        for rank in range(self.num_workers):
            try:
                self._workers[rank].send(("batches", self._last_batches))
            except WorkerDied as error:
                # Recovery re-uploads the cache and consumes the ack itself.
                self._recover(rank, str(error))
                acknowledged.add(rank)
        for rank in range(self.num_workers):
            if rank in acknowledged:
                continue
            worker = self._workers[rank]
            try:
                reply = worker.recv_within(self._policy.deadline())
            except (WorkerDied, WorkerTimedOut) as error:
                self._recover(rank, str(error))
                continue
            if reply[0] == "error":  # pragma: no cover - upload bug
                raise RuntimeError(
                    f"gradient worker {rank} rejected its batch upload:\n"
                    f"{reply[1]}")

    def _submit(self, flat_params: np.ndarray, kind: str, members: list) -> None:
        self._check_idle()
        flat = np.asarray(flat_params, dtype=self._param_dtype).reshape(-1)
        if flat.size != self._param_count:
            raise ValueError(
                f"expected a flat vector of {self._param_count} parameters, "
                f"got {flat.size}")
        np.frombuffer(self._param_buffer, dtype=self._param_dtype,
                      count=self._param_count)[:] = flat
        for position, member in enumerate(members):
            self._send_tracked(position % self.num_workers, (kind, member))
        self._in_flight = len(members)

    def submit_group(self, flat_params: np.ndarray,
                     indices: Sequence[int]) -> None:
        """Dispatch a group of cached-batch indices (round-robin) and return
        immediately; :meth:`collect_group` gathers the gradients.  The
        parameters are published to the shared buffer *now*, so the caller
        may keep mutating its own model afterwards."""
        self._submit(flat_params, "step", [int(i) for i in indices])

    def submit_group_payload(self, flat_params: np.ndarray,
                             batches: Sequence) -> None:
        """Dispatch a group of batches shipped inside the step messages —
        the streaming-trainer path, where batches are transient and never
        uploaded as a cached list."""
        self._submit(flat_params, "step_payload", list(batches))

    def collect_group(self) -> List[GradientResult]:
        """Gather the in-flight group's results, in submission order
        regardless of which worker finishes first, so downstream averaging
        is deterministic."""
        if self._in_flight is None:
            raise RuntimeError("no group in flight")
        count = self._in_flight
        self._in_flight = None
        results: List[GradientResult] = []
        for position in range(count):
            rank = position % self.num_workers
            # The rank's whole unanswered backlog shares one deadline — the
            # reply being waited on may legitimately be queued behind the
            # rank's other still-outstanding tasks.
            reply = self._expect_ok(
                rank, tasks_queued=max(1, len(self._outstanding[rank])))
            results.append((reply[1], reply[2], reply[3]))
        return results

    @property
    def restarts(self) -> int:
        """Total worker respawns this pool has performed (telemetry)."""
        return self._restart_budget.spent

    def close(self) -> None:
        """Shut the workers down (best effort, safe to call repeatedly)."""
        for worker in self._workers:
            worker.close()
        self._workers = []
        self._outstanding = {}

    def __del__(self) -> None:  # pragma: no cover - interpreter shutdown path
        try:
            self.close()
        except Exception:  # noqa: BLE001
            pass


def make_gradient_executor(model: Module, num_workers: int, loss: str = "mse",
                           backend: str = "process",
                           task_timeout: Optional[float] = None):
    """Build the gradient execution engine for data-parallel training.

    ``backend="process"`` returns a :class:`GradientWorkerPool`;
    ``backend="serial"`` returns a :class:`SerialGradientExecutor` with
    identical update semantics (useful on single-core machines and for the
    bit-exact process-vs-serial equivalence tests).  ``task_timeout``
    bounds one gradient task's wall time on the process backend (a hung
    worker is killed and respawned); the serial backend ignores it.
    """
    if backend == "process":
        return GradientWorkerPool(model, num_workers, loss=loss,
                                  task_timeout=task_timeout)
    if backend == "serial":
        return SerialGradientExecutor(model, num_workers, loss=loss)
    raise ValueError(f"unknown parallel backend '{backend}' (use 'process' or 'serial')")
