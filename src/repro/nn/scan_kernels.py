"""Compiled step kernels for the streaming RNN scan.

The interpreted :func:`repro.nn.recurrent.scan_rnn` re-enters the autograd
tape at every hop: each step gathers its input rows, builds a small Tensor
subgraph through the cell, and scatters outputs with ``np.add.at``.  For the
GRU cell nothing in that subgraph is dynamic — the whole scan is a fixed
pipeline of BLAS calls and index moves once the (topology, bucket) is known.
This module compiles that pipeline:

* :func:`compile_scan_spec` turns the per-step index arrays of a
  :class:`~repro.models.message_passing.ScanPlan` into a
  :class:`ScanKernelSpec` — per-step contiguous row indices, invalid-row
  lists, and sort/offset arrays that let every scatter run as
  ``np.add.reduceat`` over presorted segments instead of ``np.add.at``.
  Specs are built once per (topology, bucket) and memoised on the plan.
* :func:`compile_step_kernel` wraps a :class:`~repro.nn.recurrent.GRUCell`
  in a step kernel exposing the cell maths as raw-NumPy forward and
  closed-form VJP routines that write into caller-provided buffers.
* :func:`run_compiled_scan` executes the spec: the input projection
  ``source @ W_in + bias`` is hoisted out of the step loop (one BLAS call
  per source per scan, amortised over every hop that reads it), each step is
  a ``take``-into-buffer + fused cell step + masked restore, and backward
  re-derives each step's gates from the carried-state checkpoint without
  ever building a Tensor graph.  Input gradients accumulate into a
  per-source projection-gradient matrix and are folded into the weight,
  bias and source gradients with one matmul each at the end of the scan.

Other cells fall back to the interpreted scan transparently
(:func:`compile_step_kernel` returns ``None`` for them).
"""

from __future__ import annotations

import dataclasses
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.nn.tensor import (
    _GRAD_BUFFER_POOL,
    Tensor,
    is_grad_enabled,
    make_multi_output,
)

__all__ = [
    "StepPlan",
    "ScanKernelSpec",
    "compile_scan_spec",
    "compile_step_kernel",
    "run_compiled_scan",
    "GRUStepKernel",
]


def _stable_sigmoid(x: np.ndarray) -> np.ndarray:
    # Same branch-free stable formulation as Tensor.sigmoid, so the compiled
    # path reproduces the interpreted scan to rounding error.
    decay = np.exp(-np.abs(x))
    return np.where(x >= 0, 1.0 / (1.0 + decay), decay / (1.0 + decay))


# ---------------------------------------------------------------------------
# Step kernels: raw-NumPy cell maths with closed-form VJPs.
# ---------------------------------------------------------------------------


class GRUStepKernel:
    """Raw-NumPy GRU step over a pre-projected input.

    ``gx`` rows are ``x @ W_in + bias`` (three gates stacked); the kernel
    only adds the recurrent contribution, so the per-step BLAS cost is the
    single ``state @ W_hh`` that the recurrence genuinely requires.
    """

    def __init__(self, cell) -> None:
        self.cell = cell
        self.hidden = cell.hidden_size
        self.weight_input = cell.weight_input
        self.weight_hidden = cell.weight_hidden
        self.bias = cell.bias
        self.gate_width = 3 * cell.hidden_size
        self._dgh_scratch: Optional[np.ndarray] = None

    def project(self, source: np.ndarray) -> np.ndarray:
        return source @ self.weight_input.data + self.bias.data

    def step(self, gx: np.ndarray, state: np.ndarray, out: np.ndarray) -> np.ndarray:
        hidden = self.hidden
        gh = state @ self.weight_hidden.data
        update = _stable_sigmoid(gx[:, :hidden] + gh[:, :hidden])
        reset = _stable_sigmoid(gx[:, hidden:2 * hidden] + gh[:, hidden:2 * hidden])
        candidate = np.tanh(gx[:, 2 * hidden:] + reset * gh[:, 2 * hidden:])
        np.subtract(1.0, update, out=out)
        out *= candidate
        out += update * state
        return out

    def step_backward(self, gx: np.ndarray, state: np.ndarray, d_new: np.ndarray,
                      dgx_out: np.ndarray, d_prev_out: np.ndarray,
                      weight_hidden_grad: np.ndarray) -> None:
        hidden = self.hidden
        weight_hidden = self.weight_hidden.data
        gh = state @ weight_hidden
        gh_candidate = gh[:, 2 * hidden:]
        update = _stable_sigmoid(gx[:, :hidden] + gh[:, :hidden])
        reset = _stable_sigmoid(gx[:, hidden:2 * hidden] + gh[:, hidden:2 * hidden])
        candidate = np.tanh(gx[:, 2 * hidden:] + reset * gh_candidate)

        d_update = dgx_out[:, :hidden]
        d_reset = dgx_out[:, hidden:2 * hidden]
        d_candidate = dgx_out[:, 2 * hidden:]

        # Pre-activation gate gradients, written straight into the dgx view.
        np.multiply(d_new, 1.0 - update, out=d_candidate)
        d_candidate *= 1.0 - candidate * candidate
        np.multiply(d_candidate, gh_candidate, out=d_reset)
        d_reset *= reset * (1.0 - reset)
        np.multiply(d_new, state - candidate, out=d_update)
        d_update *= update * (1.0 - update)

        # The recurrent gate grads differ from dgx only in the candidate
        # block (reset-scaled), so build them in a reused scratch array.
        dgh = self._dgh_scratch
        if dgh is None or dgh.shape != dgx_out.shape or dgh.dtype != dgx_out.dtype:
            dgh = self._dgh_scratch = np.empty_like(dgx_out)
        dgh[:, :2 * hidden] = dgx_out[:, :2 * hidden]
        np.multiply(d_candidate, reset, out=dgh[:, 2 * hidden:])

        np.matmul(dgh, weight_hidden.T, out=d_prev_out)
        d_prev_out += d_new * update
        weight_hidden_grad += state.T @ dgh


def compile_step_kernel(cell):
    """Return a step kernel for ``cell``, or ``None`` if it has no compiled form."""
    from repro.nn import recurrent

    if type(cell) is recurrent.GRUCell:
        return GRUStepKernel(cell)
    return None


# ---------------------------------------------------------------------------
# Scan specs: precompiled per-step index/offset arrays.
# ---------------------------------------------------------------------------


@dataclasses.dataclass
class StepPlan:
    """Precompiled index arrays for one scan step.

    ``in_perm``/``in_starts``/``in_entities`` sort the step's source rows by
    entity so the input-gradient scatter runs as ``np.add.reduceat`` over
    contiguous runs; the ``emit_*`` arrays do the same for the forward
    output scatter (``emit_unique_segments`` are unique, so the follow-up
    fancy ``+=`` is exact).  A step whose mask column is entirely invalid is
    a no-op for both passes and carries ``valid_count == 0`` with every
    index array empty/``None``.
    """

    source: int
    rows: np.ndarray
    valid_count: int
    invalid_rows: Optional[np.ndarray]
    valid_column: Optional[np.ndarray]
    in_perm: Optional[np.ndarray]
    in_starts: Optional[np.ndarray]
    in_entities: Optional[np.ndarray]
    emit_rows: Optional[np.ndarray] = None
    emit_segments: Optional[np.ndarray] = None
    emit_sorted_rows: Optional[np.ndarray] = None
    emit_starts: Optional[np.ndarray] = None
    emit_unique_segments: Optional[np.ndarray] = None


@dataclasses.dataclass
class ScanKernelSpec:
    """Compiled form of a scan plan: one :class:`StepPlan` per step."""

    num_paths: int
    num_steps: int
    has_scatter: bool
    steps: List[StepPlan]
    used_sources: Tuple[int, ...]


def compile_scan_spec(step_sources: np.ndarray, step_rows: np.ndarray,
                      mask: np.ndarray, scatter=None) -> ScanKernelSpec:
    """Precompile the index arrays of a scan into a :class:`ScanKernelSpec`.

    Built once per (topology, bucket) and reused for every forward/backward
    over that batch shape; all sorting and uniqueness analysis happens here
    rather than inside the step loop.
    """
    step_rows = np.asarray(step_rows, dtype=np.int64)
    if step_rows.ndim != 2:
        raise ValueError("step_rows must have shape (num_paths, num_steps)")
    num_paths, num_steps = step_rows.shape
    step_sources = np.asarray(step_sources, dtype=np.int64)
    valid = np.asarray(mask) > 0
    if valid.shape != (num_paths, num_steps):
        raise ValueError(f"mask shape {valid.shape} does not match {(num_paths, num_steps)}")

    steps: List[StepPlan] = []
    used = set()
    for step in range(num_steps):
        source = int(step_sources[step])
        column = valid[:, step]
        valid_count = int(column.sum())
        if valid_count == 0:
            steps.append(StepPlan(
                source=source, rows=np.zeros(0, dtype=np.int64), valid_count=0,
                invalid_rows=None, valid_column=None,
                in_perm=None, in_starts=None, in_entities=None))
            continue

        rows = np.ascontiguousarray(step_rows[:, step])
        in_perm = np.argsort(rows, kind="stable")
        sorted_rows = rows[in_perm]
        in_entities, in_starts = np.unique(sorted_rows, return_index=True)

        fully_valid = valid_count == num_paths
        invalid_rows = None if fully_valid else np.flatnonzero(~column)
        valid_column = None if fully_valid else np.ascontiguousarray(column[:, None])

        plan = StepPlan(
            source=source, rows=rows, valid_count=valid_count,
            invalid_rows=invalid_rows, valid_column=valid_column,
            in_perm=in_perm, in_starts=in_starts, in_entities=in_entities)

        if scatter is not None and scatter.rows[step] is not None \
                and len(scatter.rows[step]) > 0:
            emit_rows = np.asarray(scatter.rows[step], dtype=np.int64)
            emit_segments = np.asarray(scatter.segment_ids[step], dtype=np.int64)
            emit_perm = np.argsort(emit_segments, kind="stable")
            sorted_segments = emit_segments[emit_perm]
            unique_segments, emit_starts = np.unique(sorted_segments, return_index=True)
            plan.emit_rows = emit_rows
            plan.emit_segments = emit_segments
            plan.emit_sorted_rows = emit_rows[emit_perm]
            plan.emit_starts = emit_starts
            plan.emit_unique_segments = unique_segments

        used.add(source)
        steps.append(plan)

    return ScanKernelSpec(
        num_paths=num_paths, num_steps=num_steps,
        has_scatter=scatter is not None, steps=steps,
        used_sources=tuple(sorted(used)))


# ---------------------------------------------------------------------------
# Executor.
# ---------------------------------------------------------------------------


def run_compiled_scan(
    kernel,
    source_tensors: Sequence[Tensor],
    state_tensor: Tensor,
    spec: ScanKernelSpec,
    scatter,
) -> Tuple[Optional[Tensor], Tensor]:
    """Execute a compiled scan spec; mirrors :func:`scan_rnn`'s contract.

    Forward never touches the autograd tape: projections are hoisted to one
    BLAS call per source, each step is a ``take`` into a reused gate buffer
    plus the kernel's fused step, and emission uses presorted
    ``np.add.reduceat``.  Backward walks the carried-state checkpoints in
    reverse through the kernel's closed-form VJPs, accumulating input
    gradients into per-source projection-gradient matrices that are folded
    into the weight/bias/source gradients once per scan.
    """
    num_paths = spec.num_paths
    state = state_tensor.data
    initial_array = state
    state_size = state.shape[1]
    dtype = state.dtype

    parameters = tuple(kernel.cell.parameters())
    parents = tuple(source_tensors) + (state_tensor,) + parameters
    grad_needed = is_grad_enabled() and any(p.requires_grad for p in parents)

    projections = {s: kernel.project(source_tensors[s].data) for s in spec.used_sources}
    gx = np.empty((num_paths, kernel.gate_width), dtype=dtype)
    aggregated = (np.zeros((scatter.num_segments, state_size), dtype=dtype)
                  if scatter is not None else None)

    checkpoints: Optional[List[np.ndarray]] = [] if grad_needed else None
    spare: Optional[np.ndarray] = None
    for plan in spec.steps:
        if plan.valid_count == 0:
            # Nothing advances: carry the state array itself as the
            # checkpoint (backward skips the step symmetrically).
            if checkpoints is not None:
                checkpoints.append(state)
            continue
        if grad_needed:
            # Checkpoints must persist until backward — every step needs a
            # fresh output array.
            checkpoints.append(state)
            out = np.empty_like(state)
        elif spare is not None:
            out = spare
            spare = None
        else:
            out = np.empty_like(state)
        np.take(projections[plan.source], plan.rows, axis=0, out=gx)
        kernel.step(gx, state, out)
        if plan.invalid_rows is not None:
            out[plan.invalid_rows] = state[plan.invalid_rows]
        if not grad_needed and state is not initial_array:
            # Inference double-buffers: the consumed state becomes the next
            # step's output buffer (the caller's initial state is never
            # recycled).
            spare = state
        state = out
        if aggregated is not None and plan.emit_starts is not None:
            sums = np.add.reduceat(state[plan.emit_sorted_rows], plan.emit_starts,
                                   axis=0)
            aggregated[plan.emit_unique_segments] += sums

    final_state = state

    if not grad_needed:
        if scatter is None:
            return None, Tensor(final_state)
        return Tensor(aggregated), Tensor(final_state)

    weight_input = kernel.weight_input
    weight_hidden = kernel.weight_hidden
    bias = kernel.bias

    def joint_backward(grads: Tuple[Optional[np.ndarray], ...]) -> None:
        if scatter is None:
            aggregated_grad, final_grad = None, grads[0]
        else:
            aggregated_grad, final_grad = grads
        if final_grad is not None:
            state_grad = np.array(final_grad, dtype=dtype, copy=True)
        else:
            state_grad = np.zeros_like(final_state)

        d_prev = np.empty_like(state_grad)
        dgx = np.empty((num_paths, kernel.gate_width), dtype=dtype)
        dgx_sorted = np.empty_like(dgx)
        projection_grads = {s: np.zeros_like(projections[s])
                            for s in spec.used_sources}
        weight_hidden_grad = np.zeros_like(weight_hidden.data)

        for plan, checkpoint in zip(reversed(spec.steps), reversed(checkpoints)):
            if plan.valid_count == 0:
                continue
            if aggregated_grad is not None and plan.emit_rows is not None:
                # Each valid path emits exactly one row per step, so the
                # rows are unique and a fancy-index += is exact.
                state_grad[plan.emit_rows] += aggregated_grad[plan.emit_segments]

            np.take(projections[plan.source], plan.rows, axis=0, out=gx)
            if plan.invalid_rows is None:
                d_new = state_grad
            else:
                d_new = _GRAD_BUFFER_POOL.take(state_grad.shape, state_grad.dtype)
                np.multiply(state_grad, plan.valid_column, out=d_new)
            kernel.step_backward(gx, checkpoint, d_new, dgx, d_prev,
                                 weight_hidden_grad)
            if plan.invalid_rows is not None:
                _GRAD_BUFFER_POOL.give(d_new)
                # Masked-out rows carry their gradient past this step.
                d_prev[plan.invalid_rows] += state_grad[plan.invalid_rows]

            np.take(dgx, plan.in_perm, axis=0, out=dgx_sorted)
            projection_grads[plan.source][plan.in_entities] += \
                np.add.reduceat(dgx_sorted, plan.in_starts, axis=0)

            state_grad, d_prev = d_prev, state_grad

        state_tensor._accumulate(state_grad)
        for s in spec.used_sources:
            projection_grad = projection_grads[s]
            source = source_tensors[s]
            if weight_input.requires_grad:
                weight_input._accumulate(source.data.T @ projection_grad)
            if bias.requires_grad:
                bias._accumulate(projection_grad.sum(axis=0))
            if source.requires_grad:
                source._accumulate(projection_grad @ weight_input.data.T)
        if weight_hidden.requires_grad:
            weight_hidden._accumulate(weight_hidden_grad)

    if scatter is None:
        (final_out,) = make_multi_output([final_state], parents, joint_backward)
        return None, final_out
    aggregated_out, final_out = make_multi_output(
        [aggregated, final_state], parents, joint_backward)
    return aggregated_out, final_out
