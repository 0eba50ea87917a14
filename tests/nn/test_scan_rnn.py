"""Gradient and equivalence checks for the streaming checkpointed RNN scan.

:func:`repro.nn.recurrent.scan_rnn` replaces the stacked masked scan with a
checkpoint-and-recompute formulation fused with the per-step aggregation.
Its hand-written joint backward is held against

* float64 central differences (via the reusable gradcheck harness) for the
  GRU cell in both supported precisions, covering input, initial-state
  and parameter gradients;
* the stacked reference formulation (``run_rnn_over_sequence`` +
  ``gather_segment_sum``) which the rest of the suite already verifies —
  forward values and every gradient must agree within rounding;
* structural cases: unused outputs (the loss touching only the aggregated
  messages, or only the final state), multiple gather sources with
  interleaved schedules, full-padding columns, and ``no_grad`` streaming.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.nn import functional as F
from repro.nn.recurrent import (
    GRUCell,
    ScanScatter,
    run_rnn_over_sequence,
    scan_rnn,
)
from repro.nn.tensor import Tensor, gather_segment_sum, make_multi_output, no_grad

from tests.nn.gradcheck import module_gradcheck

DTYPES = ["float64", "float32"]

NUM_PATHS = 3
NUM_STEPS = 4
NUM_ENTITIES = 5
NUM_SEGMENTS = 4
INPUT_DIM = 2

#: Ragged validity: lengths 4 / 2 / 3 — exercises masked and fully-valid steps.
MASK = np.array([[1, 1, 1, 1],
                 [1, 1, 0, 0],
                 [1, 1, 1, 0]], dtype=np.float64)
STEP_ROWS = np.array([[0, 2, 1, 4],
                      [3, 0, 0, 0],
                      [1, 4, 2, 0]], dtype=np.int64)
STEP_SOURCES = np.zeros(NUM_STEPS, dtype=np.int64)


def _scatter_spec() -> ScanScatter:
    """One emission per valid (path, step) entry into a fixed segment."""
    rng = np.random.default_rng(7)
    rows, segment_ids = [], []
    for step in range(NUM_STEPS):
        valid_paths = np.nonzero(MASK[:, step] > 0)[0].astype(np.int64)
        rows.append(valid_paths)
        segment_ids.append(rng.integers(0, NUM_SEGMENTS, size=valid_paths.size,
                                        dtype=np.int64))
    return ScanScatter(rows=rows, segment_ids=segment_ids, num_segments=NUM_SEGMENTS)


SCATTER = _scatter_spec()


def _stacked_reference(cell, source: Tensor, initial: Tensor):
    """The stacked formulation of the identical computation."""
    columns = [source.gather(STEP_ROWS[:, step]) for step in range(NUM_STEPS)]
    sequence = F.stack(columns, axis=1)
    outputs, final = run_rnn_over_sequence(cell, sequence, MASK, initial_state=initial)
    entry_rows = np.concatenate(SCATTER.rows)
    entry_steps = np.concatenate(
        [np.full(SCATTER.rows[s].size, s, dtype=np.int64) for s in range(NUM_STEPS)])
    entry_segments = np.concatenate(SCATTER.segment_ids)
    aggregated = gather_segment_sum(outputs, (entry_rows, entry_steps),
                                    entry_segments, NUM_SEGMENTS)
    return aggregated, final


def _make_cell_factory(cell_cls, hidden: int):
    return lambda: cell_cls(INPUT_DIM, hidden, rng=np.random.default_rng(3))


def _initial_state(cell_cls, hidden: int) -> np.ndarray:
    return np.random.default_rng(11).normal(size=(NUM_PATHS, hidden)) * 0.4


def _source_array() -> np.ndarray:
    return np.random.default_rng(5).normal(size=(NUM_ENTITIES, INPUT_DIM))


# --------------------------------------------------------------------- #
# Central-difference gradchecks (inputs, initial state and parameters)
# --------------------------------------------------------------------- #
@pytest.mark.parametrize("dtype", DTYPES)
@pytest.mark.parametrize("cell_cls,hidden", [(GRUCell, 3)])
def test_scan_rnn_gradcheck_both_outputs(cell_cls, hidden, dtype):
    """Joint backward vs float64 central differences, loss over both outputs."""

    def forward(cell, source, initial):
        aggregated, final = scan_rnn(cell, (source,), STEP_SOURCES, STEP_ROWS,
                                     MASK, initial_state=initial, scatter=SCATTER)
        return F.concat([aggregated.reshape(-1), final.reshape(-1)], axis=0)

    module_gradcheck(_make_cell_factory(cell_cls, hidden),
                     [_source_array(), _initial_state(cell_cls, hidden)],
                     forward=forward, dtype=dtype)


@pytest.mark.parametrize("dtype", DTYPES)
@pytest.mark.parametrize("output_index", [0, 1])
def test_scan_rnn_gradcheck_single_output(output_index, dtype):
    """Gradients stay correct when the loss reaches only one scan output."""

    def forward(cell, source, initial):
        outputs = scan_rnn(cell, (source,), STEP_SOURCES, STEP_ROWS, MASK,
                           initial_state=initial, scatter=SCATTER)
        return outputs[output_index]

    module_gradcheck(_make_cell_factory(GRUCell, 3),
                     [_source_array(), _initial_state(GRUCell, 3)],
                     forward=forward, dtype=dtype)


@pytest.mark.parametrize("dtype", DTYPES)
def test_scan_rnn_gradcheck_no_scatter(dtype):
    """Without a scatter spec the scan reduces to a masked final-state scan."""

    def forward(cell, source, initial):
        aggregated, final = scan_rnn(cell, (source,), STEP_SOURCES, STEP_ROWS,
                                     MASK, initial_state=initial)
        assert aggregated is None
        return final

    module_gradcheck(_make_cell_factory(GRUCell, 3),
                     [_source_array(), _initial_state(GRUCell, 3)],
                     forward=forward, dtype=dtype)


@pytest.mark.parametrize("dtype", DTYPES)
def test_scan_rnn_gradcheck_two_sources_interleaved(dtype):
    """Alternating gather sources (the extended model's schedule shape)."""
    step_sources = np.array([0, 1, 0, 1], dtype=np.int64)
    second_source = np.random.default_rng(13).normal(size=(NUM_ENTITIES, INPUT_DIM))

    def forward(cell, source_a, source_b, initial):
        aggregated, final = scan_rnn(cell, (source_a, source_b), step_sources,
                                     STEP_ROWS, MASK, initial_state=initial,
                                     scatter=SCATTER)
        return F.concat([aggregated.reshape(-1), final.reshape(-1)], axis=0)

    module_gradcheck(_make_cell_factory(GRUCell, 3),
                     [_source_array(), second_source, _initial_state(GRUCell, 3)],
                     forward=forward, dtype=dtype)


# --------------------------------------------------------------------- #
# Equivalence with the stacked formulation
# --------------------------------------------------------------------- #
@pytest.mark.parametrize("cell_cls,hidden", [(GRUCell, 3)])
def test_scan_rnn_matches_stacked_forward_and_gradients(cell_cls, hidden):
    """Streaming forward values and all gradients match the stacked scan."""

    def run(streaming: bool):
        cell = _make_cell_factory(cell_cls, hidden)()
        source = Tensor(_source_array(), requires_grad=True)
        initial = Tensor(_initial_state(cell_cls, hidden), requires_grad=True)
        if streaming:
            aggregated, final = scan_rnn(cell, (source,), STEP_SOURCES, STEP_ROWS,
                                         MASK, initial_state=initial, scatter=SCATTER)
        else:
            aggregated, final = _stacked_reference(cell, source, initial)
        weights = np.random.default_rng(17).normal(
            size=NUM_SEGMENTS * aggregated.shape[1] + initial.data.size)
        combined = F.concat([aggregated.reshape(-1), final.reshape(-1)], axis=0)
        (combined * weights).sum().backward()
        grads = {name: p.grad.copy() for name, p in cell.named_parameters()}
        return (aggregated.data.copy(), final.data.copy(),
                source.grad.copy(), initial.grad.copy(), grads)

    agg_s, final_s, source_s, init_s, params_s = run(streaming=True)
    agg_r, final_r, source_r, init_r, params_r = run(streaming=False)
    np.testing.assert_allclose(agg_s, agg_r, atol=1e-12, rtol=1e-10)
    np.testing.assert_allclose(final_s, final_r, atol=1e-12, rtol=1e-10)
    np.testing.assert_allclose(source_s, source_r, atol=1e-10, rtol=1e-8)
    np.testing.assert_allclose(init_s, init_r, atol=1e-10, rtol=1e-8)
    for name in params_r:
        np.testing.assert_allclose(params_s[name], params_r[name],
                                   atol=1e-10, rtol=1e-8, err_msg=name)


def test_scan_rnn_streams_under_no_grad():
    """Inference path: plain tensors out, no graph, values identical."""
    cell = _make_cell_factory(GRUCell, 3)()
    source = Tensor(_source_array(), requires_grad=True)
    initial = Tensor(_initial_state(GRUCell, 3))
    with no_grad():
        aggregated, final = scan_rnn(cell, (source,), STEP_SOURCES, STEP_ROWS,
                                     MASK, initial_state=initial, scatter=SCATTER)
    assert not aggregated.requires_grad and not final.requires_grad
    assert aggregated._parents == () and final._parents == ()
    reference_agg, reference_final = scan_rnn(cell, (source,), STEP_SOURCES,
                                              STEP_ROWS, MASK, initial_state=initial,
                                              scatter=SCATTER)
    np.testing.assert_allclose(aggregated.data, reference_agg.data, atol=1e-12)
    np.testing.assert_allclose(final.data, reference_final.data, atol=1e-12)


def test_scan_rnn_validates_shapes():
    cell = _make_cell_factory(GRUCell, 3)()
    source = Tensor(_source_array())
    with pytest.raises(ValueError):
        scan_rnn(cell, (source,), STEP_SOURCES, STEP_ROWS[:, :2], MASK)
    with pytest.raises(ValueError):
        scan_rnn(cell, (source,), STEP_SOURCES[:2], STEP_ROWS, MASK)
    with pytest.raises(ValueError):
        scan_rnn(cell, (source,), STEP_SOURCES, STEP_ROWS, MASK[:, :2])
    with pytest.raises(ValueError):
        bad = ScanScatter(rows=SCATTER.rows[:-1], segment_ids=SCATTER.segment_ids[:-1],
                          num_segments=NUM_SEGMENTS)
        scan_rnn(cell, (source,), STEP_SOURCES, STEP_ROWS, MASK, scatter=bad)


# --------------------------------------------------------------------- #
# The multi-output node primitive
# --------------------------------------------------------------------- #
class TestMakeMultiOutput:
    def test_joint_backward_sees_all_output_grads(self):
        parent = Tensor(np.arange(3.0), requires_grad=True)
        received = {}

        def backward(grads):
            received["grads"] = grads
            parent._accumulate(grads[0] + 2.0 * grads[1])

        first, second = make_multi_output(
            [parent.data * 2.0, parent.data * 3.0], [parent], backward)
        (first.sum() + (second * 2.0).sum()).backward()
        g_first, g_second = received["grads"]
        np.testing.assert_allclose(g_first, np.ones(3))
        np.testing.assert_allclose(g_second, 2.0 * np.ones(3))
        np.testing.assert_allclose(parent.grad, np.ones(3) + 2.0 * 2.0 * np.ones(3))

    def test_unused_output_grad_is_none(self):
        parent = Tensor(np.arange(3.0), requires_grad=True)
        received = {}

        def backward(grads):
            received["grads"] = grads
            parent._accumulate(grads[0])

        first, _second = make_multi_output(
            [parent.data * 2.0, parent.data * 3.0], [parent], backward)
        first.sum().backward()
        assert received["grads"][1] is None
        np.testing.assert_allclose(parent.grad, np.ones(3))

    def test_detached_when_no_parent_requires_grad(self):
        parent = Tensor(np.arange(3.0))
        outputs = make_multi_output([parent.data * 2.0], [parent],
                                    lambda grads: None)
        assert not outputs[0].requires_grad
