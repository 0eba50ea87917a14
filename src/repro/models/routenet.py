"""RouteNet and the paper's Extended RouteNet: one message-passing model.

The original RouteNet (Rusek et al., SOSR 2019) is the paper's baseline:

1. every path reads the sequence of states of the links it traverses with a
   recurrent unit (``RNN_P``), starting from the path's current state;
2. every link aggregates (sums) the recurrent outputs produced at the hops
   where it appears, and updates its state through ``RNN_L``;
3. after ``T`` iterations a readout network maps the final path states to
   per-path performance estimates (delay).

Link capacity seeds the link states and per-path traffic the path states;
queue sizes are *not* visible.  The paper's extension (its Section 2) adds a
**node entity**: node states seeded with the (normalised) queue size, a node
update ``RNN_N`` fed with the element-wise sum of the states of the paths
crossing each node, and an ``RNN_P`` that reads the interleaved sequence
``node1 - link1 - node2 - link2 - …`` (``node_i`` is the device whose output
queue the packet occupies before traversing ``link_i``).  ``RNN_L`` and the
readout are unchanged, so any accuracy difference between the two models is
attributable to the node entity — the comparison Fig. 2 of the paper reports.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from repro.datasets.tensorize import TensorizedSample
from repro.models.config import RouteNetConfig
from repro.models.message_passing import (
    MessagePassingIndex,
    aggregate_path_states_per_node,
    build_index,
    build_scan_plan,
    initial_state,
)
from repro.models.readout import ReadoutMLP
from repro.nn import functional as F
from repro.nn.module import Module
from repro.nn.recurrent import GRUCell, run_rnn_over_sequence, scan_rnn
from repro.nn.tensor import Tensor, default_dtype, gather_segment_sum, no_grad, resolve_dtype

__all__ = ["RouteNet", "ExtendedRouteNet"]


class _MessagePassingModel(Module):
    """RouteNet message passing, with the node entity when ``has_nodes``.

    Without nodes ``RNN_P`` reads one link state per hop (stride 1); with
    nodes a node state and then a link state per hop (stride 2), and only
    the link steps send messages to ``RNN_L``.
    """

    has_nodes = False

    def __init__(self, config: Optional[RouteNetConfig] = None) -> None:
        super().__init__()
        self.config = config if config is not None else RouteNetConfig()
        if self.has_nodes and self.config.link_state_dim != self.config.node_state_dim:
            raise ValueError(
                "the interleaved path update requires link_state_dim == node_state_dim")
        #: Resolved floating precision of parameters and hidden states.
        self.dtype = resolve_dtype(self.config.dtype)
        rng = np.random.default_rng(self.config.seed)
        with default_dtype(self.dtype):
            # RNN_P: reads the states along the path, carrying the path state.
            self.path_update = GRUCell(self.config.link_state_dim,
                                       self.config.path_state_dim, rng=rng)
            # RNN_L: updates a link state from the aggregated path messages.
            self.link_update = GRUCell(self.config.path_state_dim,
                                       self.config.link_state_dim, rng=rng)
            if self.has_nodes:
                # RNN_N: updates a node state from the summed states of the
                # paths crossing it.
                self.node_update = GRUCell(self.config.path_state_dim,
                                           self.config.node_state_dim, rng=rng)
            self.readout = ReadoutMLP(self.config.path_state_dim,
                                      hidden_sizes=self.config.readout_hidden_sizes,
                                      activation=self.config.readout_activation,
                                      output_positive=self.config.output_positive,
                                      rng=rng)

    # ------------------------------------------------------------------ #
    def forward(self, sample: TensorizedSample) -> Tensor:
        """Predict (normalised) per-path delays for one sample."""
        index = build_index(sample)
        link_states = initial_state(sample.link_features, self.config.link_state_dim,
                                    dtype=self.dtype)
        node_states = None
        if self.has_nodes:
            node_features = sample.node_features
            if not self.use_node_features:
                node_features = np.zeros_like(node_features)
            node_states = initial_state(node_features, self.config.node_state_dim,
                                        dtype=self.dtype)
        path_states = initial_state(sample.path_features, self.config.path_state_dim,
                                    dtype=self.dtype)

        for _ in range(self.config.message_passing_iterations):
            path_states, link_states, node_states = self._message_passing_step(
                sample, index, path_states, link_states, node_states)

        return self.readout(path_states)

    # ------------------------------------------------------------------ #
    def _message_passing_step(self, sample: TensorizedSample, index: MessagePassingIndex,
                              path_states: Tensor, link_states: Tensor,
                              node_states: Optional[Tensor]):
        # The states RNN_P reads at every hop, in reading order.
        sources = (node_states, link_states) if self.has_nodes else (link_states,)
        if self.config.scan_mode in ("stream", "compiled"):
            # Streaming checkpointed scan: each step gathers its inputs on the
            # fly and the link steps scatter their outputs straight into the
            # per-link accumulators.  "compiled" runs it through the plan's
            # precompiled step-kernel spec.
            plan = build_scan_plan(sample, index, interleaved=self.has_nodes)
            compiled = plan.compiled() if self.config.scan_mode == "compiled" else None
            link_messages, new_path_states = scan_rnn(
                self.path_update, sources, plan.step_sources,
                plan.step_rows, plan.mask, initial_state=path_states,
                scatter=plan.scatter, compiled=compiled)
        else:
            # Stacked formulation: scan RNN_P over the gathered sequence, then
            # one fused gather + segment-sum adds the output right after each
            # link is read (position p*stride + stride-1) to its message.
            stride = len(sources)
            sequence, mask = self._gather_sequence(sample, sources)
            outputs, new_path_states = run_rnn_over_sequence(
                self.path_update, sequence, mask, initial_state=path_states)
            link_messages = gather_segment_sum(
                outputs, (index.entry_path_ids, index.entry_positions * stride + stride - 1),
                index.entry_link_ids, index.num_links)
        new_link_states = self.link_update(link_messages, link_states)
        if not self.has_nodes:
            return new_path_states, new_link_states, None

        # Node update: element-wise sum of the states of the paths crossing
        # each node, fed to RNN_N with the node state as hidden state.
        node_messages = aggregate_path_states_per_node(new_path_states, index)
        return new_path_states, new_link_states, self.node_update(node_messages, node_states)

    def _gather_sequence(self, sample: TensorizedSample,
                         sources: Tuple[Tensor, ...]) -> Tuple[Tensor, np.ndarray]:
        # One fancy-index gather per source gives its per-hop states (padded
        # positions read row 0 and are masked out by the scan); stacking them
        # on a new axis and flattening it interleaves node1-link1-node2-….
        rows = ((sample.node_sequences, sample.link_sequences) if self.has_nodes
                else (sample.link_sequences,))
        parts = [source.gather(source_rows) for source, source_rows in zip(sources, rows)]
        num_paths, max_len = sample.link_sequences.shape
        sequence = F.stack(parts, axis=2).reshape(num_paths, len(parts) * max_len, -1)
        return sequence, np.repeat(sample.sequence_mask, len(parts), axis=1)

    # ------------------------------------------------------------------ #
    def predict(self, sample: TensorizedSample) -> np.ndarray:
        """Inference helper returning a NumPy array (no autograd graph)."""
        was_training = self.training
        self.eval()
        try:
            with no_grad():
                predictions = self.forward(sample)
        finally:
            self.train(was_training)
        return predictions.data.copy()


class RouteNet(_MessagePassingModel):
    """Original RouteNet: link and path entities only."""


class ExtendedRouteNet(_MessagePassingModel):
    """RouteNet extended with a node entity carrying per-device features."""

    has_nodes = True

    def __init__(self, config: Optional[RouteNetConfig] = None,
                 use_node_features: bool = True) -> None:
        super().__init__(config)
        #: When False, queue-size features are zeroed out before entering the
        #: node states — the ablation used to show the accuracy gain comes
        #: from the node feature itself, not merely from extra parameters.
        self.use_node_features = use_node_features
