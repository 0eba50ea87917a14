"""The paper's contribution: RouteNet and its node-entity extension.

* :class:`~repro.models.routenet.RouteNet` — the original architecture
  (Rusek et al., SOSR 2019): link and path entities, iterative message
  passing, per-path readout.
* :class:`~repro.models.routenet.ExtendedRouteNet` — the paper's extension:
  a node entity whose state encodes per-device features (queue size), a node
  update RNN fed with the summed states of the paths crossing each node, and
  a path update that reads the interleaved node/link sequence
  (node1-link1-node2-link2-…).

  Both are sibling subclasses of one message-passing implementation in
  :mod:`repro.models.routenet`; :mod:`repro.models.extended` re-exports
  ``ExtendedRouteNet``.
* :class:`~repro.models.trainer.RouteNetTrainer` — supervised training of
  either model on datasets of :class:`~repro.datasets.sample.Sample`.
"""

from repro.models.config import RouteNetConfig
from repro.models.routenet import RouteNet
from repro.models.extended import ExtendedRouteNet
from repro.models.readout import ReadoutMLP
from repro.models.trainer import RouteNetTrainer, TrainerConfig, evaluate_model

__all__ = [
    "RouteNetConfig",
    "RouteNet",
    "ExtendedRouteNet",
    "ReadoutMLP",
    "RouteNetTrainer",
    "TrainerConfig",
    "evaluate_model",
]
