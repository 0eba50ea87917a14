"""Reproduction of "Towards more realistic network models based on Graph
Neural Networks" (Badia-Sampera et al., CoNEXT 2019).

The package is organised as the paper's system plus every substrate it
depends on:

* :mod:`repro.nn` — NumPy autograd deep-learning framework (TensorFlow
  substitute).
* :mod:`repro.topology`, :mod:`repro.routing`, :mod:`repro.traffic` —
  network description substrates (NSFNET / GEANT2 topologies, routing
  schemes, traffic matrices).
* :mod:`repro.simulator` — packet-level discrete-event simulator (OMNeT++
  substitute) for ground-truth delays.
* :mod:`repro.baselines` — queueing-theory analytic models.
* :mod:`repro.datasets` — sample schema, generators, tensorisation, storage.
* :mod:`repro.models` — the original RouteNet and the paper's Extended
  RouteNet with a node entity (one message-passing implementation serves
  both), plus training utilities.
* :mod:`repro.evaluation` — relative-error CDFs and comparison reports
  (Fig. 2 of the paper).

Quickstart::

    from repro import quick_experiment
    report = quick_experiment()        # trains both models on a tiny dataset
    print(report)
"""

from repro.version import __version__

from repro import analysis, baselines, datasets, evaluation, models, nn, routing, simulator, topology, traffic
from repro.datasets import DatasetConfig, Sample, generate_dataset, train_val_test_split
from repro.models import ExtendedRouteNet, RouteNet, RouteNetConfig, RouteNetTrainer, TrainerConfig
from repro.pipeline import ExperimentResult, quick_experiment, run_fig2_experiment
from repro.topology import geant2_topology, nsfnet_topology

__all__ = [
    "__version__",
    "analysis",
    "nn",
    "topology",
    "routing",
    "traffic",
    "simulator",
    "baselines",
    "datasets",
    "models",
    "evaluation",
    "Sample",
    "DatasetConfig",
    "generate_dataset",
    "train_val_test_split",
    "RouteNet",
    "ExtendedRouteNet",
    "RouteNetConfig",
    "RouteNetTrainer",
    "TrainerConfig",
    "nsfnet_topology",
    "geant2_topology",
    "ExperimentResult",
    "quick_experiment",
    "run_fig2_experiment",
]
