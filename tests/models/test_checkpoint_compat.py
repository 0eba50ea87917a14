"""Trainer checkpoints written by the former separate model bodies still load.

``RouteNet`` and ``ExtendedRouteNet`` once each carried a full copy of the
message-passing model.  The archives in ``data/`` were written by
:func:`_trained` with those classes, next to each model's predictions on the
held-out sample and the training loss of one further, resumed epoch.  The
shared implementation must load them and reproduce both.
"""

import os

import numpy as np
import pytest

from repro.datasets import DatasetConfig, generate_dataset
from repro.models import ExtendedRouteNet, RouteNet, RouteNetConfig, RouteNetTrainer, TrainerConfig
from repro.topology import ring_topology

DATA = os.path.join(os.path.dirname(__file__), "data")

#: ``SMALL_CONFIG`` of test_routenet_models, pinned to float64.
CONFIG = RouteNetConfig(link_state_dim=6, path_state_dim=6, node_state_dim=6,
                        message_passing_iterations=2, readout_hidden_sizes=(8,),
                        dtype="float64", seed=0)


def _samples():
    """Four training samples and one held-out sample."""
    samples = generate_dataset(ring_topology(5), DatasetConfig(num_samples=5, seed=0))
    return samples[:4], samples[4]


def _trainer(model_cls) -> RouteNetTrainer:
    return RouteNetTrainer(model_cls(CONFIG),
                           TrainerConfig(epochs=1, learning_rate=0.01, batch_size=2,
                                         dtype="float64", seed=0))


def _trained(model_cls) -> RouteNetTrainer:
    """One epoch on the training samples: the state each archive holds."""
    trainer = _trainer(model_cls)
    trainer.fit(_samples()[0])
    return trainer


@pytest.mark.parametrize("model_cls", [RouteNet, ExtendedRouteNet])
def test_checkpoint_predicts_and_resumes(model_cls):
    train, held_out = _samples()
    expected = np.load(os.path.join(DATA, f"{model_cls.__name__}.expected.npz"))
    trainer = _trainer(model_cls)
    trainer.load_checkpoint(os.path.join(DATA, f"{model_cls.__name__}.npz"))
    np.testing.assert_allclose(trainer.predict_delays(held_out), expected["predictions"],
                               rtol=1e-12, atol=0)

    trainer.fit(train)
    assert len(trainer.history.epochs) == 2
    np.testing.assert_allclose(trainer.history.train_loss[-1],
                               expected["resumed_train_loss"], rtol=1e-12, atol=0)
