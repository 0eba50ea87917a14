"""Gradient-pool fault recovery.

The acceptance bar: a worker killed or hung mid-run is respawned, its
in-flight work re-dispatched against the same shared parameters and
batch, and the recovered run is **bit-identical** to a fault-free one —
for a single gradient group and for a whole 2-worker training run.  Pool
start-up failure reaps the workers already started and degrades training
to the serial backend with a warning instead of failing the run."""

import json
import multiprocessing as mp

import numpy as np
import pytest

from repro.datasets import DatasetConfig, generate_dataset
from repro.datasets.batching import make_batches
from repro.datasets.normalization import FeatureNormalizer
from repro.models import ExtendedRouteNet, RouteNetConfig, RouteNetTrainer, TrainerConfig
from repro.nn.parallel import GradientWorkerPool, SerialGradientExecutor
from repro.testing.faults import ENV_MARKER_DIR, ENV_PLAN
from repro.topology import ring_topology


def _toy_model(seed: int = 5) -> ExtendedRouteNet:
    return ExtendedRouteNet(RouteNetConfig(
        link_state_dim=6, path_state_dim=6, node_state_dim=6,
        message_passing_iterations=2, seed=seed))


def _toy_samples(count: int = 4, seed: int = 3):
    return generate_dataset(ring_topology(4),
                            DatasetConfig(num_samples=count, seed=seed,
                                          small_queue_fraction=0.5))


def _toy_batches():
    samples = _toy_samples()
    normalizer = FeatureNormalizer().fit(samples)
    return make_batches([normalizer.tensorize(s) for s in samples], 2)


def _arm(monkeypatch, tmp_path, specs):
    """Plant a fault plan in the environment (inherited by pool workers)."""
    monkeypatch.setenv(ENV_PLAN, json.dumps(specs))
    monkeypatch.setenv(ENV_MARKER_DIR, str(tmp_path / "markers"))


def _run_group_results(executor, batches):
    executor.set_batches(batches)
    model = _toy_model()
    return executor.run_group(model.parameters_vector(), [0, 1])


def test_killed_worker_is_respawned_and_results_are_bit_identical(
        tmp_path, monkeypatch):
    """`pool.step.start` kill of rank 0's first task: the supervisor reaps
    the corpse, respawns it, re-uploads the batch cache and re-sends the
    step — same shared parameters, same batch, bit-identical gradient."""
    batches = _toy_batches()
    with SerialGradientExecutor(_toy_model(), num_workers=2) as serial:
        expected = _run_group_results(serial, batches)

    _arm(monkeypatch, tmp_path, [{"site": "pool.step.start", "kind": "die",
                                  "match": {"rank": 0, "step": 0},
                                  "once": True, "id": "kill-rank0"}])
    with GradientWorkerPool(_toy_model(), num_workers=2) as pool:
        recovered = _run_group_results(pool, batches)
        assert pool.restarts == 1
        # The marker proves the fault actually fired (in the dead worker).
        assert (tmp_path / "markers" / "fired-kill-rank0").is_file()

    for (grad_r, loss_r, paths_r), (grad_e, loss_e, paths_e) in \
            zip(recovered, expected):
        assert np.array_equal(grad_r, grad_e)
        assert loss_r == loss_e
        assert paths_r == paths_e


def test_hung_worker_is_killed_after_task_timeout_and_work_redone(
        tmp_path, monkeypatch):
    batches = _toy_batches()
    with SerialGradientExecutor(_toy_model(), num_workers=2) as serial:
        expected = _run_group_results(serial, batches)

    _arm(monkeypatch, tmp_path, [{"site": "pool.step.start", "kind": "hang",
                                  "seconds": 60.0,
                                  "match": {"rank": 1, "step": 0},
                                  "once": True, "id": "hang-rank1"}])
    with GradientWorkerPool(_toy_model(), num_workers=2,
                            task_timeout=2.0) as pool:
        recovered = _run_group_results(pool, batches)
        assert pool.restarts == 1

    for (grad_r, _, _), (grad_e, _, _) in zip(recovered, expected):
        assert np.array_equal(grad_r, grad_e)


def _fit(samples, **config_overrides):
    parameters = dict(epochs=2, learning_rate=0.005, batch_size=2,
                      num_workers=2, seed=5)
    parameters.update(config_overrides)
    trainer = RouteNetTrainer(_toy_model(), TrainerConfig(**parameters))
    trainer.fit(samples)
    return trainer


def test_training_run_with_injected_worker_kill_is_bit_identical(
        tmp_path, monkeypatch):
    """The tentpole acceptance criterion for the training farm: a 2-worker
    fit whose rank-0 worker is killed mid-epoch produces the same weights
    and loss history, bit for bit, as the fault-free run."""
    samples = _toy_samples(count=6)
    clean = _fit(samples)

    _arm(monkeypatch, tmp_path, [{"site": "pool.step.start", "kind": "die",
                                  "match": {"rank": 0, "step": 1},
                                  "once": True, "id": "kill-mid-training"}])
    faulted = _fit(samples)
    assert (tmp_path / "markers" / "fired-kill-mid-training").is_file()

    assert faulted.history.train_loss == clean.history.train_loss
    assert faulted.history.epochs == clean.history.epochs
    assert np.array_equal(faulted.model.parameters_vector(),
                          clean.model.parameters_vector())


def test_pool_startup_failure_falls_back_to_serial_with_warning(monkeypatch):
    import repro.models.trainer as trainer_module

    real = trainer_module.make_gradient_executor

    def refuse_process_backend(model, num_workers, **kwargs):
        if kwargs.get("backend", "process") == "process":
            raise RuntimeError("injected start-up failure")
        return real(model, num_workers, **kwargs)

    samples = _toy_samples()
    reference = _fit(samples, epochs=1, parallel_backend="serial")

    monkeypatch.setattr(trainer_module, "make_gradient_executor",
                        refuse_process_backend)
    with pytest.warns(RuntimeWarning, match="falling back to the serial"):
        degraded = _fit(samples, epochs=1)

    assert degraded.history.train_loss == reference.history.train_loss
    assert np.array_equal(degraded.model.parameters_vector(),
                          reference.model.parameters_vector())


#: Start-up fault kinds and the error each one raises for rank 1.
STARTUP_FAULTS = {"fail": "failed to start", "die": "died during start-up"}


def _fail_rank1_startup(monkeypatch, kind):
    monkeypatch.setenv(ENV_PLAN, json.dumps(
        [{"site": "supervision.worker.start", "kind": kind,
          "match": {"rank": 1}}]))


@pytest.mark.parametrize("kind", sorted(STARTUP_FAULTS))
def test_failed_startup_reaps_the_workers_already_started(monkeypatch, kind):
    """Rank 1 fails to start: the pool raises, and rank 0 — already up —
    is reaped rather than left running as an orphan."""
    _fail_rank1_startup(monkeypatch, kind)
    with pytest.raises(RuntimeError,
                       match=f"gradient worker 1 {STARTUP_FAULTS[kind]}"):
        GradientWorkerPool(_toy_model(), num_workers=2)
    assert mp.active_children() == []


@pytest.mark.parametrize("kind", sorted(STARTUP_FAULTS))
def test_fit_with_a_failed_worker_startup_trains_serially_bit_identically(
        monkeypatch, kind):
    samples = _toy_samples()
    reference = _fit(samples, epochs=1, parallel_backend="serial")

    _fail_rank1_startup(monkeypatch, kind)
    with pytest.warns(RuntimeWarning, match="falling back to the serial"):
        degraded = _fit(samples, epochs=1)
    assert mp.active_children() == []

    assert degraded.history.train_loss == reference.history.train_loss
    assert np.array_equal(degraded.model.parameters_vector(),
                          reference.model.parameters_vector())
