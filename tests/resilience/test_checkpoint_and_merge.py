"""Satellite coverage: atomic trainer checkpoints (metadata embedded in
the npz, so its rename is the single commit point and the `.json` sidecar
is only a human-readable mirror) and the merge guard refusing to mix
simulator versions."""

import dataclasses
import json
import os

import numpy as np
import pytest

from repro.datasets import DatasetConfig, DatasetJobSpec, generate_dataset, merge_catalogs, run_job
from repro.datasets.sharded import MANIFEST_NAME
from repro.models import ExtendedRouteNet, RouteNetConfig, RouteNetTrainer, TrainerConfig
from repro.topology import ring_topology
from repro.version import __version__


def _toy_trainer() -> RouteNetTrainer:
    model = ExtendedRouteNet(RouteNetConfig(
        link_state_dim=6, path_state_dim=6, node_state_dim=6,
        message_passing_iterations=2, seed=5))
    return RouteNetTrainer(model, TrainerConfig(
        epochs=1, learning_rate=0.005, batch_size=2, seed=5))


@pytest.fixture(scope="module")
def samples():
    return generate_dataset(ring_topology(4),
                            DatasetConfig(num_samples=4, seed=3,
                                          small_queue_fraction=0.5))


class TestAtomicCheckpoint:
    def test_loads_with_the_sidecar_deleted(self, tmp_path, samples):
        trainer = _toy_trainer()
        trainer.fit(samples)
        path = trainer.save_checkpoint(str(tmp_path / "ckpt"))
        sidecar = path[: -len(".npz")] + ".json"
        assert os.path.isfile(sidecar)  # still written, as a mirror
        os.remove(sidecar)

        resumed = _toy_trainer()
        metadata = resumed.load_checkpoint(path)
        assert np.array_equal(resumed.model.parameters_vector(),
                              trainer.model.parameters_vector())
        assert metadata["history"] == trainer.history.as_dict()

    def test_stale_sidecar_is_ignored_in_favour_of_embedded_metadata(
            self, tmp_path, samples):
        """The torn-pair scenario the embedding closes: a sidecar from some
        other checkpoint must never be paired with these weights."""
        trainer = _toy_trainer()
        trainer.fit(samples)
        path = trainer.save_checkpoint(str(tmp_path / "ckpt"))
        sidecar = path[: -len(".npz")] + ".json"
        with open(sidecar, "w") as handle:
            json.dump({"model_class": "SomethingElse", "history": {}}, handle)

        resumed = _toy_trainer()
        metadata = resumed.load_checkpoint(path)  # no model_class complaint
        assert metadata["model_class"] == "ExtendedRouteNet"
        assert metadata["history"] == trainer.history.as_dict()

    def test_legacy_checkpoint_falls_back_to_the_sidecar(self, tmp_path,
                                                         samples):
        trainer = _toy_trainer()
        trainer.fit(samples)
        path = trainer.save_checkpoint(str(tmp_path / "ckpt"))
        # Strip the embedded metadata, simulating a pre-embedding archive.
        with np.load(path) as archive:
            arrays = {key: archive[key] for key in archive.files}
        arrays.pop("meta.json")
        np.savez_compressed(path, **arrays)

        resumed = _toy_trainer()
        metadata = resumed.load_checkpoint(path)
        assert metadata["history"] == trainer.history.as_dict()

        os.remove(path[: -len(".npz")] + ".json")
        with pytest.raises(FileNotFoundError, match="predates embedded"):
            _toy_trainer().load_checkpoint(path)


class TestMergeVersionGuard:
    def test_mismatched_simulator_versions_are_refused_naming_both(
            self, tmp_path):
        spec = DatasetJobSpec(topologies=("ring:4",), samples_per_scenario=2,
                              unit_size=2, seed=1,
                              base_config={"small_queue_fraction": 0.5})
        current = str(tmp_path / "current")
        outdated = str(tmp_path / "outdated")
        run_job(spec, current, workers=1, fit_normalizer=False)
        run_job(dataclasses.replace(spec, seed=2), outdated,
                workers=1, fit_normalizer=False)

        manifest_path = os.path.join(outdated, MANIFEST_NAME)
        with open(manifest_path) as handle:
            manifest = json.load(handle)
        manifest["catalog"]["simulator_version"] = "0.0.0-doctored"
        with open(manifest_path, "w") as handle:
            json.dump(manifest, handle)

        with pytest.raises(ValueError, match="mismatched simulator") as excinfo:
            merge_catalogs([current, outdated], str(tmp_path / "merged"))
        message = str(excinfo.value)
        assert "0.0.0-doctored" in message
        assert __version__ in message
        assert current in message and outdated in message

    def test_matching_versions_still_merge(self, tmp_path):
        spec = DatasetJobSpec(topologies=("ring:4",), samples_per_scenario=2,
                              unit_size=2, seed=1,
                              base_config={"small_queue_fraction": 0.5})
        a, b = str(tmp_path / "a"), str(tmp_path / "b")
        run_job(spec, a, workers=1, fit_normalizer=False)
        run_job(dataclasses.replace(spec, seed=2), b,
                workers=1, fit_normalizer=False)
        status = merge_catalogs([a, b], str(tmp_path / "merged"),
                                fit_normalizer=False)
        assert status["done_units"] == 2
        assert status["simulator_version"] == __version__
