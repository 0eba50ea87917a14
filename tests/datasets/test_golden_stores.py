"""Golden store checksums: a store's bytes are a pinned function of its
inputs.

Every shard of three small stores is pinned by SHA-256: an analytic
factory job, ``save_dataset(shards=2)`` of fixed samples, and a
simulation factory job (run on one and on two workers).  One job spec's
fingerprint, which ``--resume`` matches stored catalogs against, is
pinned as well.  A refactor of the simulator, the generator, the sample
encoder or the shard writer must leave every pin as it is.  An intended
change of the output must bump ``repro.version.__version__`` (the
catalog's ``simulator_version``) and update the pins in the same change.
"""

import json
import os

import pytest

from repro.datasets import (
    DatasetConfig,
    DatasetJobSpec,
    generate_dataset,
    run_job,
    save_dataset,
)
from repro.datasets.sharded import MANIFEST_NAME, file_sha256
from repro.topology import ring_topology

ANALYTIC_JOB = dict(topologies=("ring:4",), samples_per_scenario=4,
                    unit_size=2, seed=5,
                    base_config={"small_queue_fraction": 0.5})

SIMULATION_JOB = dict(topologies=("ring:4",), samples_per_scenario=2,
                      unit_size=1, seed=5,
                      base_config={"backend": "simulation",
                                   "simulation_duration": 0.05})

ANALYTIC_FINGERPRINT = (
    '{"axes": {}, "base_config": {"small_queue_fraction": 0.5}, '
    '"payload": "binary", "samples_per_scenario": 4, "seed": 5, '
    '"topologies": ["ring:4"], "unit_size": 2}')

ANALYTIC_SHARDS = {
    "unit-000000.npz":
        "7b0b6d5bc4e1600771d3864a33837628c0993e0ea88e89f918ff908b94bd7647",
    "unit-000001.npz":
        "bd07ce40a60fc81204ac8c141034a8855b109a07e4df8a1939a061726a06e39c",
}

SAVED_SHARDS = {
    "shard-00000.npz":
        "b8927aec1e2abeba771d72b6b5c1a42ba630ff789a178cf6c3225f7b3acf8756",
    "shard-00001.npz":
        "10b029c746d65fb7ac3d0fd50db5d9b4ba513082cb3992e92771996258c22983",
}

SIMULATION_SHARDS = {
    "unit-000000.npz":
        "dfa817c749d4b827cbc84e4db336552077c65e51881c916cc819b52af0e32ea4",
    "unit-000001.npz":
        "916d88afd4ffe3b008be01bc0740368a0314759ff486add7a21c418f9981865b",
}


def shard_digests(path):
    """name -> SHA-256 of the shard bytes on disk, for every listed shard."""
    with open(os.path.join(path, MANIFEST_NAME)) as handle:
        shards = json.load(handle)["shards"]
    return {shard["name"]: file_sha256(os.path.join(path, shard["name"]))
            for shard in shards}


def test_job_spec_fingerprint_is_pinned():
    assert DatasetJobSpec(**ANALYTIC_JOB).fingerprint() == ANALYTIC_FINGERPRINT


def test_analytic_factory_store_is_pinned(tmp_path):
    path = str(tmp_path / "analytic")
    assert run_job(DatasetJobSpec(**ANALYTIC_JOB), path, workers=1)["complete"]
    assert shard_digests(path) == ANALYTIC_SHARDS


def test_saved_store_is_pinned(tmp_path):
    samples = generate_dataset(ring_topology(4),
                               DatasetConfig(num_samples=3, seed=2))
    path = save_dataset(samples, str(tmp_path / "saved"), shards=2)
    assert shard_digests(path) == SAVED_SHARDS


@pytest.mark.parametrize("workers", [1, 2])
def test_simulation_factory_store_is_pinned(tmp_path, workers):
    path = str(tmp_path / "simulation")
    spec = DatasetJobSpec(**SIMULATION_JOB)
    assert run_job(spec, path, workers=workers)["complete"]
    assert shard_digests(path) == SIMULATION_SHARDS
