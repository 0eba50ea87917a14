"""Dataset substrate: samples, generators, tensorisation and storage.

A :class:`~repro.datasets.sample.Sample` bundles one simulated scenario —
topology (with per-node queue sizes), routing scheme, traffic matrix — with
the measured per-path performance (delay, jitter, loss).  Two generators
produce samples:

* :class:`~repro.datasets.simulation.SimulationGroundTruth` runs the
  packet-level simulator (the OMNeT++ substitute) — accurate but slow.
* :class:`~repro.datasets.analytic.AnalyticGroundTruth` evaluates a
  fixed-point M/M/1/K queueing network with measurement noise — fast enough
  to produce the training volumes the benchmarks need.

:mod:`repro.datasets.tensorize` converts samples into the index/feature
arrays the RouteNet models consume, and :mod:`repro.datasets.storage`
persists datasets to disk as a :mod:`sharded <repro.datasets.sharded>`
store of binary npz shards (format 3) that :mod:`repro.datasets.prefetch`
streams batches out of for out-of-core training; the older gzipped JSON
blob (format 1) and JSONL store (format 2) are still read.
"""

from repro.datasets.sample import Sample
from repro.datasets.analytic import AnalyticGroundTruth
from repro.datasets.simulation import SimulationGroundTruth
from repro.datasets.generator import DatasetConfig, DatasetGenerator, generate_dataset
from repro.datasets.normalization import FeatureNormalizer
from repro.datasets.tensorize import TensorizedSample, tensorize_sample
from repro.datasets.batching import bucket_order, make_batches, merge_tensorized_samples
from repro.datasets.splits import train_val_test_split
from repro.datasets.storage import load_dataset, save_dataset
from repro.datasets.sharded import ShardedDatasetReader, is_sharded_store
from repro.datasets.factory import (
    DatasetJobSpec,
    WorkUnit,
    expand_units,
    execute_unit,
    job_status,
    merge_catalogs,
    run_job,
)
from repro.datasets.prefetch import BatchPrefetcher, iter_window_batches

__all__ = [
    "Sample",
    "AnalyticGroundTruth",
    "SimulationGroundTruth",
    "DatasetConfig",
    "DatasetGenerator",
    "generate_dataset",
    "FeatureNormalizer",
    "TensorizedSample",
    "tensorize_sample",
    "bucket_order",
    "make_batches",
    "merge_tensorized_samples",
    "train_val_test_split",
    "save_dataset",
    "load_dataset",
    "ShardedDatasetReader",
    "is_sharded_store",
    "BatchPrefetcher",
    "iter_window_batches",
    "DatasetJobSpec",
    "WorkUnit",
    "expand_units",
    "execute_unit",
    "run_job",
    "job_status",
    "merge_catalogs",
]
