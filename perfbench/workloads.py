"""The benchmark's three workloads.

Each workload builds its inputs from the benchmark seed in :meth:`setup`
(untimed, repeated to measure ``setup_s``), runs one timed repeat of the
program in :meth:`timed`, and checks that repeat's outputs in
:meth:`verify`.  The program only ever sees the generated inputs; model
initialisation and trainer shuffling use fixed seeds, so every repeat of a
seed must produce bit-identical results.

Calls into the program go through module attributes (``factory.run_job``,
``trainer.evaluate_model``) so the tracer's patches apply.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import shutil
import time
from typing import Dict, List

import numpy as np

from hoststamp import cpu_seconds
from repro.datasets import factory
from repro.datasets.generator import DatasetConfig, DatasetGenerator
from repro.datasets.sharded import MANIFEST_NAME, ShardedDatasetReader
from repro.models import trainer as trainer_module
from repro.models.config import RouteNetConfig
from repro.models.extended import ExtendedRouteNet
from repro.models.routenet import RouteNet
from repro.nn.parallel import GradientWorkerPool
from repro.topology.geant2 import geant2_topology
from repro.topology.nsfnet import nsfnet_topology

__all__ = ["WORKLOADS", "Outcome", "Workload", "content_digest",
           "reference_entry"]

GOLDEN_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                           "golden.json")


@dataclasses.dataclass
class Outcome:
    """What one timed repeat did, and what its checks found."""

    samples: float                  #: work done, in samples (× epochs)
    seconds: float                  #: wall time of the measured call
    cpu: float                      #: CPU seconds of the measured call
    fingerprint: tuple              #: must be identical across repeats
    problems: List[str]             #: failed output checks
    attempted: int                  #: operations attempted
    failed: int                     #: quarantined units, retries, restarts
    report: Dict[str, float] = dataclasses.field(default_factory=dict)
    layers: Dict[str, float] = dataclasses.field(default_factory=dict)


def content_digest(samples) -> str:
    """SHA-256 of the decoded sample content: topology queue sizes, routing,
    traffic and targets.  Wall-clock metadata (``sim_wall_seconds``) and
    the shard bytes are excluded, since neither is deterministic."""
    digest = hashlib.sha256()
    for sample in samples:
        queues = sorted(sample.topology.queue_sizes().items())
        digest.update(json.dumps([queues, sample.routing.to_dict()],
                                 sort_keys=True).encode())
        digest.update(np.ascontiguousarray(sample.traffic.matrix,
                                           dtype=np.float64).tobytes())
        for array in (sample.delays, sample.jitters, sample.losses):
            digest.update(b"-" if array is None else
                          np.ascontiguousarray(array, dtype=np.float64).tobytes())
    return digest.hexdigest()


def _measured(call):
    """``(result, wall seconds, CPU seconds)`` of ``call()``; the CPU time
    covers this process and the workers it reaped during the call."""
    cpu = cpu_seconds()
    start = time.perf_counter()
    result = call()
    return result, time.perf_counter() - start, cpu_seconds() - cpu


def _finite_losses(history, problems: List[str]) -> float:
    losses = np.asarray(history.train_loss, dtype=np.float64)
    if losses.size == 0 or not np.all(np.isfinite(losses)):
        problems.append(f"non-finite or missing training losses {losses.tolist()}")
    return float(losses[-1]) if losses.size else float("nan")


class Workload:
    name = ""
    #: One line: why the workload exists and what is warm when timing starts.
    why = ""
    SIZES: Dict[str, dict] = {}

    def __init__(self, size: str = "full") -> None:
        if size not in self.SIZES:
            raise ValueError(f"unknown size {size!r} (choose from {sorted(self.SIZES)})")
        self.size = size
        self.params = self.SIZES[size]

    def setup(self, seed: int, scratch: str):  # pragma: no cover - interface
        raise NotImplementedError

    def timed(self, inputs, scratch: str):  # pragma: no cover - interface
        raise NotImplementedError

    def verify(self, inputs, state) -> Outcome:  # pragma: no cover - interface
        raise NotImplementedError

    def adjust_layers(self, table: Dict[str, float],
                      traced: List[Outcome]) -> None:
        """Fill in per-layer figures that come from the workload's own
        outputs (averaged per traced repeat)."""
        keys = sorted({key for outcome in traced for key in outcome.layers})
        for key in keys:
            table[key] = float(np.mean([o.layers.get(key, 0.0) for o in traced]))


# ---------------------------------------------------------------------- #

class GenSimGeant2(Workload):
    """Packet-level simulation on GEANT2 through the factory farm."""

    name = "gen_sim_geant2"
    why = ("Simulator does nearly all the work, shard commit and catalog a "
           "small share, no training layer runs; warm at t0: imports only")
    SIZES = {
        "full": {"samples": 32, "unit_size": 2, "duration": 0.15, "workers": 2},
        "tiny": {"samples": 4, "unit_size": 1, "duration": 0.05, "workers": 2},
    }
    #: Benchmark seeds map onto this many job seeds, whose expected event
    #: counts and content digests are pinned in golden.json.
    JOB_SEEDS = 8

    def spec(self, job_seed: int) -> factory.DatasetJobSpec:
        return factory.DatasetJobSpec(
            topologies=("geant2",),
            samples_per_scenario=self.params["samples"],
            unit_size=self.params["unit_size"],
            seed=job_seed,
            base_config={"backend": "simulation",
                         "simulation_duration": self.params["duration"]})

    def setup(self, seed: int, scratch: str):
        job_seed = seed % self.JOB_SEEDS
        expected = None
        if self.size == "full":
            with open(GOLDEN_PATH, encoding="utf-8") as handle:
                expected = json.load(handle)[self.name][str(job_seed)]
        return {"spec": self.spec(job_seed), "expected": expected}

    def timed(self, inputs, scratch: str):
        path = os.path.join(scratch, "store")
        status, seconds, cpu = _measured(lambda: factory.run_job(
            inputs["spec"], path, workers=self.params["workers"]))
        return path, status, seconds, cpu

    def verify(self, inputs, state) -> Outcome:
        path, status, seconds, cpu = state
        problems: List[str] = []
        with open(os.path.join(path, MANIFEST_NAME), encoding="utf-8") as handle:
            units = json.load(handle)["catalog"]["units"]
        samples = ShardedDatasetReader(path).read_all()
        digest = content_digest(samples)
        events = int(status["events_processed"])
        quarantined = len(status["quarantined_units"])
        retries = int(status["total_attempts"]) - int(status["done_units"])
        planned = int(inputs["spec"].total_samples)
        if not status["complete"] or quarantined:
            problems.append(f"store incomplete: {status['done_units']}/"
                            f"{status['total_units']} units done, "
                            f"{quarantined} quarantined")
        if len(samples) != planned:
            problems.append(f"store holds {len(samples)} samples, expected {planned}")
        expected = inputs["expected"]
        if expected is not None:
            if events != expected["events_processed"]:
                problems.append(f"events_processed {events} != expected "
                                f"{expected['events_processed']}")
            if digest != expected["content_sha256"]:
                problems.append(f"sample content digest {digest} != expected "
                                f"{expected['content_sha256']}")
        generation = [float(unit["generation_seconds"]) for unit in units]
        simulation = sum(float(unit["sim_wall_seconds"]) for unit in units)
        shard_bytes = sum(os.path.getsize(os.path.join(path, unit["shard"]))
                          for unit in units)
        shutil.rmtree(path)
        return Outcome(
            samples=float(status["samples_written"]), seconds=seconds, cpu=cpu,
            fingerprint=(events, digest), problems=problems,
            attempted=int(status["total_attempts"]),
            failed=quarantined + retries,
            report={"events_processed": events},
            layers={
                "simulate.calls": float(len(samples)),
                "simulate.busy_s": simulation,
                "simulate.events": float(events),
                "simulate.events_per_s": events / simulation if simulation else 0.0,
                "shard_write.calls": float(len(units)),
                "shard_write.busy_s": sum(generation) - simulation,
                "shard_write.bytes": float(shard_bytes),
                "factory.units": float(len(units)),
                "factory.unit_s_p50": float(np.median(generation)),
                "factory.retries": float(retries),
                "factory.quarantined": float(quarantined),
                # run_job's parent-side self time is mostly waiting for the
                # farm; subtract the units' share of it.
                "factory.unit_share_s": sum(generation) / self.params["workers"],
            })

    def adjust_layers(self, table: Dict[str, float],
                      traced: List[Outcome]) -> None:
        super().adjust_layers(table, traced)
        table["factory.busy_s"] -= table.pop("factory.unit_share_s")


# ---------------------------------------------------------------------- #

class TrainGeant2InMem(Workload):
    """In-memory training of the extended model, then unseen-topology eval."""

    name = "train_geant2_inmem"
    why = ("Compiled scan does almost all the work, no simulator/shard/pool; "
           "warm at t0: imports, samples; cold: tensorize memo, scan plans, "
           "eval tensors")
    SIZES = {
        "full": {"train": 24, "eval": 24, "epochs": 2, "batch_size": 4},
        "tiny": {"train": 4, "eval": 2, "epochs": 1, "batch_size": 2},
    }
    #: Offset of the held-out NSFNET stream from the training stream.
    EVAL_SEED_OFFSET = 1_000_003

    def setup(self, seed: int, scratch: str):
        train = DatasetGenerator(geant2_topology(), DatasetConfig(
            num_samples=self.params["train"], seed=seed)).generate()
        held_out = DatasetGenerator(nsfnet_topology(), DatasetConfig(
            num_samples=self.params["eval"],
            seed=seed + self.EVAL_SEED_OFFSET)).generate()
        return {"train": train, "eval": held_out}

    def timed(self, inputs, scratch: str):
        model = ExtendedRouteNet(RouteNetConfig(seed=0))
        trainer = trainer_module.RouteNetTrainer(model, trainer_module.TrainerConfig(
            epochs=self.params["epochs"], batch_size=self.params["batch_size"],
            seed=0))
        history, fit_seconds, cpu = _measured(lambda: trainer.fit(inputs["train"]))
        result, eval_seconds, _ = _measured(lambda: trainer_module.evaluate_model(
            model, inputs["eval"], trainer.normalizer))
        return history, result, fit_seconds, cpu, eval_seconds

    def verify(self, inputs, state) -> Outcome:
        history, result, fit_seconds, cpu, eval_seconds = state
        problems: List[str] = []
        final_loss = _finite_losses(history, problems)
        mre = float(result["mean_relative_error"])
        if not np.isfinite(mre):
            problems.append(f"non-finite delay_mre {mre}")
        trained = len(inputs["train"]) * self.params["epochs"]
        evaluated = len(inputs["eval"])
        return Outcome(
            samples=float(trained), seconds=fit_seconds, cpu=cpu,
            fingerprint=(final_loss, mre), problems=problems,
            attempted=trained + evaluated, failed=0,
            report={"eval_samples_per_s": evaluated / eval_seconds,
                    "delay_mre": mre, "final_loss": final_loss},
            layers={"evaluate.delay_mre": mre})


# ---------------------------------------------------------------------- #

class StreamNsfnetDP(Workload):
    """Out-of-core data-parallel training of the original model."""

    name = "stream_nsfnet_dp"
    why = ("Same training layers used differently: link-only scan, shard "
           "read, tensorize, 2-process pool; warm at t0: imports, store; "
           "cold: tensorize, scan plans, pool")
    SIZES = {
        "full": {"samples": 48, "unit_size": 8, "epochs": 2, "workers": 2},
        "tiny": {"samples": 6, "unit_size": 3, "epochs": 1, "workers": 2},
    }

    def __init__(self, size: str = "full", backend: str = "process") -> None:
        super().__init__(size)
        self.backend = backend

    def setup(self, seed: int, scratch: str):
        path = os.path.join(scratch, "store")
        spec = factory.DatasetJobSpec(
            topologies=("nsfnet",), samples_per_scenario=self.params["samples"],
            unit_size=self.params["unit_size"], seed=seed,
            base_config={"backend": "analytic"})
        factory.run_job(spec, path, workers=1)
        return {"path": path}

    def timed(self, inputs, scratch: str):
        model = RouteNet(RouteNetConfig(seed=0))
        trainer = trainer_module.RouteNetTrainer(model, trainer_module.TrainerConfig(
            epochs=self.params["epochs"], batch_size=1,
            num_workers=self.params["workers"], parallel_backend=self.backend,
            seed=0))
        executors = []
        make_executor = trainer_module.make_gradient_executor

        def recording_executor(*args, **kwargs):
            executor = make_executor(*args, **kwargs)
            executors.append(executor)
            return executor

        # The pool is private to fit(); keep a handle to read its restarts.
        trainer_module.make_gradient_executor = recording_executor
        try:
            history, seconds, cpu = _measured(
                lambda: trainer.fit(dataset_path=inputs["path"]))
        finally:
            trainer_module.make_gradient_executor = make_executor
        return model, history, executors, seconds, cpu

    def verify(self, inputs, state) -> Outcome:
        model, history, executors, seconds, cpu = state
        problems: List[str] = []
        final_loss = _finite_losses(history, problems)
        parameters = hashlib.sha256(model.parameters_vector().tobytes()).hexdigest()
        restarts = sum(executor.restarts for executor in executors
                       if isinstance(executor, GradientWorkerPool))
        # A pool that failed to start degrades fit() to the serial twin.
        fallbacks = sum(1 for executor in executors
                        if self.backend == "process"
                        and not isinstance(executor, GradientWorkerPool))
        trained = self.params["samples"] * self.params["epochs"]
        return Outcome(
            samples=float(trained), seconds=seconds, cpu=cpu,
            fingerprint=(final_loss, parameters), problems=problems,
            attempted=trained, failed=restarts + fallbacks,
            report={"final_loss": final_loss, "pool_restarts": restarts},
            layers={"pool.restarts": float(restarts)})


WORKLOADS = {cls.name: cls for cls in (GenSimGeant2, TrainGeant2InMem,
                                       StreamNsfnetDP)}


def reference_entry(spec: factory.DatasetJobSpec, scratch: str) -> dict:
    """Expected gen_sim_geant2 figures of ``spec``, generated in-process with
    one worker into ``scratch`` (what golden.json records)."""
    try:
        status = factory.run_job(spec, scratch, workers=1)
        samples = ShardedDatasetReader(scratch).read_all()
        return {"events_processed": int(status["events_processed"]),
                "content_sha256": content_digest(samples)}
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
