"""Per-layer tracing from outside the program.

The benchmark times calls into each layer's public functions by patching
them where they are looked up (a module that did ``from x import f`` is
patched at ``module.f``, a method on its class).  Nothing under ``src/``
knows about the tracer.

Spans (name, start, end, parent, run id, thread) stay in memory and are
written out when the run ends.  A span's *self time* is its duration minus
the time its direct child spans cover; a layer's ``busy_s`` sums the self
time of its busy spans over every thread of the benchmark process.  Wait
spans (the consumer blocking on the prefetch queue, the parent blocking on
gradient workers) are reported as their own ``*_wait_s`` metrics instead.

Worker processes forked while the patches are installed inherit them; the
wrappers notice the foreign pid and call straight through, so worker-side
time is never recorded here (the factory farm's split comes from the
catalog the store already writes).
"""

from __future__ import annotations

import collections
import contextlib
import dataclasses
import functools
import importlib
import inspect
import json
import os
import threading
import time
from typing import Callable, Dict, List, Optional, Tuple

__all__ = ["LAYERS", "PER_LAYER_METRICS", "Tracer", "layer_table"]


@dataclasses.dataclass(frozen=True)
class Layer:
    name: str
    timed: str                  #: what the layer's spans time
    extras: Tuple[str, ...]     #: metrics beyond calls and busy_s
    moves: str                  #: end-to-end metric and workload it should move


#: The layers the roadmap names, with the end-to-end metric and workload each
#: should move.  ``samples_per_s`` is each workload's headline rate (see
#: BENCHMARK.json); ``eval_samples_per_s`` is a report line of
#: train_geant2_inmem and ``failed`` the result's failure count.  Work saved
#: in a layer also lowers ``cpu_ms_per_sample`` on the same workload; time
#: saved waiting (``*.wait_s``) does not.
LAYERS: Tuple[Layer, ...] = (
    Layer("simulate", "per-unit sim_wall_seconds from the farm's catalog",
          ("simulate.events", "simulate.events_per_s"),
          "samples_per_s on gen_sim_geant2"),
    Layer("shard_write", "catalog generation_seconds - sim_wall_seconds",
          ("shard_write.bytes",),
          "samples_per_s on gen_sim_geant2 (small share)"),
    Layer("factory", "run_job self time minus unit time / workers",
          ("factory.units", "factory.unit_s_p50", "factory.retries",
           "factory.quarantined"),
          "samples_per_s and failed on gen_sim_geant2"),
    Layer("shard_read", "ShardedDatasetReader.__iter__, one span per sample",
          ("shard_read.samples", "shard_read.bytes"),
          "samples_per_s on stream_nsfnet_dp"),
    Layer("tensorize", "FeatureNormalizer.tensorize, prefetch tensorize_sample",
          ("tensorize.cache_hit_ratio",),
          "samples_per_s on stream_nsfnet_dp; eval_samples_per_s on "
          "train_geant2_inmem"),
    Layer("merge", "make_batches, merge_tensorized_samples; "
          "BatchPrefetcher.__next__ as prefetch wait",
          ("prefetch.wait_s",),
          "samples_per_s on stream_nsfnet_dp"),
    Layer("scan_plan", "build_index, build_scan_plan, compile_scan_spec",
          ("scan.valid_row_ratio",),
          "samples_per_s on train_geant2_inmem and stream_nsfnet_dp"),
    Layer("scan", "run_compiled_scan (forward), Tensor.backward (backward)",
          ("scan.fwd_s", "backward.busy_s"),
          "samples_per_s on train_geant2_inmem"),
    Layer("readout_loss", "model forward self time, mse_loss", (),
          "samples_per_s on train_geant2_inmem"),
    Layer("optim", "clip_gradients_by_norm, Adam.step",
          ("optim.steps",),
          "samples_per_s on stream_nsfnet_dp"),
    Layer("pool", "GradientWorkerPool.submit_group*; collect_group as wait",
          ("pool.groups", "pool.collect_wait_s", "pool.bytes_broadcast",
           "pool.restarts"),
          "samples_per_s and failed on stream_nsfnet_dp"),
    Layer("evaluate", "evaluate_model",
          ("evaluate.samples", "evaluate.delay_mre"),
          "eval_samples_per_s on train_geant2_inmem"),
)

#: Whole-run figures of the traced run.
TRACE_METRICS = ("trace.wall_s", "trace.unattributed_s", "trace.overhead_s")

_UNITS = {"events_per_s": "1/s", "bytes": "B", "bytes_broadcast": "B",
          "cache_hit_ratio": "ratio", "valid_row_ratio": "ratio",
          "delay_mre": "ratio"}
_HIGHER = ("events_per_s", "cache_hit_ratio", "valid_row_ratio", "samples",
           "units")


def _metric_spec(name: str) -> dict:
    suffix = name.split(".", 1)[1]
    unit = _UNITS.get(suffix, "s" if suffix.endswith(("_s", "_p50")) else "count")
    return {"name": name, "unit": unit,
            "better": "higher" if suffix in _HIGHER else "lower"}


#: Every per-layer metric, as BENCHMARK.json declares it.
PER_LAYER_METRICS: Tuple[dict, ...] = tuple(
    _metric_spec(name)
    for layer in LAYERS
    for name in (f"{layer.name}.calls", f"{layer.name}.busy_s") + layer.extras
) + tuple(_metric_spec(name) for name in TRACE_METRICS)


# ---------------------------------------------------------------------- #
# Spans and patches
# ---------------------------------------------------------------------- #

#: Span name -> layer.  Spans without a layer (the repeat root, ``fit``)
#: are the unattributed remainder.
SPAN_LAYERS: Dict[str, Optional[str]] = {
    "repeat": None,
    "fit": None,
    "run_job": "factory",
    "shard_read": "shard_read",
    "tensorize": "tensorize",
    "make_batches": "merge",
    "merge": "merge",
    "prefetch_wait": "merge",
    "build_index": "scan_plan",
    "build_scan_plan": "scan_plan",
    "compile_scan_spec": "scan_plan",
    "scan_forward": "scan",
    "backward": "scan",
    "forward": "readout_loss",
    "loss": "readout_loss",
    "clip": "optim",
    "adam_step": "optim",
    "pool_submit": "pool",
    "pool_collect": "pool",
    "evaluate": "evaluate",
}
#: Spans that wait rather than work: their self time goes to these metrics
#: instead of the layer's ``busy_s``.
WAIT_METRICS = {"prefetch_wait": "prefetch.wait_s",
                "pool_collect": "pool.collect_wait_s"}
#: Spans whose self time is also reported on its own.
SPLIT_METRICS = {"scan_forward": "scan.fwd_s", "backward": "backward.busy_s"}
#: Counters reported per repeat as they are.
COUNTED = ("shard_read.samples", "shard_read.bytes", "optim.steps",
           "pool.groups", "pool.bytes_broadcast", "evaluate.samples")

_INHERITED = object()


class Tracer:
    """Records spans and counters for one benchmark process.

    ``install()`` patches the layer boundaries, ``uninstall()`` restores
    them, so untraced and traced repeats run in one process.
    """

    def __init__(self) -> None:
        self.pid = os.getpid()
        self.run_id = ""
        self.spans: List[list] = []
        self.counters: collections.Counter = collections.Counter()
        self._counter_lock = threading.Lock()
        self._local = threading.local()
        self._patches: List[Tuple[object, str, object]] = []
        self._scan_rows: Dict[int, Tuple[object, int, int]] = {}

    # ------------------------------------------------------------------ #
    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def begin(self, name: str) -> list:
        stack = self._stack()
        parent = stack[-1] if stack else None
        # [name, start, end, parent, run id, thread, child time]
        span = [name, time.perf_counter(), None, parent, self.run_id,
                threading.get_ident(), 0.0]
        stack.append(span)
        return span

    def end(self, span: list) -> None:
        span[2] = time.perf_counter()
        self._stack().pop()
        if span[3] is not None:
            span[3][6] += span[2] - span[1]
        self.spans.append(span)

    @contextlib.contextmanager
    def span(self, name: str):
        span = self.begin(name)
        try:
            yield span
        finally:
            self.end(span)

    def count(self, key: str, amount: int = 1) -> None:
        # The prefetch producer thread counts too.
        with self._counter_lock:
            self.counters[key] += amount

    # ------------------------------------------------------------------ #
    def _wrap(self, name: str, fn: Callable,
              hook: Optional[Callable] = None) -> Callable:
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if os.getpid() != tracer.pid:
                return fn(*args, **kwargs)
            span = tracer.begin(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.end(span)
            if hook is not None:
                hook(tracer, args)
            return result
        return traced

    def _wrap_iter(self, name: str, fn: Callable,
                   hook: Callable) -> Callable:
        """Time each ``next()`` of a generator method as one span."""
        tracer = self

        @functools.wraps(fn)
        def traced(owner, *args, **kwargs):
            iterator = fn(owner, *args, **kwargs)
            if os.getpid() != tracer.pid:
                yield from iterator
                return
            on_item = hook(tracer, owner)
            try:
                while True:
                    span = tracer.begin(name)
                    try:
                        item = next(iterator)
                    except StopIteration:
                        return
                    finally:
                        tracer.end(span)
                    on_item()
                    yield item
            finally:
                iterator.close()
        return traced

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer already installed")
        for module_name, attr_path, name, hook in _BOUNDARIES:
            owner = importlib.import_module(module_name)
            *owners, attr = attr_path.split(".")
            for part in owners:
                owner = getattr(owner, part)
            original = getattr(owner, attr)
            if name is None:
                wrapped = hook(self, original)
            elif inspect.isgeneratorfunction(original):
                wrapped = self._wrap_iter(name, original, hook)
            else:
                wrapped = self._wrap(name, original, hook)
            # An inherited method (Adam.step is Optimizer.step) is shadowed
            # on the subclass, and the shadow deleted again on uninstall.
            self._patches.append((owner, attr, vars(owner).get(attr, _INHERITED)))
            setattr(owner, attr, wrapped)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            if original is _INHERITED:
                delattr(owner, attr)
            else:
                setattr(owner, attr, original)

    # ------------------------------------------------------------------ #
    def self_times(self) -> Dict[Tuple[str, bool], Tuple[int, float]]:
        """``(span name, on main thread) -> (count, self seconds)``."""
        main = threading.main_thread().ident
        totals: Dict[Tuple[str, bool], Tuple[int, float]] = {}
        for span in self.spans:
            key = (span[0], span[5] == main)
            count, seconds = totals.get(key, (0, 0.0))
            totals[key] = (count + 1, seconds + (span[2] - span[1]) - span[6])
        return totals

    def write(self, path: str) -> None:
        """Write every span as one JSON line (ids are list positions)."""
        ids = {id(span): index for index, span in enumerate(self.spans)}
        with open(path, "w", encoding="utf-8") as handle:
            for index, span in enumerate(self.spans):
                parent = span[3]
                handle.write(json.dumps({
                    "id": index, "name": span[0], "start": span[1],
                    "end": span[2],
                    "parent": None if parent is None else ids[id(parent)],
                    "run": span[4], "thread": span[5],
                    "self_s": (span[2] - span[1]) - span[6]}) + "\n")


# ---------------------------------------------------------------------- #
# Counter hooks
# ---------------------------------------------------------------------- #

def _count_tensorize_miss(tracer: Tracer, original: Callable) -> Callable:
    """``FeatureNormalizer.tensorize`` builds a miss through the module
    attribute ``repro.datasets.tensorize.tensorize_sample``: count them."""

    @functools.wraps(original)
    def probe(*args, **kwargs):
        if os.getpid() == tracer.pid:
            tracer.count("tensorize.misses")
        return original(*args, **kwargs)
    return probe


def _on_stream_tensorize(tracer: Tracer, args) -> None:
    # The prefetch path has no memo: every call tensorises afresh.
    tracer.count("tensorize.misses")


def _on_scan(tracer: Tracer, args) -> None:
    spec = args[3]
    cached = tracer._scan_rows.get(id(spec))
    if cached is None or cached[0] is not spec:
        active = [plan.valid_count for plan in spec.steps if plan.valid_count]
        cached = (spec, sum(active), spec.num_paths * len(active))
        tracer._scan_rows[id(spec)] = cached
    tracer.count("scan.valid_rows", cached[1])
    tracer.count("scan.rows_stepped", cached[2])


def _on_adam(tracer: Tracer, args) -> None:
    tracer.count("optim.steps")


def _on_submit(tracer: Tracer, args) -> None:
    tracer.count("pool.groups")
    tracer.count("pool.bytes_broadcast", int(args[1].nbytes))


def _on_evaluate(tracer: Tracer, args) -> None:
    tracer.count("evaluate.samples", len(args[1]))


def _on_shard_read(tracer: Tracer, reader) -> Callable[[], None]:
    """Count samples yielded, and each shard's file bytes when entered."""
    first_sample = {}
    position = 0
    for shard in reader.shards:
        size = os.path.getsize(os.path.join(reader.path, shard["name"]))
        first_sample[position] = first_sample.get(position, 0) + size
        position += int(shard["num_samples"])
    yielded = [0]

    def on_item() -> None:
        tracer.count("shard_read.bytes", first_sample.get(yielded[0], 0))
        tracer.count("shard_read.samples")
        yielded[0] += 1
    return on_item


#: (module, attribute path, span name or None for a counter probe, hook)
_BOUNDARIES = (
    ("repro.datasets.factory", "run_job", "run_job", None),
    ("repro.models.trainer", "RouteNetTrainer.fit", "fit", None),
    ("repro.datasets.sharded", "ShardedDatasetReader.__iter__", "shard_read",
     _on_shard_read),
    ("repro.datasets.normalization", "FeatureNormalizer.tensorize",
     "tensorize", None),
    ("repro.datasets.tensorize", "tensorize_sample", None,
     _count_tensorize_miss),
    ("repro.datasets.prefetch", "tensorize_sample", "tensorize",
     _on_stream_tensorize),
    ("repro.models.trainer", "make_batches", "make_batches", None),
    ("repro.datasets.batching", "merge_tensorized_samples", "merge", None),
    ("repro.datasets.prefetch", "merge_tensorized_samples", "merge", None),
    ("repro.datasets.prefetch", "BatchPrefetcher.__next__", "prefetch_wait",
     None),
    ("repro.models.routenet", "build_index", "build_index", None),
    ("repro.models.extended", "build_index", "build_index", None),
    ("repro.models.routenet", "build_scan_plan", "build_scan_plan", None),
    ("repro.models.extended", "build_scan_plan", "build_scan_plan", None),
    ("repro.models.message_passing", "compile_scan_spec", "compile_scan_spec",
     None),
    ("repro.nn.scan_kernels", "run_compiled_scan", "scan_forward", _on_scan),
    ("repro.nn.tensor", "Tensor.backward", "backward", None),
    ("repro.models.routenet", "RouteNet.forward", "forward", None),
    ("repro.models.extended", "ExtendedRouteNet.forward", "forward", None),
    ("repro.models.trainer", "mse_loss", "loss", None),
    ("repro.models.trainer", "clip_gradients_by_norm", "clip", None),
    ("repro.nn.optimizers", "Adam.step", "adam_step", _on_adam),
    ("repro.nn.parallel", "GradientWorkerPool.submit_group", "pool_submit",
     _on_submit),
    ("repro.nn.parallel", "GradientWorkerPool.submit_group_payload",
     "pool_submit", _on_submit),
    ("repro.nn.parallel", "GradientWorkerPool.collect_group", "pool_collect",
     None),
    ("repro.models.trainer", "evaluate_model", "evaluate", _on_evaluate),
)


# ---------------------------------------------------------------------- #
# Aggregation
# ---------------------------------------------------------------------- #

def layer_table(tracer: Tracer, repeats: int) -> Dict[str, float]:
    """Per-layer metrics from the recorded spans, per traced repeat.

    Workload-specific figures (the farm's catalog split, pool restarts,
    delay error, the trace wall and overhead) are filled in by the caller.
    """
    totals = {spec["name"]: 0.0 for spec in PER_LAYER_METRICS}
    for (name, on_main), (count, seconds) in tracer.self_times().items():
        layer = SPAN_LAYERS[name]
        if layer is None:
            if on_main:
                totals["trace.unattributed_s"] += seconds
            continue
        totals[f"{layer}.calls"] += count
        totals[WAIT_METRICS.get(name, f"{layer}.busy_s")] += seconds
        if name in SPLIT_METRICS:
            totals[SPLIT_METRICS[name]] += seconds
    counters = tracer.counters
    for key in COUNTED:
        totals[key] = counters[key]
    table = {name: value / max(repeats, 1) for name, value in totals.items()}
    if totals["tensorize.calls"]:
        table["tensorize.cache_hit_ratio"] = (
            1.0 - counters["tensorize.misses"] / totals["tensorize.calls"])
    if counters["scan.rows_stepped"]:
        table["scan.valid_row_ratio"] = (
            counters["scan.valid_rows"] / counters["scan.rows_stepped"])
    return table
