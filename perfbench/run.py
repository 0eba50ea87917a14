#!/usr/bin/env python3
"""Repository benchmark: one command, three workloads, checked outputs.

Usage (from the repository root)::

    python3 perfbench/run.py --workload gen_sim_geant2 --seed 1 --seconds 10 --trace 0

``--trace 0`` measures with tracing off and reports the end-to-end metrics
of BENCHMARK.json.  ``--trace 1`` alternates untraced and traced repeats and
reports the per-layer metrics from the traced ones, plus the wall time no
layer accounts for and the tracing overhead (traced minus untraced wall).

Every repeat's outputs are checked; a failed check prints the result with
``"correct": false`` and exits 1.  The last line of standard output is the
result as one JSON object.  Spans and a full result record (with the host
stamp) are written under ``.perfbench/`` in the repository root.
"""

from __future__ import annotations

import time

_PROCESS_START = time.perf_counter()

import argparse  # noqa: E402
import contextlib  # noqa: E402
import json  # noqa: E402
import multiprocessing  # noqa: E402
import os  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SOURCE = os.path.join(ROOT, "src")
OUTPUT = os.path.join(ROOT, ".perfbench")

#: Set-ups per run; ``setup_s`` reports their median (plus the imports).
SETUP_REPEATS = 3
#: Each BLAS pool gets one thread: the parent plus two worker processes
#: already fill the two cores the benchmark host has.
BLAS_THREADS = "1"


def _prepare_environment() -> None:
    from hoststamp import THREAD_VARIABLES

    for variable in THREAD_VARIABLES:
        os.environ[variable] = BLAS_THREADS
    sys.path.insert(0, SOURCE)
    os.environ["PYTHONPATH"] = os.pathsep.join(
        [SOURCE] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p])


def measure(workload, seed: int, seconds: float, trace: bool,
            scratch: str, tracer=None) -> dict:
    """Set up, run timed repeats for ``seconds`` and check every repeat."""
    setup_times = []
    inputs = None
    for index in range(SETUP_REPEATS):
        directory = os.path.join(scratch, f"setup-{index}")
        if index:
            shutil.rmtree(os.path.join(scratch, f"setup-{index - 1}"))
        os.makedirs(directory)
        start = time.perf_counter()
        inputs = workload.setup(seed, directory)
        setup_times.append(time.perf_counter() - start)

    modes = (False, True) if trace else (False,)
    outcomes = {False: [], True: []}
    walls = {False: [], True: []}
    deadline = time.perf_counter() + seconds
    repeat = 0
    while not outcomes[False] or time.perf_counter() < deadline:
        for traced in modes:
            directory = os.path.join(scratch, f"repeat-{repeat}")
            os.makedirs(directory)
            if traced:
                tracer.run_id = f"{workload.name}-seed{seed}-r{repeat}"
                tracer.install()
            try:
                with tracer.span("repeat") if traced else contextlib.nullcontext():
                    start = time.perf_counter()
                    state = workload.timed(inputs, directory)
                    walls[traced].append(time.perf_counter() - start)
            finally:
                if traced:
                    tracer.uninstall()
            outcomes[traced].append(workload.verify(inputs, state))
            shutil.rmtree(directory, ignore_errors=True)
            repeat += 1
    # Every worker the program started must have been stopped and joined.
    leaked = multiprocessing.active_children()
    for child in leaked:
        child.terminate()
        child.join()
    return {"setup_times": setup_times, "outcomes": outcomes, "walls": walls,
            "leaked": [child.name for child in leaked]}


def summarize(workload, measured: dict, import_seconds: float,
              trace: bool, tracer=None) -> dict:
    from hoststamp import peak_rss_mb
    from tracer import layer_table

    every = measured["outcomes"][False] + measured["outcomes"][True]
    problems = [problem for outcome in every for problem in outcome.problems]
    fingerprints = {outcome.fingerprint for outcome in every}
    if len(fingerprints) > 1:
        problems.append(f"repeats of one seed disagree: {sorted(map(str, fingerprints))}")
    if measured["leaked"]:
        problems.append(f"worker processes left running: {measured['leaked']}")
    checks = len(every) + 2
    failed_checks = (sum(1 for outcome in every if outcome.problems)
                     + (len(fingerprints) > 1) + bool(measured["leaked"]))
    attempted = sum(outcome.attempted for outcome in every) + checks
    failed = sum(outcome.failed for outcome in every) + failed_checks

    untraced = measured["outcomes"][False]
    metrics = {
        # The fastest repeat: other tenants' CPU steal on the 2-CPU benchmark VM
        # comes in bursts of seconds that slow a repeat by up to 40%, so a
        # run's median moves with the bursts it overlaps (29% spread over
        # ten seeds on stream_nsfnet_dp in a burst, 14% for the fastest).
        "samples_per_s": (max(o.samples / o.seconds for o in untraced), "1/s"),
        "cpu_ms_per_sample": (statistics.median(1e3 * o.cpu / o.samples
                                                for o in untraced), "ms"),
        "setup_s": (import_seconds + statistics.median(measured["setup_times"]), "s"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
    }
    report = {key: statistics.median(o.report[key] for o in untraced)
              for key in untraced[0].report}
    report["failed_share"] = failed / attempted
    report["repeats"] = len(untraced)
    result = {"problems": problems, "attempted": attempted, "failed": failed,
              "metrics": metrics, "report": report}
    if trace:
        traced = measured["outcomes"][True]
        table = layer_table(tracer, len(traced))
        workload.adjust_layers(table, traced)
        traced_wall = statistics.median(measured["walls"][True])
        table["trace.wall_s"] = traced_wall
        table["trace.overhead_s"] = traced_wall - statistics.median(measured["walls"][False])
        result["layers"] = table
    return result


def format_layers(table: dict) -> str:
    from tracer import LAYERS

    lines = [f"  {'layer':<13}{'calls':>10}{'busy_s':>10}  extras / should move"]
    for layer in LAYERS:
        extras = "  ".join(f"{name}={table[name]:.6g}" for name in layer.extras)
        lines.append(f"  {layer.name:<13}{table[layer.name + '.calls']:>10.6g}"
                     f"{table[layer.name + '.busy_s']:>10.4f}  {extras}")
        lines.append(f"  {'':<15}timed: {layer.timed}; moves: {layer.moves}")
    for name in ("trace.wall_s", "trace.unattributed_s", "trace.overhead_s"):
        lines.append(f"  {name:<23}{table[name]:>10.4f} s")
    return "\n".join(lines)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", default="full",
                        help="input size: full (the benchmark) or tiny (self-tests)")
    args = parser.parse_args(argv)
    if not os.path.isdir(os.path.join(SOURCE, "repro")):
        print(f"perfbench: no program sources at {SOURCE}/repro", file=sys.stderr)
        return 2

    _prepare_environment()
    import hoststamp
    import workloads
    from tracer import PER_LAYER_METRICS, Tracer
    import_seconds = time.perf_counter() - _PROCESS_START

    if args.workload not in workloads.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r} "
              f"(choose from {', '.join(workloads.WORKLOADS)})", file=sys.stderr)
        return 2
    workload = workloads.WORKLOADS[args.workload](args.size)
    tracer = Tracer() if args.trace else None
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    scratch = os.path.join(OUTPUT, f"scratch-{stem}-{os.getpid()}")
    os.makedirs(scratch)
    steal_start = hoststamp.steal_seconds()
    try:
        measured = measure(workload, args.seed, args.seconds, bool(args.trace),
                           scratch, tracer)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    result = summarize(workload, measured, import_seconds, bool(args.trace), tracer)
    host = hoststamp.host_stamp(steal_start)

    print(f"workload {args.workload}  seed {args.seed}  size {args.size}  "
          f"repeats {result['report']['repeats']}"
          + (f" (+{len(measured['outcomes'][True])} traced)" if args.trace else ""))
    for name, (value, unit) in result["metrics"].items():
        print(f"  {name:<22}{value:>14.6g} {unit}")
    for name, value in result["report"].items():
        print(f"  {name:<22}{value:>14.6g}")
    print(f"  attempted {result['attempted']}  failed {result['failed']}")
    print("host " + json.dumps(host, sort_keys=True))
    for problem in result["problems"]:
        print(f"CHECK FAILED: {problem}")
    if args.trace:
        print(format_layers(result["layers"]))
        metrics = {spec["name"]: {"value": result["layers"][spec["name"]],
                                  "unit": spec["unit"]}
                   for spec in PER_LAYER_METRICS}
    else:
        metrics = {name: {"value": value, "unit": unit}
                   for name, (value, unit) in result["metrics"].items()}

    correct = not result["problems"]
    record = {"workload": args.workload, "seed": args.seed, "size": args.size,
              "seconds": args.seconds, "trace": args.trace, "host": host,
              "correct": correct, "problems": result["problems"],
              "metrics": {name: value for name, (value, _) in result["metrics"].items()},
              "report": result["report"], "layers": result.get("layers"),
              "repeat_rates": [o.samples / o.seconds
                               for o in measured["outcomes"][False]],
              "repeat_cpu_ms": [1e3 * o.cpu / o.samples
                                for o in measured["outcomes"][False]],
              "setup_times": measured["setup_times"]}
    with open(os.path.join(OUTPUT, stem + ".json"), "w", encoding="utf-8") as handle:
        json.dump(record, handle, indent=1, sort_keys=True)
    if tracer is not None:
        tracer.write(os.path.join(OUTPUT, stem + ".spans.jsonl"))

    print(json.dumps({"correct": correct, "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
