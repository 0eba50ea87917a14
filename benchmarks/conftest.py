"""Shared configuration of the benchmark harness.

Every benchmark regenerates one experiment of DESIGN.md's experiment index.
Sizes are scaled down from the paper (400k training samples) so the whole
suite runs on a laptop CPU; set ``REPRO_BENCH_SCALE=full`` to use larger
sizes (several times slower) for tighter curves.

Every bar is asserted on every run, but the measured rows are written to
the tracked ``BENCH_*.json`` files only with ``REPRO_BENCH_RECORD=1``, so a
plain test run leaves the working tree clean.
"""

from __future__ import annotations

import json
import os
import pathlib
import platform

import numpy as np
import pytest

#: The repo-root perf record every throughput benchmark merges its rows into.
BENCH_JSON_PATH = pathlib.Path(__file__).resolve().parents[1] / "BENCH_throughput.json"

#: Scaled-down defaults (samples, epochs) used by the training benchmarks.
SMALL_SCALE = {
    "train_samples": 30,
    "eval_samples": 12,
    "epochs": 8,
    "state_dim": 12,
    "iterations": 3,
}

FULL_SCALE = {
    "train_samples": 80,
    "eval_samples": 30,
    "epochs": 15,
    "state_dim": 16,
    "iterations": 4,
}


@pytest.fixture(scope="session")
def bench_scale() -> dict:
    """Benchmark sizing knobs, switchable via the REPRO_BENCH_SCALE env var."""
    if os.environ.get("REPRO_BENCH_SCALE", "small").lower() == "full":
        return dict(FULL_SCALE)
    return dict(SMALL_SCALE)


@pytest.fixture(scope="session")
def host_metadata() -> dict:
    """Host facts stamped onto every row written to ``BENCH_throughput.json``,
    so absolute samples/sec figures are interpretable across machines (and a
    regression vs the committed baseline can be discounted when the host
    changed)."""
    return {
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "platform": platform.platform(),
    }


@pytest.fixture(scope="session")
def bench_recording() -> bool:
    """True when ``REPRO_BENCH_RECORD=1``: write the tracked BENCH files."""
    return os.environ.get("REPRO_BENCH_RECORD") == "1"


@pytest.fixture(scope="module", autouse=True)
def bench_recorder(request, host_metadata, bench_recording):
    """Merge the module's ``RESULTS`` rows into ``BENCH_throughput.json``
    (with ``REPRO_BENCH_RECORD=1`` only).

    A benchmark module opts in by declaring a module-level ``RESULTS``
    dict.  After the module runs, each row that is a dict is stamped with
    the host metadata and merged into the file: read-update-write, so a
    partial run (``-k`` subset, or an aborted ``-x`` session) refreshes only
    the rows it measured and the rest of the perf record survives.  An
    unreadable file raises instead of being replaced, and the write goes
    through a temporary file and ``os.replace``, so a crash mid-write never
    leaves a truncated record.
    """
    yield
    results = getattr(request.module, "RESULTS", None)
    if not results or not bench_recording:
        return
    for key, row in results.items():
        if isinstance(row, dict) and key != "unit":
            row.setdefault("host", host_metadata)
    merged: dict = {}
    if BENCH_JSON_PATH.exists():
        try:
            merged = json.loads(BENCH_JSON_PATH.read_text())
        except json.JSONDecodeError as error:
            raise RuntimeError(
                f"{BENCH_JSON_PATH} is not valid JSON ({error}); refusing to "
                "overwrite the other benchmark modules' rows") from error
    merged.update(results)
    temporary = BENCH_JSON_PATH.with_name(BENCH_JSON_PATH.name + ".tmp")
    temporary.write_text(json.dumps(merged, indent=2, sort_keys=True) + "\n")
    os.replace(temporary, BENCH_JSON_PATH)
