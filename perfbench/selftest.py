"""Fast self-tests of the benchmark (not part of the tier-1 suite).

Run from the repository root::

    python3 -m pytest perfbench/selftest.py -q

They check that BENCHMARK.json matches the code, run every workload at a
tiny size with its output checks, and pin the checks the full-size runs do
not repeat (farm == single process, process pool == serial twin).
"""

from __future__ import annotations

import json
import os
import re
import shutil
import subprocess
import sys

import pytest

import tracer as tracer_module
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


@pytest.fixture(scope="module")
def declared() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        return json.load(handle)


def _run(*args: str, cwd: str = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, os.path.join(cwd, "perfbench", "run.py"),
                           *args], cwd=cwd, capture_output=True, text=True,
                          timeout=300)


def test_benchmark_json_matches_the_code(declared):
    assert set(declared) == {"command", "paths", "run_seconds", "workloads",
                             "end_to_end", "per_layer"}
    assert declared["command"] == ["python3", "perfbench/run.py"]
    assert declared["paths"] == ["perfbench"]
    assert isinstance(declared["run_seconds"], int) and 1 <= declared["run_seconds"] <= 60
    assert {w["name"]: w["why"] for w in declared["workloads"]} == {
        name: cls.why for name, cls in workloads.WORKLOADS.items()}
    assert declared["per_layer"] == list(tracer_module.PER_LAYER_METRICS)
    names = [m["name"] for m in declared["end_to_end"] + declared["per_layer"]]
    names += [w["name"] for w in declared["workloads"]]
    assert len(names) == len(set(names))
    for metric in declared["end_to_end"] + declared["per_layer"]:
        assert NAME.match(metric["name"]) and UNIT.match(metric["unit"])
        assert metric["better"] in ("higher", "lower")
    for workload in declared["workloads"]:
        assert NAME.match(workload["name"])
        assert len(workload["why"]) <= 200 and "\n" not in workload["why"]
    bounds = {m["name"]: m["bound"] for m in declared["end_to_end"]}
    assert all(0 < bound <= 0.25 for bound in bounds.values())
    assert bounds["setup_s"] == max(bounds.values())


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
@pytest.mark.parametrize("trace", ["0", "1"])
def test_tiny_run_checks_outputs_and_reports_every_metric(declared, workload, trace):
    completed = _run("--workload", workload, "--seed", "3", "--seconds", "0.1",
                     "--trace", trace, "--size", "tiny")
    assert completed.returncode == 0, completed.stdout + completed.stderr
    result = json.loads(completed.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    kind = "per_layer" if trace == "1" else "end_to_end"
    expected = {m["name"]: m["unit"] for m in declared[kind]}
    assert {name: value["unit"] for name, value in result["metrics"].items()} == expected
    if trace == "0":
        assert all(value["value"] > 0 for value in result["metrics"].values())


def test_run_without_program_sources_fails_without_a_result(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    completed = _run("--workload", "gen_sim_geant2", "--seed", "1",
                     "--seconds", "1", "--trace", "0", cwd=str(tmp_path))
    assert completed.returncode != 0
    assert '"correct"' not in completed.stdout


def test_gen_farm_matches_single_process_and_flags_wrong_content(tmp_path):
    workload = workloads.GenSimGeant2("tiny")
    inputs = workload.setup(5, str(tmp_path))
    farm = workload.verify(inputs, workload.timed(inputs, str(tmp_path)))
    assert not farm.problems
    reference = workloads.reference_entry(inputs["spec"],
                                          str(tmp_path / "reference"))
    assert farm.fingerprint == (reference["events_processed"],
                                reference["content_sha256"])
    inputs["expected"] = {"events_processed": reference["events_processed"] + 1,
                          "content_sha256": "0" * 64}
    wrong = workload.verify(inputs, workload.timed(inputs, str(tmp_path)))
    assert len(wrong.problems) == 2


def test_stream_process_pool_matches_serial_twin(tmp_path):
    fingerprints = []
    for backend in ("process", "serial"):
        workload = workloads.StreamNsfnetDP("tiny", backend=backend)
        inputs = workload.setup(4, str(tmp_path / backend))
        outcome = workload.verify(inputs, workload.timed(inputs, str(tmp_path)))
        assert not outcome.problems and outcome.failed == 0
        fingerprints.append(outcome.fingerprint)
    assert fingerprints[0] == fingerprints[1]


def test_self_time_subtracts_direct_children_and_uninstall_restores():
    from repro.nn.optimizers import Adam, Optimizer

    tracer = tracer_module.Tracer()
    with tracer.span("repeat") as root:
        with tracer.span("fit") as child:
            pass
    assert child[3] is root
    times = tracer.self_times()
    total = (root[2] - root[1])
    assert times[("repeat", True)][1] == pytest.approx(total - (child[2] - child[1]))

    originals = ("step" in vars(Adam), Optimizer.step)
    tracer.install()
    assert "step" in vars(Adam)
    tracer.uninstall()
    assert ("step" in vars(Adam), Optimizer.step) == originals
    assert Adam.step is Optimizer.step
