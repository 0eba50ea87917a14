#!/usr/bin/env python3
"""Regenerate golden.json: the expected simulator event count and sample
content digest of every gen_sim_geant2 job seed.

Each job is generated in-process with one worker, so the benchmark's
two-worker farm is also checked against a single-process reference.  Run
from the repository root after an intended change to simulation output::

    python3 perfbench/make_golden.py
"""

import json
import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "src"))

import workloads  # noqa: E402


def main() -> int:
    scratch = os.path.join(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))), ".perfbench", "golden")
    workload = workloads.GenSimGeant2("full")
    entries = {}
    for job_seed in range(workload.JOB_SEEDS):
        entries[str(job_seed)] = workloads.reference_entry(
            workload.spec(job_seed), os.path.join(scratch, str(job_seed)))
        print(job_seed, entries[str(job_seed)], flush=True)
    with open(workloads.GOLDEN_PATH, "w", encoding="utf-8") as handle:
        json.dump({workloads.GenSimGeant2.name: entries}, handle, indent=1,
                  sort_keys=True)
        handle.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
