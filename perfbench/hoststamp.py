"""Host stamp and process resource figures for every benchmark result.

numpy is imported inside the functions: the benchmark reads
:data:`THREAD_VARIABLES` and sets them before numpy first loads.

A result carries the CPU count, the python/numpy/BLAS versions, the BLAS
thread count actually in force and the CPU steal seconds over the run, so a
run on a drifted or contended virtual machine can be told apart.
"""

from __future__ import annotations

import ctypes
import glob
import os
import platform
import resource
from typing import Optional

__all__ = ["blas_threads", "cpu_seconds", "host_stamp", "peak_rss_mb",
           "steal_seconds"]

#: Environment variables that size the BLAS/OpenMP thread pools; the
#: benchmark sets them before numpy loads so the parent and every worker
#: process inherit the same budget.
THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                    "MKL_NUM_THREADS")


def _blas_config() -> dict:
    import numpy as np

    try:
        return dict(np.__config__.CONFIG["Build Dependencies"]["blas"])
    except (AttributeError, KeyError, TypeError):
        return {}


def blas_threads() -> Optional[int]:
    """Threads the loaded OpenBLAS will use, asked of the library itself
    (``None`` when the library or its query symbol cannot be found)."""
    import numpy as np

    libs = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs")
    for path in sorted(glob.glob(os.path.join(libs, "lib*openblas*"))):
        try:
            library = ctypes.CDLL(path)
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            query = getattr(library, symbol, None)
            if query is not None:
                query.argtypes = []
                query.restype = ctypes.c_int
                return int(query())
    return None


def steal_seconds() -> Optional[float]:
    """Cumulative CPU steal of the host in seconds (``/proc/stat``)."""
    try:
        with open("/proc/stat", encoding="ascii") as handle:
            fields = handle.readline().split()
    except OSError:
        return None
    if len(fields) < 9 or fields[0] != "cpu":
        return None
    return int(fields[8]) / os.sysconf("SC_CLK_TCK")


def peak_rss_mb() -> float:
    """Max resident set size of this process and of its largest reaped
    child (``getrusage`` SELF and CHILDREN; Linux reports KiB)."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


def cpu_seconds() -> float:
    """User plus system CPU seconds of this process and of its reaped
    children.  The guest kernel books stolen time as steal, not to the
    process, so this figure does not grow with other tenants' load."""
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        usage = resource.getrusage(who)
        total += usage.ru_utime + usage.ru_stime
    return total


def host_stamp(steal_start: Optional[float]) -> dict:
    import numpy as np

    blas = _blas_config()
    steal_end = steal_seconds()
    return {
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip(),
        "blas_threads": blas_threads(),
        "thread_env": {name: os.environ.get(name) for name in THREAD_VARIABLES},
        "steal_s": (None if steal_start is None or steal_end is None
                    else round(steal_end - steal_start, 2)),
        "platform": platform.platform(),
    }
