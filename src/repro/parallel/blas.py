"""A forked process's share of the cores: its OpenBLAS thread count.

numpy's bundled OpenBLAS starts one thread per core in every process. A
cohort of N forked ranks, or a server's N job processes, then runs N
times as many BLAS threads as there are cores, and the collide's small
dgemms lose more to contention than the threads win (a 2-rank D3Q19
channel on 2 cores: 4.7-4.9 MLUPS unpinned, 11.6-12.1 with one thread
per rank). So each such process sets its own count, once, right after
the fork: ``max(1, cores // processes)``, never above an explicitly set
``OPENBLAS_NUM_THREADS``.

The setter is found by its known symbol in the OpenBLAS library the
process has mapped; without one (another BLAS, a numpy built without
the bundled library) nothing is set, and the caller records
:data:`NO_SETTER` instead of a count.
"""

from __future__ import annotations

import ctypes
import functools
import os

__all__ = ["NO_SETTER", "share_cores"]

_SETTER = "scipy_openblas_set_num_threads64_"
_GETTER = "scipy_openblas_get_num_threads64_"

#: What a process records instead of its thread count without a setter.
NO_SETTER = (f"no OpenBLAS thread setter ({_SETTER}) is loaded; "
             "BLAS threads are left at the library's default")


@functools.cache
def _openblas():
    """``(setter, getter)`` of the mapped OpenBLAS, or ``None``.

    Looked up once per process tree: a forked child inherits the answer.
    """
    import numpy  # noqa: F401  (maps the bundled library)

    try:
        with open("/proc/self/maps", encoding="utf-8") as maps:
            paths = sorted({line.split()[-1] for line in maps
                            if "openblas" in line.lower()})
    except OSError:
        return None
    for path in paths:
        try:
            lib = ctypes.CDLL(path)
            setter, getter = getattr(lib, _SETTER), getattr(lib, _GETTER)
        except (OSError, AttributeError):
            continue
        setter.argtypes, setter.restype = [ctypes.c_int], None
        getter.argtypes, getter.restype = [], ctypes.c_int
        return setter, getter
    return None


def _cores() -> int:
    """The cores this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:          # pragma: no cover - not Linux
        return os.cpu_count() or 1


def share_cores(processes: int) -> int | str:
    """Set this process's BLAS threads to its share of ``processes``.

    Returns the count the library reports afterwards, or
    :data:`NO_SETTER` when there is no setter to call.
    """
    found = _openblas()
    if found is None:
        return NO_SETTER
    setter, getter = found
    threads = max(1, _cores() // max(int(processes), 1))
    cap = os.environ.get("OPENBLAS_NUM_THREADS", "").strip()
    if cap.isdigit() and int(cap) > 0:
        threads = min(threads, int(cap))
    setter(threads)
    return int(getter())
