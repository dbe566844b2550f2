"""Machine profile stored in every result file.

A number without the box it was measured on cannot be compared later, so
each result carries core count, cache and memory sizes, interpreter and
library versions, the pinned thread environment, the revision measured
and the load average before and after. A run that starts on a busy box
is marked ``noisy`` and ``--compare`` refuses to judge it.

"Busy" is read from ``/proc/stat`` over a short window while the harness
itself sleeps, not from the 1-minute load average alone: back-to-back
benchmark runs leave the load average above any useful threshold for a
minute after they end, although the box is idle again. The load average
is still recorded at both ends of the run.
"""

from __future__ import annotations

import os
import platform
import subprocess
import sys
import time
from pathlib import Path

__all__ = ["PINNED_ENV", "NOISY_BUSY_CORES", "machine_profile",
           "load_average", "busy_cores", "finish_profile"]

#: Run conditions of the harness and of every process it launches.
#:
#: Threads: ranks x BLAS threads must not exceed the core count, and the
#: single-threaded run is the baseline (2 BLAS threads repeat within +-13%
#: here, 1 within +-4%).
#:
#: Allocator: glibc serves arrays above 32 MB with mmap and gives them
#: back with munmap, and this kind of sandbox hands freed guest memory
#: back to its host every two seconds, after which touching it again
#: faults at ~100 MB/s instead of 4 GB/s. A 64^3 build then reads anything
#: from 0.15 s to 2.5 s by the luck of the timer (measured: three builds
#: in one process, default allocator 0.16 / 0.15 / 2.46 s, these settings
#: 0.12 / 0.13 / 0.10 s). Keeping freed memory inside the process (no
#: mmap for large requests, never trim the heap) takes the host out of
#: the measurement; the price is that the cost of allocating and freeing
#: large temporaries is not in these numbers.
PINNED_ENV = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "PYTHONDONTWRITEBYTECODE": "1",
    "MALLOC_MMAP_MAX_": "0",
    "MALLOC_TRIM_THRESHOLD_": str(2 ** 40),
}

#: A run started while other work keeps more than this many cores busy
#: is marked noisy.
NOISY_BUSY_CORES = 0.5


def _cache_sizes() -> dict[str, int]:
    """``{"L2": bytes, "L3": bytes, ...}`` of cpu0, empty where sysfs lacks it."""
    sizes: dict[str, int] = {}
    base = Path("/sys/devices/system/cpu/cpu0/cache")
    for index in sorted(base.glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            size = (index / "size").read_text().strip()
        except OSError:
            continue
        if kind == "Instruction":
            continue
        mult = {"K": 1024, "M": 1024 ** 2}.get(size[-1:], 1)
        digits = size[:-1] if size[-1:] in "KM" else size
        sizes[f"L{level}"] = int(digits) * mult
    return sizes


def _total_ram_bytes() -> int:
    try:
        for line in Path("/proc/meminfo").read_text().splitlines():
            if line.startswith("MemTotal:"):
                return int(line.split()[1]) * 1024
    except OSError:
        pass
    return 0


def _git(repo_root: Path, *args: str) -> str | None:
    try:
        out = subprocess.run(["git", "-C", str(repo_root), *args],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def _blas_version() -> str:
    import numpy as np

    try:
        blas = np.__config__.show(mode="dicts")["Build Dependencies"]["blas"]
        return f"{blas.get('name')} {blas.get('version')}"
    except (AttributeError, KeyError, TypeError):
        return "unknown"


def load_average() -> float:
    """1-minute load average (0 where the platform has none)."""
    try:
        return os.getloadavg()[0]
    except OSError:
        return 0.0


def _cpu_ticks() -> tuple[int, int]:
    """``(busy, total)`` jiffies summed over all cores, from ``/proc/stat``."""
    fields = [int(x) for x in
              Path("/proc/stat").read_text().splitlines()[0].split()[1:]]
    idle = fields[3] + (fields[4] if len(fields) > 4 else 0)
    return sum(fields) - idle, sum(fields)


def busy_cores(window_s: float = 0.25) -> float:
    """Cores kept busy by others while this process sleeps ``window_s``."""
    try:
        busy0, total0 = _cpu_ticks()
        time.sleep(window_s)
        busy1, total1 = _cpu_ticks()
    except (OSError, ValueError, IndexError):
        return 0.0
    if total1 <= total0:
        return 0.0
    return (busy1 - busy0) / (total1 - total0) * (os.cpu_count() or 1)


def machine_profile(repo_root: Path) -> dict:
    """Profile taken at the start of a run; see :func:`finish_profile`."""
    import numpy as np

    nproc = os.cpu_count() or 1
    busy = busy_cores()
    rev = _git(repo_root, "rev-parse", "HEAD")
    status = _git(repo_root, "status", "--porcelain")
    return {
        "nproc": nproc,
        "cpu": platform.processor() or platform.machine(),
        "cache_bytes": _cache_sizes(),
        "ram_bytes": _total_ram_bytes(),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "blas": _blas_version(),
        "pinned_env": dict(PINNED_ENV),
        # The driver's checkout is not a git repository: revision unknown.
        "git_rev": rev or "unknown",
        "git_dirty": bool(status) if status is not None else None,
        "load_1m_start": load_average(),
        "load_1m_end": None,
        "busy_cores_start": busy,
        "noisy": busy > NOISY_BUSY_CORES,
    }


def finish_profile(profile: dict) -> dict:
    """Stamp the load average at the end of the run."""
    profile["load_1m_end"] = load_average()
    return profile
