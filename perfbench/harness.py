"""Shared plumbing of the benchmark: sizes, child processes, statistics.

Everything the four workloads have in common lives here so that each
workload file reads as its own definition: what it runs, what it times
and what it checks.
"""

from __future__ import annotations

import glob
import hashlib
import json
import math
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
from dataclasses import dataclass, field, replace
from pathlib import Path

from .machine import PINNED_ENV

PERFBENCH_DIR = Path(__file__).resolve().parent
REPO_ROOT = PERFBENCH_DIR.parent
SRC_DIR = REPO_ROOT / "src"

#: Run length the step, segment, run and job counts below are sized for;
#: ``--seconds`` scales the counts linearly from here. Counts are fixed by
#: ``--seconds`` alone and never adapt to how fast the box is, so two
#: commits always do the same work.
BASE_SECONDS = 15

#: Tolerance of every "matches the reference backend" check.
PARITY_TOL = 1e-12
#: Relative drift of total mass allowed on closed (periodic / bounce-back) boxes.
MASS_TOL = 1e-10


@dataclass(frozen=True)
class Sizes:
    """Problem sizes and repeat counts of one configuration.

    Sizes are what makes a measurement mean something (``box3d`` must not
    fit the caches) and are never scaled; counts are what ``--seconds``
    scales.
    """

    # box3d: periodic D3Q19 cube
    box_n: int = 64
    box_parity_n: int = 16
    box_segments: int = 16
    box_segments_traced: int = 12
    box_seg_steps: int = 4
    box_warmup_steps: int = 3
    box_extra_steps: int = 8          # aa / reference canary cells (traced)
    # porous2d: D2Q9 porous square on the sparse backend
    porous_n: int = 768
    porous_parity_n: int = 96
    porous_segments: int = 20
    porous_segments_traced: int = 14
    porous_seg_steps_st: int = 10
    porous_seg_steps_mrp: int = 20
    porous_extra_steps: int = 8       # fused-on-porous canary cell (traced)
    # both in-process workloads
    setup_repeats: int = 5
    copy_mb: int = 256                # host.copy_gbs array size
    copy_repeats: int = 9
    # ranks2: cold CLI runs of the channel proxy app
    ranks_shape: tuple[int, int, int] = (128, 48, 48)
    ranks_steps: int = 40
    ranks_check_steps: int = 10
    ranks_plain_runs: int = 7
    ranks_ft_runs: int = 1
    ranks_plain_runs_traced: int = 3
    ranks_ft_runs_traced: int = 1
    ranks_import_repeats: int = 5
    ranks_single_steps: int = 10      # in-process single-domain baseline
    # served: job server under a closed loop of 2 clients
    served_tg_shape: tuple[int, int] = (64, 64)
    served_fc_shape: tuple[int, int] = (64, 34)
    served_job_steps: int = 100
    served_fresh_jobs: int = 100
    served_batch_jobs: int = 20       # fresh jobs between two weather probes
    served_hits: int = 1000
    served_restart_jobs: int = 30
    served_setup_repeats: int = 3
    served_rtt_probes: int = 50
    served_direct_calls: int = 500    # fingerprint / spec_from_dict timings
    clients: int = 2
    # memory each cell touches once before its first build (see cell.py)
    box_prefault_mb: int = 192
    porous_prefault_mb: int = 224
    child_timeout_s: float = 90.0


FULL = Sizes()

#: Tiny shapes that run every code path of the harness in well under 30 s;
#: its numbers mean nothing.
SMOKE = Sizes(
    box_n=12, box_parity_n=8, box_segments=4, box_segments_traced=4,
    box_seg_steps=2,
    box_warmup_steps=1, box_extra_steps=2,
    porous_n=48, porous_parity_n=24, porous_segments=4,
    porous_segments_traced=4,
    porous_seg_steps_st=2, porous_seg_steps_mrp=2, porous_extra_steps=2,
    setup_repeats=2, copy_mb=4, copy_repeats=3,
    ranks_shape=(24, 10, 10), ranks_steps=8, ranks_check_steps=4,
    ranks_plain_runs=2, ranks_ft_runs=1, ranks_plain_runs_traced=2,
    ranks_ft_runs_traced=1, ranks_import_repeats=2, ranks_single_steps=2,
    served_tg_shape=(16, 16), served_fc_shape=(16, 10), served_job_steps=10,
    served_fresh_jobs=12, served_batch_jobs=6, served_hits=40,
    served_restart_jobs=6,
    served_setup_repeats=1, served_rtt_probes=5, served_direct_calls=20,
    box_prefault_mb=16, porous_prefault_mb=16, child_timeout_s=60.0,
)

#: Counts that ``--seconds`` scales, each with the least value that still
#: gives a median.
_SCALED = {
    "box_segments": 4, "box_segments_traced": 4,
    "porous_segments": 4, "porous_segments_traced": 4,
    "ranks_plain_runs": 2, "ranks_ft_runs": 1,
    "ranks_plain_runs_traced": 2, "ranks_ft_runs_traced": 1,
    "served_fresh_jobs": 20, "served_hits": 40, "served_restart_jobs": 6,
}


def scaled(sizes: Sizes, seconds: float) -> Sizes:
    """``sizes`` with its counts scaled from BASE_SECONDS to ``seconds``."""
    factor = float(seconds) / BASE_SECONDS
    changes = {}
    for name, least in _SCALED.items():
        value = int(round(getattr(sizes, name) * factor))
        changes[name] = max(value, min(least, getattr(sizes, name)))
    return replace(sizes, **changes)


# -- statistics -------------------------------------------------------------

def median(values) -> float:
    """Median of a non-empty sequence (``nan`` for an empty one)."""
    values = list(values)
    return statistics.median(values) if values else float("nan")


def lower_quartile(values) -> float:
    """First quartile, as ``statistics.quantiles`` places it (needs two values)."""
    values = list(values)
    return (statistics.quantiles(values, n=4)[0] if len(values) > 1
            else values[0])


def percentile(values, pct: float) -> float:
    """Nearest-rank percentile of a non-empty sequence."""
    ordered = sorted(values)
    if not ordered:
        return float("nan")
    rank = max(1, math.ceil(pct / 100.0 * len(ordered)))
    return ordered[min(rank, len(ordered)) - 1]


def tail_percentile(values) -> tuple[int, float] | None:
    """The highest of p75/p90/p95/p99 with at least ten samples beyond it."""
    n = len(values)
    for pct in (99, 95, 90, 75):
        if n * (100 - pct) / 100.0 >= 10:
            return pct, percentile(values, pct)
    return None


def input_hash(*arrays_or_bytes) -> str:
    """Short digest of the generated inputs (differs between seeds)."""
    digest = hashlib.sha256()
    for item in arrays_or_bytes:
        data = item if isinstance(item, bytes) else item.tobytes()
        digest.update(data)
    return digest.hexdigest()[:16]


# -- child processes --------------------------------------------------------

def child_env(with_perfbench: bool = False) -> dict:
    """Environment of every launched process: thread pins + ``src`` on the path.

    The program under test sees only ``src``; the harness's own cell
    runner (:mod:`perfbench.cell`) also needs the repo root to import
    this package.
    """
    env = dict(os.environ)
    env.update(PINNED_ENV)
    path = [str(SRC_DIR)] + ([str(REPO_ROOT)] if with_perfbench else [])
    env["PYTHONPATH"] = os.pathsep.join(path)
    return env


@dataclass
class Child:
    """A started child: its pid and when the launcher started it."""

    pid: int
    spawn: float                     # perf_counter just before Popen
    returncode: int | None = None
    exit: float = 0.0                # perf_counter when wait4 returned
    maxrss_mb: float = 0.0           # of the child and the descendants it reaped
    stdout_path: Path | None = None
    stderr_path: Path | None = None

    @property
    def wall_s(self) -> float:
        """Spawn to exit, in seconds."""
        return self.exit - self.spawn

    @property
    def stdout(self) -> str:
        """What the child printed (read back from its scratch file)."""
        return self.stdout_path.read_text(errors="replace")

    @property
    def stderr(self) -> str:
        """What the child wrote to standard error."""
        return self.stderr_path.read_text(errors="replace")


class Children:
    """Every process and directory the harness creates, so it can fail closed.

    Children are started and reaped by the helper in
    :mod:`perfbench.launcher` (see there for why). On success, exception
    or signal, :meth:`close` closes the helper's input, upon which it
    stops what still runs (each child leads its own process group, so
    rank processes go with their CLI parent); then shared-memory segments
    the children named after their pids are unlinked and the scratch
    directory removed. Should the harness itself be killed, the helper
    sees its input close and does the stopping on its own.
    """

    def __init__(self, out_root: Path):
        out_root.mkdir(parents=True, exist_ok=True)
        self.scratch = Path(tempfile.mkdtemp(prefix="scratch-", dir=out_root))
        self.pids: list[int] = []
        self.peak_rss_mb = 0.0
        self._tags = 0
        self._launcher = subprocess.Popen(
            [sys.executable, "-S", "-E", str(PERFBENCH_DIR / "launcher.py")],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
            cwd=REPO_ROOT, start_new_session=True)

    def _ask(self, request: dict) -> dict:
        self._launcher.stdin.write(json.dumps(request) + "\n")
        self._launcher.stdin.flush()
        reply = self._launcher.stdout.readline()
        if not reply:
            raise RuntimeError("perfbench launcher died")
        return json.loads(reply)

    def popen(self, cmd: list[str], tag: str,
              env: dict | None = None) -> Child:
        """Start a child in its own process group; output goes to scratch."""
        self._tags += 1
        stem = self.scratch / f"{self._tags:03d}-{tag}"
        stdout, stderr = stem.with_suffix(".stdout"), stem.with_suffix(".stderr")
        reply = self._ask({"op": "spawn", "cmd": cmd,
                           "env": env or child_env(), "cwd": str(REPO_ROOT),
                           "stdout": str(stdout), "stderr": str(stderr)})
        self.pids.append(reply["pid"])
        return Child(reply["pid"], reply["spawn"], stdout_path=stdout,
                     stderr_path=stderr)

    def alive(self, child: Child) -> bool:
        """Whether the child is still running."""
        return self._ask({"op": "poll", "pid": child.pid})["alive"]

    def reap(self, child: Child, timeout: float) -> Child:
        """Wait for the child (its group is killed at the timeout)."""
        reply = self._ask({"op": "reap", "pid": child.pid,
                           "timeout": timeout})
        child.returncode = -9 if reply["timed_out"] else reply["returncode"]
        child.exit = reply["exit"]
        child.maxrss_mb = reply["maxrss_kb"] / 1024.0
        self.peak_rss_mb = max(self.peak_rss_mb, child.maxrss_mb)
        return child

    def run(self, cmd: list[str], tag: str, timeout: float,
            env: dict | None = None) -> Child:
        """Run a child to completion."""
        return self.reap(self.popen(cmd, tag, env), timeout)

    def leaked_shm(self) -> list[str]:
        """Shared-memory segments named after any child this registry started."""
        found = []
        for pid in self.pids:
            found.extend(glob.glob(f"/dev/shm/mrlbm-{pid}-*"))
        return found

    def close(self) -> None:
        """Stop, reap and clean up everything; safe to call twice."""
        launcher = self._launcher
        if launcher.poll() is None:
            try:
                launcher.stdin.close()      # the helper stops what still runs
                launcher.wait(timeout=20.0)
            except (OSError, subprocess.TimeoutExpired):
                # the helper hangs: do its job, then get rid of it
                for pid in self.pids:
                    try:
                        os.killpg(pid, signal.SIGKILL)
                    except (ProcessLookupError, PermissionError):
                        pass
                launcher.kill()
                launcher.wait()
        for path in self.leaked_shm():
            try:
                os.unlink(path)
            except OSError:
                pass
        shutil.rmtree(self.scratch, ignore_errors=True)


def python_cmd(*args: str) -> list[str]:
    """Command line of a child interpreter."""
    return [sys.executable, *args]


# -- results ----------------------------------------------------------------

@dataclass
class Check:
    """One counted operation or correctness check (or a batch of them)."""

    name: str
    ok: bool
    detail: str = ""


@dataclass
class PassResult:
    """What one run (untraced or traced) of one workload produced."""

    workload: str
    traced: bool
    seed: int
    metrics: dict[str, float] = field(default_factory=dict)
    samples: dict[str, list[float]] = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    checks: list[Check] = field(default_factory=list)
    counts: dict[str, int] = field(default_factory=dict)
    input_hash: str = ""
    wall_s: float = 0.0

    def check(self, name: str, ok: bool, detail: str = "") -> bool:
        """Count one operation or correctness check and whether it failed."""
        return self.count(name, 1, 0 if ok else 1, detail)

    def count(self, name: str, attempted: int, failed: int,
              detail: str = "") -> bool:
        """Count a batch of like operations (jobs, hits) under one entry."""
        self.attempted += attempted
        self.failed += failed
        self.checks.append(Check(name, failed == 0, detail))
        return failed == 0

    @property
    def correct(self) -> bool:
        """True when nothing attempted failed."""
        return self.failed == 0

    @property
    def failed_share(self) -> float:
        """Failed operations and checks over attempted ones."""
        return self.failed / max(self.attempted, 1)

    def to_dict(self) -> dict:
        """JSON form stored in result files."""
        return {
            "workload": self.workload, "traced": self.traced,
            "seed": self.seed, "metrics": self.metrics,
            # six digits are plenty for a distribution, and 2,000 of them
            # are most of the file
            "samples": {name: [float(f"{v:.6g}") for v in values]
                        for name, values in self.samples.items()},
            "attempted": self.attempted,
            "failed": self.failed,
            "failed_share": self.failed_share,
            "checks": [vars(c) for c in self.checks],
            "counts": self.counts, "input_hash": self.input_hash,
            "wall_s": self.wall_s,
        }
