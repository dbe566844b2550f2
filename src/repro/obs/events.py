"""Per-rank run event streams: an append-only JSONL bus + tail/watch.

A distributed run is invisible while in flight: telemetry is merged
only after the cohort finishes. This module gives every rank a
cadence-driven, append-only event stream in the run directory —
``events-rank0000.jsonl``, one JSON object per line, flushed per event —
so a live (or finished, or crashed) run can be tailed at any time with
``mrlbm watch <run-dir>``, and the ROADMAP's job server has a telemetry
substrate to stream from.

Event vocabulary (the ``kind`` field):

``start``       a rank came up: pid, step range, the run ``record``;
``heartbeat``   cadence sample: step, wall seconds, running MLUPS;
``progress``    fraction complete (rides on the heartbeat cadence);
``phase``       phase-time snapshot (step/compute/barrier/... totals);
``checkpoint``  a distributed checkpoint was written at this step;
``watchdog``    a divergence check ran (ok or failing);
``end``         rank finished cleanly;
``error``       rank failed: exception type + message.

Every event carries ``ts`` (unix seconds), ``rank`` and ``attempt`` (the
supervised-retry attempt, so a restarted cohort appends to the same
files without ambiguity). Writers only append and readers only scan
forward, so tailing a live run never races the workers.
"""

from __future__ import annotations

import json
import time
from pathlib import Path

__all__ = [
    "EVENT_KINDS",
    "EventStream",
    "RunEventEmitter",
    "event_files",
    "read_events",
    "iter_event_lines",
    "iter_events",
    "follow_events",
    "summarize_events",
    "end_running_streams",
    "format_watch",
]

#: The event vocabulary written by the runtime (see module docstring).
EVENT_KINDS = ("start", "heartbeat", "progress", "phase", "checkpoint",
               "watchdog", "end", "error")

_FILE_PREFIX = "events-rank"


def _rank_file(run_dir: Path, rank: int) -> Path:
    return run_dir / f"{_FILE_PREFIX}{rank:04d}.jsonl"


class EventStream:
    """Append-only JSONL event writer for one rank of one run.

    Opens ``<run_dir>/events-rank<NNNN>.jsonl`` in append mode (restarted
    attempts continue the same file) and flushes after every event so a
    reader never waits on a buffer.
    """

    def __init__(self, run_dir: str | Path, rank: int = 0,
                 attempt: int = 0, clock=time.time):
        self.run_dir = Path(run_dir)
        self.run_dir.mkdir(parents=True, exist_ok=True)
        self.rank = int(rank)
        self.attempt = int(attempt)
        self._clock = clock
        self.path = _rank_file(self.run_dir, self.rank)
        self._fh = open(self.path, "a", encoding="utf-8")

    def emit(self, kind: str, step: int | None = None, **payload) -> dict:
        """Append one event line and flush; returns the event dict."""
        event = {"ts": self._clock(), "rank": self.rank,
                 "attempt": self.attempt, "kind": kind}
        if step is not None:
            event["step"] = int(step)
        event.update(payload)
        self._fh.write(json.dumps(event, sort_keys=True) + "\n")
        self._fh.flush()
        return event

    def close(self) -> None:
        """Close the underlying file (idempotent)."""
        if not self._fh.closed:
            self._fh.close()

    def __enter__(self) -> "EventStream":
        return self

    def __exit__(self, *exc) -> bool:
        self.close()
        return False


class RunEventEmitter:
    """Cadence logic between a stepping loop and an :class:`EventStream`.

    The run loop calls :meth:`maybe` once per completed step; every
    ``every`` steps (and on the final step) it emits a ``heartbeat``
    (wall seconds + running MLUPS from the attached telemetry), a
    ``progress`` fraction and a ``phase`` snapshot. Checkpoint and
    watchdog hooks emit their own kinds outside the cadence.
    """

    def __init__(self, stream: EventStream, every: int = 25,
                 n_steps: int = 0, start_step: int = 0,
                 telemetry=None, n_fluid: int = 0):
        self.stream = stream
        self.every = max(int(every), 1)
        self.n_steps = int(n_steps)
        self.start_step = int(start_step)
        self.telemetry = telemetry
        self.n_fluid = int(n_fluid)

    def start(self, **info) -> None:
        """Emit the ``start`` event (the rank's run + step range)."""
        self.stream.emit("start", step=self.start_step,
                         n_steps=self.n_steps, **info)

    def _throughput(self) -> tuple[float, float]:
        tel = self.telemetry
        if tel is None:
            return 0.0, 0.0
        wall = tel.phase_total("step")
        return wall, tel.mlups(self.n_fluid)

    def maybe(self, step: int) -> None:
        """Emit the cadence events when ``step`` (1-based) is due."""
        if step % self.every and step != self.n_steps:
            return
        wall, mlups = self._throughput()
        self.stream.emit("heartbeat", step=step, wall_s=wall, mlups=mlups)
        if self.n_steps > 0:
            self.stream.emit("progress", step=step,
                             fraction=step / self.n_steps)
        if self.telemetry is not None:
            phases = {path: stats.total for path, stats
                      in self.telemetry.phases.items()}
            self.stream.emit("phase", step=step, totals_s=phases)

    def checkpoint(self, step: int, path: str | Path | None = None) -> None:
        """Emit a ``checkpoint`` event."""
        self.stream.emit("checkpoint", step=step,
                         path=str(path) if path is not None else None)

    def watchdog(self, step: int, ok: bool = True, **detail) -> None:
        """Emit a ``watchdog`` event (a check ran; ``ok=False`` = diverged)."""
        self.stream.emit("watchdog", step=step, ok=bool(ok), **detail)

    def end(self, step: int, **info) -> None:
        """Emit the ``end`` event."""
        wall, mlups = self._throughput()
        self.stream.emit("end", step=step, wall_s=wall, mlups=mlups, **info)

    def error(self, step: int | None, exc_type: str, message: str) -> None:
        """Emit the ``error`` event (best effort — never raises)."""
        try:
            self.stream.emit("error", step=step, exc_type=exc_type,
                             message=message)
        except Exception:
            pass


# -- reading / tailing -----------------------------------------------------

def event_files(run_dir: str | Path) -> list[Path]:
    """The per-rank event files of a run directory, in rank order."""
    return sorted(Path(run_dir).glob(f"{_FILE_PREFIX}*.jsonl"))


def read_events(run_dir: str | Path) -> list[dict]:
    """All events of a run, merged across ranks and sorted by timestamp."""
    events = []
    for path in event_files(run_dir):
        with open(path, encoding="utf-8") as fh:
            for line in fh:
                line = line.strip()
                if line:
                    events.append(json.loads(line))
    events.sort(key=lambda e: e.get("ts", 0.0))
    return events


def iter_event_lines(run_dir: str | Path, offsets: dict | None = None):
    """Yield raw JSONL lines appended since ``offsets`` (byte positions).

    The undecoded sibling of :func:`iter_events`, for relays that only
    forward the bus — the job server's ``/jobs/<id>/events`` endpoint
    streams these lines verbatim instead of decode/re-encode round
    trips. ``offsets`` (per-file byte positions, keyed by file name) is
    mutated in place, so successive calls with the same dict implement
    an incremental tail that also picks up rank files created after the
    first call. Partial trailing lines (a writer mid-append) are left
    for the next call. Yielded lines are stripped and non-empty.
    """
    if offsets is None:
        offsets = {}
    for path in event_files(run_dir):
        pos = offsets.get(path.name, 0)
        try:
            with open(path, encoding="utf-8") as fh:
                fh.seek(pos)
                chunk = fh.read()
        except OSError:
            continue
        consumed = 0
        for line in chunk.splitlines(keepends=True):
            if not line.endswith("\n"):
                break                       # torn tail; retry next poll
            consumed += len(line)
            line = line.strip()
            if line:
                yield line
        offsets[path.name] = pos + consumed


def iter_events(run_dir: str | Path, offsets: dict | None = None):
    """Yield events appended since ``offsets`` (per-file byte positions).

    ``offsets`` is mutated in place, so successive calls with the same
    dict implement an incremental tail that also picks up rank files
    created after the first call. Partial trailing lines (a writer
    mid-append) are left for the next call.
    """
    for line in iter_event_lines(run_dir, offsets):
        yield json.loads(line)


def follow_events(run_dir: str | Path, poll_s: float = 0.5,
                  timeout_s: float | None = None,
                  stop_when_done: bool = True):
    """Generator tailing a run directory until it finishes (or times out).

    Yields events in arrival order across all rank files. With
    ``stop_when_done`` the tail ends once every rank that emitted
    ``start`` has emitted a terminal ``end``/``error`` event; a timeout
    (seconds of wall clock, ``None`` = forever) bounds the wait on runs
    that never finish.
    """
    offsets: dict = {}
    started: set[int] = set()
    done: set[int] = set()
    deadline = None if timeout_s is None else time.monotonic() + timeout_s
    while True:
        got = False
        for event in iter_events(run_dir, offsets):
            got = True
            rank = event.get("rank", 0)
            if event.get("kind") == "start":
                started.add(rank)
            elif event.get("kind") in ("end", "error"):
                done.add(rank)
            yield event
        if stop_when_done and started and started <= done:
            return
        if deadline is not None and time.monotonic() > deadline:
            return
        if not got:
            time.sleep(poll_s)


def summarize_events(events) -> dict:
    """Fold an event list into per-rank latest state.

    Returns ``{"ranks": {rank: state}, "n_ranks": N, "all_done": bool}``
    where each state carries the latest step, progress fraction, MLUPS,
    phase totals, checkpoint/watchdog history counts, the step of the
    most recent checkpoint (``last_checkpoint_step`` — the rank's resume
    point) and a terminal status (``running``/``done``/``error``).
    """
    ranks: dict[int, dict] = {}
    for event in events:
        state = ranks.setdefault(event.get("rank", 0), {
            "status": "running", "step": 0, "fraction": None,
            "mlups": 0.0, "wall_s": 0.0, "n_steps": None,
            "checkpoints": 0, "last_checkpoint_step": None,
            "watchdog_checks": 0, "last_ts": 0.0,
            "phases_s": {}, "error": None,
        })
        kind = event.get("kind")
        state["last_ts"] = max(state["last_ts"], event.get("ts", 0.0))
        if "step" in event and event["step"] is not None:
            state["step"] = max(state["step"], event["step"])
        if kind == "start":
            state["n_steps"] = event.get("n_steps")
        elif kind in ("heartbeat", "end"):
            state["mlups"] = event.get("mlups", state["mlups"])
            state["wall_s"] = event.get("wall_s", state["wall_s"])
        elif kind == "progress":
            state["fraction"] = event.get("fraction")
        elif kind == "phase":
            state["phases_s"] = event.get("totals_s", {})
        elif kind == "checkpoint":
            state["checkpoints"] += 1
            if event.get("step") is not None:
                state["last_checkpoint_step"] = event["step"]
        elif kind == "watchdog":
            state["watchdog_checks"] += 1
        if kind == "end":
            state["status"] = "done"
        elif kind == "error":
            state["status"] = "error"
            state["error"] = (f"{event.get('exc_type', 'Exception')}: "
                              f"{event.get('message', '')}")
    return {
        "ranks": ranks,
        "n_ranks": len(ranks),
        "all_done": bool(ranks) and all(
            s["status"] != "running" for s in ranks.values()),
    }


def end_running_streams(run_dir: str | Path, exc_type: str,
                        message: str) -> None:
    """Append an ``error`` event to every rank stream still ``running``.

    For ranks that could not write their own: a process run's parent
    terminated them (Ctrl-C on the parent alone, a straggler).
    """
    for rank, state in summarize_events(read_events(run_dir))["ranks"].items():
        if state["status"] == "running":
            with EventStream(run_dir, rank=rank) as stream:
                stream.emit("error", step=state["step"], exc_type=exc_type,
                            message=message)


def format_watch(summary: dict) -> str:
    """Fixed-width per-rank table of a :func:`summarize_events` summary.

    The ``ckpt`` column shows the step of the rank's most recent
    checkpoint event (its resume point), or ``-`` if none was written.
    """
    lines = [f"  {'rank':>4s} {'status':>8s} {'step':>8s} {'done':>6s} "
             f"{'MLUPS':>8s} {'wall s':>8s} {'wait %':>7s} {'ckpt':>8s}"]
    for rank in sorted(summary["ranks"]):
        s = summary["ranks"][rank]
        frac = f"{s['fraction']:.0%}" if s["fraction"] is not None else "-"
        wall = s.get("wall_s", 0.0)
        wait = s.get("phases_s", {}).get("step/barrier", 0.0)
        wait_pct = f"{wait / wall:6.1%}" if wall > 0 else "     -"
        last_ckpt = s.get("last_checkpoint_step")
        ckpt = f"{last_ckpt:8d}" if last_ckpt is not None else f"{'-':>8s}"
        lines.append(f"  {rank:4d} {s['status']:>8s} {s['step']:8d} "
                     f"{frac:>6s} {s['mlups']:8.2f} {wall:8.2f} "
                     f"{wait_pct:>7s} {ckpt}")
        if s["error"]:
            lines.append(f"       {s['error']}")
    return "\n".join(lines)
