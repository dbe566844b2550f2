"""Unit: the per-rank JSONL event bus behind ``mrlbm watch``.

Covers the append-only writer (one flushed JSON line per event), the
cadence emitter the runtime workers drive, incremental tailing with
torn-line handling (a reader never sees a half-written event), the
follow loop's termination rule and the per-rank summary/table rendering.
"""

import json

from repro.obs import (EventStream, RunEventEmitter, Telemetry, event_files,
                       follow_events, format_watch, read_events,
                       summarize_events)
from repro.obs.events import EVENT_KINDS, iter_events


class FakeClock:
    """Deterministic, strictly increasing timestamps."""

    def __init__(self):
        self.t = 0.0

    def __call__(self):
        self.t += 1.0
        return self.t


class TestEventStream:
    def test_emit_writes_one_json_line_per_event(self, tmp_path):
        with EventStream(tmp_path, rank=3, attempt=1,
                         clock=FakeClock()) as stream:
            stream.emit("start", step=0, n_steps=10)
            stream.emit("heartbeat", step=5, mlups=1.5)
        lines = stream.path.read_text().splitlines()
        assert stream.path.name == "events-rank0003.jsonl"
        assert len(lines) == 2
        first = json.loads(lines[0])
        assert first == {"ts": 1.0, "rank": 3, "attempt": 1,
                         "kind": "start", "step": 0, "n_steps": 10}

    def test_restarted_attempt_appends_to_same_file(self, tmp_path):
        EventStream(tmp_path, rank=0).emit("start", step=0)
        EventStream(tmp_path, rank=0, attempt=1).emit("start", step=0)
        assert len(event_files(tmp_path)) == 1
        events = read_events(tmp_path)
        assert [e["attempt"] for e in events] == [0, 1]

    def test_read_events_merges_ranks_by_timestamp(self, tmp_path):
        clock = FakeClock()
        s0 = EventStream(tmp_path, rank=0, clock=clock)
        s1 = EventStream(tmp_path, rank=1, clock=clock)
        s0.emit("start", step=0)           # ts 1
        s1.emit("start", step=0)           # ts 2
        s0.emit("end", step=4)             # ts 3
        assert [e["rank"] for e in read_events(tmp_path)] == [0, 1, 0]


class TestIncrementalTail:
    def test_offsets_skip_already_seen_events(self, tmp_path):
        stream = EventStream(tmp_path, rank=0)
        stream.emit("start", step=0)
        offsets = {}
        assert len(list(iter_events(tmp_path, offsets))) == 1
        assert list(iter_events(tmp_path, offsets)) == []
        stream.emit("heartbeat", step=1)
        fresh = list(iter_events(tmp_path, offsets))
        assert [e["kind"] for e in fresh] == ["heartbeat"]

    def test_torn_trailing_line_deferred_to_next_poll(self, tmp_path):
        stream = EventStream(tmp_path, rank=0)
        stream.emit("start", step=0)
        # Simulate a writer caught mid-append: no trailing newline yet.
        with open(stream.path, "a", encoding="utf-8") as fh:
            fh.write('{"ts": 2.0, "rank": 0, "kind": "hea')
        offsets = {}
        assert [e["kind"] for e in iter_events(tmp_path, offsets)] == ["start"]
        with open(stream.path, "a", encoding="utf-8") as fh:
            fh.write('rtbeat"}\n')
        assert [e["kind"] for e in iter_events(tmp_path, offsets)] \
            == ["heartbeat"]

    def test_new_rank_file_picked_up_mid_tail(self, tmp_path):
        EventStream(tmp_path, rank=0).emit("start", step=0)
        offsets = {}
        list(iter_events(tmp_path, offsets))
        EventStream(tmp_path, rank=1).emit("start", step=0)
        assert [e["rank"] for e in iter_events(tmp_path, offsets)] == [1]

    def test_follow_stops_when_every_started_rank_ends(self, tmp_path):
        for rank, last in ((0, "end"), (1, "error")):
            stream = EventStream(tmp_path, rank=rank)
            stream.emit("start", step=0)
            stream.emit(last, step=9)
        events = list(follow_events(tmp_path, poll_s=0.01, timeout_s=5.0))
        assert len(events) == 4

    def test_follow_times_out_on_a_hung_run(self, tmp_path):
        EventStream(tmp_path, rank=0).emit("start", step=0)  # never ends
        events = list(follow_events(tmp_path, poll_s=0.01, timeout_s=0.05))
        assert [e["kind"] for e in events] == ["start"]


class TestRunEventEmitter:
    def _emitter(self, tmp_path, every=5, n_steps=12, telemetry=None):
        return RunEventEmitter(EventStream(tmp_path, rank=0), every=every,
                               n_steps=n_steps, telemetry=telemetry,
                               n_fluid=100)

    def test_cadence_and_final_step(self, tmp_path):
        emitter = self._emitter(tmp_path)
        emitter.start(pid=1)
        for step in range(1, 13):
            emitter.maybe(step)
        emitter.end(12)
        heartbeats = [e["step"] for e in read_events(tmp_path)
                      if e["kind"] == "heartbeat"]
        assert heartbeats == [5, 10, 12]       # cadence + forced final step
        kinds = {e["kind"] for e in read_events(tmp_path)}
        assert kinds == {"start", "heartbeat", "progress", "end"}

    def test_progress_fraction_and_phase_snapshot(self, tmp_path):
        tel = Telemetry()
        with tel.phase("step"):
            with tel.phase("barrier"):
                pass
        emitter = self._emitter(tmp_path, telemetry=tel)
        emitter.maybe(5)
        events = {e["kind"]: e for e in read_events(tmp_path)}
        assert events["progress"]["fraction"] == 5 / 12
        assert "step/barrier" in events["phase"]["totals_s"]

    def test_checkpoint_watchdog_and_error_kinds(self, tmp_path):
        emitter = self._emitter(tmp_path)
        emitter.checkpoint(10, "/tmp/ckpt")
        emitter.watchdog(10, ok=True)
        emitter.error(11, "ValueError", "boom")
        kinds = [e["kind"] for e in read_events(tmp_path)]
        assert kinds == ["checkpoint", "watchdog", "error"]
        assert all(k in EVENT_KINDS for k in kinds)

    def test_error_after_close_never_raises(self, tmp_path):
        emitter = self._emitter(tmp_path)
        emitter.stream.close()
        emitter.error(1, "RuntimeError", "late failure")   # must not raise


class TestSummarize:
    def _run(self, tmp_path, rank, last_kind="end"):
        clock = FakeClock()
        stream = EventStream(tmp_path, rank=rank, clock=clock)
        emitter = RunEventEmitter(stream, every=5, n_steps=10, n_fluid=10)
        emitter.start(pid=1)
        emitter.maybe(5)
        emitter.checkpoint(5, "ckpt")
        emitter.watchdog(5)
        if last_kind == "end":
            emitter.maybe(10)
            emitter.end(10, steps=10)
        else:
            emitter.error(7, "ValueError", "injected")

    def test_per_rank_state(self, tmp_path):
        self._run(tmp_path, 0, "end")
        self._run(tmp_path, 1, "error")
        summary = summarize_events(read_events(tmp_path))
        assert summary["n_ranks"] == 2 and summary["all_done"]
        done, failed = summary["ranks"][0], summary["ranks"][1]
        assert done["status"] == "done" and done["step"] == 10
        assert done["fraction"] == 1.0
        assert done["checkpoints"] == 1 and done["watchdog_checks"] == 1
        assert failed["status"] == "error"
        assert failed["error"] == "ValueError: injected"

    def test_running_rank_keeps_cohort_open(self, tmp_path):
        self._run(tmp_path, 0, "end")
        EventStream(tmp_path, rank=1).emit("start", step=0, n_steps=10)
        summary = summarize_events(read_events(tmp_path))
        assert not summary["all_done"]
        assert summary["ranks"][1]["status"] == "running"

    def test_format_watch_renders_table(self, tmp_path):
        self._run(tmp_path, 0, "end")
        self._run(tmp_path, 1, "error")
        text = format_watch(summarize_events(read_events(tmp_path)))
        assert "done" in text and "error" in text
        assert "ValueError: injected" in text

    def test_last_checkpoint_step_surfaces(self, tmp_path):
        """The most recent checkpoint's step is summarized and rendered.

        Regression: checkpoint events always carried their step, but the
        summary only counted them — a watcher could not tell *where* a
        crashed rank would resume from.
        """
        self._run(tmp_path, 0, "end")
        summary = summarize_events(read_events(tmp_path))
        assert summary["ranks"][0]["last_checkpoint_step"] == 5
        text = format_watch(summary)
        assert "ckpt" in text.splitlines()[0]
        row = text.splitlines()[1]
        assert row.split()[-1] == "5"

    def test_ckpt_column_dash_without_checkpoints(self, tmp_path):
        stream = EventStream(tmp_path, rank=0, clock=FakeClock())
        emitter = RunEventEmitter(stream, every=5, n_steps=10, n_fluid=10)
        emitter.start(pid=1)
        emitter.maybe(10)
        emitter.end(10, steps=10)
        summary = summarize_events(read_events(tmp_path))
        assert summary["ranks"][0]["last_checkpoint_step"] is None
        row = format_watch(summary).splitlines()[1]
        assert row.split()[-1] == "-"

    def test_empty_directory_summarizes_empty(self, tmp_path):
        summary = summarize_events(read_events(tmp_path))
        assert summary == {"ranks": {}, "n_ranks": 0, "all_done": False}
