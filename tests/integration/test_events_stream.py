"""Integration: live per-rank event streams from the process runtime.

The acceptance scenario of the performance observatory: a multi-rank
``--backend process`` run with ``events_dir`` set writes one append-only
JSONL stream per rank into the run directory, tailable while the cohort
runs (``mrlbm watch``), and the merged report attributes halo-exchange
wait time and load imbalance across the ranks.
"""

import threading

import pytest

from repro.obs.events import (event_files, iter_events, read_events,
                              summarize_events)
from repro.parallel import RunSpec, run_process


class TestProcessEventStreams:
    def test_four_rank_run_streams_per_rank_events(self, tmp_path):
        run_dir = tmp_path / "run"
        spec = RunSpec("channel", "ST", "D2Q9", (48, 18), 4, tau=0.9,
                       options={"u_max": 0.04},
                       events_dir=str(run_dir), events_every=3)
        result = run_process(spec, 12)

        files = event_files(run_dir)
        assert [p.name for p in files] == [
            f"events-rank{r:04d}.jsonl" for r in range(4)]

        summary = summarize_events(read_events(run_dir))
        assert summary["n_ranks"] == 4 and summary["all_done"]
        for rank, state in summary["ranks"].items():
            assert state["status"] == "done"
            assert state["step"] == 12 and state["fraction"] == 1.0
            assert "step/barrier" in state["phases_s"]

        # The merged report carries the imbalance attribution block.
        imb = result.report["imbalance"]
        assert imb["slowest_rank"] in (0, 1, 2, 3)
        assert imb["imbalance_ratio"] >= 1.0
        assert 0.0 < imb["exchange_wait_share"] < 1.0
        assert len(imb["per_rank"]) == 4
        for rep in result.report["per_rank"]:
            assert rep["exchange_wait_s"] > 0.0

    def test_streams_are_tailable_while_running(self, tmp_path):
        run_dir = tmp_path / "run"
        spec = RunSpec("periodic", "ST", "D2Q9", (32, 16), 2, tau=0.8,
                       events_dir=str(run_dir), events_every=5)
        seen: list[dict] = []
        offsets: dict = {}

        def tail():
            # Incremental reader racing the live writers: scans forward
            # with per-file offsets exactly like `mrlbm watch --follow`.
            while not done.is_set():
                seen.extend(iter_events(run_dir, offsets))
            seen.extend(iter_events(run_dir, offsets))

        done = threading.Event()
        tailer = threading.Thread(target=tail)
        tailer.start()
        try:
            run_process(spec, 60)
        finally:
            done.set()
            tailer.join(timeout=30)
        kinds = [e["kind"] for e in seen]
        assert kinds.count("start") == 2 and kinds.count("end") == 2
        assert kinds.count("heartbeat") >= 2 * (60 // 5)
        summary = summarize_events(seen)
        assert summary["all_done"]
        assert all(s["mlups"] > 0 for s in summary["ranks"].values())

    def test_failed_rank_emits_error_event(self, tmp_path):
        run_dir = tmp_path / "run"
        spec = RunSpec("periodic", "ST", "D2Q9", (24, 12), 2, tau=0.8,
                       fault={"rank": 1, "step": 3, "kind": "exception"},
                       events_dir=str(run_dir), events_every=2)
        from repro.parallel import ParallelRuntimeError

        with pytest.raises(ParallelRuntimeError):
            run_process(spec, 8)
        summary = summarize_events(read_events(run_dir))
        statuses = {r: s["status"] for r, s in summary["ranks"].items()}
        assert statuses[1] == "error"
        assert summary["ranks"][1]["error"].startswith("FaultInjected")
