"""Chaos tests: deterministic fault injection against the process runtime.

Opt-in via ``pytest -m chaos`` (deselected by default — see
``pyproject.toml``): every test here launches real worker processes and
kills, hangs, or corrupts one of them mid-run through
:mod:`repro.parallel.faults`, then asserts the supervisor's contract:

* a killed rank triggers a bounded restart from the last checkpoint and
  the recovered run finishes with *exactly* the fields of an undisturbed
  run;
* a hung rank converts to a structured :class:`ParallelRuntimeError`
  via the barrier timeout and the straggler escalation — no deadlock,
  no zombie, and no leaked ``/dev/shm`` segment (asserted by listing
  the directory before and after);
* a NaN-corrupted rank is caught by the in-worker watchdog and likewise
  recovered from the checkpoint;
* with no checkpoint to restart from, retries restart from scratch and
  still converge once the fault stops firing;
* a whole process group killed mid-run leaves nothing in ``/dev/shm``.
"""

import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro.parallel import (FaultSpec, ParallelRuntimeError, ProcessRuntime,
                            RunSpec, run_process)

from test_conformance import assert_same_fields

pytestmark = pytest.mark.chaos

SHAPE = (24, 10)
TAU = 0.8
FAST = dict(barrier_timeout=5.0, straggler_grace=2.0)


def _spec(scheme, n_ranks, **kw):
    return RunSpec("periodic", scheme, "D2Q9", SHAPE, n_ranks,
                   tau=TAU, **kw)


@pytest.fixture(autouse=True)
def no_segment_outlives_a_test(leaked_segments):
    """Whatever a test breaks, no ``/dev/shm`` segment is left behind."""
    assert leaked_segments() == []
    yield
    assert leaked_segments() == []


class TestKillRecovery:
    """A rank killed mid-run is restarted from the last checkpoint."""

    @pytest.mark.parametrize("scheme", ["ST", "MR-P"])
    def test_kill_then_resume_matches_clean_run(self, tmp_path, scheme):
        clean = run_process(_spec(scheme, 2), 10)
        ck = str(tmp_path / "ck")
        spec = _spec(scheme, 2, checkpoint_dir=ck, checkpoint_every=4,
                     max_restarts=2,
                     fault=FaultSpec(rank=1, step=6, kind="kill"))
        result = run_process(spec, 10, **FAST)
        assert result.restarts == 1
        assert result.failure_history  # the killed attempt is on record
        assert_same_fields(result, clean)

    @pytest.mark.parametrize("scheme", ["ST", "MR-P"])
    def test_retry_forks_from_the_parents_unstepped_build(
            self, tmp_path, monkeypatch, refuse_to_build, scheme):
        """No worker of any attempt builds the spec: the retried cohort
        inherits the same rank-free shell the killed one did, and each
        rank builds its state from it again."""
        clean = run_process(_spec(scheme, 2), 10)
        runtime = ProcessRuntime(
            _spec(scheme, 2, checkpoint_dir=str(tmp_path / "ck"),
                  checkpoint_every=4, max_restarts=1,
                  fault=FaultSpec(rank=1, step=6, kind="kill")), **FAST)
        monkeypatch.setattr(RunSpec, "build", refuse_to_build)
        result = runtime.run(10)
        assert result.restarts == 1 and result.start_step == 4
        assert_same_fields(result, clean)

    def test_kill_without_checkpoint_restarts_from_scratch(self, tmp_path):
        clean = run_process(_spec("MR-P", 2), 8)
        spec = _spec("MR-P", 2, max_restarts=1,
                     fault=FaultSpec(rank=0, step=3, kind="kill"))
        result = run_process(spec, 8, **FAST)
        assert result.restarts == 1
        assert result.start_step == 0
        assert_same_fields(result, clean)

    def test_restart_budget_exhaustion_raises(self):
        # attempt=None arms the fault on every attempt: unrecoverable.
        spec = _spec("ST", 2, max_restarts=1,
                     fault=FaultSpec(rank=1, step=2, kind="exception",
                                     attempt=None))
        with pytest.raises(ParallelRuntimeError) as excinfo:
            run_process(spec, 6, **FAST)
        err = excinfo.value
        assert err.restarts == 1
        assert len(err.failure_history) == 2  # both attempts recorded
        assert "restart" in str(err)


class TestHangRecovery:
    """A hung rank becomes a structured timeout error, never a deadlock."""

    def test_hang_converts_to_structured_error(self):
        spec = _spec("ST", 2,
                     fault=FaultSpec(rank=0, step=2, kind="hang",
                                     hang_s=120.0))
        t0 = time.monotonic()
        with pytest.raises(ParallelRuntimeError) as excinfo:
            run_process(spec, 6, run_timeout=60.0, **FAST)
        # bounded by barrier_timeout + straggler_grace + harvest slack,
        # nowhere near the 120 s hang
        assert time.monotonic() - t0 < 40.0
        failures = excinfo.value.failures
        assert any(f.exc_type in ("Straggler", "ProcessExit")
                   for f in failures)

    def test_hang_with_checkpoint_recovers_on_retry(self, tmp_path):
        clean = run_process(_spec("MR-P", 2), 10)
        ck = str(tmp_path / "ck")
        spec = _spec("MR-P", 2, checkpoint_dir=ck, checkpoint_every=4,
                     max_restarts=1,
                     fault=FaultSpec(rank=1, step=6, kind="hang",
                                     hang_s=120.0))
        result = run_process(spec, 10, **FAST)
        assert result.restarts == 1
        assert_same_fields(result, clean)


class TestCorruptionRecovery:
    """NaN corruption is caught by the in-worker watchdog and recovered."""

    def test_corrupt_detected_and_recovered(self, tmp_path):
        clean = run_process(_spec("MR-P", 2), 10)
        ck = str(tmp_path / "ck")
        spec = _spec("MR-P", 2, checkpoint_dir=ck, checkpoint_every=4,
                     watchdog_every=2, max_restarts=1,
                     fault=FaultSpec(rank=0, step=6, kind="corrupt"))
        result = run_process(spec, 10, **FAST)
        assert result.restarts == 1
        assert any(f.exc_type == "StabilityError"
                   for att in result.failure_history for f in att)
        assert_same_fields(result, clean)

    def test_corrupt_without_watchdog_or_retry_fails_loud(self):
        # Without the watchdog the NaNs still blow up the moment any
        # reduction sees them is NOT guaranteed — but with the watchdog
        # and no restart budget the run must fail with the structured
        # report rather than return corrupted fields.
        spec = _spec("MR-P", 2, watchdog_every=2,
                     fault=FaultSpec(rank=0, step=2, kind="corrupt"))
        with pytest.raises(ParallelRuntimeError) as excinfo:
            run_process(spec, 8, **FAST)
        assert any(f.exc_type == "StabilityError"
                   for f in excinfo.value.failures)


class TestCliResume:
    """End-to-end: the documented CLI kill -> resume workflow."""

    def test_cli_checkpoint_then_resume(self, mrlbm, tmp_path):
        """A single domain writes, two process ranks resume."""
        run = "run --problem taylor-green --shape 24,24 --steps "
        mrlbm(run + f"6 --checkpoint-dir {tmp_path} --checkpoint-every 3")
        assert "resumed from checkpoint at step 3" in mrlbm(
            run + f"10 --resume {tmp_path} --ranks 2 --backend process")


def test_a_killed_group_leaves_no_segment(tmp_path, leaked_segments):
    """SIGKILL to the parent, its ranks and anything else it started:
    no process is left to clean up, and nothing needs it."""
    events, src = tmp_path / "ev", Path(__file__).parents[2] / "src"
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro", "run", "--shape", "64,34",
         "--steps", "5000000", "--ranks", "2", "--backend", "process",
         "--events", str(events), "--events-every", "5"],
        cwd=tmp_path, start_new_session=True, stdout=subprocess.DEVNULL,
        env={**os.environ, "PYTHONPATH": str(src)})
    deadline = time.monotonic() + 60
    try:
        while not any('"kind": "heartbeat"' in f.read_text()
                      for f in events.glob("events-rank*.jsonl")):
            assert proc.poll() is None and time.monotonic() < deadline
            time.sleep(0.05)
    finally:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait(timeout=30)
    assert leaked_segments() == []
