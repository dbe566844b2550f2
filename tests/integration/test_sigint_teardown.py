"""SIGINT during a distributed run must stop every rank and exit 130.

Regression test: Ctrl-C used to leave ``/dev/shm/mrlbm-*`` segments
behind (the parent unwound past the harvest loop without terminating
the rank processes first, so the blocks were still mapped when the
unlink ran) and the process died with a traceback instead of the
conventional ``128 + SIGINT`` status. The signal is delivered to the
*parent only* — exactly what a supervisor or a terminal foreground
group delivers — so the test exercises the runtime's own teardown path,
not the workers' default handlers.
"""

import os
import signal
import subprocess
import sys
import time
from pathlib import Path

from repro.obs import read_events, summarize_events

REPO_ROOT = Path(__file__).resolve().parents[2]


def test_sigint_exits_130_without_shm_leak(tmp_path, leaked_segments):
    events = tmp_path / "events"
    env = dict(os.environ)
    env["PYTHONPATH"] = (str(REPO_ROOT / "src") + os.pathsep
                         + env.get("PYTHONPATH", "")).rstrip(os.pathsep)
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro", "run",
         "--problem", "forced-channel", "--shape", "64,34",
         "--steps", "5000000", "--ranks", "2", "--backend", "process",
         "--events", str(events)],
        cwd=tmp_path, env=env, stdout=subprocess.PIPE,
        stderr=subprocess.PIPE, text=True)
    try:
        # wait until the cohort is actually running (first event lines)
        deadline = time.monotonic() + 60
        while (time.monotonic() < deadline
               and not list(events.glob("events-rank*.jsonl"))):
            assert proc.poll() is None, proc.communicate()
            time.sleep(0.1)
        assert list(events.glob("events-rank*.jsonl")), \
            "run never started emitting events"
        time.sleep(0.3)
        proc.send_signal(signal.SIGINT)
        out, err = proc.communicate(timeout=60)
    finally:
        if proc.poll() is None:  # pragma: no cover - cleanup on failure
            proc.kill()
            proc.communicate()
    assert proc.returncode == 130, (proc.returncode, out, err)
    assert "INTERRUPTED" in err
    # ranks the parent terminated get their terminal event from it
    assert summarize_events(read_events(events))["all_done"]
    # the interrupt path must terminate every rank; nothing is left behind
    assert leaked_segments() == []
