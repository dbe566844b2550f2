"""Tiny helper process that starts and reaps every measured child.

Why not ``subprocess`` straight from the harness: ``wait4`` reports a
child's peak resident set, but a child started with ``vfork`` + ``exec``
inherits as its floor the *parent's* peak at that moment. The harness
imports NumPy, touches memory and runs probes of its own, so children
started from it would all read "at least as big as the harness". This
helper stays at a few MB for its whole life, is started before the
harness grows, and does nothing but spawn, wait and report — so the
``ru_maxrss`` it returns belongs to the child (and the descendants the
child reaped: rank processes count towards their CLI parent).

It also makes clean-up fail closed. Every child leads its own process
group; when the helper's standard input closes — the harness exited,
crashed or was killed — it kills every group still alive before it exits.

Protocol: one JSON object per line on stdin, one reply per line on stdout.

    {"op": "spawn", "cmd": [...], "env": {...}, "cwd": ..., "stdout": path,
     "stderr": path}                       -> {"pid": ..., "spawn": t}
    {"op": "reap", "pid": ..., "timeout": s} -> {"returncode": ..., "exit": t,
                                               "maxrss_kb": ..., "timed_out": b}
    {"op": "poll", "pid": ...}             -> {"alive": bool}

Times are ``time.perf_counter()`` readings (CLOCK_MONOTONIC, shared by
all processes of the machine). Run with ``python3 -S -E`` to stay small.
"""

import json
import os
import signal
import subprocess
import sys
import time

LIVE = {}


class _Timeout(Exception):
    pass


def _on_alarm(signum, frame):
    raise _Timeout()


def _kill_group(pid, sig=signal.SIGKILL):
    try:
        os.killpg(pid, sig)
    except (ProcessLookupError, PermissionError):
        pass


def spawn(req):
    """Start one child in its own session; output goes to the named files."""
    with open(req["stdout"], "ab") as out, open(req["stderr"], "ab") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(req["cmd"], env=req["env"], cwd=req["cwd"],
                                stdout=out, stderr=err,
                                stdin=subprocess.DEVNULL,
                                start_new_session=True)
    LIVE[proc.pid] = proc
    return {"pid": proc.pid, "spawn": start}


def reap(req):
    """Block until the child exits (kill its group at the timeout)."""
    pid = req["pid"]
    proc = LIVE[pid]
    timed_out = False
    signal.setitimer(signal.ITIMER_REAL, float(req["timeout"]))
    try:
        _, status, usage = os.wait4(pid, 0)
        exit_time = time.perf_counter()
    except _Timeout:
        timed_out = True
        _kill_group(pid)
        _, status, usage = os.wait4(pid, 0)
        exit_time = time.perf_counter()
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
    proc.returncode = os.waitstatus_to_exitcode(status)
    del LIVE[pid]
    _kill_group(pid)        # ranks that outlived a killed parent
    return {"returncode": proc.returncode, "exit": exit_time,
            "maxrss_kb": usage.ru_maxrss, "timed_out": timed_out}


def stop_all():
    """Terminate, then kill, every group still alive; reap the leaders."""
    for pid in list(LIVE):
        _kill_group(pid, signal.SIGTERM)
    deadline = time.monotonic() + 5.0
    for pid, proc in list(LIVE.items()):
        while proc.poll() is None and time.monotonic() < deadline:
            time.sleep(0.01)
        _kill_group(pid)
        proc.wait()
        del LIVE[pid]


def main():
    """Serve requests until stdin closes, then stop whatever still runs."""
    signal.signal(signal.SIGALRM, _on_alarm)
    # The harness handles interrupts; this process must outlive them long
    # enough to clean up, which it does when its stdin closes. Handlers,
    # not SIG_IGN: an ignored signal would stay ignored in every child.
    signal.signal(signal.SIGINT, lambda signum, frame: None)
    signal.signal(signal.SIGTERM, lambda signum, frame: None)
    try:
        for line in sys.stdin:
            req = json.loads(line)
            if req["op"] == "spawn":
                reply = spawn(req)
            elif req["op"] == "reap":
                reply = reap(req)
            else:           # poll, without reaping: reap must see the rusage
                reply = {"alive": os.waitid(
                    os.P_PID, req["pid"],
                    os.WEXITED | os.WNOHANG | os.WNOWAIT) is None}
            sys.stdout.write(json.dumps(reply) + "\n")
            sys.stdout.flush()
    finally:
        stop_all()


if __name__ == "__main__":
    main()
