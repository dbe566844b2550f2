"""Two-worker soak of ``mrlbm serve``: many tiny jobs, two clients, no hang.

    PYTHONPATH=src python benchmarks/results/pr37_job_process/soak.py \
        [--jobs 2000] [--every-forked 4] [--out soak.txt]

Starts ``python -m repro serve --workers 2`` on a Unix socket in a
temporary directory and drives it from two client threads in a closed
loop (each submits its next job once the last one is sealed). Every job
is distinct (its own ``u_max``): a 16x16 D2Q9 ``taylor-green`` MR-P run
of 5 steps, and every ``--every-forked``-th one on two ranks, so those
go through the process runtime and fork a cohort from a job process.

A job not sealed within 60 s counts as a hang. While the soak runs a
monitor thread records every process descended from the server; after
``POST /shutdown`` the script checks that none of them is still alive
(zombies count as gone) and that ``/dev/shm`` holds no ``mrlbm*``
entry. The summary goes to stdout (and ``--out``); the exit code is 0
only if every job finished, none hung and nothing was left behind.
"""

from __future__ import annotations

import argparse
import os
import shutil
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path

from repro.service import ServiceClient, ServiceError

JOB_TIMEOUT_S = 60.0


def process_table() -> dict[int, tuple[int, str]]:
    """``pid -> (ppid, state)`` of every process visible in /proc."""
    table = {}
    for entry in os.listdir("/proc"):
        if entry.isdigit():
            try:
                stat = Path(f"/proc/{entry}/stat").read_text()
            except OSError:
                continue
            fields = stat.rsplit(")", 1)[1].split()
            table[int(entry)] = (int(fields[1]), fields[0])
    return table


def descendants(root: int) -> set[int]:
    """Every live process whose parent chain reaches ``root``."""
    table, found = process_table(), set()
    for pid in table:
        seen, at = set(), pid
        while at in table and at not in seen and at != root:
            seen.add(at)
            at = table[at][0]
        if at == root and pid != root:
            found.add(pid)
    return found


def main() -> int:
    """Run the soak; print the summary; exit 0 when it is clean."""
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--jobs", type=int, default=2000)
    parser.add_argument("--every-forked", type=int, default=4)
    parser.add_argument("--out", default=None)
    args = parser.parse_args()

    scratch = Path(tempfile.mkdtemp(prefix="mrlbm-soak-"))
    sock = str(scratch / "s.sock")
    server = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve", "--workers", "2",
         "--uds", sock, "--root", str(scratch / "jobs")],
        stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
    client = ServiceClient(sock, timeout=10)
    for _ in range(1000):
        try:
            client.health()
            break
        except (OSError, ServiceError):
            time.sleep(0.01)

    seen: set[int] = set()
    stop = threading.Event()

    def monitor() -> None:
        while not stop.is_set():
            seen.update(descendants(server.pid))
            time.sleep(0.05)

    latencies: list[float] = []
    failed: list[str] = []
    hung: list[str] = []
    cursor, lock = [0], threading.Lock()

    def client_loop() -> None:
        mine = ServiceClient(sock, timeout=JOB_TIMEOUT_S)
        while True:
            with lock:
                i = cursor[0]
                cursor[0] += 1
            if i >= args.jobs:
                return
            payload = {"kind": "taylor-green", "scheme": "MR-P",
                       "lattice": "D2Q9", "shape": [16, 16], "steps": 5,
                       "accel": "fused",
                       "n_ranks": 2 if i % args.every_forked == 0 else 1,
                       "options": {"u_max": 0.01 + 0.04 * i / args.jobs}}
            t0 = time.perf_counter()
            try:
                job = mine.submit(payload)["job"]
                job = mine.wait(job["id"], timeout_s=JOB_TIMEOUT_S,
                                poll_s=0.005)
            except TimeoutError as exc:
                hung.append(f"job {i}: {exc}")
                continue
            except (OSError, ServiceError) as exc:
                failed.append(f"job {i}: {type(exc).__name__}: {exc}")
                continue
            if job["state"] == "done":
                latencies.append(time.perf_counter() - t0)
            else:
                failed.append(f"job {i}: {job['state']}: {job['error']}")

    threading.Thread(target=monitor, daemon=True).start()
    t0 = time.perf_counter()
    clients = [threading.Thread(target=client_loop) for _ in range(2)]
    for thread in clients:
        thread.start()
    for thread in clients:
        thread.join()
    wall = time.perf_counter() - t0
    health = client.health()
    client.shutdown()
    try:
        server.wait(30)
    except subprocess.TimeoutExpired:
        failed.append("server did not exit within 30 s of /shutdown")
        server.kill()
        server.wait()
    stop.set()
    time.sleep(0.5)
    table = process_table()
    left = sorted(pid for pid in seen
                  if pid in table and table[pid][1] != "Z")
    shm = sorted(p.name for p in Path("/dev/shm").glob("mrlbm*"))
    shutil.rmtree(scratch, ignore_errors=True)

    latencies.sort()

    def pct(q: float) -> float:
        return latencies[min(len(latencies) - 1, int(q * len(latencies)))]
    lines = [
        f"jobs {args.jobs} (every {args.every_forked}th on 2 ranks), "
        f"2 workers, 2 clients, {wall:.1f} s wall, "
        f"{len(latencies) / wall:.1f} jobs/s",
        f"done {len(latencies)}, failed {len(failed)}, "
        f"hung {len(hung)}; runs_executed {health['runs_executed']}",
        f"latency p50 {pct(0.5) * 1e3:.1f} ms, p99 {pct(0.99) * 1e3:.1f} ms,"
        f" max {latencies[-1] * 1e3:.1f} ms" if latencies else "no latency",
        f"server exit code {server.returncode}; processes descended from "
        f"the server seen {len(seen)}, alive after shutdown {left}; "
        f"/dev/shm mrlbm* {shm}",
        *failed[:10], *hung[:10]]
    text = "\n".join(lines) + "\n"
    sys.stdout.write(text)
    if args.out:
        Path(args.out).write_text(text, encoding="utf-8")
    clean = not failed and not hung and not left and not shm
    return 0 if clean and len(latencies) == args.jobs else 1


if __name__ == "__main__":
    sys.exit(main())
