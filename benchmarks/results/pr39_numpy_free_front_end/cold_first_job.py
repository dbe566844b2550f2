"""Cold ``mrlbm serve``: spawn -> first /healthz 200 -> first fresh job sealed.

    python cold_first_job.py PARENT_SRC CHANGE_SRC [PAIRS]

PARENT_SRC / CHANGE_SRC are two checkouts' ``src/`` directories. Each
pair starts one server per tree on an empty root (odd pairs parent first,
even pairs change first), submits one fresh job — taylor-green MR-P D2Q9
64x64, 100 steps, ``accel=fused``, the ``served`` workload's fresh kind —
the moment ``/healthz`` answers, and polls it every 5 ms until sealed.
Prints one line per server, ``pair side healthy_s sealed_s``, then the
medians. The client is stdlib only, so it loads neither tree; servers run
under ``OPENBLAS_NUM_THREADS=1 PYTHONDONTWRITEBYTECODE=1`` like perfbench's.
"""

import http.client
import json
import os
import socket
import statistics
import subprocess
import sys
import tempfile
import time


class _Uds(http.client.HTTPConnection):
    def __init__(self, path):
        super().__init__("localhost", timeout=30)
        self._path = path

    def connect(self):
        self.sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        self.sock.settimeout(30)
        self.sock.connect(self._path)


def call(path, method, url, payload=None):
    conn = _Uds(path)
    try:
        conn.request(method, url, body=None if payload is None
                     else json.dumps(payload))
        resp = conn.getresponse()
        return resp.status, json.loads(resp.read() or b"{}")
    finally:
        conn.close()


def one(src, workdir, tag):
    sock = os.path.join(workdir, f"{tag}.sock")
    env = dict(os.environ, PYTHONPATH=src, OPENBLAS_NUM_THREADS="1",
               PYTHONDONTWRITEBYTECODE="1")
    t0 = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve", "--workers", "1",
         "--uds", sock, "--root", os.path.join(workdir, f"{tag}-jobs")],
        env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
    try:
        while True:
            try:
                if call(sock, "GET", "/healthz")[0] == 200:
                    break
            except OSError:
                pass
            time.sleep(0.002)
        healthy = time.perf_counter() - t0
        _, reply = call(sock, "POST", "/jobs", {
            "kind": "taylor-green", "scheme": "MR-P", "lattice": "D2Q9",
            "shape": [64, 64], "steps": 100, "accel": "fused",
            "options": {"u_max": 0.03}})
        job = reply["job"]["id"]
        while call(sock, "GET", f"/jobs/{job}")[1]["state"] not in (
                "done", "failed"):
            time.sleep(0.005)
        sealed = time.perf_counter() - t0
        state = call(sock, "GET", f"/jobs/{job}")[1]["state"]
        assert state == "done", state
        call(sock, "POST", "/shutdown")
        proc.wait(30)
        return healthy, sealed
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()


def main():
    parent, change = sys.argv[1], sys.argv[2]
    pairs = int(sys.argv[3]) if len(sys.argv) > 3 else 10
    seen = {"parent": [], "change": []}
    with tempfile.TemporaryDirectory(dir=".") as work:
        work = os.path.relpath(work)        # AF_UNIX paths are short
        for i in range(1, pairs + 1):
            order = ("parent", "change") if i % 2 else ("change", "parent")
            for side in order:
                src = parent if side == "parent" else change
                healthy, sealed = one(src, work, f"{side}{i}")
                seen[side].append((healthy, sealed))
                print(f"{i} {side} {healthy:.4f} {sealed:.4f}", flush=True)
    for side, runs in seen.items():
        print(f"median {side}: healthy_s "
              f"{statistics.median(h for h, _ in runs):.4f} sealed_s "
              f"{statistics.median(s for _, s in runs):.4f}")
    wins = sum(c[1] <= p[1] for p, c in zip(seen["parent"], seen["change"]))
    print(f"change sealed no later than parent in {wins}/{pairs} pairs")


if __name__ == "__main__":
    main()
