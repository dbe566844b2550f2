"""Per-process peak RSS of perfbench's ranks2 CLI runs: the CLI parent and its ranks.

usage: python rss_probe.py CHECKOUT [repeats]

Runs the check (1 and 2 ranks), plain and fault-tolerant CLI runs of the
``ranks2`` channel from CHECKOUT under perfbench's run conditions, polls
``/proc/<pid>/status`` VmHWM of the CLI process and of its children, and
prints one JSON record per run (with wait4's ru_maxrss of the whole tree
and the merged report's per-rank peaks). Linux only.
"""
import os, sys, subprocess, time, tempfile, json, shutil
tree = os.path.abspath(sys.argv[1]); reps = int(sys.argv[2]) if len(sys.argv) > 2 else 1
env = dict(os.environ, PYTHONPATH=os.path.join(tree, "src"), PYTHONDONTWRITEBYTECODE="1",
           OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1",
           MALLOC_MMAP_MAX_="0", MALLOC_TRIM_THRESHOLD_=str(2**40))

def hwm(pid):
    try:
        with open(f"/proc/{pid}/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024
    except OSError:
        return None

def children(pid):
    out = []
    try:
        for t in os.listdir(f"/proc/{pid}/task"):
            with open(f"/proc/{pid}/task/{t}/children") as fh:
                out += [int(x) for x in fh.read().split()]
    except OSError:
        pass
    return out

def run(tag, ranks, steps, ft):
    d = tempfile.mkdtemp()
    cmd = [sys.executable, "-m", "repro", "run", "--problem", "channel", "--scheme", "MR-P",
           "--lattice", "D3Q19", "--shape", "128,48,48", "--ranks", str(ranks), "--backend", "process",
           "--accel", "fused", "--steps", str(steps), "--u-max", "0.04",
           "--metrics", f"{d}/m.jsonl", "--output", f"{d}/out.npz"]
    if ft:
        cmd += ["--checkpoint-dir", f"{d}/ckpt", "--checkpoint-every", str(steps // 2),
                "--events", f"{d}/events", "--watchdog", str(steps // 2)]
    p = subprocess.Popen(cmd, env=env, cwd=tree, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE)
    peaks = {}
    names = {p.pid: "parent"}
    while True:
        r = os.waitid(os.P_PID, p.pid, os.WEXITED | os.WNOHANG | os.WNOWAIT)
        for pid in [p.pid] + children(p.pid):
            names.setdefault(pid, f"child{len(names)}")
            v = hwm(pid)
            if v is not None:
                peaks[names[pid]] = max(peaks.get(names[pid], 0), v)
        if r is not None:
            break
        time.sleep(0.002)
    _, status, ru = os.wait4(p.pid, 0)
    rep = json.loads(open(f"{d}/m.jsonl").read().strip().splitlines()[-1])["report"]
    ranks_rep = {f"rank{x['rank']}": round(x["summary"]["peak_rss_mb"], 1) for x in rep["per_rank"]}
    shutil.rmtree(d)
    return dict(tag=tag, polled={k: round(v, 1) for k, v in peaks.items()},
                report_ranks=ranks_rep, report_peak=(round(rep["peak_rss_mb"], 1), rep["peak_rss_process"]),
                wait4_maxrss=round(ru.ru_maxrss / 1024, 1), rc=status)

for i in range(reps):
    for tag, ranks, steps, ft in (("check-r1", 1, 10, False), ("check-r2", 2, 10, False),
                                  ("plain", 2, 40, False), ("ft", 2, 40, True)):
        print(json.dumps(run(tag, ranks, steps, ft)), flush=True)
