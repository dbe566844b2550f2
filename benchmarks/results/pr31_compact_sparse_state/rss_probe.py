"""Peak RSS of a ``porous2d`` cell without the harness's pre-touch.

perfbench's ``porous2d`` cells pre-touch 224 MB before building (so that
the builds find backed pages), which floors ``peak_rss_mb`` above what a
cell really holds. This probe runs the very cell program,
``python -m perfbench.cell SPEC``, with the workload's spec (D2Q9 768^2,
solid fraction 0.85, force 1e-6, five set-ups, warm-up, 20 segments,
checks, the 96^2 parity instance) but ``prefault_mb = 0``, under the
harness's run conditions, and prints the child's peak resident set
(``ru_maxrss`` from ``wait4``, what perfbench's launcher reads too).

    python3 rss_probe.py TREE [TREE ...]     # e.g. parent/ change/

Each tree runs ST then MR-P, alternating trees, ``--rounds`` times.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

SEG_STEPS = {"ST": 10, "MR-P": 20}


def spec_for(scheme: str, work: Path) -> dict:
    return {
        "kind": "porous", "scheme": scheme, "lattice": "D2Q9",
        "shape": [768, 768], "tau": 0.8, "backend": "sparse",
        "options": {"solid_fraction": 0.85, "seed": 123456789,
                    "force_x": 1e-6},
        "u0_path": None, "setup_repeats": 5, "prefault_mb": 0,
        "warmup_steps": 3, "seg_steps": SEG_STEPS[scheme], "spans": False,
        "parity": {"shape": [96, 96], "against": "fused", "steps": 8},
        "command_fifo": str(work / "cmd"),
        "reply_fifo": str(work / "reply"),
    }


def run_cell(tree: Path, scheme: str, segments: int = 20) -> float:
    """The cell's peak RSS in MB."""
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        os.mkfifo(work / "cmd")
        os.mkfifo(work / "reply")
        spec_path = work / "spec.json"
        spec_path.write_text(json.dumps(spec_for(scheme, work)))
        env = dict(os.environ, PYTHONPATH=f"{tree / 'src'}:{tree}",
                   PYTHONDONTWRITEBYTECODE="1", OPENBLAS_NUM_THREADS="1",
                   OMP_NUM_THREADS="1", MKL_NUM_THREADS="1",
                   MALLOC_MMAP_MAX_="0",
                   MALLOC_TRIM_THRESHOLD_=str(2 ** 40))
        child = subprocess.Popen(
            [sys.executable, "-m", "perfbench.cell", str(spec_path)],
            env=env, cwd=tree, stdout=subprocess.PIPE, text=True)
        with open(work / "cmd", "w") as commands, \
                open(work / "reply") as replies:
            json.loads(replies.readline())                  # ready
            for _ in range(segments):
                commands.write("seg 0\n")
                commands.flush()
                json.loads(replies.readline())
            commands.write("finish\n")
        record = json.loads(child.stdout.read().strip().splitlines()[-1])
        _, _, usage = os.wait4(child.pid, 0)
        child.returncode = 0
        assert record["solid_pinned"] and record["parity_max_diff"] < 1e-12
        return usage.ru_maxrss / 1024


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("trees", nargs="+", type=Path)
    parser.add_argument("--rounds", type=int, default=2)
    args = parser.parse_args()
    for r in range(args.rounds):
        for tree in args.trees:
            for scheme in ("ST", "MR-P"):
                print(f"round {r} {tree} {scheme}: peak RSS "
                      f"{run_cell(tree.resolve(), scheme):.1f} MB", flush=True)


if __name__ == "__main__":
    main()
