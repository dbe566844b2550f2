"""Resumed and supervised-retry process cells, dumped for a bit-for-bit compare.

usage: PYTHONPATH=CHECKOUT/src python resume_cells.py OUT.npz
       python resume_cells.py --compare A.npz B.npz

For every kind with a distributed form x scheme x backend on a D2Q9
61x13 grid: a 2-rank process cohort checkpoints at step 3 and a 3-rank
cohort resumes it to step 6 (``resume``), and a 2-rank cohort whose
rank 1 is killed at step 5 restarts from its step-4 checkpoint
(``retry``). ``rho`` / ``u`` of each, or the refusal's text, go to
OUT.npz. ``--compare`` lists every cell whose arrays or refusal differ.
"""
import sys
import tempfile
from dataclasses import replace

import numpy as np


def dump(out):
    from repro.parallel import FaultSpec, ProcessRuntime, RunSpec
    from repro.service.registry import problem_kinds, get_problem

    arrays = {}
    for kind in problem_kinds():
        if not get_problem(kind).distributed:
            continue
        for scheme in ("ST", "MR-P", "MR-R"):
            for accel in ("reference", "fused", "aa", "sparse"):
                name = f"{kind}/{scheme}/{accel}"
                try:
                    spec = RunSpec(kind, scheme, "D2Q9", (61, 13), 2,
                                   accel=accel)
                    with tempfile.TemporaryDirectory() as ck:
                        ProcessRuntime(replace(
                            spec, checkpoint_dir=ck,
                            checkpoint_every=3)).run(4)
                        res = ProcessRuntime(replace(
                            spec, n_ranks=3, resume_from=ck)).run(6)
                    with tempfile.TemporaryDirectory() as ck:
                        retry = ProcessRuntime(replace(
                            spec, checkpoint_dir=ck, checkpoint_every=4,
                            max_restarts=1,
                            fault=FaultSpec(rank=1, step=5, kind="kill")),
                            barrier_timeout=5.0, straggler_grace=2.0).run(7)
                    assert retry.restarts == 1 and res.start_step == 3
                    arrays.update({f"{name}/resume/rho": res.rho,
                                   f"{name}/resume/u": res.u,
                                   f"{name}/retry/rho": retry.rho,
                                   f"{name}/retry/u": retry.u})
                except (ValueError, RuntimeError) as err:
                    arrays[f"{name}/refused"] = np.array(str(err))
                print(name, "refused" if f"{name}/refused" in arrays
                      else "ok", flush=True)
    np.savez(out, **arrays)


def compare(a, b):
    a, b = np.load(a), np.load(b)
    names = sorted(set(a.files) | set(b.files))
    bad = [n for n in names if n not in a.files or n not in b.files
           or not np.array_equal(a[n], b[n])]
    cells = {n.rsplit("/", 2)[0] for n in names}
    print(f"{len(cells)} cells, {len(names)} arrays: "
          f"{len(names) - len(bad)} identical, {len(bad)} differ")
    for n in bad:
        print("  differs:", n)
    return 1 if bad else 0


if __name__ == "__main__":
    if sys.argv[1] == "--compare":
        sys.exit(compare(sys.argv[2], sys.argv[3]))
    dump(sys.argv[1])
