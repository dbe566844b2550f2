"""Time a 16-member Taylor-Green sweep: lockstep batch vs one member at a time.

usage: PYTHONPATH=CHECKOUT/src python sweep_axis.py N [N ...] >> OUT.jsonl

For each grid N x N and scheme (MR-P, ST, MR-R) on fused D2Q9, 16
members (tau 0.6 .. 1.35, u_max 0.05) step 200 times, five repetitions.
Each repetition builds fresh members and times their stepping only: one
``EnsembleRunner.run`` where the checkout still has it (``batched_s``),
and the same members stepped one after another (``one_by_one_s``); a
checkout without the batch axis times the second alone. Where both run,
every member's fields are checked ``np.array_equal`` across the two.
One JSON line per (grid, scheme) with the five walls of each and their
medians.
"""
import json
import statistics
import sys
import time

import numpy as np

SCHEMES = ("MR-P", "ST", "MR-R")
TAUS = tuple(0.6 + 0.05 * k for k in range(16))
STEPS = 200
REPS = 5


def members(ensemble, scheme, n):
    specs, _ = ensemble.expand_sweep("taylor-green", [scheme], ["D2Q9"],
                                     [(n, n)], TAUS, [0.05])
    return [ensemble.build_sweep_member(s) for s in specs]


def timed(step):
    t0 = time.perf_counter()
    step()
    return time.perf_counter() - t0


def main(grids):
    from repro import ensemble

    runner = getattr(ensemble, "EnsembleRunner", None)
    for n in grids:
        for scheme in SCHEMES:
            walls = {"one_by_one_s": [], "batched_s": []}
            identical = True
            for _ in range(REPS):
                alone = members(ensemble, scheme, n)
                walls["one_by_one_s"].append(timed(
                    lambda: [m.run(STEPS) for m in alone]))
                if runner is None:
                    continue
                batch = members(ensemble, scheme, n)
                walls["batched_s"].append(timed(
                    lambda: runner(batch).run(STEPS)))
                identical &= all(
                    np.array_equal(a, b) for x, y in zip(alone, batch)
                    for a, b in zip(x.macroscopic(), y.macroscopic()))
            row = {"grid": n, "scheme": scheme, "members": len(TAUS),
                   "steps": STEPS, **walls}
            for key in list(walls):
                if walls[key]:
                    row[key.replace("_s", "_median_s")] = statistics.median(
                        walls[key])
            if runner is not None:
                row["speedup"] = (row["one_by_one_median_s"]
                                  / row["batched_median_s"])
                row["bit_identical"] = identical
            print(json.dumps(row), flush=True)


if __name__ == "__main__":
    main([int(a) for a in sys.argv[1:]])
