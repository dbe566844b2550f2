#!/usr/bin/env python3
"""In-process ms/step and ru_maxrss of channel / curved cases, sparse vs fused.

    python fallback_vs_fused.py ROUNDS PARENT_CHECKOUT CHANGE_CHECKOUT

runs every (case, scheme, backend) once per checkout and round, each in a
fresh process with that checkout's ``src`` on ``PYTHONPATH`` and one BLAS
thread, reversing the order every other round; one JSON line per process
(``--one`` is the per-process entry point). timing.txt beside it is the
output of a 3-round run, summarised.
"""
import json
import os
import resource
import subprocess
import sys
import time

CASES = ("ch3d", "ch2d", "curved")


def one(case, scheme, backend):
    import numpy as np  # noqa: F401
    from repro.service.registry import build_single
    from repro.validation.cylinder import schafer_turek_case

    if case == "ch3d":
        s = build_single("channel", scheme, "D3Q19", (128, 48, 48), backend=backend)
    elif case == "ch2d":
        s = build_single("channel", scheme, "D2Q9", (768, 352), backend=backend)
    else:
        s = schafer_turek_case(d=20, scheme=scheme, backend=backend, curved=True).solver
    s.run(1)
    times = []
    for _ in range(5):
        t0 = time.perf_counter()
        s.run(4)
        times.append((time.perf_counter() - t0) / 4 * 1e3)
    core = s._stepper.core
    return {"case": case, "scheme": scheme, "backend": backend,
            "path": s.accel_path, "core": type(core).__name__,
            "ms_per_step": [round(t, 2) for t in times],
            "ru_maxrss_mb": round(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, 1)}


def main():
    if sys.argv[1] == "--one":
        tree, case, scheme, backend = sys.argv[2:6]
        print(json.dumps(one(case, scheme, backend)))
        return
    rounds, trees = int(sys.argv[1]), sys.argv[2:4]
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1")
    for r in range(rounds):
        for case in CASES:
            for scheme in ("ST", "MR-P"):
                order = [(t, b) for b in ("sparse", "fused") for t in (0, 1)]
                if r % 2:
                    order.reverse()
                for t, backend in order:
                    env["PYTHONPATH"] = os.path.join(trees[t], "src")
                    out = subprocess.run(
                        [sys.executable, __file__, "--one", trees[t], case, scheme, backend],
                        env=env, capture_output=True, text=True, check=True).stdout
                    print(("parent" if t == 0 else "change"), out.strip(), flush=True)


if __name__ == "__main__":
    main()
