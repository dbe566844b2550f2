#!/usr/bin/env python3
"""Which dump cells moved between two ``tools/dump_cells.py`` dumps, and
whether each move is one a rounding change to the ST and forcing kernels
may make.

    PYTHONPATH=src python classify_dump.py DUMP_A DUMP_B

A cell may move when it steps ST, a forced MR problem, or MR on the
``sparse`` backend (its projection is cut chunk by chunk), and then only
within the conformance matrix's rule: 64 machine epsilons per step of the
compared field's magnitude (at least 1), on every float array of the
cell. Arrays dumped as a digest (more than 2**20 values) are compared by
digest only; their cell's ``rho`` / ``u`` carry the rule. Every other
cell must be ``np.array_equal``. Exit status 1 if any cell breaks this.
"""

from __future__ import annotations

import collections
import json
import sys
from functools import lru_cache
from pathlib import Path

import numpy as np

EPS = float(np.finfo(np.float64).eps)


@lru_cache(maxsize=None)
def forced(kind: str, lattice: str, shape: str) -> bool:
    """Whether the registry's problem of this dump cell has a body force."""
    if kind.startswith("schafer-turek"):
        return False
    from repro.service.registry import setup_problem

    dims = tuple(int(s) for s in shape.split("x"))
    options = {}
    if kind == "periodic":      # tools/dump_cells.py gives it a u0
        options["u0"] = np.zeros((len(dims), *dims))
    _, setup = setup_problem(kind.split("#")[0], lattice, dims, 0.8,
                             **options)
    return setup.force is not None and bool(np.any(setup.force))


def main(a: Path, b: Path) -> int:
    ia, ib = (json.loads((d / "cells.json").read_text()) for d in (a, b))
    sa, sb = (np.load(d / "arrays.npz") for d in (a, b))
    identical, moved, bad = 0, collections.Counter(), []
    worst_ratio = 0.0
    for cell in sorted(set(ia) | set(ib)):
        ca, cb = ia.get(cell), ib.get(cell)
        if ca != cb and (ca is None or cb is None or "refused" in ca
                         or "refused" in cb or ca["arrays"] != cb["arrays"]
                         or ca["path"] != cb["path"]):
            bad.append(f"{cell}: admitted, refused or stepped differently")
            continue
        if "refused" in ca:
            identical += 1
            continue
        kind, scheme, lattice, shape, backend, mode, steps = cell.split("/")
        diffs = {}
        for name in ca["arrays"]:
            x, y = sa[f"{cell}|{name}"], sb[f"{cell}|{name}"]
            if not np.array_equal(x, y):
                diffs[name] = (x, y)
        if not diffs:
            identical += 1
            continue
        may = (scheme == "ST" or backend == "sparse"
               or forced(kind, lattice, shape))
        if not may:
            bad.append(f"{cell}: moved ({', '.join(sorted(diffs))})")
            continue
        for name, (x, y) in diffs.items():
            if x.dtype != np.float64:       # a digest: rho / u decide
                continue
            bound = 64 * EPS * int(steps) * max(float(np.abs(y).max()), 1.0)
            worst = float(np.abs(x - y).max())
            worst_ratio = max(worst_ratio, worst / bound)
            if worst > bound:
                bad.append(f"{cell}|{name}: {worst:.2e} > {bound:.2e}")
        why = ("ST" if scheme == "ST" else
               "forced MR" if forced(kind, lattice, shape) else "sparse MR")
        moved[f"{why} {backend}"] += 1
    print(f"{len(ia)} / {len(ib)} cells: {identical} identical, "
          f"{sum(moved.values())} moved within the rule (largest move "
          f"{worst_ratio:.3f} of its bound), {len(bad)} not allowed")
    for group, n in sorted(moved.items()):
        print(f"  moved: {group}: {n} cells")
    for line in bad:
        print(" ", line)
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main(Path(sys.argv[1]), Path(sys.argv[2])))
