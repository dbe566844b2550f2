"""Decomposed runs at the single-domain defaults: do they match, and does
any slab refuse the finite-difference faces?

    PYTHONPATH=<checkout>/src python probe_defaults.py

Every cell of channel / forced-channel / cylinder x ST / MR-P / MR-R x
every backend x 1 / 2 / 3 emulated ranks x five grids (one of 9 planes,
cut into three 3-plane slabs) is built with the kind's single-domain
defaults spelled out, so the same file runs on any checkout, stepped
five times and compared with the single-domain run of the same backend.
Prints one line per grid and the largest difference overall; exits 1 if
a cell is refused or differs by more than the conformance matrix's
tolerance (64 epsilons per step of the field's magnitude).
"""

import inspect
import itertools
import sys

import numpy as np

from repro.accel import BACKENDS
from repro.service.registry import build_distributed, build_single, get_problem

KINDS = ("channel", "forced-channel", "cylinder")
SCHEMES = ("ST", "MR-P", "MR-R")
GRIDS = (("D2Q9", (32, 14)), ("D2Q9", (9, 8)), ("D2Q9", (13, 9)),
         ("D3Q19", (12, 6, 5)), ("D3Q19", (9, 5, 4)))
STEPS = 5


def defaults(kind: str) -> dict:
    params = inspect.signature(get_problem(kind).setup).parameters
    return {name: params[name].default for name in get_problem(kind).options}


def main() -> int:
    cells = refused = 0
    worst = 0.0
    failed = []
    for lattice, shape in GRIDS:
        grid_worst = 0.0
        for kind, scheme, backend in itertools.product(KINDS, SCHEMES,
                                                       BACKENDS):
            options = defaults(kind)
            single = build_single(kind, scheme, lattice, shape,
                                  backend=backend, **options).run(STEPS)
            want = np.concatenate([a.reshape(-1) for a in
                                   single.macroscopic()])
            bound = 64 * np.finfo(float).eps * STEPS * max(
                float(np.abs(want).max()), 1.0)
            for ranks in (1, 2, 3):
                cells += 1
                cell = f"{kind} {scheme} {lattice} {shape} {backend} {ranks}"
                try:
                    dist = build_distributed(kind, scheme, lattice, shape,
                                             ranks, accel=backend, **options)
                except ValueError as err:
                    refused += 1
                    failed.append(f"{cell}: refused: {err}")
                    continue
                got = np.concatenate([a.reshape(-1) for a in
                                      dist.run(STEPS).gather_macroscopic()])
                diff = float(np.abs(got - want).max())
                grid_worst = max(grid_worst, diff)
                if diff > bound:
                    failed.append(f"{cell}: max|d| = {diff:.2e} > {bound:.2e}")
        worst = max(worst, grid_worst)
        print(f"{lattice} {shape}: {len(KINDS) * len(SCHEMES) * len(BACKENDS) * 3}"
              f" cells, max|d| vs single-domain {grid_worst:.2e}")
    print(f"{cells} cells, {refused} refused, {len(failed)} failed; "
          f"max|d| {worst:.2e}")
    for line in failed:
        print(" ", line)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
