#!/usr/bin/env python3
"""Dump what every admitted cell computes, and compare two dumps.

    PYTHONPATH=<checkout>/src python tools/dump_cells.py --out DIR
    python tools/dump_cells.py --compare DIR_A DIR_B

A *cell* is ``(kind, scheme, lattice/shape, backend, mode, steps)`` with
kind from ``problem_kinds()``, backend from ``repro.accel.BACKENDS``, mode
``single`` or ``{1, 2, 3}`` ranks on the emulated or the process runtime
and steps from ``--steps`` (by default an odd and an even count: a
single-lattice backend stores the two differently). The Schäfer–Turek
cylinder has one grid per diameter and no distributed form, so it is
dumped apart, at d = 4, Re = 20 and ``u_max = 0.1``: the curved wall
(the one boundary without a row extent) and the staircase, a cell per
scheme, backend and step count each — built as the ``schafer-turek``
kind. Each admitted cell's
state (``solver.f`` / ``solver.m``), ``rho`` / ``u``, ``accel_path`` and
every boundary ``last_force`` are recorded; a refused cell records the
refusal's message. "Bit-identical to the parent" in a PR is ``--compare``
of this file's output under the two checkouts: it imports only names
both have, so the same file runs against any commit of the round.

Small grids are stepped with ``_CHUNK`` lowered to 32 (set before
anything is built, inherited by forked ranks) so that they slide over
several slabs; the last grid is the ``ranks2`` benchmark shape at the
shipped constant. Arrays of more than ``2**20`` values are recorded as a
SHA-256 digest. ``--compare`` calls a cell *identical* when every array
is ``np.array_equal``; where the leading-axis plane is not a multiple of
eight nodes BLAS rounds the last columns of a product by another kernel
(docs/PERFORMANCE.md, *Parity contract*), so such cells may differ in
the last bits and are listed with their largest difference. A
decomposed cell that moved is checked against B's own single-domain
cell of the same options: one whose ``rho`` / ``u`` agree with it to the
conformance matrix's tolerance (64 epsilons per step of the field's
magnitude) moved *onto its single-domain problem* and is listed apart.
"""

from __future__ import annotations

import argparse
import collections
import hashlib
import itertools
import json
import sys
from pathlib import Path

import numpy as np

SCHEMES = ("ST", "MR-P", "MR-R")
#: (lattice, shape, _CHUNK or None for the shipped constant)
GRIDS = (
    ("D2Q9", (96, 16), 32), ("D2Q9", (61, 13), 32),
    ("D3Q19", (64, 4, 4), 32), ("D3Q19", (37, 5, 3), 32),
    ("D3Q27", (48, 4, 4), 32),
)
BIG = ("D3Q19", (128, 48, 48), None)        # perfbench's ranks2 problem
#: cell kind of the Schäfer–Turek cells by their ``curved`` option
CYLINDER = {True: "schafer-turek-curved", False: "schafer-turek-staircase"}
MODES = ("single",) + tuple(
    f"{runtime}-{n}" for runtime in ("emulated", "process") for n in (1, 2, 3))


def _options(kind: str, lattice: str, shape: tuple) -> list[dict]:
    """Option sets a kind is dumped with (the first is its defaults)."""
    if kind == "periodic":
        d = len(shape)
        u0 = 0.03 * np.random.default_rng(3).standard_normal((d, *shape))
        return [{"u0": u0}]
    if kind == "channel":
        return [{}, {"bc_method": "nebb", "outlet_tangential": "zero"}]
    return [{}]


def _record(arrays: dict, name: str, value) -> None:
    value = np.ascontiguousarray(value)
    if value.size > 2 ** 20:
        digest = hashlib.sha256(value.tobytes()).hexdigest()
        value = np.frombuffer(digest.encode(), dtype=np.uint8)
    arrays[name] = value


def _run_single(solver, steps):
    """``(arrays, path)`` of one single-domain cell."""
    arrays: dict = {}
    solver.run(steps)
    # checkouts from before ``solver.f`` was natural on every
    # backend un-stream an odd ``aa`` step through this method
    natural = getattr(solver, "_natural_f", None)
    _record(arrays, "state", natural() if natural
            else solver.f if solver.name == "ST" else solver.m)
    rho, u = solver.macroscopic()
    for k, b in enumerate(solver.boundaries):
        if getattr(b, "last_force", None) is not None:
            _record(arrays, f"last_force{k}", b.last_force)
    _record(arrays, "rho", rho)
    _record(arrays, "u", u)
    return arrays, solver.accel_path


def _run_cell(kind, scheme, lattice, shape, backend, mode, options, steps):
    """``(arrays, path)`` of one admitted cell (raises ``ValueError``)."""
    from repro.service.registry import build_distributed, build_single

    if mode == "single":
        return _run_single(build_single(kind, scheme, lattice, shape,
                                        backend=backend, **options), steps)
    arrays: dict = {}
    runtime, n = mode.split("-")
    if runtime == "emulated":
        dist = build_distributed(kind, scheme, lattice, shape, int(n),
                                 accel=backend, **options)
        dist.run(steps)
        rho, u = dist.gather_macroscopic()
        for r, rank in enumerate(dist.ranks):
            _record(arrays, f"rank{r}", dist.field(rank))
        path = ",".join(str(rank.accel_path) for rank in dist.ranks)
    else:
        from repro.parallel.runtime import ProcessRuntime, RunSpec

        spec = RunSpec(kind, scheme, lattice, shape, int(n),
                       options=options, accel=backend)
        result = ProcessRuntime(spec).run(steps)
        rho, u, path = result.rho, result.u, None
    _record(arrays, "rho", rho)
    _record(arrays, "u", u)
    return arrays, path


def _schafer_turek(scheme: str, backend: str, curved: bool):
    """The d = 4, Re = 20 Schäfer–Turek solver (see the module doc)."""
    from repro.service.registry import build_single
    from repro.validation import schafer_turek_tau

    return build_single("schafer-turek", scheme, "D2Q9", (88, 18),
                        tau=schafer_turek_tau(20, 4, 0.1), backend=backend,
                        u_max=0.1, curved=curved)


def _cylinder_cells(steps: list[int], index: dict, store: dict) -> None:
    """The Schäfer–Turek cells, single-domain (see the module doc)."""
    from repro.accel import BACKENDS

    for (curved, kind), scheme, backend, n in itertools.product(
            CYLINDER.items(), SCHEMES, BACKENDS, steps):
        try:
            solver = _schafer_turek(scheme, backend, curved)
            cell = "/".join((kind, scheme, solver.lat.name,
                             "x".join(map(str, solver.domain.shape)),
                             backend, "single", str(n)))
            arrays, path = _run_single(solver, n)
        except ValueError as err:
            index[f"{kind}/{scheme}/{backend}/{n}"] = {"refused": str(err)}
            continue
        index[cell] = {"path": path, "arrays": sorted(arrays)}
        for name, value in arrays.items():
            store[f"{cell}|{name}"] = value


def dump(out: Path, steps: list[int], big: bool) -> int:
    import repro.accel.fused as fused
    import repro.core.blocking as blocking
    from repro.accel import BACKENDS
    from repro.service.registry import problem_kinds

    shipped = blocking._CHUNK
    out.mkdir(parents=True, exist_ok=True)
    index, store = {}, {}
    grids = GRIDS + ((BIG,) if big else ())
    for lattice, shape, chunk in grids:
        for module in (fused, blocking):
            module._CHUNK = chunk or shipped
        heavy = chunk is None
        kinds = [k for k in problem_kinds() if k != "schafer-turek"]
        for kind in (["channel"] if heavy else kinds):
            for k, options in enumerate(_options(kind, lattice, shape)):
                for scheme in SCHEMES:
                    for backend in (("fused",) if heavy else BACKENDS):
                        for mode, n in itertools.product(
                                MODES, (3,) if heavy else steps):
                            cell = "/".join((
                                kind + (f"#{k}" if k else ""), scheme,
                                lattice, "x".join(map(str, shape)), backend,
                                mode, str(n)))
                            try:
                                arrays, path = _run_cell(
                                    kind, scheme, lattice, shape, backend,
                                    mode, options, n)
                            except ValueError as err:
                                index[cell] = {"refused": str(err)}
                                continue
                            index[cell] = {"path": path,
                                           "arrays": sorted(arrays)}
                            for name, value in arrays.items():
                                store[f"{cell}|{name}"] = value
                print(f"{lattice} {shape} {kind}: {len(index)} cells",
                      file=sys.stderr)
    for module in (fused, blocking):
        module._CHUNK = shipped
    _cylinder_cells(steps, index, store)
    np.savez(out / "arrays.npz", **store)
    (out / "cells.json").write_text(json.dumps(index, indent=1, sort_keys=True))
    refused = sum("refused" in c for c in index.values())
    print(f"{len(index)} cells ({refused} refused), {len(store)} arrays "
          f"-> {out}")
    return 0


def _onto_single(cell: str, index: dict, store) -> float | None:
    """Largest ``rho`` / ``u`` difference of decomposed ``cell`` from the
    same dump's single-domain cell, if within the matrix's tolerance."""
    parts = cell.split("/")
    single = "/".join(parts[:5] + ["single"] + parts[6:])
    if parts[5] == "single" or "refused" in index.get(single, {"refused": 1}):
        return None
    worst = 0.0
    for name in ("rho", "u"):
        x, y = store[f"{cell}|{name}"], store[f"{single}|{name}"]
        bound = 64 * np.finfo(float).eps * int(parts[6]) * max(
            float(np.abs(y).max()), 1.0)
        if x.shape != y.shape or np.abs(x - y).max() > bound:
            return None
        worst = max(worst, float(np.abs(x - y).max()))
    return worst


def compare(a: Path, b: Path) -> int:
    ia, ib = (json.loads((d / "cells.json").read_text()) for d in (a, b))
    sa, sb = (np.load(d / "arrays.npz") for d in (a, b))
    identical, paths = 0, collections.Counter()
    rounding, onto, broken = [], [], []
    for cell in sorted(set(ia) | set(ib)):
        ca, cb = ia.get(cell), ib.get(cell)
        if ca is None or cb is None or ("refused" in ca) != ("refused" in cb):
            broken.append(f"{cell}: admitted on one side only")
            continue
        if "refused" in ca:
            if ca["refused"] != cb["refused"]:
                broken.append(f"{cell}: refusal text differs")
            else:
                identical += 1
            continue
        if ca["path"] != cb["path"]:
            kind, scheme, _, _, backend, mode, _ = cell.split("/")
            paths[f"{kind} {scheme} {backend} {mode}: "
                  f"{ca['path']} -> {cb['path']}"] += 1
        if ca["arrays"] != cb["arrays"]:
            broken.append(f"{cell}: array names differ")
            continue
        worst = 0.0
        for name in ca["arrays"]:
            x, y = sa[f"{cell}|{name}"], sb[f"{cell}|{name}"]
            if not np.array_equal(x, y):
                worst = max(worst, float(np.abs(x - y).max())
                            if x.dtype == np.float64 and x.shape == y.shape
                            else np.inf)
        plane = int(np.prod([int(s) for s in cell.split("/")[3].split("x")][1:]))
        if worst == 0.0:
            identical += 1
        elif plane % 8 and worst < 1e-13:
            rounding.append(f"{cell}: max|d| = {worst:.2e}")
        elif (off := _onto_single(cell, ib, sb)) is not None:
            onto.append(f"{cell}: max|d| = {worst:.2e} from A, "
                        f"{off:.2e} from B's single-domain cell")
        else:
            broken.append(f"{cell}: max|d| = {worst:.2e}")
    print(f"{len(ia)} / {len(ib)} cells: {identical} identical "
          f"({sum('refused' in c for c in ia.values())} refusals among "
          f"them), {len(rounding)} within BLAS-tail rounding (plane not a "
          f"multiple of 8), {len(onto)} moved onto their single-domain "
          f"problem, {len(broken)} broken; {sum(paths.values())} "
          f"report another accel_path")
    for line in rounding + onto + broken + [
            f"{change} ({n} cells)" for change, n in sorted(paths.items())]:
        print(" ", line)
    return 1 if broken else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--out", type=Path, help="dump into this directory")
    parser.add_argument("--compare", nargs=2, type=Path, metavar=("A", "B"))
    parser.add_argument("--steps", type=int, nargs="+", default=[5, 4],
                        help="step counts of every small cell (default: "
                        "an odd and an even one)")
    parser.add_argument("--skip-big", action="store_true",
                        help="leave out the 128x48x48 ranks2-shape cells")
    args = parser.parse_args(argv)
    if args.compare:
        return compare(*args.compare)
    if args.out is None:
        parser.error("one of --out and --compare is required")
    return dump(args.out, args.steps, not args.skip_big)


if __name__ == "__main__":
    sys.exit(main())
