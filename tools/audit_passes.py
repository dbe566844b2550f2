#!/usr/bin/env python3
"""Pass and temporary audit of a fast-path step (ROADMAP item 1a).

For each scheme on one registered problem (``--kind``, a periodic box by
default; ``--option k=v`` sets the kind's options) this prints what one
step of the chosen backend holds and moves, measured three ways that
need no cooperation from the core, so the same file audits any commit
(``PYTHONPATH=<checkout>/src python tools/audit_passes.py``). On a masked
problem ``N`` is the number of *fluid* nodes — the updates a step is for:

* **buffers** — every float64 array reachable from the stepper, in units
  of one ``(Q, N)`` lattice: those at least ``N`` doubles long are
  *grid-scale* (each is a DRAM round trip whenever a pass touches it),
  the rest are the cache-resident window; integer index tables are
  listed beside them in the same unit;
* **temporaries** — ``tracemalloc``'s peak over one warm step, same unit
  (NumPy registers its data allocations with tracemalloc);
* **process** — what the stepper walk cannot see, in MB: ``tracemalloc``'s
  peak over the build (``build_single`` to a returned solver), what is
  live after the first step (state, core, tables, the problem's own
  arrays), and the arrays held by module-level caches of ``repro.*`` —
  memory no solver owns and no solver's death frees;
* **passes** — the phase timers of ``repro.obs.Telemetry`` converted into
  *values per node at copy speed*: ``seconds x copy bandwidth / (8 B x N)``,
  with the bandwidth of a large ``np.copyto`` measured in the same run
  and counted read + written, so one unit is one double read or written
  per node by a kernel that does nothing else. Arithmetic on cached
  chunks is time too, so this is an upper bound on the traffic.

The last column is the host model of docs/ALGORITHMS.md for the path the
core reports; the audit is how that table is kept honest.
"""

from __future__ import annotations

import argparse
import gc
import sys
import time
import tracemalloc
import weakref

import numpy as np

from repro.cli import _parse_option
from repro.obs import Telemetry
from repro.service.registry import build_single

SCHEMES = ("ST", "MR-P", "MR-R")


def model_values(path: str | None, backend: str, scheme: str, q: int,
                 m: int) -> str:
    """Grid-scale values moved per node per step (docs/ALGORITHMS.md)."""
    if backend == "sparse":         # per fluid node, index reads included
        if path != "lean":
            return "-"
        return (f"4Q + Q idx = {5 * q}" if scheme == "ST"
                else f"2Q + 2M + Q idx = {3 * q + 2 * m}")
    if path == "lean" and backend == "aa" and scheme == "ST":
        return f"6Q, 2Q alternating = {6 * q}, {2 * q}"
    if path == "lean":
        return f"2Q = {2 * q}" if scheme == "ST" else f"2M = {2 * m}"
    if path in ("bounded", "dense"):
        return f"4Q = {4 * q}"
    return "-"


def buffers(*owners, dtype=np.float64) -> list[np.ndarray]:
    """Distinct base buffers of ``dtype`` (``None``: any) reachable from
    ``owners``."""
    found: dict[int, np.ndarray] = {}
    seen: set[int] = set()
    stack = list(owners)
    while stack:
        obj = stack.pop()
        if obj is None or id(obj) in seen:
            continue
        seen.add(id(obj))
        if isinstance(obj, np.ndarray):
            while obj.base is not None:
                obj = obj.base
            if isinstance(obj, np.ndarray) and dtype in (None, obj.dtype):
                found[id(obj)] = obj
        elif isinstance(obj, (list, tuple)):
            stack.extend(obj)
        elif isinstance(obj, (dict, weakref.WeakValueDictionary)):
            stack.extend(obj.values())
        elif type(obj).__module__.startswith("repro.accel"):
            stack.extend(vars(obj).values())
    return list(found.values())


def module_cache_bytes() -> int:
    """Bytes of arrays reachable from module-level containers of ``repro.*``.

    Containers only (dicts, weak-value dicts, lists): a module constant
    that *is* an array is data, not a cache.
    """
    caches = [value for name, module in list(sys.modules.items())
              if name.startswith("repro") and module is not None
              for value in vars(module).values()
              if isinstance(value, (dict, list, weakref.WeakValueDictionary))]
    return sum(b.nbytes for b in buffers(*caches, dtype=None))


def copy_gbs(mb: int = 256, repeats: int = 5) -> float:
    """Copy bandwidth of this host in GB/s, read + written."""
    n = mb * 1024 * 1024 // 8
    src, dst = np.ones(n), np.zeros(n)
    best = min(_timed(np.copyto, dst, src) for _ in range(repeats))
    return 2.0 * n * 8 / best / 1e9


def _timed(fn, *args) -> float:
    t0 = time.perf_counter()
    fn(*args)
    return time.perf_counter() - t0


def audit(scheme: str, lattice: str, shape: tuple[int, ...], backend: str,
          steps: int, gbs: float, kind: str = "periodic",
          options: dict | None = None) -> dict:
    """Measure one scheme; returns the row as a dict."""
    options = dict(options or {})
    if kind == "periodic" and "u0" not in options:
        rng = np.random.default_rng(0)
        options["u0"] = 0.02 * rng.standard_normal(
            (len(shape), *shape)).clip(-1, 1)
    gc.collect()
    tracemalloc.start()
    start, _ = tracemalloc.get_traced_memory()
    solver = build_single(kind, scheme, lattice, shape, tau=0.8,
                          backend=backend, **options)
    _, build_peak = tracemalloc.get_traced_memory()
    solver.run(1)
    gc.collect()
    live, _ = tracemalloc.get_traced_memory()
    solver.run(1)
    lat, n = solver.lat, int(solver.domain.n_fluid)
    state = solver.f if scheme == "ST" else solver.m
    owned = [b for b in buffers(solver._stepper) if b is not state]
    tables = buffers(solver._stepper, dtype=np.intp)
    lattice_doubles = lat.q * n
    gc.collect()
    solver.run(1)
    base, _ = tracemalloc.get_traced_memory()
    tracemalloc.reset_peak()
    solver.run(1)
    _, peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()
    tel = Telemetry(record_spans=False)
    solver.attach_telemetry(tel)
    solver.run(steps)
    solver.attach_telemetry(None)
    phases = {name.split("/", 1)[1]: stats.total / steps
              for name, stats in tel.phases.items() if "/" in name}
    per_value = 8.0 * n / (gbs * 1e9)       # seconds per value per node
    return {
        "scheme": scheme, "path": solver.accel_path,
        "state": state.size / lattice_doubles,
        "grid": sum(b.size for b in owned if b.size >= n) / lattice_doubles,
        "window": sum(b.size for b in owned if b.size < n) / lattice_doubles,
        "tables": sum(b.size for b in tables if b.size >= n) / lattice_doubles,
        "temporaries": max(peak - base, 0) / 8 / lattice_doubles,
        "build_peak_mb": (build_peak - start) / 1e6,
        "live_mb": (live - start) / 1e6,
        "caches_mb": module_cache_bytes() / 1e6,
        "phases_ms": {k: v * 1e3 for k, v in phases.items()},
        "values": {k: v / per_value for k, v in phases.items()},
        "model": model_values(solver.accel_path, backend, scheme, lat.q,
                              lat.n_moments),
        "q": lat.q,
    }


def main() -> int:
    """Entry point."""
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--lattice", default="D3Q19")
    ap.add_argument("--shape", default="64,64,64")
    ap.add_argument("--backend", default="fused")
    ap.add_argument("--steps", type=int, default=8)
    ap.add_argument("--kind", default="periodic",
                    help="registered problem kind (default: periodic)")
    ap.add_argument("--option", action="append", default=[],
                    metavar="K=V", help="an option of the kind (repeatable)")
    args = ap.parse_args()
    shape = tuple(int(x) for x in args.shape.split(","))
    options = dict(_parse_option(item) for item in args.option)
    gbs = copy_gbs()
    print(f"# {args.kind} {args.lattice} {'x'.join(map(str, shape))} "
          f"backend={args.backend}; copy bandwidth {gbs:.1f} GB/s "
          "(read + written)")
    print("# N = fluid nodes; buffers, tables and temporaries in (Q, N) "
          "lattices; values = doubles per node per step at copy speed")
    print("| scheme | path | state | core grid-scale | core window | "
          "index tables | step temporaries | build peak MB | "
          "live after step 1 MB | module caches MB | phase ms/step | "
          "values/node (measured) | of which Q | model |")
    print("|" + "---|" * 14)
    for scheme in SCHEMES:
        row = audit(scheme, args.lattice, shape, args.backend, args.steps,
                    gbs, args.kind, options)
        total = sum(row["values"].values())
        ms = ", ".join(f"{k} {v:.1f}" for k, v in row["phases_ms"].items()
                       if v >= 0.05)
        print(f"| {row['scheme']} | {row['path']} | {row['state']:.2f} | "
              f"{row['grid']:.2f} | {row['window']:.3f} | "
              f"{row['tables']:.2f} | "
              f"{row['temporaries']:.3f} | {row['build_peak_mb']:.1f} | "
              f"{row['live_mb']:.1f} | {row['caches_mb']:.1f} | "
              f"{ms} | {total:.0f} | "
              f"{total / row['q']:.1f} Q | {row['model']} |")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
