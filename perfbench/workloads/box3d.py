"""``box3d`` — the paper's headline comparison on the dense kernels.

Periodic D3Q19 box, tau 0.8, seeded smooth random initial velocity;
cells ST, MR-P and MR-R on the ``fused`` backend, each in a fresh child
process through ``build_single("periodic", ...)`` and ``Solver.run``.
The fused-ST state of the full-size box is 2*19*8 B/node = 80 MB, about
ten times the two L2 caches.
"""

from __future__ import annotations

import time

import numpy as np

from ..harness import input_hash
from .common import (Context, cell_layer_names, cell_metrics, run_cells,
                     smooth_velocity)

NAME = "box3d"
WHY = ("dense accel kernels do >=95% of the work and boundary, parallel, io, "
       "service and cli do none: a gain claimed for those layers must read "
       "no change here")

SCHEMES = ("ST", "MR-P", "MR-R")
LATTICE = "D3Q19"
U_PEAK = 0.02

PER_LAYER = cell_layer_names(SCHEMES) + (
    "core.equilibrium_s",
    "accel.aa_mlups.st", "accel.aa_mlups.mrp", "accel.reference_mlups.mrp",
    "gpu.dram_bytes_per_flup.st", "gpu.dram_bytes_per_flup.mr",
)


def _save(ctx: Context, name: str, array: np.ndarray) -> str:
    path = ctx.children.scratch / name
    np.save(path, array)
    return str(path)


def _sector_bytes_per_flup(scheme: str) -> float:
    """DRAM bytes per lattice update the virtual-GPU kernel moves (exact).

    The same 32-byte-sector counting ``repro.obs.profile_scheme`` reports,
    but on a periodic box like this workload's: there every node is a
    fluid node, so the count is the paper's Table 2 figure itself (304 for
    ST, 160 for MR on D3Q19), where the walled channel ``profile_scheme``
    measures reads 3% low per node and costs 70 s cold.
    """
    from repro.gpu import (KernelProblem, MemoryTracker, MRKernel, STKernel,
                           get_device)
    from repro.lattice import get_lattice

    lat, dev = get_lattice(LATTICE), get_device("V100")
    problem = KernelProblem(lat, (8, 32, 32), 0.8, mode="periodic")
    tracker = MemoryTracker(l2_bytes=int(dev.l2_kb * 1024))
    kernel = (STKernel(problem, dev, tracker=tracker) if scheme == "ST"
              else MRKernel(problem, dev, scheme=scheme, tracker=tracker))
    kernel.step()
    stats = kernel.step()
    return stats.traffic.sector_bytes_total / stats.n_nodes


def run(ctx: Context) -> None:
    """Run the workload into ``ctx.result``."""
    sz = ctx.sizes
    shape = (sz.box_n,) * 3
    parity_shape = (sz.box_parity_n,) * 3
    u0 = smooth_velocity(ctx.rng(0), shape, U_PEAK)
    u0_parity = smooth_velocity(ctx.rng(1), parity_shape, U_PEAK)
    ctx.result.input_hash = input_hash(u0, u0_parity)
    u0_path = _save(ctx, "box-u0.npy", u0)
    parity_path = _save(ctx, "box-u0-parity.npy", u0_parity)

    base = {
        "kind": "periodic", "lattice": LATTICE, "shape": shape, "tau": 0.8,
        "backend": "fused", "u0_path": u0_path,
        "setup_repeats": sz.setup_repeats, "prefault_mb": sz.box_prefault_mb,
        "warmup_steps": sz.box_warmup_steps, "seg_steps": sz.box_seg_steps,
        "parity": {"shape": parity_shape, "u0_path": parity_path,
                   "against": "reference", "steps": 8},
    }
    specs = {scheme: dict(base, scheme=scheme) for scheme in SCHEMES}
    if ctx.traced:
        # Cross-backend canaries: a refactor of kernels these backends
        # share with ``fused`` shows here even though no end-to-end metric
        # reads them.
        steps = max(sz.box_extra_steps // 2, 1)
        specs["ST"]["canaries"] = [
            {"name": "accel.aa_mlups.st", "backend": "aa", "seg_steps": steps}]
        specs["MR-P"]["canaries"] = [
            {"name": "accel.aa_mlups.mrp", "backend": "aa",
             "seg_steps": steps},
            {"name": "accel.reference_mlups.mrp", "backend": "reference",
             "seg_steps": steps}]
    segments = sz.box_segments_traced if ctx.traced else sz.box_segments
    cells = run_cells(ctx, specs, segments)
    ctx.result.counts = {
        "cells": len(SCHEMES), "segments": segments,
        "steps_per_cell": sz.setup_repeats + sz.box_warmup_steps
        + segments * sz.box_seg_steps,
    }
    if len(cells) < len(SCHEMES):
        return

    cell_metrics(ctx, cells, "fused", LATTICE)
    if not ctx.traced:
        return

    m = ctx.result.metrics
    from repro.core import equilibrium
    from repro.lattice import get_lattice

    with ctx.tracer.span("core.equilibrium"):
        t0 = time.perf_counter()
        equilibrium(get_lattice(LATTICE), np.ones(shape), u0)
        m["core.equilibrium_s"] = time.perf_counter() - t0

    for cell in cells.values():
        m.update(cell.rec["canaries"])

    with ctx.tracer.span("gpu.sector_count"):
        m["gpu.dram_bytes_per_flup.st"] = _sector_bytes_per_flup("ST")
        m["gpu.dram_bytes_per_flup.mr"] = _sector_bytes_per_flup("MR-P")
