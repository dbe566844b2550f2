"""``porous2d`` — the same ``accel`` layer used the other way.

D2Q9 seeded random porous medium, solid fraction 0.85 (about 88k fluid
nodes of 590k), uniform body force, half-way bounce-back; cells ST and
MR-P on the ``sparse`` backend: an indirect fluid-node-list gather with
folded bounce-back and Guo forcing where ``box3d`` does dense rolls, plus
a neighbour-table build at set-up.
"""

from __future__ import annotations

import time

from ..harness import input_hash
from .common import Context, cell_layer_names, cell_metrics, run_cells

NAME = "porous2d"
WHY = ("compact indirect-addressing path of accel: a dense-roll gain that "
       "costs the fluid-node-list path, or the reverse, shows here and not "
       "in box3d")

SCHEMES = ("ST", "MR-P")
LATTICE = "D2Q9"
SOLID_FRACTION = 0.85
FORCE_X = 1e-6

PER_LAYER = cell_layer_names(SCHEMES) + (
    "accel.table_build_s", "accel.fluid_fraction",
    "accel.fused_on_porous_mlups.mrp",
)


def run(ctx: Context) -> None:
    """Run the workload into ``ctx.result``."""
    sz = ctx.sizes
    shape = (sz.porous_n,) * 2
    # The microstructure seed is a generated input like any other: the
    # program is told which medium to build, not which benchmark seed ran.
    medium_seed = int(ctx.rng(0).integers(1, 2 ** 31 - 1))
    ctx.result.input_hash = input_hash(str(medium_seed).encode())
    options = {"solid_fraction": SOLID_FRACTION, "seed": medium_seed,
               "force_x": FORCE_X}
    seg_steps = {"ST": sz.porous_seg_steps_st, "MR-P": sz.porous_seg_steps_mrp}
    base = {
        "kind": "porous", "lattice": LATTICE, "shape": shape, "tau": 0.8,
        "backend": "sparse", "options": options, "u0_path": None,
        "setup_repeats": sz.setup_repeats,
        "prefault_mb": sz.porous_prefault_mb, "warmup_steps": 3,
        "parity": {"shape": (sz.porous_parity_n,) * 2, "against": "fused",
                   "steps": 8},
    }
    specs = {scheme: dict(base, scheme=scheme, seg_steps=seg_steps[scheme])
             for scheme in SCHEMES}
    if ctx.traced:
        # What the dense kernel makes of the same medium: context for mlups_*.
        specs["MR-P"]["canaries"] = [
            {"name": "accel.fused_on_porous_mlups.mrp", "backend": "fused",
             "seg_steps": max(sz.porous_extra_steps // 2, 1)}]
    segments = sz.porous_segments_traced if ctx.traced else sz.porous_segments
    cells = run_cells(ctx, specs, segments)
    for scheme, cell in cells.items():
        ctx.result.check(f"{scheme}.solid_pinned", cell.rec["solid_pinned"])
    ctx.result.counts = {
        "cells": len(SCHEMES), "segments": segments,
        "steps_st": sz.setup_repeats + 3 + segments * seg_steps["ST"],
        "steps_mrp": sz.setup_repeats + 3 + segments * seg_steps["MR-P"],
    }
    if len(cells) < len(SCHEMES):
        return

    cell_metrics(ctx, cells, "sparse", LATTICE)
    if not ctx.traced:
        return

    m = ctx.result.metrics
    from repro.accel import MaskedNeighborTable
    from repro.geometry import porous_medium
    from repro.lattice import get_lattice

    solid = porous_medium(shape, solid_fraction=SOLID_FRACTION,
                          seed=medium_seed).solid_mask
    with ctx.tracer.span("accel.table_build"):
        t0 = time.perf_counter()
        table = MaskedNeighborTable(get_lattice(LATTICE), solid)
        m["accel.table_build_s"] = time.perf_counter() - t0
    m["accel.fluid_fraction"] = table.n_fluid / table.n_nodes

    m.update(cells["MR-P"].rec["canaries"])
