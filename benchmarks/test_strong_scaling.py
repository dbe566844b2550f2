"""Extension bench: strong scaling of the multiprocess slab runtime.

Runs one fixed channel problem across an increasing rank count with the
``process`` backend (real OS processes over shared memory, the runtime
behind ``mrlbm run --backend process``), records the per-rank and cohort
MLUPS from the merged telemetry report, and cross-checks three
invariants that must hold at any scale:

* every rank count reproduces the single-domain reference solver to
  machine precision (the halo protocol is exact);
* exchange volume grows linearly with the number of interior cut faces
  while the MR payload stays at M doubles per face node;
* the merged report accounts every interior fluid node exactly once.

Wall-clock speedup is *recorded but not asserted* — CI machines may
expose a single core, where the barrier-synchronized cohort legitimately
shows no strong scaling. So is memory: the ``rank MB`` column is the
largest per-rank ``peak_rss_mb`` of the merged report, and ``above
floor`` that minus the peak of a forked child that builds nothing (what
every rank starts from). A rank builds only its own slab, so the part
above the floor falls roughly as 1/N.
"""

import multiprocessing as mp

import numpy as np
from conftest import run_once

from repro.bench import render_table
from repro.obs.telemetry import peak_rss_mb
from repro.parallel import RunSpec, run_process
from repro.service.registry import build_single

SHAPE = (960, 160)
STEPS = 30
TAU = 0.9
U_MAX = 0.04
RANK_COUNTS = (1, 2, 4)
SCHEME = "MR-P"


def _fork_floor_mb() -> float:
    """Peak RSS of a forked child that builds nothing: a rank's floor."""
    ctx = mp.get_context("fork")
    box = ctx.SimpleQueue()
    child = ctx.Process(target=lambda: box.put(peak_rss_mb()))
    child.start()
    child.join()
    return box.get()


def _measure():
    out = []
    for n_ranks in RANK_COUNTS:
        spec = RunSpec("channel", SCHEME, "D2Q9", SHAPE, n_ranks, tau=TAU,
                       options={"u_max": U_MAX})
        floor = _fork_floor_mb()
        result = run_process(spec, STEPS)
        rank_mb = max(rep["summary"]["peak_rss_mb"] for rep in result.per_rank)
        out.append({
            "rank_mb": rank_mb,
            "above_floor_mb": rank_mb - floor,
            "ranks": n_ranks,
            "u": result.u,
            "mlups": result.report["mlups"],
            "wall_s": result.wall_s,
            "bytes_per_step": result.comm.bytes_per_step(),
            "n_fluid": result.report["n_fluid"],
            "barrier_s": result.report["phases"]["step/barrier"]["total_s"],
            "compute_s": result.report["phases"]["step/compute"]["total_s"],
        })
    # The reference is built after the forks, so the ranks do not
    # inherit its heap (they would reuse it without a page of RSS).
    ref = build_single("channel", SCHEME, "D2Q9", SHAPE, tau=TAU, u_max=U_MAX)
    ref.run(STEPS)
    _, u_ref = ref.macroscopic()
    for d in out:
        d["max_diff"] = float(np.abs(d.pop("u") - u_ref).max())
    return out


def test_strong_scaling(benchmark, write_result):
    data = run_once(benchmark, _measure)

    rows = [[d["ranks"], f"{d['mlups']:.2f}", f"{d['wall_s']:.2f}",
             f"{d['bytes_per_step']:,.0f}", f"{d['compute_s']:.2f}",
             f"{d['barrier_s']:.2f}", f"{d['rank_mb']:.1f}",
             f"{d['above_floor_mb']:.1f}", f"{d['max_diff']:.1e}"]
            for d in data]
    write_result("strong_scaling.txt", render_table(
        ["ranks", "MLUPS", "wall s", "B/step", "compute s", "barrier s",
         "rank MB", "above floor", "max|u| err"], rows,
        f"Strong scaling — {SCHEME} channel {SHAPE}, {STEPS} steps "
        "(process backend)"))

    lat_m, face_nodes = 6, SHAPE[1]          # D2Q9: M = 6 moments
    for d in data:
        # Exact at every rank count.
        assert d["max_diff"] < 1e-13
        # MR payload: one interior cut per rank boundary, both directions.
        cuts = d["ranks"] - 1
        assert d["bytes_per_step"] == 2 * cuts * lat_m * face_nodes * 8
        # Every interior fluid node owned exactly once.
        assert d["n_fluid"] == data[0]["n_fluid"]
