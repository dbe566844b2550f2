"""One in-process cell, run in a fresh child interpreter.

``box3d`` and ``porous2d`` measure the solver through its public
functions — ``repro.service.registry.build_single``, ``Solver.run``,
``Solver.attach_telemetry`` — and each cell gets its own process so that
no cell inherits another's warmed allocator, imported modules or peak
memory. The parent writes a spec file (generated inputs included, never
the seed) and starts ``python -m perfbench.cell SPEC``.

The cells of a workload are alive together and the parent steps them in
turn, one segment at a time, over two FIFOs named in the spec: single-core
speed on a shared box wanders by +-15% over seconds, and a cell measured
in its own four-second window would report the window, not the kernel.
Interleaved, every cell samples the whole run, and all cells sample the
same weather.

Order inside the child: a pre-touch of as much memory as the cell will
use, freed at once (under the harness's allocator settings it stays in
the process, so the builds that follow find their pages backed by the
host, whatever the sandbox did with them before; its duration is reported
and belongs to no metric of the program); the set-ups (build + first
step) whose median is the cell's ``setup_s``, back to back, each solver
dropped before the next is built and the last one kept; warm-up; then
``ready`` is sent and the child steps a segment per ``seg`` command until
``finish``, upon which it runs its checks, the traced run's short canary
cells (the same problem on another backend, in this process because its
heap is already backed), and the small parity instance, prints its
record as one JSON line and exits.
"""

from __future__ import annotations

import time

_T_START = time.perf_counter()      # before the heavy imports, on purpose

import gc                           # noqa: E402
import json                         # noqa: E402
import sys                          # noqa: E402

import numpy as np                  # noqa: E402
from repro.obs import Telemetry     # noqa: E402
from repro.service.registry import build_single  # noqa: E402

from perfbench.trace import Tracer  # noqa: E402


def _build(spec: dict, shape, backend: str, u0):
    options = dict(spec.get("options", {}))
    if u0 is not None:
        options["u0"] = u0
    return build_single(spec["kind"], spec["scheme"], spec["lattice"],
                        tuple(shape), tau=spec["tau"], backend=backend,
                        **options)


def _fields(solver) -> np.ndarray:
    rho, u = solver.macroscopic()
    return np.concatenate([rho[None], u])


def _parity(spec: dict, tracer: Tracer) -> float:
    """Largest field difference between two backends on a small instance."""
    par = spec["parity"]
    u0 = np.load(par["u0_path"]) if par.get("u0_path") else None
    with tracer.span("parity"):
        states = []
        for backend in (spec["backend"], par["against"]):
            solver = _build(spec, par["shape"], backend, u0)
            solver.run(par["steps"])
            states.append(_fields(solver))
    return float(np.abs(states[0] - states[1]).max())


def _canary(spec: dict, canary: dict, u0, tracer: Tracer) -> float:
    """MLUPS of the cell's problem on another backend, over two short segments."""
    with tracer.span("canary", backend=canary["backend"]):
        solver = _build(spec, spec["shape"], canary["backend"], u0)
        solver.run(2)
        times = []
        for _ in range(2):
            t0 = time.perf_counter()
            solver.run(canary["seg_steps"])
            times.append(time.perf_counter() - t0)
        n_fluid = int(solver.domain.fluid_mask.sum())
    del solver
    gc.collect()
    return n_fluid * canary["seg_steps"] / (sum(times) / 2) / 1e6


def run_cell(spec: dict, commands, replies) -> dict:
    """Execute one cell spec under the parent's commands; returns the record."""
    tracer = Tracer(enabled=spec["spans"])
    tracer.add("import", _T_START, time.perf_counter(), None)
    with tracer.span("prefault"):
        t0 = time.perf_counter()
        block = np.empty(spec["prefault_mb"] * 1024 * 1024 // 8)
        block[::512] = 0.0          # one write per 4 KiB page
        del block
        prefault_s = time.perf_counter() - t0
    u0 = np.load(spec["u0_path"]) if spec.get("u0_path") else None
    builds: list[float] = []
    first_steps: list[float] = []

    def setup(label: str):
        with tracer.span(f"build_{label}"):
            t0 = time.perf_counter()
            solver = _build(spec, spec["shape"], spec["backend"], u0)
            t1 = time.perf_counter()
        with tracer.span("first_step"):
            solver.run(1)
            t2 = time.perf_counter()
        builds.append(t1 - t0)
        first_steps.append(t2 - t1)
        return solver

    solver = None
    for repeat in range(spec["setup_repeats"]):
        # A solver is a reference cycle (solver <-> diagnostics): dropping
        # the name frees nothing until the collector runs, and each build
        # would then sit on top of the last one's 200 MB.
        del solver
        gc.collect()
        solver = setup("cold" if repeat == 0 else "warm")
    fluid = solver.domain.fluid_mask
    mass0 = solver.diagnostics.mass()
    with tracer.span("warmup"):
        solver.run(spec["warmup_steps"])
    replies.write(json.dumps({"ready": time.perf_counter()}) + "\n")
    replies.flush()

    # Timed segments, one per command. "seg 1" steps with a Telemetry
    # registry attached, so the phase split and the cost of having it
    # attached come from the same process as the plain segments.
    telemetry = Telemetry(record_spans=False)
    for line in commands:
        command = line.split()
        if command[0] != "seg":
            break
        with_tel = command[1] == "1"
        solver.attach_telemetry(telemetry if with_tel else None)
        with tracer.span("segment", telemetry=with_tel):
            t0 = time.perf_counter()
            solver.run(spec["seg_steps"])
            seg_s = time.perf_counter() - t0
        replies.write(json.dumps({"seg_s": seg_s}) + "\n")
        replies.flush()
    solver.attach_telemetry(None)

    with tracer.span("checks"):
        state = _fields(solver)
        finite = bool(np.isfinite(state).all())
        mass1 = solver.diagnostics.mass()
        solid = solver.domain.solid_mask
        # rest state at solids: rho is sum(w), one ulp off 1 for ST
        solid_pinned = bool((np.abs(state[0][solid] - 1.0) < 1e-14).all()
                            and (state[1:][:, solid] == 0.0).all())
    del solver, state
    gc.collect()

    canaries = {c["name"]: _canary(spec, c, u0, tracer)
                for c in spec.get("canaries", [])}
    parity = _parity(spec, tracer) if spec.get("parity") else None

    traced_steps = telemetry.counters.get("steps", 0)
    phases = {name.split("/", 1)[1]: stats.total
              for name, stats in telemetry.phases.items() if "/" in name}
    return {
        "prefault_s": prefault_s,
        "builds": builds,
        "first_steps": first_steps,
        "n_fluid": int(fluid.sum()),
        "n_nodes": int(fluid.size),
        "phases": phases,
        "traced_steps": int(traced_steps),
        "finite": finite,
        "mass_rel_drift": abs(mass1 - mass0) / abs(mass0),
        "solid_pinned": solid_pinned,
        "parity_max_diff": parity,
        "canaries": canaries,
        "spans": tracer.export(),
    }


def main(argv: list[str]) -> int:
    """Entry point: ``python -m perfbench.cell SPEC.json``."""
    with open(argv[1], encoding="utf-8") as handle:
        spec = json.load(handle)
    # Same order as the parent opens them, or both sides block for ever.
    with open(spec["command_fifo"], encoding="utf-8") as commands, \
            open(spec["reply_fifo"], "w", encoding="utf-8") as replies:
        record = run_cell(spec, commands, replies)
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
