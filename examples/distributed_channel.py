"""Distributed channel flow: both parallel backends, one halo protocol.

Splits the paper's channel proxy app into streamwise slabs and runs it
on BOTH parallel backends (see docs/PARALLEL.md):

* ``emulated`` — every rank stepped sequentially in one process;
* ``process`` — every rank a forked OS process with a private slab, halo
  faces in anonymous shared mappings, barrier-synchronized steps.

Verifies that both reproduce the single-domain solver to machine
precision and that they account identical exchange volumes, prints the
merged per-rank telemetry of the process run, and compares the
communication volume of the standard representation (the crossing
populations, measured; all Q, the naive payload, analytic) against the
moment representation (M moments per face node, reconstructed on the
receiving rank) from actual runs.

Run:  python examples/distributed_channel.py
"""

import numpy as np

from repro.parallel import RunSpec, run_process
from repro.service.registry import build_distributed
from repro.service.registry import build_single


def main() -> None:
    shape = (64, 22)
    n_ranks = 4
    steps = 400

    ref = build_single("channel", "MR-P", "D2Q9", shape, tau=0.9, u_max=0.04)
    ref.run(steps)
    _, ur = ref.macroscopic()
    print(f"channel {shape} on {n_ranks} ranks, {steps} steps")

    # Backend 1: sequential in-process emulation.
    emu = build_distributed("channel", "MR-P", "D2Q9", shape, n_ranks,
                            tau=0.9, u_max=0.04)
    emu.run(steps)
    _, ue = emu.gather_macroscopic()
    print(f"  emulated backend vs single-domain: "
          f"max diff {np.abs(ue - ur).max():.2e}")

    # Backend 2: real worker processes over shared memory.
    spec = RunSpec("channel", "MR-P", "D2Q9", shape, n_ranks, tau=0.9,
                   options={"u_max": 0.04})
    result = run_process(spec, steps)
    print(f"  process  backend vs single-domain: "
          f"max diff {np.abs(result.u - ur).max():.2e}")
    assert np.abs(ue - ur).max() < 1e-12
    assert np.abs(result.u - ur).max() < 1e-12
    assert result.comm.bytes_sent == emu.comm.bytes_sent

    print("\nmerged telemetry of the process run:")
    for entry in result.report["mlups_per_rank"]:
        print(f"  rank {entry['rank']}: {entry['n_fluid']:,} fluid nodes, "
              f"{entry['mlups']:.2f} MLUPS")
    print(f"  cohort: {result.report['mlups']:.2f} MLUPS; "
          f"exchange {result.comm.bytes_per_step():,.0f} B/step "
          f"({result.comm.messages} messages)")
    phases = result.report["phases"]
    for path in ("step/pack", "step/barrier", "step/unpack", "step/compute"):
        print(f"  {path:14s} {phases[path]['total_s']:.3f} s across ranks")

    # Communication-volume comparison from real D3Q19 runs: the MR wire
    # payload is M = 10 moments per face node vs the 5 crossing ST
    # populations, and the 19 a naive full exchange would ship.
    shape3, steps3 = (24, 10, 10), 10
    print(f"\nD3Q19 halo volume, {shape3} on 2 ranks, {steps3} steps:")
    for name, scheme in (("MR (moments, M=10)", "MR-P"),
                         ("ST crossing (q=5)", "ST")):
        d = build_distributed("periodic", scheme, "D3Q19", shape3, 2)
        d.run(steps3)
        print(f"  {name:22s} {d.communication_values_per_face():6d} "
              f"doubles/face  {d.comm.bytes_per_step():10,.0f} B/step")
    full = 2 * d.lat.q * d.decomp.face_nodes
    print(f"  {'ST full (Q=19)':22s} {full:6d} doubles/face  (analytic)")
    print("MR halves the naive-full payload; crossing-only ST is leaner\n"
          "still, at the cost of component-wise packing on every face.")


if __name__ == "__main__":
    main()
