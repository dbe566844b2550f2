"""Drive the virtual-GPU kernels directly and inspect traffic + occupancy.

Runs the paper's Algorithm 1 (ST) and Algorithm 2 (MR-P) kernels on the
channel proxy app, verifies they compute identical physics to the
reference NumPy solvers, and prints the profiler-style measurements that
feed the performance model: DRAM bytes per node, launch geometry, shared-
memory footprint, occupancy, and predicted MFLUPS on the V100 and MI100.

Run:  python examples/virtual_gpu_demo.py
"""

import numpy as np

from repro.gpu import KernelProblem, MemoryTracker, MRKernel, STKernel, V100, MI100, occupancy
from repro.lattice import get_lattice
from repro.perf import PerformanceModel
from repro.service.registry import build_single
from repro.solver.presets import channel_inlet_profile


def main() -> None:
    lat = get_lattice("D2Q9")
    shape = (96, 64)   # window extent must be divisible by the tile height
    tau = 0.9
    u_max = 0.04
    steps = 10

    u_in = channel_inlet_profile(lat, shape, u_max)
    u0 = np.zeros((2, *shape))
    u0[:] = u_in[:, None, :]
    problem = KernelProblem(lat, shape, tau, mode="channel", u_inlet=u_in,
                            outlet_tangential="zero")

    # Reference solver (same configuration, NEBB boundaries).
    ref = build_single("channel", "MR-P", lat, shape, tau=tau, u_max=u_max,
                       bc_method="nebb", outlet_tangential="zero")

    tracker = MemoryTracker(l2_bytes=int(V100.l2_kb * 1024))
    kernel = MRKernel(problem, V100, scheme="MR-P", tile_cross=(16,), w_t=8,
                      tracker=tracker, u0=u0)
    for _ in range(steps):
        ref.step()
        stats = kernel.step()

    diff = np.abs(kernel.moment_field() - ref.m).max()
    print(f"MR-P kernel vs reference after {steps} steps: max diff = {diff:.2e}")
    assert diff < 1e-12

    cfg = stats.config
    occ = occupancy(V100, cfg)
    print(f"\nMR-P launch: {cfg.blocks} column blocks x "
          f"{cfg.threads_per_block} threads, "
          f"{cfg.shared_bytes_per_block / 1024:.1f} KB shared/block")
    print(f"occupancy on V100: {occ.blocks_per_sm} blocks/SM "
          f"(limited by {occ.limited_by}; 2-block rule met: "
          f"{occ.meets_two_block_rule})")
    print(f"DRAM traffic: {stats.traffic.sector_bytes_total / stats.n_nodes:.1f} "
          f"B/node (ideal 2M*8 = {2 * lat.n_moments * 8})")

    # ST kernel for comparison.
    tracker2 = MemoryTracker(l2_bytes=int(V100.l2_kb * 1024))
    st = STKernel(problem, V100, tracker=tracker2, u0=u0)
    st.step()
    st_stats = st.step()
    print(f"ST DRAM traffic: "
          f"{st_stats.traffic.sector_bytes_total / st_stats.n_nodes:.1f} "
          f"B/node (ideal 2Q*8 = {2 * lat.q * 8})")

    # Feed the measured traffic into the calibrated performance model.
    print("\nPredicted throughput at a saturated 4096x4096 channel:")
    for dev in (V100, MI100):
        pm = PerformanceModel(dev)
        for scheme, traffic in (("ST", st_stats), ("MR-P", stats)):
            pred = pm.predict_shape(
                lat, scheme, (4096, 4096),
                tile_cross=(16,) if scheme != "ST" else None, w_t=8,
                bytes_per_node=traffic.traffic.sector_bytes_total / traffic.n_nodes,
            )
            print(f"  {dev.name:6s} {scheme:5s} {pred.mflups:8,.0f} MFLUPS "
                  f"({pred.bound}-bound, "
                  f"{pred.effective_bandwidth_gbs:.0f} GB/s sustained)")


if __name__ == "__main__":
    main()
