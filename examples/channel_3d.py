"""3D rectangular-duct flow on D3Q19 with recursive regularization (MR-R).

The 3D analogue of the paper's proxy app: a duct with bounce-back walls on
the y/z faces, a regularized finite-difference velocity inlet carrying the
exact laminar duct profile, and a pressure outlet. Compares the steady
mid-duct cross-section against the analytic Fourier-series solution and
writes a VTK snapshot for visualization.

Run:  python examples/channel_3d.py
"""

import numpy as np

from repro.io import write_vtk
from repro.service.registry import build_single
from repro.validation import duct_profile, relative_l2_error


def main() -> None:
    shape = (40, 18, 18)
    u_max = 0.04
    solver = build_single("channel", "MR-R", "D3Q19", shape, tau=0.9,
                          u_max=u_max)
    print(f"MR-R / D3Q19 duct {shape}, {solver.domain.n_fluid:,} fluid nodes")

    steps = solver.run_to_steady_state(tol=1e-8, check_interval=200)
    print(f"steady state after {steps} steps")

    ux = solver.velocity()[0]
    mid = ux[shape[0] // 2]                       # (ny, nz) cross-section
    analytic = duct_profile(shape[1], shape[2], u_max)
    interior = np.s_[1:-1, 1:-1]
    err = relative_l2_error(mid[interior], analytic[interior])
    print(f"relative L2 error vs duct solution: {err:.2e}")
    assert err < 2e-2, "cross-section should match the duct profile"

    rho, u = solver.macroscopic()
    out = write_vtk("channel_3d.vtk", rho, u, title="MR-R D3Q19 duct flow")
    print(f"wrote {out} (load in ParaView: density + velocity fields)")


if __name__ == "__main__":
    main()
