"""Quickstart: 2D channel flow with the moment representation.

Runs the paper's 2D proxy application — rectangular channel, bounce-back
walls, finite-difference (regularized) velocity inlet and pressure outlet —
with the MR-P scheme, then checks the steady profile against the plane-
Poiseuille analytic solution.

Run:  python examples/quickstart.py
"""

import numpy as np

from repro.service.registry import build_single
from repro.validation import linf_error, poiseuille_profile


def main() -> None:
    # Channel of 120 x 42 nodes (including the two wall rows), peak inlet
    # velocity 0.04 (lattice units), relaxation time tau = 0.9.
    shape = (120, 42)
    u_max = 0.04
    solver = build_single("channel", "MR-P", "D2Q9", shape, tau=0.9,
                          u_max=u_max)

    print(f"MR-P / D2Q9 channel {shape}, {solver.domain.n_fluid:,} fluid nodes")
    steps = solver.run_to_steady_state(tol=1e-9, check_interval=200)
    print(f"steady state after {steps} steps")

    # Mid-channel velocity profile vs analytic Poiseuille parabola.
    ux = solver.velocity()[0]
    mid = ux[shape[0] // 2]
    analytic = poiseuille_profile(shape[1], u_max)
    err = linf_error(mid[1:-1], analytic[1:-1]) / u_max
    print(f"max relative error vs Poiseuille: {err:.2e}")
    assert err < 5e-3, "profile should match the analytic solution"

    # The moment representation stores 6 values per node instead of 2x9.
    print(f"state doubles per node: MR = {solver.state_values_per_node} "
          f"(ST would use {2 * solver.lat.q})")


if __name__ == "__main__":
    main()
