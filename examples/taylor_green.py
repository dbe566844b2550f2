"""Taylor-Green vortex decay: physics agreement of ST, MR-P and MR-R.

The 2D Taylor-Green vortex has a closed-form solution whose kinetic energy
decays at rate ``2 nu (kx^2 + ky^2)``. This example runs all three of the
paper's schemes on the same initial condition and reports (a) the velocity-
field error against the analytic solution and (b) the measured viscous
decay rate — demonstrating that the moment representation is a *lossless*
reformulation, not an approximation.

Run:  python examples/taylor_green.py
"""

import numpy as np

from repro.service.registry import build_single
from repro.validation import (
    kinetic_energy,
    relative_l2_error,
    taylor_green_decay_rate,
    taylor_green_fields,
)


def main() -> None:
    shape = (96, 96)
    tau = 0.8
    nu = (tau - 0.5) / 3.0
    u0 = 0.03
    steps = 400

    rho_init, u_init = taylor_green_fields(shape, 0.0, nu, u0)
    rho_ref, u_ref = taylor_green_fields(shape, float(steps), nu, u0)
    expected_rate = taylor_green_decay_rate(shape, nu)

    print(f"Taylor-Green on {shape}, nu = {nu:.4f}, {steps} steps")
    print(f"analytic kinetic-energy decay rate: {expected_rate:.3e}\n")

    for scheme in ("ST", "MR-P", "MR-R"):
        solver = build_single("periodic", scheme, "D2Q9", shape, tau=tau,
                              rho0=rho_init, u0=u_init)
        e0 = kinetic_energy(*solver.macroscopic())
        solver.run(steps)
        rho, u = solver.macroscopic()
        e1 = kinetic_energy(rho, u)
        rate = -np.log(e1 / e0) / steps
        err = relative_l2_error(u, u_ref)
        print(f"  {scheme:5s}  velocity error {err:.3e}   "
              f"decay rate {rate:.3e} ({rate / expected_rate:.4f}x analytic)")
        assert err < 5e-3
        assert abs(rate / expected_rate - 1) < 0.02


if __name__ == "__main__":
    main()
