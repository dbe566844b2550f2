"""Body-force-driven Poiseuille flow — Guo forcing in moment space.

Instead of the paper's inlet/outlet boundaries, this example drives the
channel with a uniform body force (streamwise-periodic), using the
classical Guo coupling for ST and its moment-space projection for the MR
schemes. The steady profile must match the same parabola either way; the
regularized schemes are essentially exact for this flow (the BGK/ST curve
carries the well-known tau-dependent bounce-back slip).

Run:  python examples/body_force_poiseuille.py
"""

import numpy as np

from repro.service.registry import build_single
from repro.validation import poiseuille_profile


def main() -> None:
    shape = (16, 34)
    u_max = 0.04
    tau = 0.9
    analytic = poiseuille_profile(shape[1], u_max)

    print(f"body-force-driven channel {shape}, tau = {tau}, "
          f"target peak velocity {u_max}")
    for scheme in ("ST", "MR-P", "MR-R"):
        solver = build_single("forced-channel", scheme, "D2Q9", shape, tau=tau,
                              u_max=u_max)
        solver.run_to_steady_state(tol=1e-10, check_interval=200)
        ux = solver.velocity()[0]
        err = np.abs(ux[8, 1:-1] - analytic[1:-1]).max() / u_max
        print(f"  {scheme:5s} peak u = {ux.max():.5f}, "
              f"max relative profile error = {err:.2e}")
        assert err < 5e-3

    # The momentum budget is exact: total momentum grows by N*F per step.
    solver = build_single("forced-channel", "MR-P", "D2Q9", shape, tau=tau,
                          u_max=u_max)
    fx = solver.force[0].max()
    p0 = solver.diagnostics.momentum()[0]
    solver.run(100)
    p1 = solver.diagnostics.momentum()[0]
    drag_free_gain = solver.domain.n_fluid * fx * 100
    print(f"\nmomentum gained over 100 startup steps: {p1 - p0:.4e} "
          f"(force input {drag_free_gain:.4e}; the difference is wall drag)")


if __name__ == "__main__":
    main()
