"""Pulsatile channel flow: the Womersley benchmark.

Drives a streamwise-periodic channel with an oscillating body force
(equivalent to a pulsatile pressure gradient) using
:meth:`Solver.set_force`, and compares the simulated velocity profiles at
several phases of the cycle against the analytic oscillatory-channel
solution. At Womersley number alpha ~ 2.8 the profile is no longer a
quasi-steady parabola: the core lags the force and near-wall annular
overshoot appears — the regime that matters for the hemodynamics
applications (HARVEY) behind the paper's moment representation.

Run:  python examples/pulsatile_womersley.py   (~1 min)
"""

import numpy as np

from repro.service.registry import build_single
from repro.validation import womersley_number, womersley_profile


def main() -> None:
    shape = (10, 30)
    tau = 0.8
    nu = (tau - 0.5) / 3.0
    period = 1500
    omega = 2 * np.pi / period
    amplitude = 1e-5
    alpha = womersley_number(shape[1], omega, nu)
    print(f"channel {shape}, period {period} steps, "
          f"Womersley number alpha = {alpha:.2f}\n")

    solver = build_single("forced-channel", "MR-P", "D2Q9", shape, tau=tau,
                          u_max=0.01)
    # Three warm-up cycles, then sample the fourth.
    sample_at = {0: None, period // 4: None, period // 2: None,
                 3 * period // 4: None}
    for t in range(4 * period):
        solver.set_force([amplitude * np.cos(omega * (solver.time + 0.5)),
                          0.0])
        solver.run(1)
        phase = t - 3 * period
        if phase in sample_at:
            sample_at[phase] = (solver.time,
                                solver.velocity()[0][shape[0] // 2].copy())

    peak = max(
        np.abs(womersley_profile(shape[1], t, amplitude, omega, nu)).max()
        for t in range(0, period, period // 16)
    )
    print(f"{'phase':>8s} {'sim centre':>12s} {'analytic':>12s} {'max err':>9s}")
    worst = 0.0
    for phase, (t_abs, profile) in sorted(sample_at.items()):
        ana = womersley_profile(shape[1], t_abs, amplitude, omega, nu)
        err = np.abs(profile[1:-1] - ana[1:-1]).max() / peak
        worst = max(worst, err)
        mid = shape[1] // 2
        print(f"{phase / period:8.2f} {profile[mid]:12.3e} "
              f"{ana[mid]:12.3e} {err:8.2%}")
    assert worst < 0.02
    print(f"\nall phases within {worst:.2%} of the analytic solution")


if __name__ == "__main__":
    main()
