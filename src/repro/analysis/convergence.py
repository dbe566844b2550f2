"""Grid-convergence studies.

Utilities for measuring the order of accuracy of a scheme against an
analytic solution: run the same physical problem at several resolutions
(with diffusive time scaling), collect an error norm per resolution, and
fit the order as the log-log slope.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

__all__ = ["fit_convergence_order", "taylor_green_convergence"]


def fit_convergence_order(resolutions: Sequence[float],
                          errors: Sequence[float]) -> float:
    """Least-squares slope of ``log(error)`` vs ``log(1/resolution)``.

    Returns the estimated order ``p`` such that ``error ~ h^p``.
    """
    res = np.asarray(resolutions, dtype=float)
    err = np.asarray(errors, dtype=float)
    if res.size != err.size or res.size < 2:
        raise ValueError("need at least two matching (resolution, error) pairs")
    if np.any(err <= 0) or np.any(res <= 0):
        raise ValueError("resolutions and errors must be positive")
    slope, _ = np.polyfit(np.log(res), np.log(err), 1)
    return float(-slope)


def taylor_green_convergence(scheme: str, resolutions: Sequence[int] = (16, 24, 32),
                             tau: float = 0.8, u0: float = 0.02,
                             t_phys: float = 0.08) -> tuple[list[float], float]:
    """Taylor-Green convergence study for one scheme.

    Runs the vortex at each resolution for the same physical (diffusive)
    time ``t_phys = nu t / L^2`` and returns ``(errors, order)``.
    """
    from ..service.registry import build_single
    from ..validation import relative_l2_error, taylor_green_fields

    nu = (tau - 0.5) / 3.0
    errors = []
    for n in resolutions:
        steps = max(1, int(round(t_phys * n * n / nu)))
        rho_i, u_i = taylor_green_fields((n, n), 0.0, nu, u0)
        solver = build_single("periodic", scheme, "D2Q9", (n, n), tau=tau,
                              rho0=rho_i, u0=u_i)
        solver.run(steps)
        _, u_ref = taylor_green_fields((n, n), float(steps), nu, u0)
        errors.append(relative_l2_error(solver.velocity(), u_ref))
    order = fit_convergence_order(list(resolutions), errors)
    return errors, order
