"""Stability-margin experiments for the three collision schemes.

Regularization exists "to improve stability" (paper Sections 1-2; Latt &
Chopard 2006, Malaspinas 2015): filtering the non-equilibrium ghost modes
lets the simulation survive lower viscosities and stronger gradients than
plain BGK. This module measures that margin directly: for a given
relaxation time it bisects the largest initial vortex amplitude a scheme
can integrate without blowing up, on an intentionally under-resolved
Taylor-Green vortex.
"""

from __future__ import annotations

import numpy as np

__all__ = ["survives", "max_stable_amplitude", "stability_map"]


def survives(scheme: str, tau: float, u0: float, shape=(24, 24),
             steps: int = 400, seed: int = 0) -> bool:
    """Does a noisy Taylor-Green run at (tau, u0) stay finite and positive?"""
    from ..service.registry import build_single
    from ..validation import taylor_green_fields

    nu = (tau - 0.5) / 3.0
    rho_i, u_i = taylor_green_fields(shape, 0.0, nu, u0)
    rng = np.random.default_rng(seed)
    u_i = u_i + 0.05 * u0 * rng.standard_normal(u_i.shape)
    solver = build_single("periodic", scheme, "D2Q9", shape, tau=tau,
                          rho0=rho_i, u0=u_i)
    with np.errstate(all="ignore"):
        try:
            solver.run(steps)
        except FloatingPointError:  # pragma: no cover - env dependent
            return False
        rho, u = solver.macroscopic()
    return bool(
        np.isfinite(rho).all() and np.isfinite(u).all()
        and rho.min() > 0 and np.abs(u).max() < 1.0
    )


def max_stable_amplitude(scheme: str, tau: float, shape=(24, 24),
                         steps: int = 400, lo: float = 0.01,
                         hi: float = 0.6, iters: int = 8) -> float:
    """Bisect the largest stable initial velocity amplitude at ``tau``.

    Returns ``lo`` if even the smallest amplitude blows up and ``hi`` if
    everything survives.
    """
    if not survives(scheme, tau, lo, shape, steps):
        return lo
    if survives(scheme, tau, hi, shape, steps):
        return hi
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        if survives(scheme, tau, mid, shape, steps):
            lo = mid
        else:
            hi = mid
    return lo


def stability_map(taus=(0.51, 0.52, 0.55, 0.6),
                  schemes=("ST", "MR-P", "MR-R"), **kwargs) -> dict:
    """Max stable amplitude per (scheme, tau): the regularization margin."""
    return {
        (scheme, tau): max_stable_amplitude(scheme, tau, **kwargs)
        for scheme in schemes
        for tau in taus
    }
