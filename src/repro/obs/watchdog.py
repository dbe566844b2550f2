"""Stability watchdog: abort diverging runs with a structured report.

LBM divergence is silent by default — NaNs appear in a corner, spread for
thousands of steps, and the run "completes" producing garbage. The run
loop (:func:`repro.loop.run_loop`) samples the macroscopic fields on its
watchdog cadence with :func:`check_fields`, which raises
:class:`StabilityError` the moment it sees

* non-finite density or velocity on a fluid node,
* non-positive density, or
* speeds beyond a limit (default: the lattice sound speed
  ``c_s = 1/sqrt(3)``, past which the low-Mach expansion is meaningless).

The raised error carries a machine-readable ``report`` dict (step, scheme,
offending-node counts, worst values) so harnesses can log exactly *when*
and *how* a run died instead of inspecting corrupted output.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = ["StabilityError", "SOUND_SPEED", "check_fields"]

#: Lattice sound speed in lattice units (all paper lattices share it).
SOUND_SPEED = 1.0 / math.sqrt(3.0)


def check_fields(rho: np.ndarray, u: np.ndarray,
                 fluid_mask: np.ndarray | None = None, *,
                 u_limit: float | None = None, rho_min: float = 0.0,
                 context: dict | None = None) -> dict:
    """Divergence check on bare ``(rho, u)`` arrays; no solver needed.

    A single domain, an emulated cohort and a rank's interior slab all
    share these detection rules and this report schema. ``context``
    entries (e.g. ``step``, ``scheme``, ``rank``) are folded into the
    report. Raises :class:`StabilityError` on divergence, otherwise
    returns the healthy report.
    """
    u_limit = float(u_limit) if u_limit is not None else SOUND_SPEED
    rho_f = rho[fluid_mask] if fluid_mask is not None else rho.ravel()
    u_f = (u[:, fluid_mask] if fluid_mask is not None
           else u.reshape(u.shape[0], -1))
    with np.errstate(invalid="ignore", over="ignore"):
        speed2 = np.einsum("an,an->n", u_f, u_f)
    finite_rho = np.isfinite(rho_f)
    finite_u = np.isfinite(speed2)
    n_nonfinite_rho = int((~finite_rho).sum())
    n_nonfinite_u = int((~finite_u).sum())
    n_nonpositive = int((rho_f[finite_rho] <= rho_min).sum())
    speed_ok = speed2[finite_u]
    max_speed = float(np.sqrt(speed_ok.max())) if speed_ok.size else 0.0
    n_super = int((speed_ok > u_limit ** 2).sum())
    min_rho = (float(rho_f[finite_rho].min())
               if finite_rho.any() else float("nan"))

    report = {
        **(context or {}),
        "n_fluid": int(rho_f.size),
        "nonfinite_rho": n_nonfinite_rho,
        "nonfinite_u": n_nonfinite_u,
        "nonpositive_rho": n_nonpositive,
        "supersonic": n_super,
        "max_speed": max_speed,
        "min_density": min_rho,
        "u_limit": u_limit,
    }
    if n_nonfinite_rho or n_nonfinite_u or n_nonpositive or n_super:
        where = " ".join(f"{k}={v}" for k, v in (context or {}).items())
        raise StabilityError(
            f"fields diverged ({where}): "
            f"{n_nonfinite_rho + n_nonfinite_u} non-finite, "
            f"{n_nonpositive} non-positive-density, {n_super} over-speed "
            f"(> {u_limit:.3f}) fluid nodes (max |u| = {max_speed:.3g})",
            report,
        )
    return report


class StabilityError(RuntimeError):
    """Raised by the watchdog; ``report`` holds the structured diagnosis."""

    def __init__(self, message: str, report: dict):
        super().__init__(message)
        self.report = report
