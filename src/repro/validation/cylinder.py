"""Schäfer–Turek flow-past-a-cylinder validation cases.

The DFG benchmark (Schäfer & Turek 1996) fixes a circular cylinder of
diameter ``D`` in a plane channel of height ``4.1 D``, centered ``2 D``
downstream of the inlet and ``2 D`` above the bottom wall, with a
parabolic inlet of mean speed ``U = 2/3 U_max``:

* **Re = 20** (case 2D-1): steady flow with a recirculation bubble;
  reference drag coefficient ``C_D in [5.57, 5.59]``.
* **Re = 100** (case 2D-2): periodic Kármán vortex street; reference
  Strouhal number ``St in [0.295, 0.305]`` and peak drag
  ``C_D_max in [3.22, 3.24]``.

:func:`schafer_turek_case` builds the lattice realization at a chosen
resolution (``D`` in lattice cells): half-way bounce-back channel walls
(effective wall planes at the half-link positions), the finite-difference
velocity inlet / pressure outlet of the paper's channel proxy, and the
cylinder either as a staircase of solid nodes (half-way bounce-back) or
with the second-order interpolated Bouzidi boundary of
:mod:`repro.boundary.curved` layered on top. Forces come from the
momentum-exchange method — the staircase case through
:class:`repro.analysis.forces.MomentumExchangeForce`, the curved case
from the boundary's own link-consistent accumulator.

These cases power the cylinder validation test tier
(``tests/integration/test_cylinder_validation.py``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

from ..boundary import (HalfwayBounceBack, InterpolatedBounceBack, Plane,
                        PressureOutlet, VelocityInlet, circle_sdf)
from ..geometry import cylinder_in_channel
from ..lattice import get_lattice

if TYPE_CHECKING:  # pragma: no cover - typing only (avoids a cycle with
    # repro.solver, whose monitors import this package's norms)
    from ..analysis.forces import MomentumExchangeForce
    from ..solver import Solver

__all__ = ["SCHAFER_TUREK", "CylinderCase", "schafer_turek_case",
           "strouhal_number"]

#: Reference bands of the DFG benchmark (Schäfer & Turek 1996).
SCHAFER_TUREK = {
    20: {"c_d": (5.57, 5.59), "c_l": (0.0104, 0.0110)},
    100: {"c_d_max": (3.22, 3.24), "c_l_max": (0.99, 1.01),
          "strouhal": (0.295, 0.305)},
}


@dataclass
class CylinderCase:
    """A bound cylinder-flow benchmark: solver plus force instrumentation."""

    solver: Solver
    diameter: float
    u_mean: float
    reynolds: float
    cylinder_mask: np.ndarray
    curved_bc: InterpolatedBounceBack | None = None
    force_meter: MomentumExchangeForce = field(default=None)  # type: ignore[assignment]

    def force(self) -> np.ndarray:
        """Instantaneous momentum-exchange force on the cylinder.

        The curved case reads the Bouzidi boundary's link-consistent
        accumulator (valid after at least one step); the staircase case
        evaluates the classical half-way momentum exchange.
        """
        if self.curved_bc is not None:
            return np.array(self.curved_bc.last_force)
        return self.force_meter.force()

    def coefficients(self) -> tuple[float, float]:
        """Current ``(C_D, C_L)`` using the benchmark normalization."""
        from ..analysis.forces import drag_lift_coefficients

        return drag_lift_coefficients(self.force(), 1.0, self.u_mean,
                                      self.diameter)


def schafer_turek_case(re: float = 20.0, d: float = 10.0,
                       u_max: float = 0.1, scheme: str = "MR-R",
                       backend: str = "sparse",
                       curved: bool = False) -> CylinderCase:
    """Build a Schäfer–Turek cylinder case at resolution ``d`` cells/diameter.

    Parameters
    ----------
    re:
        Reynolds number ``U_mean D / nu`` (20 for the steady case, 100
        for the vortex street).
    d:
        Cylinder diameter in lattice cells — the resolution knob; the
        channel is ``22 d`` long and ``4.1 d`` high (between the
        half-way wall planes), cylinder center at ``(2 d, 2 d)`` from
        the inlet / bottom wall as in the benchmark.
    u_max:
        Peak inlet velocity (lattice units); the mean is ``2/3 u_max``
        and the viscosity follows from ``re``.
    scheme, backend:
        Solver scheme and execution backend; the regularized MR schemes
        stay stable at the low ``tau`` of the Re=100 case.
    curved:
        Staircase cylinder (half-way bounce-back) when false; layer the
        second-order interpolated Bouzidi boundary over the cylinder
        surface when true.
    """
    from ..analysis.forces import MomentumExchangeForce
    from ..solver.presets import make_solver

    lat = get_lattice("D2Q9")
    nx = int(round(22.0 * d))
    ny = int(round(4.1 * d)) + 2           # walls at the half-way planes
    cx = 2.0 * d
    cy = 0.5 + 2.0 * d                     # 2 d above the bottom wall plane
    radius = 0.5 * d
    domain = cylinder_in_channel(nx, ny, cx, cy, radius, with_io=True)
    cyl_mask = np.zeros(domain.shape, dtype=bool)
    x, y = np.meshgrid(np.arange(nx), np.arange(ny), indexing="ij")
    cyl_mask[(x - cx) ** 2 + (y - cy) ** 2 <= radius ** 2] = True

    u_mean = 2.0 * u_max / 3.0
    nu = u_mean * d / re
    tau = nu / lat.cs2 + 0.5

    from ..solver.presets import channel_inlet_profile

    u_in = channel_inlet_profile(lat, (nx, ny), u_max)
    boundaries: list = [HalfwayBounceBack()]
    curved_bc = None
    if curved:
        curved_bc = InterpolatedBounceBack(circle_sdf(cx, cy, radius),
                                           body_mask=cyl_mask)
        boundaries.append(curved_bc)
    boundaries += [
        VelocityInlet(Plane(axis=0, side=0), u_in),
        PressureOutlet(Plane(axis=0, side=-1), rho_out=1.0),
    ]
    u0 = np.zeros((lat.d, nx, ny))
    u0[:] = u_in[:, None, :]
    u0[:, cyl_mask] = 0.0
    solver = make_solver(scheme, lat, domain, tau, boundaries=boundaries,
                         u0=u0, backend=backend)
    meter = MomentumExchangeForce(solver, body_mask=cyl_mask)
    return CylinderCase(solver=solver, diameter=float(d), u_mean=u_mean,
                        reynolds=float(re), cylinder_mask=cyl_mask,
                        curved_bc=curved_bc, force_meter=meter)


def strouhal_number(lift_series: np.ndarray, u_mean: float, diameter: float,
                    sample_interval: float = 1.0) -> float:
    """Shedding Strouhal number ``f D / U`` from a lift-coefficient series.

    The dominant frequency comes from the peak of the Hann-windowed
    spectrum, refined by a parabolic fit through the three bins around
    the peak (series of ~20 shedding periods resolve ``St`` to well
    under a percent).
    """
    x = np.asarray(lift_series, dtype=np.float64)
    if x.size < 16:
        raise ValueError(f"need at least 16 samples, got {x.size}")
    x = x - x.mean()
    window = np.hanning(x.size)
    amp = np.abs(np.fft.rfft(x * window))
    freqs = np.fft.rfftfreq(x.size, d=sample_interval)
    amp[0] = 0.0
    k = int(np.argmax(amp))
    if amp[k] == 0.0:
        raise ValueError("lift series has no oscillatory content")
    f = freqs[k]
    if 0 < k < amp.size - 1:
        # Parabolic (quadratic-interpolation) peak refinement.
        a, b, c = amp[k - 1], amp[k], amp[k + 1]
        denom = a - 2.0 * b + c
        if denom != 0.0:
            f = freqs[k] + 0.5 * (a - c) / denom * (freqs[1] - freqs[0])
    return float(f * diameter / u_mean)
