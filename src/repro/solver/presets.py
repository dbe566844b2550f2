"""Scheme dispatch and the shared pieces of the channel problems.

Every problem is defined once, in :mod:`repro.service.registry`, and
built by :func:`~repro.service.registry.build_single` (or, cut into
slabs, :func:`~repro.service.registry.build_distributed`).
"""

from __future__ import annotations

import numpy as np

from ..geometry import Domain, cylinder_channel_domain
from ..lattice import LatticeDescriptor
from ..spec import scheme_key
from ..validation.analytic import duct_profile, poiseuille_profile
from .base import Solver
from .moment import MRPSolver, MRRSolver
from .standard import STSolver

__all__ = ["SCHEMES", "scheme_key", "make_solver", "channel_body_force",
           "cylinder_channel_domain"]

SCHEMES: dict[str, type[Solver]] = {
    "ST": STSolver,
    "MR-P": MRPSolver,
    "MR-R": MRRSolver,
}


def make_solver(scheme: str, lat: LatticeDescriptor, domain: Domain, tau: float,
                **kwargs) -> Solver:
    """Instantiate a solver by paper scheme name (``ST``/``MR-P``/``MR-R``)."""
    return SCHEMES[scheme_key(scheme)](lat, domain, tau, **kwargs)


def channel_inlet_profile(lat: LatticeDescriptor, shape: tuple[int, ...],
                          u_max: float) -> np.ndarray:
    """Inlet velocity profile for the rectangular channel.

    2D: plane Poiseuille parabola over the ``ny`` cross-section.
    3D: exact rectangular-duct profile over the ``ny x nz`` cross-section.
    Returns ``(D, *cross_section_shape)``.
    """
    u = np.zeros((lat.d, *shape[1:]))
    u[0] = (poiseuille_profile(shape[1], u_max) if lat.d == 2
            else duct_profile(shape[1], shape[2], u_max))
    return u


def channel_body_force(lat: LatticeDescriptor, shape: tuple[int, ...],
                       tau: float, u_max: float) -> np.ndarray:
    """Streamwise body force driving a channel to peak near ``u_max``.

    The plane-Poiseuille sizing ``F = 8 nu u_max / H^2`` with ``H`` the
    wall-to-wall width (for the 3D duct this slightly overshoots the
    plane-channel formula, as expected) — shared by every force-driven
    channel kind.
    """
    h = shape[1] - 2
    nu = lat.viscosity(tau)
    force = np.zeros(lat.d)
    force[0] = 8.0 * nu * u_max / (h * h)
    return force
