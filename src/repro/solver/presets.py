"""Scheme dispatch and the single-domain names of the registered problems.

Every problem is defined once, in :mod:`repro.service.registry`; the
``*_problem`` names here are :func:`~repro.service.registry.build_single`
with the kind filled in, kept because they read well in examples and
tests. The registry sits above this package (it imports the solver
classes), so they reach it at call time.
"""

from __future__ import annotations

import numpy as np

from ..geometry import Domain, cylinder_channel_domain
from ..lattice import LatticeDescriptor
from ..validation.analytic import duct_profile, poiseuille_profile
from .base import Solver
from .moment import MRPSolver, MRRSolver
from .standard import STSolver

__all__ = ["SCHEMES", "scheme_key", "make_solver", "channel_problem",
           "periodic_problem", "forced_channel_problem",
           "cylinder_channel_problem", "porous_channel_problem",
           "channel_body_force", "cylinder_channel_domain"]

SCHEMES: dict[str, type[Solver]] = {
    "ST": STSolver,
    "MR-P": MRPSolver,
    "MR-R": MRRSolver,
}


def scheme_key(scheme: str) -> str:
    """Canonical name of a paper scheme — the one refusal of an unknown one."""
    key = scheme.upper().replace("_", "-")
    if key not in SCHEMES:
        raise ValueError(f"unknown scheme {scheme!r}; expected one of {sorted(SCHEMES)}")
    return key


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


def _single(kind: str):
    """:func:`~repro.service.registry.build_single` under a public name."""
    def problem(scheme: str, lattice: str | LatticeDescriptor,
                shape: tuple[int, ...], tau: float = 0.8,
                backend: str = "reference", **options) -> Solver:
        from ..service.registry import build_single

        return build_single(kind, scheme, lattice, shape, tau=tau,
                            backend=backend, **options)

    problem.__doc__ = (
        f"Single-domain solver of the ``{kind}`` kind on ``backend``; "
        f"``options`` and their defaults are that kind's (see "
        f":mod:`repro.service.registry`).")
    return problem


channel_problem = _single("channel")
forced_channel_problem = _single("forced-channel")
cylinder_channel_problem = _single("cylinder")
porous_channel_problem = _single("porous")
periodic_problem = _single("periodic")
