"""The problem table: every kind defined once, both solver forms derived.

A problem *kind* is one **setup function** ``(lat, shape, tau,
**options) -> ProblemSetup``; the ones at the bottom of this module are
the only place in ``src/`` where a registered problem's geometry,
boundary list and forcing are assembled (a CI gate greps for it).
:func:`build_single` and :func:`build_distributed` derive the two solver
forms from that one definition, so they cannot drift apart, and
everything that runs a problem — the CLI, :meth:`RunSpec.build()
<repro.parallel.runtime.RunSpec.build>`, the sweep engine, the job
server, the profiling and benchmark harnesses, the public ``*_problem``
names of :mod:`repro.solver.presets` — goes through those two functions.
A decomposed kind is its single-domain problem cut into slabs: both
forms take the same options, with the kind's one set of defaults. A
kind's option names are its setup function's keyword parameters; any
other name is refused when a :class:`~repro.parallel.runtime.RunSpec`
is constructed and again when a solver is built.

The table itself — each kind's name, description and option names,
:func:`get_problem`, :func:`register_problem` — is the numpy-free
:mod:`repro.spec`, which the job server's front end reads without this
module; importing this module attaches every built-in kind's setup
function to its declared entry (re-exporting the table's names).
Registration is open: downstream code may :func:`register_problem` its
own kinds and they become visible to ``mrlbm run/serve/submit`` and
``RunSpec`` validation without touching this package. This module sits
above :mod:`repro.solver` and :mod:`repro.parallel`, and the
``*_problem`` names of :mod:`repro.solver.presets` reach it at call
time.
"""

from __future__ import annotations

import inspect
from dataclasses import dataclass, replace
from functools import partial
from typing import Callable

import numpy as np

from ..analysis.forces import MomentumExchangeForce, drag_lift_coefficients
from ..boundary import (HalfwayBounceBack, InterpolatedBounceBack, Plane,
                        PressureOutlet, VelocityInlet, circle_sdf)
from ..geometry import (Domain, channel_2d, channel_3d,
                        cylinder_channel_domain, cylinder_in_channel,
                        periodic_box, porous_medium)
from ..lattice import LatticeDescriptor, get_lattice
from ..parallel.decomposition import DistributedSolver
from ..solver.non_newtonian import PowerLawMRPSolver, power_law_force
from ..solver.presets import (channel_body_force, channel_inlet_profile,
                              make_solver)
from ..spec import _REGISTRY  # noqa: F401  (the one table, reachable here)
from ..spec import (ProblemKind, check_names, get_problem, problem_kinds,
                    register_problem, sweep_kinds)
from ..validation.analytic import taylor_green_fields

__all__ = [
    "ProblemSetup",
    "ProblemKind",
    "register_problem",
    "get_problem",
    "problem_kinds",
    "sweep_kinds",
    "setup_problem",
    "check_names",
    "build_distributed",
    "build_single",
]


@dataclass(frozen=True)
class ProblemSetup:
    """What a setup function returns: one fully assembled problem.

    ``boundaries(rank, n_ranks)`` lists the unbound boundary conditions
    of one slab of a streamwise decomposition (``boundaries(0, 1)`` is
    the single-domain list) and ``periodic_axis0`` says whether that
    axis wraps around. ``solver`` replaces the scheme's solver class for
    a kind that exists only as a special single-domain solver.
    ``results`` maps the stepped single-domain solver to the kind's run
    results (a dict of floats), which a run's manifest records.
    """

    domain: Domain
    periodic_axis0: bool
    boundaries: Callable[[int, int], list]
    rho0: np.ndarray | float = 1.0
    u0: np.ndarray | None = None
    force: np.ndarray | None = None
    solver: Callable | None = None
    results: Callable | None = None


# -- derivation: one setup, two solver forms ------------------------------

def setup_problem(name: str, lattice: str | LatticeDescriptor,
                  shape: tuple[int, ...], tau: float,
                  **options) -> tuple[LatticeDescriptor, ProblemSetup]:
    """Resolve the lattice and run the setup function of kind ``name``.

    Raises ``ValueError`` for an unknown kind, an option the kind does
    not accept, or a shape of the wrong dimension or off ``kind.grid``.
    """
    kind = get_problem(name)
    kind.check_grid(getattr(lattice, "name", lattice), shape)
    kind.check_options(options)
    lat = get_lattice(lattice) if isinstance(lattice, str) else lattice
    shape = tuple(shape)
    if len(shape) != lat.d:
        raise ValueError(
            f"shape {shape} does not match lattice dimension {lat.d}")
    return lat, kind.setup(lat, shape, tau, **options)


def build_single(name: str, scheme: str, lattice: str | LatticeDescriptor,
                 shape: tuple[int, ...], *, tau: float = 0.8,
                 backend: str = "reference", **options):
    """Build the single-domain solver of a registered kind.

    ``backend`` selects the execution backend (see :mod:`repro.accel`);
    ``options`` are the kind's own. ``solver.results()`` is the kind's
    run results once it has stepped (``{}`` without). Raises
    ``ValueError`` for unknown kinds, options and schemes.
    """
    lat, setup = setup_problem(name, lattice, shape, tau, **options)
    make = setup.solver or partial(make_solver, scheme)
    solver = make(lat, setup.domain, tau, boundaries=setup.boundaries(0, 1),
                  rho0=setup.rho0, u0=setup.u0, force=setup.force,
                  backend=backend)
    solver.results = (partial(setup.results, solver) if setup.results
                      else dict)
    return solver


def build_distributed(name: str, scheme: str,
                      lattice: str | LatticeDescriptor,
                      shape: tuple[int, ...], n_ranks: int, *,
                      tau: float = 0.8, accel: str = "reference",
                      **options):
    """Build the slab-decomposed solver of a registered kind.

    This is the engine behind :meth:`RunSpec.build`: the problem
    :func:`build_single` builds from the same options, cut into
    ``n_ranks`` streamwise slabs. Raises ``ValueError`` for unknown
    kinds, options and schemes, and for kinds without a distributed
    form.
    """
    get_problem(name).check_grid(getattr(lattice, "name", lattice), shape)
    get_problem(name, distributed=True)
    lat, setup = setup_problem(name, lattice, shape, tau, **options)
    key = check_names(scheme, accel)
    return DistributedSolver(
        lat, setup.domain, tau, int(n_ranks), setup.periodic_axis0,
        setup.boundaries, rho0=setup.rho0, u0=setup.u0, force=setup.force,
        accel=accel, scheme=key)


# -- the definitions -------------------------------------------------------

def _kind(name: str):
    """Attach the decorated setup function to the declared kind ``name``.

    The kind's name, description and option names are declared in
    :mod:`repro.spec`, which the job server's front end reads without
    this module; a setup whose keyword parameters are not exactly those
    option names is refused here, at import.
    """
    def attach(setup):
        kind = get_problem(name)
        params = tuple(inspect.signature(setup).parameters)[3:]
        if params != kind.options:
            raise TypeError(f"setup of {name!r} takes {params}, the kind "
                            f"declares {kind.options}")
        register_problem(replace(kind, setup=setup))
        return setup
    return attach


def _walled_channel(lat: LatticeDescriptor, shape: tuple[int, ...],
                    with_io: bool) -> Domain:
    """Rectangular channel/duct with solid walls, with or without I/O planes."""
    return (channel_2d if lat.d == 2 else channel_3d)(*shape, with_io=with_io)


def _streamwise(lat: LatticeDescriptor, magnitude: float) -> np.ndarray:
    """Uniform body force of ``magnitude`` along axis 0."""
    force = np.zeros(lat.d)
    force[0] = magnitude
    return force


def _driven(domain: Domain, force: np.ndarray,
            solver: Callable | None = None) -> ProblemSetup:
    """Streamwise-periodic ``domain`` driven by the body force ``force``.

    Every rank bounces back half-way on all its solid links (walls,
    obstacle, pore walls); slab cuts may pass through solids, because
    bounce-back only reads node types and every slab carries its ghosts'.
    """
    return ProblemSetup(domain, True,
                        lambda rank, n_ranks: [HalfwayBounceBack()],
                        force=force, solver=solver)


@_kind("channel")
def channel(lat, shape, tau, u_max=0.05, bc_method="regularized-fd",
            start_from_profile=True, outlet_tangential="extrapolate"):
    """The paper's proxy app: a rectangular channel between bounce-back walls.

    "Bounceback boundary conditions at the channel walls and finite
    difference boundary conditions at the inlet and outlet" (Section 4):
    a Poiseuille (2D) or duct (3D) inlet profile peaking at ``u_max``
    and a unit-density pressure outlet. Decomposed, rank 0 owns the
    inlet, the last rank the outlet, every rank the walls.

    ``bc_method`` is the inlet/outlet reconstruction —
    ``"regularized-fd"`` (the paper's finite-difference boundaries) or
    ``"nebb"``; ``outlet_tangential`` the outlet's tangential velocity
    (``"extrapolate"`` or ``"zero"``). ``start_from_profile``
    initializes the whole channel with the inlet profile (fast
    convergence) instead of fluid at rest.
    """
    u_in = channel_inlet_profile(lat, shape, u_max)

    def boundaries(rank: int, n_ranks: int) -> list:
        # Bounce-back first so the inlet/outlet reconstructions see the
        # reflected wall-link populations — this matches the fused order
        # of the virtual-GPU kernels (reflection at scatter time,
        # reconstruction at finalize time) and is also the physically
        # consistent choice.
        bcs = [HalfwayBounceBack()]
        if rank == 0:
            bcs.append(VelocityInlet(Plane(axis=0, side=0), u_in,
                                     method=bc_method))
        if rank == n_ranks - 1:
            bcs.append(PressureOutlet(Plane(axis=0, side=-1), rho_out=1.0,
                                      method=bc_method,
                                      tangential=outlet_tangential))
        return bcs

    # The profile repeated down the channel, as a read-only view: a
    # solver copies its own cut of it once, into its private inputs.
    u0 = (np.broadcast_to(u_in[:, None], (lat.d, *shape))
          if start_from_profile else None)
    return ProblemSetup(_walled_channel(lat, shape, with_io=True), False,
                        boundaries, u0=u0)


@_kind("forced-channel")
def forced_channel(lat, shape, tau, u_max=0.05):
    """Body-force-driven channel: periodic streamwise, bounce-back walls.

    The force is sized so the steady Poiseuille/duct flow peaks near
    ``u_max`` (:func:`~repro.solver.presets.channel_body_force`); MR
    schemes apply it through the projected Guo forcing, ST through
    classical Guo.
    """
    return _driven(_walled_channel(lat, shape, with_io=False),
                   channel_body_force(lat, shape, tau, u_max))


@_kind("cylinder")
def cylinder(lat, shape, tau, u_max=0.05, radius=None):
    """Force-driven channel with a staircase cylinder obstacle.

    The forced channel plus the cylinder of
    :func:`~repro.geometry.cylinder_channel_domain` — the masked-geometry
    workload the ``sparse`` backend folds into its gather tables.
    """
    return _driven(cylinder_channel_domain(lat, shape, radius),
                   channel_body_force(lat, shape, tau, u_max))


@_kind("porous")
def porous(lat, shape, tau, solid_fraction=0.85, seed=0, force_x=1e-6):
    """Force-driven flow through a seeded random porous medium.

    Each node is solid with probability ``solid_fraction`` (seeded, so
    every rank and every resubmission rebuilds the identical
    microstructure), driven by the uniform streamwise body force
    ``force_x`` — the ~15%-fluid regime where the ``sparse`` backend's
    compact state pays off.
    """
    return _driven(porous_medium(shape, solid_fraction=float(solid_fraction),
                                 seed=int(seed)),
                   _streamwise(lat, float(force_x)))


@_kind("periodic")
def periodic(lat, shape, tau, rho0=1.0, u0=None, force=None):
    """Fully periodic box (no boundaries) with caller-supplied fields."""
    return ProblemSetup(periodic_box(shape), True,
                        lambda rank, n_ranks: [], rho0, u0, force)


@_kind("taylor-green")
def taylor_green(lat, shape, tau, u_max=0.05):
    """2D Taylor-Green vortex at ``t = 0`` in a periodic box."""
    if lat.d != 2:
        raise ValueError(
            "the taylor-green problem is 2D; pick a D2 lattice "
            f"(got {lat.name})")
    return periodic(lat, shape, tau, *taylor_green_fields(
        shape, 0.0, lat.viscosity(tau), float(u_max)))


@_kind("power-law")
def power_law(lat, shape, tau, u_max=0.05):
    """Force-driven power-law (variable-tau) channel, flow index 0.8.

    Steps :class:`~repro.solver.non_newtonian.PowerLawMRPSolver`
    whatever scheme is asked for (the solver is MR-P based), so the
    kind has no distributed form; it exercises the per-node
    ``tau_field`` collision of every backend.
    """
    consistency, exponent = lat.viscosity(tau), 0.8
    force = power_law_force(u_max, shape[1] - 2, consistency, exponent)
    return _driven(
        _walled_channel(lat, shape, with_io=False), _streamwise(lat, force),
        solver=partial(PowerLawMRPSolver, consistency=consistency,
                       exponent=exponent))


@_kind("schafer-turek")
def schafer_turek(lat, shape, tau, u_max=0.1, curved=True):
    """The Schäfer–Turek cylinder (DFG benchmark 2D-1/2D-2) in the paper's
    channel proxy.

    A cylinder of diameter ``d = shape[0] / 22`` sits ``2 d`` downstream
    of the inlet and ``2 d`` above the bottom wall plane of a channel
    ``22 d`` long and ``4.1 d`` high between half-way bounce-back walls,
    so the one grid of a ``d`` is ``(22 d, round(4.1 d) + 2)``. The
    finite-difference inlet imposes the Poiseuille profile peaking at
    ``u_max`` (mean ``U = 2/3 u_max``), the outlet unit density.
    ``curved`` layers the second-order interpolated Bouzidi boundary of
    :mod:`repro.boundary.curved` over the cylinder surface; without it
    the cylinder is a half-way bounce-back staircase. The Reynolds
    number ``U d / nu(tau)`` follows from ``tau``. The run results are
    ``c_d`` and ``c_l`` — from the Bouzidi boundary's link-consistent
    accumulator, or the momentum exchange on the staircase — and ``re``;
    :data:`repro.validation.SCHAFER_TUREK` holds the reference bands.
    """
    d = shape[0] / 22.0                 # on its grid: the kind's rule
    cx, cy, radius = 2.0 * d, 0.5 + 2.0 * d, 0.5 * d
    domain = cylinder_in_channel(*shape, cx, cy, radius, with_io=True)
    body = domain.solid_mask.copy()
    body[:, [0, -1]] = False            # the walls; the cylinder is left
    u_in = channel_inlet_profile(lat, shape, u_max)
    u0 = np.zeros((lat.d, *shape))
    u0[:] = u_in[:, None, :]
    u0[:, body] = 0.0
    u_mean = 2.0 * u_max / 3.0

    def boundaries(rank: int, n_ranks: int) -> list:
        curve = [InterpolatedBounceBack(circle_sdf(cx, cy, radius),
                                        body_mask=body)] if curved else []
        return [HalfwayBounceBack(), *curve,
                VelocityInlet(Plane(axis=0, side=0), u_in),
                PressureOutlet(Plane(axis=0, side=-1), rho_out=1.0)]

    def results(solver) -> dict:
        force = (next(b.last_force for b in solver.boundaries
                      if isinstance(b, InterpolatedBounceBack)) if curved
                 else MomentumExchangeForce(solver, body_mask=body).force())
        c_d, c_l = drag_lift_coefficients(force, 1.0, u_mean, d)
        return {"c_d": c_d, "c_l": c_l,
                "re": u_mean * d / lat.viscosity(tau)}

    return ProblemSetup(domain, False, boundaries, u0=u0, results=results)
