"""Selectable fast-path execution backends for the host solvers.

This package is the architecture seam for host-side acceleration: the
reference solvers in :mod:`repro.solver` stay the line-for-line
transcription of the paper's algorithms, while the cores here provide
faster realizations of the *same* steps, selected per solver via
``Solver(..., backend=...)`` or ``mrlbm run/profile --accel``. There is
one collide-and-project kernel per scheme family
(:mod:`repro.accel.fused`); a backend is a choice of *layout* and
*streaming pattern* around it:

``"reference"``
    The solvers' own step methods — the validated baseline.
``"fused"``
    Dense layout, natural order after every step: BLAS moment
    projections, cache-blocked collision and (``path == "lean"``) a
    sliding window of leading-axis slabs that carries the row-local
    boundary hooks and keeps no lattice beside the state; hooks that
    need whole arrays step one slab, the grid (``"bounded"``).
``"aa"``
    Dense layout, single-lattice in-place streaming for boundary-free
    ST (:mod:`repro.accel.inplace`, model in ``docs/ALGORITHMS.md``;
    ``solver.f`` is made natural on access).
``"sparse"``
    Fluid-node-list layout (:mod:`repro.accel.sparse`): the state lives
    compacted over a :class:`~repro.accel.tables.MaskedNeighborTable`
    between steps, streaming is one bounce-back-folded gather, collision
    runs over ``n_fluid`` columns, and ``solver.f`` / ``solver.m`` are
    dense only from a look to the next step.

A layout core ``carries`` only some boundary lists (``aa``: none;
``sparse``: those that fold into its gather table); :func:`make_core`
steps any other list — and every ``aa`` MR problem — with the family's
fused core, whose window carries them all.

Every backend is always available and reproduces the reference
trajectory by one tolerance rule (``tests/property/test_conformance.py``).
:func:`validate_backend` checks a solver/backend combination at
construction time, :func:`make_stepper` binds a backend to a solver
(a distributed rank is one), and :func:`make_core` is the single
factory behind it.

Capability handshake
--------------------
Fast paths are not inferred from the class hierarchy: a solver class
opts in by declaring an ``accel_caps`` dict **in its own class body**
(a subclass that overrides physics is rejected until it certifies
itself)::

    accel_caps = {"family": "st"}                       # STSolver
    accel_caps = {"family": "mr", "scheme": "MR-P",
                  "variable_tau": True}                 # PowerLawMRPSolver

``family`` selects the kernel family (``"st"`` two-lattice BGK, ``"mr"``
with ``scheme`` ``"MR-P"``/``"MR-R"``); ``variable_tau`` means a
grid-shaped ``tau_field`` plus an ``_update_relaxation()`` hook the
stepper runs each step.
"""

from __future__ import annotations

from ..spec import BACKENDS, check_backend
from .fused import FusedMRCore, FusedSTCore
from .inplace import InplaceSTCore
from .sparse import SparseMRCore, SparseSTCore
from .tables import MaskedNeighborTable, NeighborTable

__all__ = [
    "BACKENDS", "make_core", "make_stepper",
    "check_backend", "validate_backend", "solver_caps",
    "FusedSTCore", "FusedMRCore", "InplaceSTCore",
    "SparseSTCore", "SparseMRCore",
    "NeighborTable", "MaskedNeighborTable",
]

#: Core class per (layout/streaming backend, kernel family).
_CORES = {
    ("fused", "st"): FusedSTCore, ("fused", "mr"): FusedMRCore,
    ("aa", "st"): InplaceSTCore, ("aa", "mr"): FusedMRCore,
    ("sparse", "st"): SparseSTCore, ("sparse", "mr"): SparseMRCore,
}


def make_core(backend: str, caps: dict, lat, domain, tau, boundaries=(),
              tau_bulk: float | None = None):
    """Build the core that steps one lattice — the only place cores are named.

    ``caps`` is an ``accel_caps`` declaration (``family``, and ``scheme``
    for MR); ``domain`` supplies the grid shape and solid geometry;
    ``boundaries`` the bound boundary objects the core will be stepped
    with (they select its ``path``; a lean core slides their hooks). The
    returned core owns every buffer beyond the caller's persistent state
    and follows the protocol of :mod:`repro.accel.fused`.
    """
    family = caps["family"]
    kwargs = {"boundaries": boundaries}
    if family == "mr":
        kwargs.update(scheme=caps["scheme"], tau_bulk=tau_bulk)
    solid = domain.solid_mask
    cls = _CORES[backend, family]
    if not cls.carries(boundaries):
        backend, cls = "fused", _CORES["fused", family]
    if backend == "sparse":
        return cls(lat, solid, tau, **kwargs)
    return cls(lat, domain.shape, tau,
               solid_mask=solid if solid.any() else None, **kwargs)


class _Stepper:
    """Binds one core to a solver: the same call for every backend."""

    def __init__(self, solver, backend: str, caps: dict):
        self.variable_tau = bool(caps.get("variable_tau"))
        self.core = make_core(
            backend, caps, solver.lat, solver.domain, solver.tau,
            solver.boundaries,
            tau_bulk=None if self.variable_tau
            else getattr(solver, "tau_bulk", None))

    def step(self, solver) -> None:
        """One fast-path step on the solver's held arrays (the ``f`` /
        ``m`` accessor is for everybody else: see :meth:`looked`)."""
        tau_field = None
        if self.variable_tau:
            with solver.telemetry.phase("collide"):
                solver._update_relaxation()
            tau_field = solver.tau_field
        solver._settle()
        self.core.step(getattr(solver, solver._slot), solver.boundaries,
                       solver.telemetry, force=solver._force,
                       tau_field=tau_field)

    def looked(self, solver) -> None:
        """The solver's dense state is being looked at — and possibly
        written: a core that keeps it in a layout of its own between
        steps (a pre-streamed lattice) puts it right once (the ``sync``
        phase) and starts its next step from it; for the others a no-op.
        """
        self.core.sync(getattr(solver, solver._slot), solver.telemetry)


def solver_caps(solver) -> dict | None:
    """The solver's own ``accel_caps`` declaration, or ``None``.

    Only a declaration in the exact class body counts: subclasses do not
    inherit their parent's certification, so a subclass that overrides
    physics stays on the reference path until it opts in explicitly (see
    the module docstring).
    """
    return type(solver).__dict__.get("accel_caps")


def validate_backend(solver, backend: str | None = None) -> dict | None:
    """The one support matrix: raise ``ValueError`` or return the caps.

    Called from :class:`~repro.solver.base.Solver` at construction time
    (and again by :func:`make_stepper`), so unsupported combinations
    fail fast — never mid-run after setup work has already happened. A
    distributed rank *is* such a solver (see
    :mod:`repro.parallel.decomposition`), so ``--ranks N`` rejects
    exactly the same combinations with the same message. Returns the
    solver's capability declaration (``None`` for ``"reference"``).
    """
    from ..core.collision import BGKCollision

    backend = solver.backend if backend is None else backend

    def reject(why: str) -> ValueError:
        return ValueError(
            f"backend {backend!r} does not support this configuration of "
            f"{type(solver).__name__}: {why}; use backend='reference'")

    check_backend(backend)
    if backend == "reference":
        return None
    caps = solver_caps(solver)
    if caps is None:
        raise reject(
            "the class declares no accel_caps — fast paths are an explicit "
            "opt-in, and subclasses that override physics must certify "
            "their own compatibility (see repro.accel)")
    family = caps.get("family")
    if family not in ("st", "mr"):
        raise reject(f"unknown accel_caps family {family!r}")
    # The ST collision attribute appears after the base constructor;
    # STSolver re-validates once it is set (still construction time).
    collision = getattr(solver, "collision", None)
    if (family == "st" and collision is not None
            and type(collision) is not BGKCollision):
        raise reject("only the plain BGK collision is fused for ST")
    # Every fast backend admits the fused matrix: a boundary list its
    # layout core does not carry steps the fused core (make_core).
    return caps


def make_stepper(solver, backend: str | None = None):
    """Build the fast-path stepper bound to ``solver``.

    The solver's own ``accel_caps`` declaration selects the kernel
    family and :func:`validate_backend` re-checks the supported matrix.
    Returns ``None`` for ``backend="reference"``.
    """
    backend = solver.backend if backend is None else backend
    caps = validate_backend(solver, backend)
    return None if caps is None else _Stepper(solver, backend, caps)
