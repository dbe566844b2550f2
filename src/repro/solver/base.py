"""Solver base class and shared plumbing.

A solver owns the simulation state (distribution lattices for ST, a moment
field for MR-P/MR-R), the bound boundary conditions, and a step method
implementing one full lattice Boltzmann update. All three paper schemes
share this interface, so examples, validation and the benchmark harness are
scheme-agnostic.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Callable, Sequence

import numpy as np

from ..boundary import Boundary
from ..geometry import Domain
from ..lattice import LatticeDescriptor
from ..obs.telemetry import NULL_TELEMETRY
from ..spec import check_inputs

__all__ = ["Solver", "SolverDiagnostics", "check_inputs"]


def _dense_state(slot: str, what: str) -> property:
    """The accessor of the state array held in attribute ``slot``.

    Reading it hands out the dense array, current at that moment
    (:meth:`Solver._dense`); a write into it — or a new array bound in
    its place — is what the next step starts from.
    """
    def get(self) -> np.ndarray:
        return self._dense(slot)

    def rebind(self, value: np.ndarray) -> None:
        if self._table is None:
            self._looked()
            setattr(self, slot, value)
        else:
            self._views[slot] = value

    return property(get, rebind, doc=(
        f"{what}, current at the moment of access (see the *State "
        "access* notes of :class:`Solver`)."))


class SolverDiagnostics:
    """Lightweight macroscopic diagnostics over the fluid region.

    A short-lived view: :attr:`Solver.diagnostics` builds one per access,
    so the solver holds no reference back to itself (a stored view made
    every solver a reference cycle that only the cycle collector freed).
    """

    def __init__(self, solver: "Solver"):
        self._solver = solver

    def mass(self) -> float:
        """Total density summed over the fluid nodes."""
        rho, _ = self._solver.macroscopic()
        return float(rho[self._solver.domain.fluid_mask].sum())

    def momentum(self) -> np.ndarray:
        """Total momentum vector ``sum(rho * u)`` over the fluid nodes."""
        rho, u = self._solver.macroscopic()
        mask = self._solver.domain.fluid_mask
        return np.array([(rho * u[a])[mask].sum() for a in range(u.shape[0])])

    def max_speed(self) -> float:
        """Maximum velocity magnitude over the fluid nodes."""
        _, u = self._solver.macroscopic()
        speed = np.sqrt(np.einsum("a...,a...->...", u, u))
        return float(speed[self._solver.domain.fluid_mask].max())


class Solver(ABC):
    """Common driver for the ST / MR-P / MR-R schemes.

    Parameters
    ----------
    lat:
        Lattice descriptor (e.g. ``get_lattice("D2Q9")``).
    domain:
        Node classification; shape defines the grid.
    tau:
        BGK relaxation time (``tau > 1/2``).
    boundaries:
        Boundary condition objects; bound to ``(lat, domain, tau)`` here
        and applied in list order after each streaming step.
    rho0, u0:
        Initial density (scalar or ``grid``-shaped) and velocity
        (``None`` for rest, or ``(D, *grid)``). The initial state is the
        corresponding equilibrium.
    backend:
        Execution backend for :meth:`step`: ``"reference"`` (the
        scheme's own step method), ``"fused"``, ``"aa"`` or
        ``"sparse"`` (pure-NumPy fast paths). Fast backends reproduce
        the reference trajectory to machine precision; see
        :mod:`repro.accel`. Both the backend name and
        the solver/feature compatibility matrix are checked eagerly at
        construction time (:func:`repro.accel.validate_backend`), so an
        unsupported combination never fails mid-run.

    State access
    ------------
    The dense state (``solver.f`` for ST, ``solver.m`` for MR) is
    *current at the moment of access* — the natural layout of the
    reference step, on every backend at every step. ``"aa"`` leaves an
    odd step's lattice pre-streamed and puts it right when the attribute
    is read; the array keeps its identity (``solver.f is solver.f``
    across steps), but a reference *held* across a step is not refreshed
    until the attribute is read again — the reference backend rebinds
    ``f`` / ``m`` every step, so that was always so. ``"sparse"`` holds
    the state, and the body force, on the fluid nodes alone: the dense
    array exists from a look to the next step (made by the look, solids
    at their pinned rest values, and dropped by the step), and
    ``solver.f is solver.f`` holds within that window. Writes are seen
    by the very next step when they go through the attribute:
    ``solver.f[...] = x``, ``solver.f = x``, a checkpoint resume
    (:func:`repro.io.checkpoint.load_slabs`).
    ``solver.force`` is read-only (NumPy raises on an in-place write);
    :meth:`set_force` is the writer.
    """

    #: short scheme label used by benchmarks ("ST", "MR-P", "MR-R")
    name: str = "?"

    def __init__(self, lat: LatticeDescriptor, domain: Domain, tau: float,
                 boundaries: Sequence[Boundary] = (),
                 rho0: float | np.ndarray = 1.0,
                 u0: np.ndarray | None = None,
                 force: np.ndarray | None = None,
                 backend: str = "reference"):
        self.backend = backend
        self._stepper = self._table = None
        #: dense arrays handed out since the last step (compact layout)
        self._views: dict[str, np.ndarray] = {}
        if domain.ndim != lat.d:
            raise ValueError(
                f"domain dimension {domain.ndim} does not match lattice D={lat.d}"
            )
        check_inputs(lat, domain.shape, tau, rho0, u0, force)
        if domain.solid_mask.any() and lat.reach > 1:
            raise ValueError(
                f"{lat.name} is a multi-speed lattice (|c| up to "
                f"{lat.reach}): populations would jump across "
                f"one-node walls; only periodic (solid-free) domains are "
                f"supported for multi-speed lattices"
            )
        self.lat = lat
        self.domain = domain
        self.tau = float(tau)
        self.boundaries = [b.bind(lat, domain, tau) for b in boundaries]
        self.time = 0
        #: telemetry registry; the disabled singleton by default, so the
        #: instrumented hot loop costs nothing unless one is attached.
        self.telemetry = NULL_TELEMETRY
        # The sparse core decides the layout of what the solver holds, so
        # it exists first: its table's fluid nodes are all that the state,
        # the initial fields and the force are built on.
        if backend == "sparse":
            self._table = getattr(self._fast_stepper().core, "table", None)
        self._force = None if force is None else self._held_force(force)
        self._initialize(*self._initial_fields(rho0, u0))
        # Fail fast: check the backend name and the solver/backend
        # feature matrix now, not on the first step. Subclasses that
        # finish configuring themselves after this constructor (e.g.
        # STSolver's collision operator) re-validate once configured —
        # still construction time.
        from ..accel import validate_backend

        validate_backend(self)

    def _initial_fields(self, rho0, u0) -> tuple[np.ndarray, np.ndarray]:
        """``(rho, u)`` whose equilibrium is the initial state.

        On the compact layout, the fluid nodes' values (contiguous, so
        the blocked equilibria evaluate each column exactly as over the
        grid). Otherwise one private C-ordered ``(1 + D, N)`` copy of the
        inputs (the caller's arrays, often views, are not written): all
        a build holds beside its state. Solid nodes start (and are kept)
        at rest equilibrium so that no NaN/Inf can ever leak out of
        unused regions.
        """
        lat, shape = self.lat, self.domain.shape
        if self._table is not None:
            at = np.unravel_index(self._table.fluid_flat, shape)
            u = (np.zeros((lat.d, at[0].size)) if u0 is None
                 else np.stack([np.asarray(c)[at] for c in u0]))
            return np.broadcast_to(rho0, shape)[at], u
        init = np.empty((1 + lat.d, *shape))
        init[0] = rho0
        init[1:] = 0.0 if u0 is None else u0
        solid = self.domain.solid_mask
        np.copyto(init[0], 1.0, where=solid)
        np.copyto(init[1:], 0.0, where=solid)
        return init[0], init[1:]

    def _held_force(self, force) -> np.ndarray:
        """A force vector or field as the solver holds it, read-only: the
        fluid nodes' rows on the compact layout, else the dense field
        with no force inside walls."""
        lat, table = self.lat, self._table
        arr = np.asarray(force, dtype=np.float64)
        if table is not None and arr.shape == (lat.d,):
            held = np.empty((lat.d, table.n_fluid))
            held[...] = arr[:, None]
        elif table is not None and arr.shape == (lat.d, *self.domain.shape):
            held = table.compact(arr, np.empty((lat.d, table.n_fluid)))
        else:
            from ..core.forcing import normalize_force

            held = normalize_force(lat, arr, self.domain.shape)
            np.copyto(held, 0.0, where=self.domain.solid_mask)
        held.flags.writeable = False
        return held

    # -- scheme-specific ------------------------------------------------
    #: attribute holding the state (``"_f"`` / ``"_m"``)
    _slot: str = "?"

    @abstractmethod
    def _initialize(self, rho: np.ndarray, u: np.ndarray) -> None:
        """Set the held state to the equilibrium of (rho, u), in the
        held layout (``rho`` and ``u`` are given in it)."""

    def _rest(self) -> np.ndarray:
        """The state of a node at rest: what solid nodes hold (needed on
        the compact layout, which ST and MR solvers step)."""
        raise NotImplementedError

    @abstractmethod
    def _step_reference(self) -> None:
        """One timestep of the scheme's reference implementation."""

    def step(self) -> None:
        """Advance one timestep via the selected execution backend."""
        if self.backend == "reference":
            self._step_reference()
        else:
            self._fast_stepper().step(self)

    def _fast_stepper(self):
        """The fast-path stepper (and its core), built on first use.

        The solver/backend compatibility matrix was already checked at
        construction time, so building it cannot fail for a solver that
        constructed successfully. The stepper owns every buffer beyond
        the persistent state and holds no reference to the solver.
        """
        if self._stepper is None:
            from ..accel import make_stepper

            self._stepper = make_stepper(self)
        return self._stepper

    def _looked(self) -> None:
        """Tell the fast-path stepper the dense state is being looked at
        — and possibly written."""
        if self._stepper is not None:
            self._stepper.looked(self)

    def _dense(self, slot: str) -> np.ndarray:
        """The array held in ``slot`` in the dense layout, current now.

        On the compact layout the dense array is made by the first look
        after a step (phase and counter ``sync``: solids at rest, the
        fluid columns scattered) and kept until the next step, which
        starts from it (:meth:`_settle`).
        """
        if self._table is None:
            self._looked()
            return getattr(self, slot)
        view = self._views.get(slot)
        if view is None:
            with self.telemetry.phase("sync"):
                view = self._table.expand(
                    getattr(self, slot),
                    0.0 if slot == "_force" else self._rest())
            self.telemetry.count("syncs")
            view.flags.writeable = slot != "_force"
            self._views[slot] = view
        return view

    def _settle(self) -> None:
        """Before a fast-path step: the dense arrays handed out since the
        last one (written or rebound) are what it starts from — gather
        their fluid columns into the held state and drop them."""
        views, self._views = self._views, {}
        for slot, view in views.items():
            if slot != "_force":
                self._table.compact(view, getattr(self, slot))

    def read_plane(self, rows: np.ndarray, k: int) -> np.ndarray:
        """A copy of components ``rows`` of leading-axis plane ``k``.

        ``(len(rows), *tail)``, what a rank ships to a neighbour. On the
        compact layout the plane's fluid columns are read from the held
        state, solids at rest: no dense array is made.
        """
        if self._table is None or self._slot in self._views:
            return np.ascontiguousarray(self._dense(self._slot)[rows, k])
        cols, at = self._table.plane(k)
        tail = self.domain.shape[1:]
        out = np.empty((len(rows), int(np.prod(tail))))
        out[...] = self._rest()[rows, None]
        out[:, at] = getattr(self, self._slot)[rows, cols]
        return out.reshape(len(rows), *tail)

    def write_plane(self, rows: np.ndarray, k: int,
                    values: np.ndarray) -> None:
        """Write ``values`` into components ``rows`` of plane ``k``.

        A rank's ghost plane; on the compact layout, the fluid columns
        go into the held state.
        """
        if self._table is None or self._slot in self._views:
            self._dense(self._slot)[rows, k] = values
            return
        cols, at = self._table.plane(k)
        getattr(self, self._slot)[rows, cols] = (
            values.reshape(len(rows), -1)[:, at])

    @property
    def force(self) -> np.ndarray | None:
        """The body force ``(D, *grid)``, or ``None``; read-only outside
        :meth:`set_force`, so no core can hold a stale copy of it (on
        ``"sparse"``, dense from a look to the next step, as the state)."""
        if self._force is None or self._table is None:
            return self._force
        return self._dense("_force")

    @property
    def accel_path(self) -> str | None:
        """Step variant of the core stepping this solver (``"lean"`` or
        ``"bounded"``, on every fast backend); ``None`` on
        ``"reference"`` and, on the dense backends, before the first
        step builds the core (``"sparse"`` builds it with the solver)."""
        return None if self._stepper is None else self._stepper.core.path

    @property
    def diagnostics(self) -> SolverDiagnostics:
        """Macroscopic diagnostics (mass, momentum, max speed) of this solver."""
        return SolverDiagnostics(self)

    @abstractmethod
    def macroscopic(self) -> tuple[np.ndarray, np.ndarray]:
        """Current ``(rho, u)`` fields."""

    @property
    @abstractmethod
    def state_values_per_node(self) -> int:
        """Number of doubles of *global* state per lattice node — ``2Q`` for
        the two-lattice ST scheme, ``2M`` for the moment representation
        (paper Table 2 footprint model)."""

    # -- generic driver ---------------------------------------------------
    def attach_telemetry(self, telemetry) -> "Solver":
        """Attach a :class:`~repro.obs.Telemetry` registry (pass ``None``
        to restore the zero-overhead disabled default). Returns ``self``."""
        self.telemetry = telemetry if telemetry is not None else NULL_TELEMETRY
        return self

    def run(self, n_steps: int,
            callback: Callable[["Solver"], None] | None = None,
            callback_interval: int = 1) -> "Solver":
        """Advance ``n_steps`` steps, optionally invoking a callback.

        If the callback exposes a ``flush(solver)`` method (monitors
        do), it is invoked once after the final step, so the end state
        is observed even when ``n_steps`` is not a multiple of the
        callback's own cadence.
        """
        tel = self.telemetry
        completed = 0
        try:
            for _ in range(int(n_steps)):
                with tel.phase("step"):
                    self.step()
                self.time += 1
                completed += 1
                if callback is not None and self.time % callback_interval == 0:
                    callback(self)
            if callback is not None:
                flush = getattr(callback, "flush", None)
                if flush is not None:
                    flush(self)
        finally:
            if tel.enabled and completed:
                tel.count("steps", completed)
        return self

    def run_to_steady_state(self, tol: float = 1e-8, check_interval: int = 50,
                            max_steps: int = 200_000,
                            callback: Callable[["Solver"], None] | None = None,
                            callback_interval: int = 1) -> int:
        """Step until the max nodal velocity change over ``check_interval``
        steps drops below ``tol``. Returns the number of steps taken.

        ``callback``/``callback_interval`` are forwarded to :meth:`run`, so
        monitors, watchdogs and telemetry consumers observe steady-state
        runs exactly as they observe fixed-length ones.
        """
        _, u_prev = self.macroscopic()
        steps = 0
        while steps < max_steps:
            self.run(check_interval, callback=callback,
                     callback_interval=callback_interval)
            steps += check_interval
            _, u = self.macroscopic()
            delta = np.abs(u - u_prev)[:, self.domain.fluid_mask].max()
            if delta < tol:
                return steps
            u_prev = u
        raise RuntimeError(
            f"no steady state within {max_steps} steps (last delta above {tol})"
        )

    def set_force(self, force) -> None:
        """Update the body force (vector or field) between steps.

        Enables time-dependent driving (e.g. pulsatile/Womersley flows):
        call before each step with the instantaneous force. Solid nodes
        are automatically zeroed. The solver must have been constructed
        with a force (the schemes select their forced code paths at
        construction time). This is the one writer of ``solver.force``:
        the array itself is read-only, and held compact on ``"sparse"``.
        """
        if self._force is None:
            raise ValueError(
                "solver was built without forcing; construct it with "
                "force=... to enable time-dependent forces"
            )
        new = self._held_force(force)
        held = self._force
        held.flags.writeable = True
        held[...] = new
        held.flags.writeable = False
        view = self._views.get("_force")
        if view is not None:    # a look's dense force: kept current
            view.flags.writeable = True
            self._table.scatter(new, view)
            view.flags.writeable = False

    def velocity(self) -> np.ndarray:
        """The current velocity field ``u`` of shape ``(D, *grid)``."""
        return self.macroscopic()[1]

    def density(self) -> np.ndarray:
        """The current density field ``rho`` of shape ``grid``."""
        return self.macroscopic()[0]

    # -- helpers for subclasses ------------------------------------------
    def _apply_post_stream(self, f_new: np.ndarray, f_source: np.ndarray) -> None:
        """Apply every bound boundary's post-stream rule, in list order."""
        for b in self.boundaries:
            b.post_stream(self.lat, f_new, f_source)

    def _apply_post_collide(self, f_star: np.ndarray, f_post_stream: np.ndarray) -> None:
        """Apply every bound boundary's post-collide rule, in list order."""
        for b in self.boundaries:
            b.post_collide(self.lat, f_star, f_post_stream)
