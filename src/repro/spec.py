"""What a run *is*, apart from how it is built: the stdlib-only spec layer.

Everything the job server's front end does with a run — validate a
submission, fingerprint it, key the result cache, list the problem kinds
— lives here and imports no numpy, no lattice descriptor, no setup body
and no core:

* :class:`RunSpec` and all of its construction-time validation;
* :func:`problem_identity` and :data:`FINGERPRINT_VERSION`;
* the problem-kind table (:class:`ProblemKind`: names, descriptions and
  option names; :func:`get_problem`, :func:`problem_kinds`, ...);
* the scheme, backend and lattice name checks, the solvers' scalar and
  field-shape checks (:func:`check_inputs`), the slab cut rule
  (:class:`SlabDecomposition`) and the halo-width check.

How a run is built and stepped — the setup functions of
:mod:`repro.service.registry`, the solvers, the cores and
:class:`~repro.parallel.runtime.ProcessRuntime` — loads numpy and lives
elsewhere; those modules re-export the names defined here. numpy is
imported here only when an array-valued option is actually given
(:func:`check_inputs` on a non-scalar field).
"""

from __future__ import annotations

import hashlib
import sys
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable

from .lattice.sets import lattice_info

if TYPE_CHECKING:
    from .parallel.faults import FaultSpec

__all__ = [
    "SCHEME_NAMES", "BACKENDS", "scheme_key", "check_backend", "check_names",
    "check_inputs", "check_halo_width", "SlabDecomposition",
    "ProblemKind", "register_problem", "get_problem", "problem_kinds",
    "sweep_kinds", "FINGERPRINT_VERSION", "problem_identity", "run_record",
    "RunSpec",
]

#: The paper's schemes, by canonical name.
SCHEME_NAMES = ("ST", "MR-P", "MR-R")

#: The execution backends of a step (see :mod:`repro.accel`).
BACKENDS = ("reference", "fused", "aa", "sparse")


def scheme_key(scheme: str) -> str:
    """Canonical name of a paper scheme — the one refusal of an unknown one."""
    key = scheme.upper().replace("_", "-")
    if key not in SCHEME_NAMES:
        raise ValueError(f"unknown scheme {scheme!r}; expected one of "
                         f"{sorted(SCHEME_NAMES)}")
    return key


def check_backend(backend: str) -> None:
    """Refuse a backend name that is not one of :data:`BACKENDS`."""
    if backend not in BACKENDS:
        raise ValueError(
            f"unknown backend {backend!r}; expected one of {BACKENDS}")


def check_names(scheme: str, backend: str) -> str:
    """Refuse an unknown scheme or backend name in the solvers' own words.

    What :class:`RunSpec` can say about the two before anything is
    built; returns the canonical scheme name.
    """
    check_backend(backend)
    return scheme_key(scheme)


def check_inputs(lat, grid: tuple[int, ...], tau: float, rho0=1.0, u0=None,
                 force=None) -> None:
    """Refuse what :class:`~repro.solver.base.Solver` refuses of its
    scalar and field inputs.

    That is ``tau <= 1/2``, and an initial field or a body force that
    does not fit ``grid``, in the solver's words (``lat`` needs only its
    dimension ``d``). The solver calls this on its own grid; a
    distributed problem (its shell and :class:`RunSpec`) calls it on the
    global grid, so a rank refuses nothing that was not refused before
    any rank is cut or forked. numpy is imported only for a non-scalar
    field.
    """
    if not tau > 0.5:
        raise ValueError(f"tau must exceed 1/2, got {tau}")
    if isinstance(rho0, (int, float)) and u0 is None and force is None:
        return                      # a scalar density fits any grid
    import numpy as np

    grid = tuple(grid)
    try:
        fits = np.broadcast_shapes(np.shape(rho0), grid) == grid
    except ValueError:
        fits = False
    if not fits:
        raise ValueError(f"rho0 must be a scalar or broadcast to {grid}, "
                         f"got shape {np.shape(rho0)}")
    if u0 is not None and np.shape(u0) != (lat.d, *grid):
        raise ValueError(
            f"u0 must have shape {(lat.d, *grid)}, got {np.shape(u0)}")
    if force is not None and np.shape(force) not in ((lat.d,),
                                                     (lat.d, *grid)):
        raise ValueError(
            f"force must have shape {(lat.d,)} or {(lat.d, *grid)}, "
            f"got {np.shape(force)}")


def check_halo_width(lat) -> None:
    """Refuse a lattice the one-node ghost layer cannot carry.

    ``lat`` is a descriptor or a :func:`~repro.lattice.sets.lattice_info`
    (its ``name`` and ``reach``). Shared by
    :class:`~repro.parallel.decomposition.DistributedSolver` and
    :class:`RunSpec`, so a multi-speed lattice is rejected when the spec
    is written down, not after a wrong field has been computed.
    """
    reach = lat.reach
    if reach > 1:
        raise ValueError(
            f"{lat.name} is a multi-speed lattice (|c_x| up to {reach}): "
            f"the slab decomposition exchanges a halo 1 node wide, so "
            f"populations would jump over the ghost plane; run it "
            f"single-domain")


@dataclass(frozen=True)
class SlabDecomposition:
    """1D decomposition of the global grid along axis 0."""

    global_shape: tuple[int, ...]
    n_ranks: int
    periodic: bool

    def __post_init__(self) -> None:
        """Validate that every slab keeps at least 3 interior planes."""
        nx = self.global_shape[0]
        if self.n_ranks < 1:
            raise ValueError("need at least one rank")
        if nx < 3 * self.n_ranks:
            raise ValueError(
                f"{self.n_ranks} slabs need a global extent of at least "
                f"{3 * self.n_ranks} along axis 0, got {nx}"
            )

    def bounds(self, rank: int) -> tuple[int, int]:
        """Global [start, stop) of a rank's interior slab."""
        nx = self.global_shape[0]
        base = nx // self.n_ranks
        rem = nx % self.n_ranks
        start = rank * base + min(rank, rem)
        width = base + (1 if rank < rem else 0)
        return start, start + width

    def ghosted(self, rank: int) -> slice | list[int]:
        """A rank's axis-0 planes, ghost planes included.

        A ``slice`` (a cut is a view), the plane indices if it wraps."""
        start, stop = self.bounds(rank)
        lo, hi = start - self.has_left(rank), stop + self.has_right(rank)
        if 0 <= lo and hi <= self.global_shape[0]:
            return slice(lo, hi)
        return [k % self.global_shape[0] for k in range(lo, hi)]

    def has_left(self, rank: int) -> bool:
        """Whether the rank exchanges across its low-x face."""
        return self.periodic or rank > 0

    def has_right(self, rank: int) -> bool:
        """Whether the rank exchanges across its high-x face."""
        return self.periodic or rank < self.n_ranks - 1

    def left_of(self, rank: int) -> int:
        """Rank id of the low-x neighbour (wraps when periodic)."""
        return (rank - 1) % self.n_ranks

    def right_of(self, rank: int) -> int:
        """Rank id of the high-x neighbour (wraps when periodic)."""
        return (rank + 1) % self.n_ranks

    @property
    def face_nodes(self) -> int:
        """Number of lattice nodes in one cut face (a constant-x plane)."""
        out = 1
        for s in self.global_shape[1:]:
            out *= s
        return out


# -- the problem-kind table ------------------------------------------------

@dataclass(frozen=True)
class ProblemKind:
    """One registered problem: a name, its options and its setup function.

    Parameters
    ----------
    name:
        The ``RunSpec.kind`` string (e.g. ``"forced-channel"``).
    description:
        One-line human description, surfaced by ``mrlbm jobs --kinds``
        and the server's ``GET /kinds``.
    setup:
        ``(lat, shape, tau, **options) -> ProblemSetup`` (see
        :mod:`repro.service.registry`); its keyword parameters name the
        kind's options and their defaults. A built-in kind is declared
        here without it, and the registry attaches it when imported.
    sweepable:
        Whether ``mrlbm sweep`` may expand over this kind (requires a
        ``u_max`` option).
    distributed:
        Whether the kind has a distributed form (its single-domain
        problem cut into slabs, same options, same defaults).
    fields:
        The options the setup hands to the solver as they are — its
        initial fields or body force (names among ``rho0``, ``u0``,
        ``force``) — so a spec can check their shapes against the grid
        before anything is built.
    options:
        The option names the kind accepts, in declaration order; read
        off ``setup``'s signature when not given.
    grid:
        ``(lattice name, shape tuple) -> None``, refusing in one sentence
        a grid the kind is not built on (:meth:`check_grid`); without
        it, every grid passes.
    """

    name: str
    description: str
    setup: Callable | None = None
    sweepable: bool = False
    distributed: bool = True
    fields: tuple[str, ...] = ()
    options: tuple[str, ...] | None = None
    grid: Callable[[str, tuple], None] | None = None

    def __post_init__(self) -> None:
        """Read the option names off ``setup`` when none are declared."""
        if self.options is None:
            if self.setup is None:
                raise ValueError(f"problem kind {self.name!r} needs a setup "
                                 "function or its option names")
            import inspect

            object.__setattr__(self, "options", tuple(
                inspect.signature(self.setup).parameters)[3:])

    def check_options(self, names) -> None:
        """Raise ``ValueError`` if ``names`` holds an option the kind lacks."""
        unknown = sorted(set(names) - set(self.options))
        if unknown:
            raise ValueError(
                f"problem kind {self.name!r} has no option "
                f"{', '.join(map(repr, unknown))}; accepted options: "
                f"{', '.join(self.options) or '(none)'}")

    def check_grid(self, lattice: str, shape) -> None:
        """Refuse, by :attr:`grid`, a grid the kind is not built on.

        Every door checks it first, so each refuses a wrong grid alike.
        """
        if self.grid is not None:
            self.grid(lattice_info(lattice).name, tuple(shape))


def _schafer_turek_grid(lattice: str, shape: tuple) -> None:
    """D2Q9, and the one grid ``(22 d, round(4.1 d) + 2)`` of the
    diameter ``d = shape[0] / 22``."""
    if lattice != "D2Q9":
        raise ValueError("the schafer-turek problem is built on D2Q9 "
                         f"(got {lattice})")
    d = shape[0] / 22.0
    grid = (shape[0], round(4.1 * d) + 2)
    if shape != grid:
        raise ValueError(f"the schafer-turek problem with d = shape[0] / 22 "
                         f"= {d:g} has shape {grid}, not {shape}")


_REGISTRY: dict[str, ProblemKind] = {}


def register_problem(kind: ProblemKind) -> ProblemKind:
    """Register (or replace) a problem kind; returns it for chaining."""
    if not kind.name:
        raise ValueError("a problem kind needs a non-empty name")
    _REGISTRY[kind.name] = kind
    return kind


def get_problem(name: str, distributed: bool = False) -> ProblemKind:
    """Look up a registered kind; raise ``ValueError`` for unknown names.

    With ``distributed``, refuse a kind without a distributed form too."""
    try:
        kind = _REGISTRY[name]
    except KeyError:
        raise ValueError(
            f"unknown problem kind {name!r}; registered kinds: "
            f"{', '.join(problem_kinds())}") from None
    if distributed and not kind.distributed:
        raise ValueError(f"problem kind {name!r} has no distributed form")
    return kind


def problem_kinds() -> tuple[str, ...]:
    """Sorted names of every registered kind."""
    return tuple(sorted(_REGISTRY))


def sweep_kinds() -> tuple[str, ...]:
    """Sorted names of the kinds ``mrlbm sweep`` may expand over."""
    return tuple(sorted(k for k, v in _REGISTRY.items() if v.sweepable))


for _kind in (
    ProblemKind("channel", "rectangular channel with Poiseuille inlet and "
                "pressure outlet (the paper's proxy app)", sweepable=True,
                options=("u_max", "bc_method", "start_from_profile",
                         "outlet_tangential")),
    ProblemKind("forced-channel", "body-force-driven channel, "
                "streamwise-periodic, bounce-back walls", sweepable=True,
                options=("u_max",)),
    ProblemKind("cylinder", "force-driven channel with a staircase "
                "cylinder obstacle", options=("u_max", "radius")),
    ProblemKind("porous", "force-driven flow through a seeded random "
                "porous medium", options=("solid_fraction", "seed",
                                          "force_x")),
    ProblemKind("periodic", "fully periodic box with caller-supplied "
                "initial fields", fields=("rho0", "u0", "force"),
                options=("rho0", "u0", "force")),
    ProblemKind("taylor-green", "2D Taylor-Green vortex in a periodic box "
                "(analytic decay)", sweepable=True, options=("u_max",)),
    ProblemKind("power-law", "force-driven power-law (variable-tau) "
                "channel, single-domain only", distributed=False,
                options=("u_max",)),
    ProblemKind("schafer-turek", "Schäfer–Turek cylinder in the paper's "
                "channel proxy (drag, lift), D2Q9, single-domain only",
                distributed=False, options=("u_max", "curved"),
                grid=_schafer_turek_grid),
):
    register_problem(_kind)
del _kind


# -- identity ----------------------------------------------------------------

#: Version of the :meth:`RunSpec.fingerprint` encoding, recorded in
#: checkpoint manifests; CHANGES.md records why each bump was made.
#: Resuming a checkpoint written under another version warns and skips
#: the digest comparison instead of failing it spuriously; the job
#: server never serves a result sealed under another version.
FINGERPRINT_VERSION = 5


def problem_identity(kind: str, scheme: str, lattice: str, shape, tau: float,
                     options: dict) -> dict:
    """What a checkpoint records of its problem and a resume checks.

    ``scheme``, ``lattice``, ``shape`` and ``tau`` field by field, and a
    ``fingerprint`` digest of them with the kind and its preset options
    (initial fields, forcing, boundary method, ...) that equally shape
    the trajectory, under :data:`FINGERPRINT_VERSION`. A kind without a
    distributed form (``power-law``) has one too. The
    fingerprint is also the dedup key of the job server's result cache.
    Array-valued options hash their dtype, shape and bytes (an ndarray
    exists only once numpy is loaded, so only then is one looked for).

    Every field is length-prefixed before hashing (and values carry
    their type name), so no two distinct problems can produce the same
    byte stream — version 1 concatenated raw reprs, letting
    ``{"x1": 2}`` and ``{"x": 12}`` collide. Bump
    :data:`FINGERPRINT_VERSION` when this encoding, or the problem a
    spec names, changes.
    """
    h = hashlib.sha256()
    np = sys.modules.get("numpy")

    def feed(data: bytes) -> None:
        h.update(len(data).to_bytes(8, "big"))
        h.update(data)

    shape = tuple(int(s) for s in shape)
    feed(b"fingerprint-v%d" % FINGERPRINT_VERSION)
    for part in (kind, scheme, lattice):
        feed(str(part).encode())
    feed(repr(shape).encode())
    feed(repr(float(tau)).encode())
    for key in sorted(options):
        value = options[key]
        feed(key.encode())
        if np is not None and isinstance(value, np.ndarray):
            feed(b"ndarray")
            feed(repr((tuple(value.shape), str(value.dtype))).encode())
            feed(np.ascontiguousarray(value).tobytes())
        else:
            feed(f"{type(value).__name__}:{value!r}".encode())
    return {"scheme": scheme, "lattice": lattice, "shape": shape,
            "tau": float(tau), "fingerprint": h.hexdigest()[:16],
            "fingerprint_version": FINGERPRINT_VERSION}


def run_record(kind: str, scheme: str, lattice: str, shape, tau: float,
               options: dict, *, n_ranks: int, backend: str,
               accel: str) -> dict:
    """The one record of a run, built once.

    Its :func:`problem_identity`, the problem ``kind``, and where it
    steps — ``n_ranks`` slabs on the ``backend`` (``single``,
    ``emulated`` or ``process``) with the ``accel`` step. Its ``start``
    event, watchdog reports, checkpoint manifests and final manifest
    carry it.
    """
    return {**problem_identity(kind, scheme, lattice, shape, tau, options),
            "kind": kind, "n_ranks": int(n_ranks), "backend": backend,
            "accel": accel}


@dataclass(frozen=True)
class RunSpec:
    """Picklable description of a distributed problem.

    What it builds (:meth:`build`) is a shell — lattice, decomposition,
    global domain, boundary factory and views of the initial fields —
    and each worker builds its own rank's solver from it, once, in its
    own process (the forked workers inherit the parent's shell): only
    halo faces and the final ``(rho, u)`` cross process boundaries
    during a run.

    Parameters
    ----------
    kind:
        A registered problem kind (see :func:`problem_kinds`); one
        without a distributed form only as a :attr:`single_domain` spec.
    scheme:
        ``"ST"``, ``"MR-P"`` or ``"MR-R"``.
    lattice:
        Lattice name, e.g. ``"D2Q9"`` or ``"D3Q19"``.
    shape:
        Global grid shape.
    n_ranks:
        Number of slabs along axis 0 == number of worker processes.
    tau:
        BGK relaxation time.
    options:
        The kind's own options (``u_max``, ``bc_method``, ``rho0``,
        ``u0``, ``force``, ...), with the kind's defaults: the spec
        names the single-domain problem of the same options, cut into
        slabs. Any other name is rejected at construction.
    accel:
        Per-rank execution backend, ``"reference"``, ``"fused"``,
        ``"aa"`` or ``"sparse"`` (see :mod:`repro.accel`): the name is
        checked here, the combination when the ranks are built. A rank
        reads its state through ``solver.f`` / ``solver.m`` like anybody
        else, so a backend that keeps it in a layout of its own between
        steps (``"sparse"``, boundary-free ``"aa"``) puts it right when
        the exchange or a checkpoint looks, at odd and even steps alike.
    fault:
        Deterministic fault injection: a
        :class:`~repro.parallel.faults.FaultSpec` (or a plain dict of
        its fields) makes one rank raise, die, hang or corrupt its slab
        at a chosen step — the test harness for every failure path (see
        :mod:`repro.parallel.faults`).
    checkpoint_dir:
        Per-run checkpoint directory; workers write barrier-aligned
        distributed checkpoints here (see :mod:`repro.io.checkpoint`).
        ``None`` disables checkpointing.
    checkpoint_every:
        Checkpoint cadence in steps (0 disables). A snapshot taken "at
        step s" captures the state after ``s`` completed steps.
    checkpoint_keep:
        How many complete checkpoints of this problem to retain; older
        ones are pruned by rank 0 after each new complete snapshot.
    resume_from:
        Checkpoint root (or one specific ``step-*`` directory) to resume
        from: the run continues bit-exactly from the saved step, after
        manifest validation, re-sharding if ``n_ranks`` differs from the
        writing run. With ``resume_from`` set, ``run(n_steps)`` treats
        ``n_steps`` as the *total* step count of the trajectory.
    max_restarts:
        Default supervised-retry budget of
        :meth:`~repro.parallel.runtime.ProcessRuntime.run`: on worker
        failure the runtime restarts from the newest complete checkpoint
        of this problem up to this many times.
    watchdog_every:
        Per-rank stability-watchdog cadence in steps (0 disables): every
        worker checks its interior slab for NaN/Inf/over-speed nodes and
        converts silent corruption into a structured failure.
    events_dir:
        Run directory for the per-rank JSONL event streams (see
        :mod:`repro.obs.events`): every worker appends heartbeat /
        progress / phase / checkpoint / watchdog events there, so a
        live run can be tailed with ``mrlbm watch``. ``None`` disables
        event streaming.
    events_every:
        Heartbeat cadence in steps (default 25 when ``events_dir`` is
        set).
    """

    kind: str
    scheme: str
    lattice: str
    shape: tuple[int, ...]
    n_ranks: int
    tau: float = 0.8
    options: dict = field(default_factory=dict)
    fault: FaultSpec | dict | None = None
    accel: str = "reference"
    checkpoint_dir: str | None = None
    checkpoint_every: int = 0
    checkpoint_keep: int = 2
    resume_from: str | None = None
    max_restarts: int = 0
    watchdog_every: int = 0
    events_dir: str | None = None
    events_every: int = 25

    def __post_init__(self) -> None:
        """Validate everything that can be checked without building.

        An unknown kind, scheme or ``accel`` name, a kind without a
        distributed form in a spec that is not :attr:`single_domain`, an
        option the kind does not take, an unknown lattice, a shape of
        the wrong dimension or off ``ProblemKind.grid`` (checked first),
        ``tau <= 1/2``, a lattice the one-node halo cannot carry, a rank
        count the grid cannot be cut into or a field option of the kind
        (``ProblemKind.fields``) that does not fit the grid used to
        surface only when :meth:`build` ran — long after the spec had
        been queued, fingerprinted or pickled, and for some of them as a
        traceback (or a wrong result) in a worker. Failing here keeps
        bad specs out of the system entirely. The check is skipped
        during unpickling (``__reduce__`` restores fields directly).
        """
        get_problem(self.kind).check_grid(self.lattice, self.shape)
        kind = get_problem(self.kind, distributed=not self.single_domain)
        kind.check_options(self.options)
        check_names(self.scheme, self.accel)
        lat = lattice_info(self.lattice)
        if len(self.shape) != lat.d:
            raise ValueError(f"shape {tuple(self.shape)} does not match "
                             f"lattice dimension {lat.d}")
        check_inputs(lat, self.shape, self.tau, **{
            k: self.options[k] for k in kind.fields if k in self.options})
        check_halo_width(lat)
        SlabDecomposition(tuple(self.shape), self.n_ranks, periodic=False)

    @property
    def single_domain(self) -> bool:
        """Whether a served job of the spec steps one domain in place:
        one rank, no supervised retry, no injected fault."""
        return self.n_ranks == 1 and not (self.max_restarts or self.fault)

    def record(self, backend: str) -> dict:
        """The spec's :func:`run_record` on ``backend``."""
        return run_record(self.kind, self.scheme, self.lattice, self.shape,
                          self.tau, self.options, n_ranks=self.n_ranks,
                          backend=backend, accel=self.accel)

    def fingerprint(self) -> str:
        """Injective digest of the problem identity (kind + preset
        options; see :func:`problem_identity`)."""
        return problem_identity(self.kind, self.scheme, self.lattice,
                                self.shape, self.tau,
                                self.options)["fingerprint"]

    def build(self):
        """Construct the emulated solver this spec describes.

        It is a shell that builds a rank's solver when the rank is first
        used (:meth:`~repro.parallel.decomposition.DistributedSolver.rank`).

        Dispatches through the shared problem registry
        (:mod:`repro.service.registry`), so every kind registered there
        — built-in or site-specific — is runnable from a spec.
        """
        from .service.registry import build_distributed

        return build_distributed(
            self.kind, self.scheme, self.lattice, tuple(self.shape),
            self.n_ranks, tau=self.tau, accel=self.accel, **self.options)
