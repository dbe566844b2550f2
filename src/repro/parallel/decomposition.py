"""Distributed-memory domain decomposition (multi-device substrate).

The paper's lineage runs multi-GPU LBM at scale (Obrecht 2013, Robertsén
2017, Vardhan 2019); this package provides the corresponding substrate in
two interchangeable backends: a deterministic in-process emulation (this
module) and a real multiprocess SPMD runtime
(:mod:`repro.parallel.runtime`). In both, the global domain is split into
slabs along the streamwise axis, each rank owns a slab plus one-node
ghost layers, and every step performs an explicit halo exchange whose
volume is accounted exactly.

The moment representation changes the exchange payload: an ST rank must
receive the neighbour's post-collision *populations* crossing the cut
(5 of 19 for D3Q19 per direction, or all Q in naive implementations),
whereas an MR rank receives the neighbour's ghost *moments* (M = 10) and
reconstructs the crossing populations locally — trading a little
recomputation for less network traffic, exactly the compression the paper
exploits against DRAM.

Both backends drive the same per-rank primitives defined here —
:meth:`DistributedSolver._pack_halo`, :meth:`DistributedSolver._unpack_halo`
and :meth:`DistributedSolver._rank_step` — so the emulated exchange and
the shared-memory exchange move bit-identical payloads
(see ``docs/PARALLEL.md``).

Correctness: a distributed run over any number of ranks reproduces the
single-domain reference solver to machine precision (tested for periodic
and channel problems, all three schemes, both backends).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..boundary import Boundary
from ..core.collision import (
    collide_moments_projective,
    collide_moments_recursive,
)
from ..core.equilibrium import equilibrium, equilibrium_moments
from ..core.moments import f_from_moments, macroscopic, moments_from_f
from ..core.streaming import stream_pull, stream_push
from ..geometry import Domain
from ..lattice import LatticeDescriptor

__all__ = [
    "CommunicationReport",
    "SlabDecomposition",
    "DistributedSolver",
    "DistributedST",
    "DistributedMR",
]

DOUBLE = 8


@dataclass
class CommunicationReport:
    """Halo-exchange accounting across a whole run.

    ``steps`` is advanced by the solver on every exchange round (one
    round per :meth:`DistributedSolver.step`), so ``bytes_per_step()``
    is well defined whether the run went through :meth:`~DistributedSolver.run`
    or through repeated direct ``step()`` calls.
    """

    bytes_sent: int = 0
    messages: int = 0
    steps: int = 0

    def record(self, n_values: int) -> None:
        """Account one directed message of ``n_values`` doubles."""
        self.bytes_sent += n_values * DOUBLE
        self.messages += 1

    def bytes_per_step(self) -> float:
        """Mean bytes moved per exchange round."""
        return self.bytes_sent / max(self.steps, 1)

    def merge(self, other: "CommunicationReport") -> None:
        """Fold another rank's accounting into this one (bytes and
        messages add; ``steps`` is the max, all ranks step in lockstep)."""
        self.bytes_sent += other.bytes_sent
        self.messages += other.messages
        self.steps = max(self.steps, other.steps)

    def to_dict(self) -> dict:
        """JSON-serializable snapshot including the per-step rate."""
        return {
            "bytes_sent": self.bytes_sent,
            "messages": self.messages,
            "steps": self.steps,
            "bytes_per_step": self.bytes_per_step(),
        }


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


class _RankState:
    """Per-rank slab arrays and local boundary conditions."""

    def __init__(self, lat: LatticeDescriptor, domain_slab: Domain,
                 boundaries: list[Boundary], tau: float,
                 ghost_left: bool, ghost_right: bool):
        self.lat = lat
        self.domain = domain_slab
        self.tau = tau
        self.ghost_left = ghost_left
        self.ghost_right = ghost_right
        self.boundaries = [b.bind(lat, domain_slab, tau) for b in boundaries]
        #: fast-path core stepping this slab (built on the first step).
        self.core = None

    @property
    def interior(self) -> slice:
        """Axis-0 slice selecting the owned (non-ghost) planes."""
        lo = 1 if self.ghost_left else 0
        hi = -1 if self.ghost_right else None
        return slice(lo, hi)

    def n_interior_fluid(self) -> int:
        """Number of fluid nodes this rank owns (ghost planes excluded)."""
        return int((~self.domain.solid_mask[self.interior]).sum())


class DistributedSolver:
    """Base class: slab setup, halo-exchange bookkeeping, gathering.

    Subclasses provide four per-rank primitives — :meth:`_init_rank_state`,
    :meth:`_pack_halo`, :meth:`_unpack_halo` and :meth:`_rank_step` — from
    which both :meth:`step` (the emulated backend) and the multiprocess
    runtime in :mod:`repro.parallel.runtime` are assembled.
    """

    scheme: str = "?"
    #: Name of the per-rank state attribute holding the exchanged field
    #: (``"f"`` for populations, ``"m"`` for moments).
    field_attr: str = "?"
    #: Kernel-family declaration handed to :mod:`repro.accel` (the same
    #: dict shape the single-domain solvers declare).
    accel_caps: dict | None = None

    def __init__(self, lat: LatticeDescriptor, global_domain: Domain,
                 tau: float, n_ranks: int, periodic_axis0: bool,
                 boundary_factory, rho0=1.0, u0: np.ndarray | None = None,
                 force: np.ndarray | None = None,
                 st_exchange: str = "crossing",
                 accel: str = "reference"):
        self.lat = lat
        self.global_domain = global_domain
        self.tau = float(tau)
        self.decomp = SlabDecomposition(global_domain.shape, n_ranks,
                                        periodic_axis0)
        self.comm = CommunicationReport()
        self.time = 0
        if st_exchange not in ("crossing", "full"):
            raise ValueError("st_exchange must be 'crossing' or 'full'")
        self.st_exchange = st_exchange
        self.accel = accel

        rho_g = np.broadcast_to(np.asarray(rho0, dtype=np.float64),
                                global_domain.shape).copy()
        u_g = (np.zeros((lat.d, *global_domain.shape)) if u0 is None
               else np.array(u0, dtype=np.float64))
        rho_g[global_domain.solid_mask] = 1.0
        u_g[:, global_domain.solid_mask] = 0.0
        if force is not None:
            from ..core.forcing import normalize_force

            force = normalize_force(lat, force, global_domain.shape)
            force[:, global_domain.solid_mask] = 0.0
        self.force = force

        from ..accel import check_support

        self.ranks: list[_RankState] = []
        self._rank_slices: list[tuple[slice, slice]] = []  # (global, local int.)
        for r in range(n_ranks):
            start, stop = self.decomp.bounds(r)
            gl = 1 if self.decomp.has_left(r) else 0
            gr = 1 if self.decomp.has_right(r) else 0
            gsl = [(start - gl + k) % global_domain.shape[0]
                   for k in range(stop - start + gl + gr)]
            node_type = global_domain.node_type[gsl]
            slab = Domain(node_type)
            state = _RankState(lat, slab, boundary_factory(r, n_ranks),
                               tau, bool(gl), bool(gr))
            # One support matrix with the single-domain solvers: the
            # same check, against the boundary list this rank steps with.
            check_support(type(self).__name__, accel, self.accel_caps,
                          state.boundaries)
            self._init_rank_state(state, rho_g[gsl], np.stack(
                [u_g[a][gsl] for a in range(lat.d)]))
            if self.force is not None:
                state.force = np.stack([self.force[a][gsl]
                                        for a in range(lat.d)])
            else:
                state.force = None
            self.ranks.append(state)
            self._rank_slices.append((slice(start, stop), state.interior))

        # Crossing component sets for ST exchanges.
        cx = lat.c[:, 0]
        self._right_going = np.where(cx > 0)[0]
        self._left_going = np.where(cx < 0)[0]

    # -- subclass hooks --------------------------------------------------
    def _init_rank_state(self, state: _RankState, rho: np.ndarray,
                         u: np.ndarray) -> None:
        """Allocate and initialize one rank's field arrays."""
        raise NotImplementedError

    def _rank_step_reference(self, state: _RankState) -> None:
        """One reference collide+stream step over a rank's slab."""
        raise NotImplementedError

    def _rank_step(self, state: _RankState) -> None:
        """Advance one rank's slab by one collide+stream step.

        Ghost planes must already hold the neighbours' halo data (see
        :meth:`_pack_halo` / :meth:`_unpack_halo`). Fast backends step
        the slab (ghost planes included, so streaming reads the
        exchanged halo exactly like the reference pull) through the
        core :func:`repro.accel.make_core` builds for it. No clock is
        passed: halo exchange and interior checkpoints need the natural
        layout after every step.
        """
        if self.accel == "reference":
            self._rank_step_reference(state)
            return
        if state.core is None:
            from ..accel import make_core

            state.core = make_core(self.accel, self.accel_caps, self.lat,
                                   state.domain, self.tau, state.boundaries)
        state.core.step(getattr(state, self.field_attr), state.boundaries,
                        force=state.force)

    def _pack_halo(self, state: _RankState, direction: str) -> np.ndarray:
        """Copy the edge-plane payload travelling ``direction`` out of a rank.

        ``direction`` is ``"right"`` (data for the high-x neighbour's low-x
        ghost) or ``"left"``. Returns a contiguous array of shape
        ``(payload_components, *face_shape)``.
        """
        raise NotImplementedError

    def _unpack_halo(self, state: _RankState, side: str,
                     buf: np.ndarray) -> None:
        """Write a received payload into the ``side`` (``"left"``/``"right"``)
        ghost plane of a rank."""
        raise NotImplementedError

    def halo_values_per_direction(self) -> int:
        """Doubles in one directed face payload (one face, one direction)."""
        raise NotImplementedError

    # -- common API -------------------------------------------------------
    def _exchange(self) -> None:
        """One emulated halo-exchange round: pack all faces, then unpack.

        The two-phase structure mirrors the barrier protocol of the
        multiprocess backend, so both move bit-identical payloads. Each
        directed pack is accounted as one message and the round advances
        ``comm.steps``.
        """
        packed: dict[tuple[int, str], np.ndarray] = {}
        for r, state in enumerate(self.ranks):
            if self.decomp.has_right(r):
                buf = self._pack_halo(state, "right")
                packed[r, "right"] = buf
                self.comm.record(buf.size)
            if self.decomp.has_left(r):
                buf = self._pack_halo(state, "left")
                packed[r, "left"] = buf
                self.comm.record(buf.size)
        for r, state in enumerate(self.ranks):
            if self.decomp.has_left(r):
                self._unpack_halo(state, "left",
                                  packed[self.decomp.left_of(r), "right"])
            if self.decomp.has_right(r):
                self._unpack_halo(state, "right",
                                  packed[self.decomp.right_of(r), "left"])
        self.comm.steps += 1

    def step(self) -> None:
        """Advance the whole decomposition by one step (exchange, then
        per-rank collide+stream)."""
        self._exchange()
        for state in self.ranks:
            self._rank_step(state)

    def run(self, n_steps: int) -> "DistributedSolver":
        """Advance ``n_steps`` steps and return self."""
        for _ in range(int(n_steps)):
            self.step()
            self.time += 1
        return self

    def gather_macroscopic(self) -> tuple[np.ndarray, np.ndarray]:
        """Assemble the global (rho, u) fields from all ranks."""
        rho = np.empty(self.global_domain.shape)
        u = np.empty((self.lat.d, *self.global_domain.shape))
        for state, (gsl, isl) in zip(self.ranks, self._rank_slices):
            r_loc, u_loc = self._rank_macroscopic(state)
            rho[gsl] = r_loc[isl]
            u[:, gsl] = u_loc[:, isl]
        return rho, u

    def _rank_macroscopic(self, state: _RankState):
        """Density and velocity over one rank's slab (ghosts included)."""
        raise NotImplementedError

    def communication_values_per_face(self) -> int:
        """Doubles exchanged per cut face per step (both directions)."""
        return 2 * self.halo_values_per_direction()


class DistributedST(DistributedSolver):
    """Distributed standard two-lattice solver (pull configuration).

    Exchange payload per face and direction: the crossing populations
    (``c_x`` pointing into the neighbour) of the slab's edge plane — or
    the full Q populations in ``st_exchange='full'`` mode.
    """

    scheme = "ST"
    field_attr = "f"
    accel_caps = {"family": "st"}

    def _init_rank_state(self, state, rho, u):
        """Initialize the rank's populations at equilibrium."""
        state.f = equilibrium(self.lat, rho, u)
        # The reference step double-buffers through this lattice; the
        # fast-path cores own their scratch.
        state.scratch = (np.empty_like(state.f)
                         if self.accel == "reference" else None)

    def _rank_macroscopic(self, state):
        """Density and (half-force-corrected) velocity from populations."""
        if state.force is None:
            return macroscopic(self.lat, state.f)
        from ..core.forcing import half_force_velocity

        rho = state.f.sum(axis=0)
        j = np.einsum("qa,q...->a...", self.lat.c.astype(float), state.f)
        return rho, half_force_velocity(self.lat, rho, j, state.force)

    def _send_comps(self, direction: str) -> np.ndarray:
        """Population components shipped in one direction of travel."""
        if self.st_exchange == "full":
            return np.arange(self.lat.q)
        return self._right_going if direction == "right" else self._left_going

    def halo_values_per_direction(self) -> int:
        """Crossing (or full-Q) populations of one edge plane."""
        return len(self._send_comps("right")) * self.decomp.face_nodes

    def _pack_halo(self, state, direction):
        """Copy the outgoing edge plane of crossing populations."""
        comps = self._send_comps(direction)
        src = -2 if direction == "right" else 1
        return np.ascontiguousarray(state.f[comps, src])

    def _unpack_halo(self, state, side, buf):
        """Write received crossing populations into a ghost plane."""
        if side == "left":
            state.f[self._send_comps("right"), 0] = buf
        else:
            state.f[self._send_comps("left"), -1] = buf

    def _rank_step_reference(self, state) -> None:
        """Pull-stream, apply boundaries, BGK/Guo collide one slab."""
        lat = self.lat
        stream_pull(lat, state.f, out=state.scratch)
        for b in state.boundaries:
            b.post_stream(lat, state.scratch, state.f)
        if state.force is None:
            from ..core.collision import BGKCollision

            f_star = BGKCollision(self.tau)(lat, state.scratch)
        else:
            from ..core.equilibrium import equilibrium as _eq
            from ..core.forcing import guo_source, half_force_velocity

            f = state.scratch
            rho = f.sum(axis=0)
            j = np.einsum("qa,q...->a...", lat.c.astype(float), f)
            u = half_force_velocity(lat, rho, j, state.force)
            feq = _eq(lat, rho, u)
            f_star = (f + (feq - f) / self.tau
                      + guo_source(lat, u, state.force, self.tau))
        solid = state.domain.solid_mask
        if solid.any():
            f_star[:, solid] = lat.w[:, None]
        for b in state.boundaries:
            b.post_collide(lat, f_star, state.scratch)
        state.f, state.scratch = f_star, state.f


class DistributedMR(DistributedSolver):
    """Distributed moment-representation solver (MR-P or MR-R).

    Exchange payload per face and direction: the M moments of the slab's
    edge plane — the crossing populations are reconstructed on the
    receiving rank from the exchanged moments (regularization makes this
    exact), cutting network volume by 1 - M/(2 q_cross) vs naive-full ST
    and trading arithmetic for bandwidth vs crossing-only ST.
    """

    field_attr = "m"

    def __init__(self, *args, scheme: str = "MR-P", **kwargs):
        """Build an MR decomposition; ``scheme`` picks the reconstruction
        (``"MR-P"`` projective, ``"MR-R"`` recursive)."""
        if scheme not in ("MR-P", "MR-R"):
            raise ValueError(f"scheme must be MR-P or MR-R, got {scheme!r}")
        self.scheme = scheme
        self.accel_caps = {"family": "mr", "scheme": scheme}
        super().__init__(*args, **kwargs)

    def _init_rank_state(self, state, rho, u):
        """Initialize the rank's moment field at equilibrium."""
        state.m = equilibrium_moments(self.lat, rho, u)
        # Streaming target of the reference step; the fast-path cores
        # own their distribution buffers.
        state.scratch = (np.empty((self.lat.q, *state.domain.shape))
                         if self.accel == "reference" else None)

    def _rank_macroscopic(self, state):
        """Density and velocity straight from the conserved moments."""
        rho = state.m[0]
        j = state.m[1:1 + self.lat.d]
        if state.force is None:
            return rho, j / rho
        from ..core.forcing import half_force_velocity

        return rho, half_force_velocity(self.lat, rho, j, state.force)

    def halo_values_per_direction(self) -> int:
        """All M moments of one edge plane."""
        return self.lat.n_moments * self.decomp.face_nodes

    def _pack_halo(self, state, direction):
        """Copy the outgoing edge plane of the moment field."""
        src = -2 if direction == "right" else 1
        return np.ascontiguousarray(state.m[:, src])

    def _unpack_halo(self, state, side, buf):
        """Write received moments into a ghost plane."""
        state.m[:, 0 if side == "left" else -1] = buf

    def _rank_step_reference(self, state) -> None:
        """Moment-space collide, reconstruct, push-stream one slab."""
        lat = self.lat
        if self.scheme == "MR-P":
            m_star = collide_moments_projective(lat, state.m, self.tau,
                                                force=state.force)
            f_star = f_from_moments(lat, m_star)
        else:
            f_star = collide_moments_recursive(lat, state.m, self.tau,
                                               force=state.force)
        f_new = stream_push(lat, f_star, out=state.scratch)
        for b in state.boundaries:
            b.post_stream(lat, f_new, f_star)
        state.m = moments_from_f(lat, f_new)
        solid = state.domain.solid_mask
        if solid.any():
            state.m[:, solid] = 0.0
            state.m[0, solid] = 1.0
        state.scratch = f_star
