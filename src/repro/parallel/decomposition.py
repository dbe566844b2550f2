"""Distributed-memory domain decomposition (multi-device substrate).

The paper's lineage runs multi-GPU LBM at scale (Obrecht 2013, Robertsén
2017, Vardhan 2019); this package provides the corresponding substrate in
two interchangeable backends: a deterministic in-process emulation (this
module) and a real multiprocess SPMD runtime
(:mod:`repro.parallel.runtime`). In both, the global domain is split into
slabs along the streamwise axis, each rank owns a slab plus one-node
ghost layers, and every step performs an explicit halo exchange whose
volume is accounted exactly.

**A rank is a solver.** ``dist.rank(r)`` is the very
:class:`~repro.solver.STSolver` / :class:`~repro.solver.MRPSolver` /
:class:`~repro.solver.MRRSolver` a single-domain run constructs, built
on first use from views of the rank's ghosted slab of the global domain,
initial fields and force: one implementation of each scheme, every
construction-time check of :class:`~repro.solver.base.Solver` holds per
rank (made on the global inputs up front), and a slab differs from the
whole domain only in *what crosses its faces*. The classes here
own exactly that — :class:`SlabDecomposition`,
:class:`CommunicationReport`, the halo codec, the exchange round — and
name no collision, streaming routine or :mod:`repro.accel` core.

The moment representation changes the exchange payload: an ST rank must
receive the neighbour's post-collision *populations* crossing the cut
(5 of 19 for D3Q19 per direction, or all Q in naive implementations),
whereas an MR rank receives the neighbour's ghost *moments* (M = 10) and
reconstructs the crossing populations locally (exact, thanks to the
regularization) — trading a little recomputation for less network
traffic, exactly the compression the paper exploits against DRAM.

Both backends drive the same per-rank primitives —
:meth:`DistributedSolver._pack_halo`, :meth:`DistributedSolver._unpack_halo`
and the rank solver's own step — so the emulated exchange and the
shared-memory exchange move bit-identical payloads
(see ``docs/PARALLEL.md``). The codec asks a rank for its edge rows
(:meth:`~repro.solver.Solver.read_plane`) and hands it its ghost rows
(:meth:`~repro.solver.Solver.write_plane`), so a rank whose state is
compact (``"sparse"``) ships planes without making a dense array. The
ghost layer is one node wide, so a multi-speed lattice is refused at
construction (:func:`check_halo_width`).

Correctness: a distributed run over any number of ranks reproduces the
single-domain solver of the same backend (tested for every registered
kind, all three schemes, both backends).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..geometry import Domain
from ..lattice import LatticeDescriptor
from ..solver import SCHEMES, Solver, check_inputs
from ..spec import SlabDecomposition, check_halo_width

__all__ = [
    "CommunicationReport",
    "SlabDecomposition",
    "check_halo_width",
    "DistributedSolver",
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


class DistributedSolver:
    """Slab setup, the halo codec, the exchange round, gathering.

    ``rank(r)`` is the single-domain solver of ``scheme`` (``"ST"``,
    ``"MR-P"`` or ``"MR-R"``, a key of ``SCHEMES``) on rank ``r``'s
    ghosted slab, built when first asked for; ``ranks`` is all of them.
    The halo codec — :meth:`field`, :meth:`_pack_halo`,
    :meth:`_unpack_halo`, :meth:`halo_values_per_direction` — is what
    both :meth:`step` (the emulated backend) and the multiprocess
    runtime in :mod:`repro.parallel.runtime` are assembled from.

    The codec's one scheme-dependent choice is what a rank ships per
    face and direction: an ST rank the populations of its edge plane
    whose ``c_x`` points into the neighbour, an MR rank the plane's M
    moments (see the module notes).
    """

    def __init__(self, lat: LatticeDescriptor, global_domain: Domain,
                 tau: float, n_ranks: int, periodic_axis0: bool,
                 boundary_factory, rho0=1.0, u0: np.ndarray | None = None,
                 force: np.ndarray | None = None,
                 accel: str = "reference", scheme: str = "ST"):
        if scheme not in SCHEMES:
            raise ValueError(
                f"scheme must be one of {sorted(SCHEMES)}, got {scheme!r}")
        check_halo_width(lat)
        self.scheme = scheme
        self.lat = lat
        self.global_domain = global_domain
        self.tau = float(tau)
        self.decomp = SlabDecomposition(global_domain.shape, n_ranks,
                                        periodic_axis0)
        self.comm = CommunicationReport()
        self.time = 0
        self.accel = accel

        # The shell: :meth:`rank` builds a rank from views of these. What
        # a rank would refuse fails here, in its words, before any rank
        # is built or forked: its inputs (on the global grid), its class
        # and backend (a solver of the scheme on one fluid plane,
        # dropped) and its boundaries (bound to its slab, dropped).
        check_inputs(lat, global_domain.shape, tau, rho0, u0, force)
        SCHEMES[scheme](lat, Domain(np.zeros_like(global_domain.node_type[:1])),
                        tau, force=None if force is None else np.zeros(lat.d),
                        backend=accel)
        for r in range(n_ranks):
            slab = Domain(global_domain.node_type[self.decomp.ghosted(r)])
            for b in boundary_factory(r, n_ranks):
                b.bind(lat, slab, tau)
        self._inputs = np.broadcast_to(rho0, global_domain.shape), u0, force
        self._boundary_factory = boundary_factory
        self._ranks: list[Solver | None] = [None] * n_ranks
        # The state rows a rank ships across each face.
        cx = lat.c[:, 0]
        self._ships = ({"right": np.flatnonzero(cx > 0),
                        "left": np.flatnonzero(cx < 0)} if scheme == "ST"
                       else dict.fromkeys(("right", "left"),
                                          np.arange(lat.n_moments)))

    def rank(self, r: int) -> Solver:
        """Rank ``r``'s solver, built on first use on its ghosted slab."""
        if self._ranks[r] is None:
            gsl, (rho0, u0, force) = self.decomp.ghosted(r), self._inputs
            self._ranks[r] = SCHEMES[self.scheme](
                self.lat, Domain(self.global_domain.node_type[gsl]), self.tau,
                boundaries=self._boundary_factory(r, self.decomp.n_ranks),
                rho0=rho0[gsl],
                u0=None if u0 is None else np.asarray(u0)[:, gsl],
                force=(force if np.ndim(force) < 2
                       else np.asarray(force)[:, gsl]),
                backend=self.accel)
        return self._ranks[r]

    @property
    def ranks(self) -> list[Solver]:
        """Every rank's solver (building the ones not built yet)."""
        return [self.rank(r) for r in range(self.decomp.n_ranks)]

    # -- the halo codec -----------------------------------------------------
    def field(self, rank: Solver) -> np.ndarray:
        """The exchanged state array of a rank solver (``f`` or ``m``),
        ghost planes included, in the natural layout."""
        return rank.f if self.scheme == "ST" else rank.m

    def _pack_halo(self, rank: Solver, direction: str) -> np.ndarray:
        """Copy the edge-plane payload travelling ``direction`` out of a rank.

        ``direction`` is ``"right"`` (data for the high-x neighbour's low-x
        ghost) or ``"left"``. Returns a contiguous array of shape
        ``(payload_components, *face_shape)``.
        """
        return rank.read_plane(self._ships[direction],
                               -2 if direction == "right" else 1)

    def _unpack_halo(self, rank: Solver, side: str, buf: np.ndarray) -> None:
        """Write a received payload into the ``side`` (``"left"``/``"right"``)
        ghost plane of a rank."""
        if side == "left":
            rank.write_plane(self._ships["right"], 0, buf)
        else:
            rank.write_plane(self._ships["left"], -1, buf)

    def halo_values_per_direction(self) -> int:
        """Doubles in one directed face payload (one face, one direction)."""
        return len(self._ships["right"]) * self.decomp.face_nodes

    # -- common API -------------------------------------------------------
    def interior(self, rank: int) -> slice:
        """Axis-0 slice selecting a rank's owned (non-ghost) planes."""
        return slice(int(self.decomp.has_left(rank)),
                     -1 if self.decomp.has_right(rank) else None)

    def _exchange(self) -> None:
        """One emulated halo-exchange round: pack all faces, then unpack.

        The two-phase structure mirrors the barrier protocol of the
        multiprocess backend, so both move bit-identical payloads. Each
        directed pack is accounted as one message and the round advances
        ``comm.steps``.
        """
        packed: dict[tuple[int, str], np.ndarray] = {}
        for r, rank in enumerate(self.ranks):
            if self.decomp.has_right(r):
                buf = self._pack_halo(rank, "right")
                packed[r, "right"] = buf
                self.comm.record(buf.size)
            if self.decomp.has_left(r):
                buf = self._pack_halo(rank, "left")
                packed[r, "left"] = buf
                self.comm.record(buf.size)
        for r, rank in enumerate(self.ranks):
            if self.decomp.has_left(r):
                self._unpack_halo(rank, "left",
                                  packed[self.decomp.left_of(r), "right"])
            if self.decomp.has_right(r):
                self._unpack_halo(rank, "right",
                                  packed[self.decomp.right_of(r), "left"])
        self.comm.steps += 1

    def step(self) -> None:
        """Advance the whole decomposition by one step: exchange, then
        every rank's own collide+stream over its ghosted slab."""
        self._exchange()
        for rank in self.ranks:
            rank.step()

    def run(self, n_steps: int) -> "DistributedSolver":
        """Advance ``n_steps`` steps and return self."""
        for _ in range(int(n_steps)):
            self.step()
            self.time += 1
        return self

    def gather_rank(self, r: int, out: np.ndarray) -> None:
        """Write rank ``r``'s owned planes of ``(rho, u)`` into ``out``.

        ``out`` is the global ``(1 + D, *shape)`` block; one plane at a
        time (the ``planes`` argument of the rank classes'
        ``macroscopic``), so no slab-sized field is made on the way."""
        rank, (start, stop) = self.rank(r), self.decomp.bounds(r)
        ghost = int(self.decomp.has_left(r))
        for k in range(start, stop):
            out[0, k], out[1:, k] = rank.macroscopic(k - start + ghost)

    def gather_macroscopic(self) -> tuple[np.ndarray, np.ndarray]:
        """Assemble the global (rho, u) fields from all ranks."""
        out = np.empty((1 + self.lat.d, *self.global_domain.shape))
        for r in range(self.decomp.n_ranks):
            self.gather_rank(r, out)
        return out[0], out[1:]

    def communication_values_per_face(self) -> int:
        """Doubles exchanged per cut face per step (both directions)."""
        return 2 * self.halo_values_per_direction()
