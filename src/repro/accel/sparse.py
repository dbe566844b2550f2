"""Sparse-geometry compact-state kernels (the ``"sparse"`` backend).

Every other host backend streams dense ``(Q, *grid)`` arrays, so a domain
that is 10% fluid spends ~90% of its bandwidth on solid nodes whose state
is pinned anyway. Following the fluid-node index lists of Tomczak &
Szafran's sparse-geometry GPU LBM (PAPERS.md), the cores here keep the
state as ``(Q | M, n_fluid)`` over a
:class:`~repro.accel.tables.MaskedNeighborTable` and run the *same*
collision arithmetic as the fused backend — the
:class:`~repro.accel.fused.FusedSTCore` / ``FusedMRCore`` methods, bound
to a flat ``(n_fluid,)`` shape:

* **streaming** is an ``np.take`` through the masked table, whose
  solid-source links are *bounce-back-folded*: the gather itself realizes
  half-way bounce-back, so walls cost nothing on top of propagation. MR
  takes it chunk by chunk into one chunk buffer and projects the moments
  from there (Algorithm 2 keeps the streamed distribution in shared
  memory), so no streamed lattice exists;
* **collision** (every feature of the fused kernels) runs as chunked
  BLAS dgemms over ``n_fluid`` columns instead of ``N``;
* **the compact state is the state**: a core steps the solver's
  ``(Q | M, n_fluid)`` array in place, and the solver's body force is
  held compact too; ``solver.f`` / ``solver.m`` / ``solver.force`` are
  dense only from a look to the next step (:class:`repro.solver.Solver`,
  *State access*). Solids are not in the state: a dense look shows them
  at their pinned rest values;
* **what a core holds scales with the fluid**: compact buffers, the
  folded gather, the solid-link lists and the node list — only that
  list's inverse is dense-node-sized (docs/ALGORITHMS.md, *Realized
  allocations*).

The cores carry the boundary lists that fold entirely into the gather
table (:func:`boundaries_fold`: none, or a single plain
:class:`~repro.boundary.HalfwayBounceBack`, moving walls included) and
refuse any other at construction: :func:`repro.accel.make_core` steps
those — inlet/outlet, curved walls, post-collide hooks — with the
family's fused core, whose window carries every list. So ``path`` is
always ``"lean"``: no dense distribution field at all. Traffic model:
docs/ALGORITHMS.md; parity: ``tests/property/test_conformance.py``.
"""

from __future__ import annotations

import numpy as np

from ..lattice import LatticeDescriptor
from ..obs.telemetry import NULL_TELEMETRY
from . import fused
from .fused import FusedMRCore, FusedSTCore
from .tables import MaskedNeighborTable

__all__ = ["SparseSTCore", "SparseMRCore", "boundaries_fold"]


def boundaries_fold(boundaries) -> bool:
    """True when the boundary list folds entirely into the gather table.

    No boundaries at all, or exactly one plain
    :class:`~repro.boundary.HalfwayBounceBack` (exact type — a subclass
    may override its hooks); the sparse cores carry exactly these lists.
    """
    from ..boundary.bounceback import HalfwayBounceBack

    if not boundaries:
        return True
    return len(boundaries) == 1 and type(boundaries[0]) is HalfwayBounceBack


class _SparseCoreBase:
    """Shared compaction plumbing of the two sparse cores."""

    #: Core protocol: the folded gather is the only step there is.
    path = "lean"
    carries = staticmethod(boundaries_fold)
    #: The footprint model's one lattice: the state, held compact.
    state_lattices = 1

    def __init__(self, lat: LatticeDescriptor, solid_mask: np.ndarray,
                 boundaries=()):
        if not self.carries(boundaries):
            raise ValueError(
                "the sparse gather table folds no boundary or one plain "
                "HalfwayBounceBack only; make_core steps other lists with "
                "the fused core")
        self.lat = lat
        self.table = MaskedNeighborTable(lat, solid_mask)
        self._bb = boundaries[0] if boundaries else None

    def _fixups(self, rest: np.ndarray, width: int) -> list:
        """Per chunk of ``width`` compact columns, its folded links' fix-ups.

        ``(q, links, value)``: the chunk's targets of component ``q``
        whose source node is solid (chunk-relative), and what they get.
        Without a wall ``rest[q]`` is written — what the dense kernels
        stream out of their pinned solid nodes; a moving wall adds the
        ``2 w_i rho0 (c_i . u_w) / cs2`` terms of
        :class:`~repro.boundary.HalfwayBounceBack`, evaluated on the
        table's own links (the dense hook's, in the same C order) with the
        hook's expression, so the folded adds are value-identical.
        """
        lat, table, bb = self.lat, self.table, self._bb
        uw = None if bb is None or bb.wall_velocity is None else np.asarray(
            bb.wall_velocity, dtype=np.float64).reshape(lat.d, -1)
        chunks = []
        for c0 in range(0, table.n_fluid, width):
            chunks.append(fix := [])
            if bb is not None and uw is None:
                continue                        # a stationary wall: none
            for q, links in enumerate(table.solid_links):
                links = links[np.searchsorted(links, c0):
                              np.searchsorted(links, c0 + width)]
                if not links.size:
                    continue
                value = rest[q]
                if uw is not None:
                    at = np.unravel_index(table.fluid_flat[links], table.shape)
                    src = np.ravel_multi_index(
                        [x - c for x, c in zip(at, lat.c[q])], table.shape,
                        mode="wrap")
                    cu = sum(lat.c[q, a] * uw[a][src] for a in range(lat.d))
                    value = 2.0 * lat.w[q] * bb.rho0 * cu / lat.cs2
                fix.append((q, links - c0, value))
        return chunks

    def _apply_folded(self, fc: np.ndarray, fixups: list) -> None:
        """Finish the folded links of freshly gathered columns ``fc``."""
        for q, links, value in fixups:
            if self._bb is None:
                fc[q, links] = value
            else:
                fc[q, links] += value


class SparseSTCore(_SparseCoreBase):
    """Compact-state fused ST step (two-lattice BGK over fluid nodes only).

    One folded gather of the compact post-collision field (the state)
    into the streamed one and the shared :class:`FusedSTCore` collision
    over ``n_fluid`` columns, back into the state.
    """

    def __init__(self, lat: LatticeDescriptor, solid_mask: np.ndarray,
                 tau: float, boundaries=()):
        super().__init__(lat, solid_mask, boundaries)
        n = self.table.n_fluid
        self.arith = FusedSTCore(lat, (n,), tau)    # the shared kernel
        self._fc = np.empty((lat.q, n))        # streamed compact field
        self._fix, = self._fixups(lat.w, n)

    def step(self, f: np.ndarray, boundaries=(), tel=None,
             force: np.ndarray | None = None, tau_field=None) -> None:
        """Advance the compact post-collision ``f`` one step in place.

        ``f`` is ``(Q, n_fluid)``, ``force`` compact ``(D, n_fluid)``.
        """
        tel = NULL_TELEMETRY if tel is None else tel
        with tel.phase("stream"):
            self.table.gather_compact(f, self._fc)
            self._apply_folded(self._fc, self._fix)
        with tel.phase("collide"):
            self.arith._relax(self._fc, f, force)


class SparseMRCore(_SparseCoreBase):
    """Compact-state fused MR step (MR-P / MR-R over fluid nodes only).

    Algorithm 2 on the compact node list: the shared :class:`FusedMRCore`
    collision and Eq. 11/14 reconstruction over ``n_fluid`` columns into
    ``f*``, then, chunk by chunk, the folded gather of the chunk's
    columns out of ``f*`` (streaming + bounce-back) into one chunk buffer
    and the Eq. 1-3 re-projection from there into the compact moments —
    the state. No streamed lattice exists.
    """

    def __init__(self, lat: LatticeDescriptor, solid_mask: np.ndarray,
                 tau: float, scheme: str = "MR-P",
                 tau_bulk: float | None = None, boundaries=()):
        super().__init__(lat, solid_mask, boundaries)
        n = self.table.n_fluid
        self.arith = FusedMRCore(lat, (n,), tau, scheme=scheme,
                                 tau_bulk=tau_bulk)
        self._fc_star = np.empty((lat.q, n))    # compact post-collision
        self._width = min(fused._CHUNK, n)
        self._chunk = np.empty(lat.q * self._width)  # one streamed chunk
        self._tau = None        # compact relaxation field (power law)
        # Rest-state reconstruction column: exactly what the dense matmul
        # streams out of a pinned solid node (== w_i analytically).
        self._fix = self._fixups(self.arith._rcext[:, 0], self._width)

    def step(self, m: np.ndarray, boundaries=(), tel=None,
             force: np.ndarray | None = None,
             tau_field: np.ndarray | None = None) -> None:
        """Advance the compact moments ``m`` one step in place.

        ``m`` is ``(M, n_fluid)``, ``force`` compact, ``tau_field`` the
        dense ``grid`` field.
        """
        tel = NULL_TELEMETRY if tel is None else tel
        table, arith, q = self.table, self.arith, self.lat.q
        with tel.phase("collide"):
            if tau_field is not None:
                if self._tau is None:
                    self._tau = np.empty((1, table.n_fluid))
                table.compact(tau_field, self._tau)
            arith._reconstruct(m, self._fc_star, force,
                               None if tau_field is None else self._tau)
        f_star = self._fc_star.reshape(-1)
        links = table.flat_compact.reshape(q, -1)
        for c0, fix in zip(range(0, table.n_fluid, self._width), self._fix):
            cols = slice(c0, c0 + self._width)
            fc = self._chunk[:q * links[0, cols].size].reshape(q, -1)
            with tel.phase("stream"):
                np.take(f_star, links[:, cols], out=fc, mode="clip")
                self._apply_folded(fc, fix)
            with tel.phase("macroscopic"):
                np.matmul(arith._mm, fc, out=m[:, cols])
