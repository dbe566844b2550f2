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

* **streaming** is one ``np.take`` through the masked table, whose
  solid-source links are *bounce-back-folded*: the gather itself realizes
  half-way bounce-back, so walls cost nothing on top of propagation;
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


def _folded_momentum(table: MaskedNeighborTable, lat: LatticeDescriptor,
                     bb) -> list:
    """Compact ``(q, targets, values)`` moving-wall momentum terms of a wall.

    The ``2 w_i rho0 (c_i . u_w) / cs2`` values of
    :class:`~repro.boundary.HalfwayBounceBack`, evaluated on the table's
    own solid links (the dense hook's links, in the same C order) with
    the hook's expression, so the folded adds are value-identical.
    """
    if bb is None or bb.wall_velocity is None:
        return []
    uw = np.asarray(bb.wall_velocity, dtype=np.float64).reshape(lat.d, -1)
    terms = []
    for q, links in enumerate(table.solid_links):
        if links.size:
            at = np.unravel_index(table.fluid_flat[links], table.shape)
            src = np.ravel_multi_index(
                [x - c for x, c in zip(at, lat.c[q])], table.shape,
                mode="wrap")
            cu = sum(lat.c[q, a] * uw[a][src] for a in range(lat.d))
            terms.append((q, links, 2.0 * lat.w[q] * bb.rho0 * cu / lat.cs2))
    return terms


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
        self._mom = _folded_momentum(self.table, lat, self._bb)

    def _apply_folded(self, fc: np.ndarray, rest: np.ndarray) -> None:
        """Finish the folded links of a freshly gathered compact field.

        Without a bounce-back wall the reflections are overwritten with
        ``rest[q]`` — what the dense kernels stream out of their pinned
        solid nodes; a moving wall adds its momentum terms on top.
        """
        if self._bb is None:
            for q, links in enumerate(self.table.solid_links):
                if links.size:
                    fc[q, links] = rest[q]
        else:
            for q, tgt, mom in self._mom:
                fc[q, tgt] += mom


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
        self._rest = np.ascontiguousarray(lat.w, dtype=np.float64)

    def step(self, f: np.ndarray, boundaries=(), tel=None,
             force: np.ndarray | None = None, tau_field=None) -> None:
        """Advance the compact post-collision ``f`` one step in place.

        ``f`` is ``(Q, n_fluid)``, ``force`` compact ``(D, n_fluid)``.
        """
        tel = NULL_TELEMETRY if tel is None else tel
        with tel.phase("stream"):
            self.table.gather_compact(f, self._fc)
            self._apply_folded(self._fc, self._rest)
        with tel.phase("collide"):
            self.arith._relax(self._fc, f, force)


class SparseMRCore(_SparseCoreBase):
    """Compact-state fused MR step (MR-P / MR-R over fluid nodes only).

    Algorithm 2 on the compact node list: the shared :class:`FusedMRCore`
    collision and Eq. 11/14 reconstruction over ``n_fluid`` columns, one
    folded compact gather for streaming + bounce-back, and the Eq. 1-3
    re-projection into the compact moments — the state.
    """

    def __init__(self, lat: LatticeDescriptor, solid_mask: np.ndarray,
                 tau: float, scheme: str = "MR-P",
                 tau_bulk: float | None = None, boundaries=()):
        super().__init__(lat, solid_mask, boundaries)
        n = self.table.n_fluid
        self.arith = FusedMRCore(lat, (n,), tau, scheme=scheme,
                                 tau_bulk=tau_bulk)
        #: compact post-collision and streamed fields
        self._fc_star, self._fc = np.empty((2, lat.q, n))
        self._tau = None        # compact relaxation field (power law)
        # Rest-state reconstruction column: exactly what the dense matmul
        # streams out of a pinned solid node (== w_i analytically).
        self._rest = np.ascontiguousarray(self.arith._rcext[:, 0])

    def step(self, m: np.ndarray, boundaries=(), tel=None,
             force: np.ndarray | None = None,
             tau_field: np.ndarray | None = None) -> None:
        """Advance the compact moments ``m`` one step in place.

        ``m`` is ``(M, n_fluid)``, ``force`` compact, ``tau_field`` the
        dense ``grid`` field.
        """
        tel = NULL_TELEMETRY if tel is None else tel
        table, arith = self.table, self.arith
        fc_star, fc = self._fc_star, self._fc
        with tel.phase("collide"):
            if tau_field is not None:
                if self._tau is None:
                    self._tau = np.empty((1, table.n_fluid))
                table.compact(tau_field, self._tau)
            arith._reconstruct(m, fc_star, force,
                               None if tau_field is None else self._tau)
        with tel.phase("stream"):
            table.gather_compact(fc_star, fc)
            self._apply_folded(fc, self._rest)
        with tel.phase("macroscopic"):
            np.matmul(arith._mm, fc, out=m)
