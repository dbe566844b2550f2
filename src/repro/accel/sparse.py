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
* **the compact state is the state** between steps: ``solver.f`` /
  ``solver.m`` are materialised when somebody looks (:meth:`sync`, one
  scatter) and reloaded on the next step, because whoever looks may
  also write; the compact body force is reloaded after ``set_force``
  only. Solid columns keep their pinned rest values throughout;
* **what a core holds scales with the fluid**: compact fields, the
  folded gather, the solid-link lists, the compaction maps it uses and
  the node list — only that list's inverse is dense-node-sized
  (docs/ALGORITHMS.md, *Realized allocations*).

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
                     bb, shape: tuple[int, ...]):
    """Compact ``(q, targets, values)`` moving-wall momentum terms of a wall.

    Reuses the boundary's own link targets and ``2 w_i rho0 (c_i . u_w) /
    cs2`` values (C order, as the compact node list), so the folded adds
    are value- and order-identical to the dense hook's.
    """
    terms = []
    if bb is None or bb.wall_velocity is None:
        return terms
    for q in range(lat.q):
        idx, mom = bb._targets[q], bb._momentum[q]
        if idx is not None and mom is not None:
            flat = np.ravel_multi_index(idx, shape)
            terms.append((q, table.dense_to_compact[flat], np.asarray(mom)))
    return terms


class _SparseCoreBase:
    """Shared compaction plumbing of the two sparse cores."""

    #: Core protocol: the folded gather is the only step there is.
    path = "lean"
    carries = staticmethod(boundaries_fold)
    #: The dense solver field is the only full lattice in the state
    #: footprint; everything the core owns scales with ``n_fluid``.
    state_lattices = 1
    #: True while the compact ``_state`` is ahead of the dense array: set
    #: by a step that wrote no dense state, cleared by :meth:`sync`; a
    #: step that finds it False reloads from the array first.
    resident = False
    #: False until the compact force mirrors ``solver.force`` again
    #: (``set_force`` clears it through ``_Stepper.looked``).
    force_loaded = False

    def __init__(self, lat: LatticeDescriptor, solid_mask: np.ndarray,
                 boundaries=()):
        if not self.carries(boundaries):
            raise ValueError(
                "the sparse gather table folds no boundary or one plain "
                "HalfwayBounceBack only; make_core steps other lists with "
                "the fused core")
        self.lat = lat
        self.shape = tuple(solid_mask.shape)
        self.table = MaskedNeighborTable(lat, solid_mask)
        self._bb = boundaries[0] if boundaries else None
        self._mom = _folded_momentum(self.table, lat, self._bb, self.shape)
        #: lazily built compact ``(components, n_fluid)`` buffer per field
        self._compact_bufs: dict[str, np.ndarray] = {}

    def _compact(self, name: str, field: np.ndarray | None,
                 components: int) -> np.ndarray | None:
        """Gather the fluid columns of a dense ``(components, *grid)`` field
        (``None`` passes through) into a core-owned compact buffer."""
        if field is None:
            return None
        buf = self._compact_bufs.get(name)
        if buf is None:
            buf = self._compact_bufs[name] = np.empty(
                (components, self.table.n_fluid))
        return self.table.compact(field, buf)

    def _force(self, force: np.ndarray | None) -> np.ndarray | None:
        """The compact body force, re-gathered only after ``set_force``."""
        if force is None or self.force_loaded:
            return self._compact_bufs.get("force")
        self.force_loaded = True
        return self._compact("force", force, self.lat.d)

    def sync(self, dense: np.ndarray, tel=NULL_TELEMETRY) -> None:
        """Scatter pending compact state into ``dense``; reload next step."""
        if self.resident:
            with tel.phase("sync"):
                self.table.scatter(self._state, dense)
            tel.count("syncs")
            self.resident = False

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
    over ``n_fluid`` columns. Solid columns of ``f`` keep their pinned
    ``w_i``.
    """

    def __init__(self, lat: LatticeDescriptor, solid_mask: np.ndarray,
                 tau: float, boundaries=()):
        super().__init__(lat, solid_mask, boundaries)
        n = self.table.n_fluid
        self.arith = FusedSTCore(lat, (n,), tau)    # the shared kernel
        self._fc = np.empty((lat.q, n))        # streamed compact field
        self._state = self._fc_star = np.empty((lat.q, n))  # f*: the state
        self._rest = np.ascontiguousarray(lat.w, dtype=np.float64)

    def step(self, f: np.ndarray, boundaries=(), tel=None,
             force: np.ndarray | None = None, tau_field=None) -> None:
        """Advance one step; dense ``f`` is current after :meth:`sync`."""
        tel = NULL_TELEMETRY if tel is None else tel
        table, fc = self.table, self._fc
        with tel.phase("stream"):
            if not self.resident:
                table.compact(f, self._fc_star)
            table.gather_compact(self._fc_star, fc)
            self._apply_folded(fc, self._rest)
        with tel.phase("collide"):
            self.arith._relax(fc, self._fc_star, self._force(force))
            self.resident = True


class SparseMRCore(_SparseCoreBase):
    """Compact-state fused MR step (MR-P / MR-R over fluid nodes only).

    Algorithm 2 on the compact node list: the shared :class:`FusedMRCore`
    collision and Eq. 11/14 reconstruction over ``n_fluid`` columns, one
    folded compact gather for streaming + bounce-back, and the Eq. 1-3
    re-projection into the compact moments — the state.
    Solid columns of the dense ``m`` keep their pinned ``(1, 0, ..., 0)``.
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
        self._state = np.empty((lat.n_moments, n))     # compact moments
        # Rest-state reconstruction column: exactly what the dense matmul
        # streams out of a pinned solid node (== w_i analytically).
        self._rest = np.ascontiguousarray(self.arith._rcext[:, 0])

    def step(self, m: np.ndarray, boundaries=(), tel=None,
             force: np.ndarray | None = None,
             tau_field: np.ndarray | None = None) -> None:
        """Advance one step; dense ``m`` is current after :meth:`sync`."""
        tel = NULL_TELEMETRY if tel is None else tel
        table, arith = self.table, self.arith
        fc_star, fc, mc = self._fc_star, self._fc, self._state
        with tel.phase("collide"):
            if not self.resident:
                table.compact(m, mc)
            arith._reconstruct(mc, fc_star, self._force(force),
                               self._compact("tau", tau_field, 1))
        with tel.phase("stream"):
            table.gather_compact(fc_star, fc)
            self._apply_folded(fc, self._rest)
        with tel.phase("macroscopic"):
            np.matmul(arith._mm, fc, out=mc)
            self.resident = True
