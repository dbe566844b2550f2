"""Sparse-geometry compact-state kernels (the ``"sparse"`` backend).

Every other host backend streams dense rectangular ``(Q, *grid)`` arrays,
so a domain that is 10% fluid spends ~90% of its bandwidth and FLOPs on
solid nodes whose state is pinned anyway. Following the fluid-node index
lists of Tomczak & Szafran's sparse-geometry GPU LBM (PAPERS.md), the
cores here compact the working state to ``(Q, n_fluid)`` over a
:class:`~repro.accel.tables.MaskedNeighborTable` and run the *same*
collision arithmetic as the fused backend — literally the
:class:`~repro.accel.fused.FusedSTCore` / ``FusedMRCore`` methods, bound
to a flat ``(n_fluid,)`` shape:

* **streaming** is one ``np.take`` through the masked table, whose
  solid-source links are *bounce-back-folded*: the gather itself realizes
  half-way bounce-back, so walls cost nothing on top of propagation;
* **collision** (every feature of the fused kernels) runs as chunked
  BLAS dgemms over ``n_fluid`` columns instead of ``N``;
* the **dense solver state** (``solver.f`` / ``solver.m``) stays
  authoritative: fluid columns are gathered at the top of the step and
  scattered back at the bottom, so checkpoints, monitors, forces and the
  ghost exchange see the arrays they always saw. Solid columns are never
  touched and keep their pinned rest values from initialization.

Boundary handling has two tiers. A boundary list that is empty or a
single plain :class:`~repro.boundary.HalfwayBounceBack` (moving walls
included) folds entirely into the gather table — the *lean* path, which
never materializes a dense distribution field. Any other post-stream
boundary routes the step through a *dense fallback* that scatters,
streams densely, runs the unchanged hook objects and re-compacts;
collision still runs compact. Boundaries with custom post-collide hooks
are rejected up front by :func:`repro.accel.validate_backend`.

The traffic model (``3 Q + D`` doubles and ``Q`` table indices per
*fluid* node against the dense cost per *dense* node) is derived in
docs/ALGORITHMS.md; machine-precision parity with the fused backend on
masked problems is pinned by ``tests/unit/test_accel_sparse.py`` and
``tests/property/test_props_sparse.py``.
"""

from __future__ import annotations

import numpy as np

from ..core.streaming import stream_push
from ..lattice import LatticeDescriptor
from ..obs.telemetry import NULL_TELEMETRY
from .fused import FusedMRCore, FusedSTCore
from .tables import MaskedNeighborTable

__all__ = ["SparseSTCore", "SparseMRCore", "boundaries_fold"]


def boundaries_fold(boundaries) -> bool:
    """True when the boundary list folds entirely into the gather table.

    Foldable means no boundaries at all, or exactly one plain
    :class:`~repro.boundary.HalfwayBounceBack` (exact type — a subclass
    may override its hooks). Anything else routes the step through the
    dense fallback that runs the unchanged hook objects.
    """
    from ..boundary.bounceback import HalfwayBounceBack

    if not boundaries:
        return True
    return len(boundaries) == 1 and type(boundaries[0]) is HalfwayBounceBack


def _folded_momentum(table: MaskedNeighborTable, lat: LatticeDescriptor,
                     bb, shape: tuple[int, ...]):
    """Compact per-component moving-wall momentum terms of a bound wall.

    Reuses the bound boundary's own precomputed link targets and
    ``2 w_i rho0 (c_i . u_w) / cs2`` values (both enumerated in C order,
    matching the compact node order), so the folded adds are value- and
    order-identical to the dense hook's.
    """
    if bb is None or bb.wall_velocity is None:
        return None
    terms = []
    for q in range(lat.q):
        idx, mom = bb._targets[q], bb._momentum[q]
        if idx is None or mom is None:
            terms.append(None)
            continue
        flat = np.ravel_multi_index(idx, shape)
        terms.append((table.dense_to_compact[flat], np.asarray(mom)))
    return terms


class _SparseCoreBase:
    """Shared compaction plumbing of the two sparse cores."""

    #: The dense solver field is the only full lattice in the state
    #: footprint; everything the core owns scales with ``n_fluid``.
    state_lattices = 1

    def __init__(self, lat: LatticeDescriptor, solid_mask: np.ndarray,
                 boundaries=()):
        self.lat = lat
        self.shape = tuple(solid_mask.shape)
        self.table = MaskedNeighborTable(lat, solid_mask)
        self.lean = boundaries_fold(boundaries)
        self.path = "lean" if self.lean else "dense-fallback"
        self._bb = (boundaries[0] if (self.lean and boundaries) else None)
        self._mom = _folded_momentum(self.table, lat, self._bb, self.shape)
        #: lazily built (compact buffer, dense gather indices) per field
        self._compact_bufs: dict[str, tuple[np.ndarray, np.ndarray]] = {}

    def _compact(self, name: str, field: np.ndarray | None,
                 components: int) -> np.ndarray | None:
        """Gather the fluid columns of a dense ``(components, *grid)`` field.

        ``None`` passes through (no force / no ``tau_field``); the
        compact ``(components, n_fluid)`` buffer is core-owned.
        """
        if field is None:
            return None
        if name not in self._compact_bufs:
            self._compact_bufs[name] = (
                np.empty((components, self.table.n_fluid)),
                self.table.field_idx(components))
        buf, idx = self._compact_bufs[name]
        np.take(field.reshape(-1), idx, out=buf.reshape(-1), mode="clip")
        return buf

    def _apply_folded(self, fc: np.ndarray, rest: np.ndarray) -> None:
        """Finish the folded links of a freshly gathered compact field.

        Without a bounce-back wall the folded reflections are overwritten
        with the rest values ``rest[q]`` — exactly what the dense kernels
        stream out of their pinned solid nodes. With a moving wall the
        precomputed momentum terms are added on top of the reflections.
        """
        if self._bb is None:
            for q, links in enumerate(self.table.solid_links):
                if links.size:
                    fc[q, links] = rest[q]
        elif self._mom is not None:
            for q, term in enumerate(self._mom):
                if term is not None:
                    tgt, mom = term
                    fc[q, tgt] += mom


class SparseSTCore(_SparseCoreBase):
    """Compact-state fused ST step (two-lattice BGK over fluid nodes only).

    The lean step is one folded gather straight from the dense lattice
    into the compact streamed field, the shared :class:`FusedSTCore`
    collision over ``n_fluid`` columns, and one scatter back into the
    dense fluid columns. Solid columns of ``f`` keep their pinned ``w_i``.
    """

    def __init__(self, lat: LatticeDescriptor, solid_mask: np.ndarray,
                 tau: float, boundaries=()):
        super().__init__(lat, solid_mask, boundaries)
        n = self.table.n_fluid
        #: the shared collide kernel (bound to the flat compact shape)
        self.arith = FusedSTCore(lat, (n,), tau)
        self._fc = np.empty((lat.q, n))        # streamed compact field
        self._fc_star = np.empty((lat.q, n))   # post-collision compact field
        self._rest = np.ascontiguousarray(lat.w, dtype=np.float64)
        self._dense_scratch = (None if self.lean
                               else np.empty((lat.q, *self.shape)))

    def step(self, f: np.ndarray, boundaries=(), tel=None,
             force: np.ndarray | None = None, tau_field=None,
             time: int | None = None) -> None:
        """Advance the dense ``(Q, *grid)`` lattice ``f`` one step in place."""
        tel = NULL_TELEMETRY if tel is None else tel
        lat = self.lat
        table = self.table
        fc = self._fc
        if self.lean:
            with tel.phase("stream"):
                table.gather_dense(f, fc)
                self._apply_folded(fc, self._rest)
        else:
            with tel.phase("stream"):
                stream_push(lat, f, out=self._dense_scratch)
            with tel.phase("boundary"):
                self.arith._apply("post_stream", boundaries,
                                  self._dense_scratch, f)
            with tel.phase("stream"):
                table.compact(self._dense_scratch, fc)
        with tel.phase("collide"):
            self.arith._relax(fc, self._fc_star,
                              self._compact("force", force, lat.d))
            table.scatter(self._fc_star, f)


class SparseMRCore(_SparseCoreBase):
    """Compact-state fused MR step (MR-P / MR-R over fluid nodes only).

    Algorithm 2 restricted to the compact node list: the shared
    :class:`FusedMRCore` collision and Eq. 11/14 reconstruction over
    ``n_fluid`` columns, one folded compact gather for streaming +
    bounce-back, and the Eq. 1-3 re-projection scattered back into the
    dense moment field. Solid columns keep their pinned ``(1, 0, ..., 0)``.
    """

    def __init__(self, lat: LatticeDescriptor, solid_mask: np.ndarray,
                 tau: float, scheme: str = "MR-P",
                 tau_bulk: float | None = None, boundaries=()):
        super().__init__(lat, solid_mask, boundaries)
        n = self.table.n_fluid
        #: the shared collide kernel (bound to the flat compact shape)
        self.arith = FusedMRCore(lat, (n,), tau, scheme=scheme,
                                 tau_bulk=tau_bulk)
        #: compact post-collision and streamed fields
        self._fc_star, self._fc = np.empty((2, lat.q, n))
        # Rest-state reconstruction column: exactly what the dense matmul
        # streams out of a pinned solid node (== w_i analytically).
        self._rest = np.ascontiguousarray(self.arith._rcext[:, 0])
        if self.lean:
            self._dense_star = self._dense_new = None
        else:
            # Dense fallback pair; solid columns of the post-collision
            # field hold the rest reconstruction permanently, matching
            # the fused kernels' pinned-moment reconstruction.
            self._dense_star = np.empty((lat.q, *self.shape))
            self._dense_star[...] = self._rest.reshape(
                (lat.q,) + (1,) * len(self.shape))
            self._dense_new = np.empty_like(self._dense_star)

    def step(self, m: np.ndarray, boundaries=(), tel=None,
             force: np.ndarray | None = None,
             tau_field: np.ndarray | None = None,
             time: int | None = None) -> None:
        """Advance the dense ``(M, *grid)`` moment field ``m`` one step in place."""
        tel = NULL_TELEMETRY if tel is None else tel
        lat = self.lat
        table = self.table
        arith = self.arith
        fc_star, fc = self._fc_star, self._fc
        with tel.phase("collide"):
            mc = self._compact("m", m, lat.n_moments)
            arith._reconstruct(mc, fc_star,
                               self._compact("force", force, lat.d),
                               self._compact("tau", tau_field, 1))
        if self.lean:
            with tel.phase("stream"):
                table.gather_compact(fc_star, fc)
                self._apply_folded(fc, self._rest)
        else:
            with tel.phase("stream"):
                table.scatter(fc_star, self._dense_star)
                stream_push(lat, self._dense_star, out=self._dense_new)
            with tel.phase("boundary"):
                arith._apply("post_stream", boundaries, self._dense_new,
                             self._dense_star)
            with tel.phase("stream"):
                table.compact(self._dense_new, fc)
        with tel.phase("macroscopic"):
            np.matmul(arith._mm, fc, out=mc)
            table.scatter(mc, m)
