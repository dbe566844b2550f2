"""Precomputed periodic neighbor-index tables for streaming gathers.

Exact streaming (paper Eq. 7) on a periodic grid is a fixed permutation:
component ``i`` of the streamed field at node ``x`` is the pre-stream
value at ``x - c_i`` (push and pull share the displacement, see
:mod:`repro.core.streaming`). A :class:`NeighborTable` precomputes the
flat source index of every ``(component, node)`` pair once per
``(lattice, shape)``, so the whole propagation step is a single
``np.take`` — the host-side analogue of the index tables
indirect-addressing GPU kernels stream through
(:mod:`repro.gpu.kernels.indirect`). The batched cores stream whole
ensembles through it; a single dense grid copies wrap blocks instead
(:mod:`repro.accel.fused`). Tables are cached per ``(lattice name,
shape)`` and are pure functions of both (``clear_cache`` exists for
tests and memory-conscious callers).
"""

from __future__ import annotations

import numpy as np

from ..lattice import LatticeDescriptor

__all__ = ["NeighborTable", "MaskedNeighborTable", "neighbor_table",
           "clear_cache", "stream_gather"]


class NeighborTable:
    """Flat gather indices realizing periodic streaming for one grid.

    Attributes
    ----------
    src:
        ``(Q, N)`` array of flat node indices with
        ``streamed[q].ravel()[n] == f[q].ravel()[src[q, n]]`` — i.e. the
        source node of the Eq. 7 displacement under periodic wrap.
    flat:
        ``src`` with per-component offsets ``q * N`` added, so one
        ``np.take`` over the raveled ``(Q, N)`` field performs the whole
        propagation step in a single gather pass.
    """

    def __init__(self, lat: LatticeDescriptor, shape: tuple[int, ...]):
        if len(shape) != lat.d:
            raise ValueError(
                f"shape {shape} does not match lattice dimension {lat.d}"
            )
        self.lat_name = lat.name
        self.shape = tuple(int(s) for s in shape)
        self.n_nodes = int(np.prod(self.shape))
        coords = np.indices(self.shape).reshape(lat.d, self.n_nodes)
        src = np.zeros((lat.q, self.n_nodes), dtype=np.intp)
        strides = np.ones(lat.d, dtype=np.intp)
        for a in range(lat.d - 2, -1, -1):
            strides[a] = strides[a + 1] * self.shape[a + 1]
        for q in range(lat.q):
            for a in range(lat.d):
                src[q] += ((coords[a] - lat.c[q, a]) % self.shape[a]) * strides[a]
        self.src = src
        self.flat = (src + (np.arange(lat.q, dtype=np.intp)[:, None]
                            * self.n_nodes)).ravel()
        # Table-owned reusable output buffers for ``gather(..., out=None)``
        # calls, keyed by dtype (see :meth:`_owned_out`).
        self._scratch: dict[np.dtype, list[np.ndarray]] = {}

    def _owned_out(self, f: np.ndarray) -> np.ndarray:
        """A table-owned ``(Q, *shape)`` buffer that does not alias ``f``.

        A two-deep ring per dtype, so ``f = table.gather(f)`` stabilizes
        at two buffers instead of allocating a field per call; a buffer
        aliasing ``f`` (the one handed out last) is skipped.
        """
        bufs = self._scratch.setdefault(f.dtype, [])
        for buf in bufs:
            if buf is not f and not np.shares_memory(buf, f):
                return buf
        buf = np.empty((self.src.shape[0], *self.shape), dtype=f.dtype)
        if len(bufs) < 2:
            bufs.append(buf)
        return buf

    def gather(self, f: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """Stream a ``(Q, *shape)`` (or ``(Q, N)``) field in one gather.

        Equivalent to :func:`repro.core.streaming.stream_push` bit for
        bit (a pure permutation). ``out`` must not alias ``f``; when it
        is omitted the result lands in a **table-owned** buffer (a
        two-deep per-dtype ring) that stays valid until the second
        subsequent ``out=None`` gather of the same dtype — enough for
        ``f = table.gather(f)`` ping-ponging with zero steady-state
        allocations.
        """
        if out is None:
            out = self._owned_out(f)
        if out is f or np.shares_memory(f, out):
            raise ValueError("gather cannot stream in place: out aliases f")
        # mode="clip" is semantically a no-op (the indices are in-range
        # by construction) but skips NumPy's bounce-buffer path for
        # out= takes.
        np.take(f.reshape(-1), self.flat, out=out.reshape(-1), mode="clip")
        return out


class MaskedNeighborTable:
    """Compact fluid-node streaming table with bounce-back-folded solid links.

    Compacts the fluid-like nodes (``~solid``) into one index list of
    length ``n_fluid`` — the indirect-addressing layout of Tomczak &
    Szafran's sparse-geometry GPU LBM — and precomputes, per
    ``(component, compact node)`` pair, where the streamed value comes from:

    * a **fluid-source link** gathers component ``q`` from the compact
      index of the periodic neighbour ``x - c_q`` (the Eq. 7 displacement);
    * a **solid-source link** is *folded*: it gathers ``opposite[q]``
      from the *same* compact node, the half-way bounce-back pull of
      :class:`repro.boundary.HalfwayBounceBack.post_stream`. Cores that
      stream *without* a bounce-back boundary overwrite those entries
      with the rest weights (:attr:`solid_links`), as the dense kernels'
      pinned solid nodes would.

    Attributes
    ----------
    fluid_flat:
        ``(n_fluid,)`` flat dense node indices of the compact list, in C
        order — the map behind :meth:`compact` (dense → compact: a
        core's reload) and :meth:`scatter` (compact → dense: its sync).
    dense_to_compact:
        ``(n_nodes,)`` inverse map (``-1`` at solid nodes).
    src / src_comp:
        ``(Q, n_fluid)`` compact source index and source component per
        link (bounce-back-folded at solid links).
    flat_compact:
        ``src_comp * n_fluid + src`` — one ``np.take`` over a raveled
        compact field is the whole (folded) propagation step.
    solid_links:
        Per-component compact target indices whose source node is solid
        (the folded links): rest overwrite, moving-wall momentum terms.
    """

    def __init__(self, lat: LatticeDescriptor, solid_mask: np.ndarray):
        solid = np.asarray(solid_mask, dtype=bool)
        if solid.ndim != lat.d:
            raise ValueError(
                f"solid mask dimension {solid.ndim} does not match lattice "
                f"dimension {lat.d}"
            )
        self.lat_name = lat.name
        self.shape = solid.shape
        self.n_nodes = int(solid.size)
        fluid = ~solid
        self.fluid_flat = np.flatnonzero(fluid.ravel())
        self.n_fluid = int(self.fluid_flat.size)
        if self.n_fluid == 0:
            raise ValueError("mask has no fluid nodes to compact")
        self.dense_to_compact = np.full(self.n_nodes, -1, dtype=np.intp)
        self.dense_to_compact[self.fluid_flat] = np.arange(
            self.n_fluid, dtype=np.intp)

        # Dense flat index of the periodic source node x - c_q for every
        # compact node x (same arithmetic as NeighborTable, restricted to
        # the fluid rows).
        dense = neighbor_table(lat, self.shape)
        src_dense = dense.src[:, self.fluid_flat]          # (Q, n_fluid)
        src_is_solid = ~fluid.ravel()[src_dense]

        self.src = self.dense_to_compact[src_dense]
        self.src_comp = np.broadcast_to(
            np.arange(lat.q, dtype=np.intp)[:, None],
            self.src.shape).copy()
        self.solid_links: list[np.ndarray] = []
        self_idx = np.arange(self.n_fluid, dtype=np.intp)
        for q in range(lat.q):
            links = np.flatnonzero(src_is_solid[q])
            self.solid_links.append(links)
            # Fold: pull opposite[q] at the target node itself.
            self.src[q, links] = self_idx[links]
            self.src_comp[q, links] = lat.opposite[q]
        self.flat_compact = (self.src_comp * self.n_fluid + self.src).ravel()
        # One-take compaction maps of (C, N) fields, per component count.
        self._field_idx: dict[int, np.ndarray] = {}

    def field_idx(self, n_components: int) -> np.ndarray:
        """Flat gather indices compacting an ``(n_components, N)`` field."""
        idx = self._field_idx.get(n_components)
        if idx is None:
            idx = self._field_idx[n_components] = (
                np.arange(n_components, dtype=np.intp)[:, None]
                * self.n_nodes + self.fluid_flat).ravel()
        return idx

    def gather_compact(self, fc: np.ndarray, out: np.ndarray) -> np.ndarray:
        """Stream a compact ``(Q, n_fluid)`` field (folded links included)."""
        np.take(fc.reshape(-1), self.flat_compact, out=out.reshape(-1),
                mode="clip")
        return out

    def compact(self, f: np.ndarray, out: np.ndarray) -> np.ndarray:
        """Gather the fluid columns of a dense ``(C, *shape)`` field."""
        np.take(f.reshape(-1), self.field_idx(out.shape[0]),
                out=out.reshape(-1), mode="clip")
        return out

    def scatter(self, fc: np.ndarray, f: np.ndarray) -> np.ndarray:
        """Write a compact ``(Q, n_fluid)`` field into the dense fluid columns."""
        f.reshape(fc.shape[0], -1)[:, self.fluid_flat] = fc
        return f


#: Cache of built tables, keyed by (lattice name, grid shape).
_CACHE: dict[tuple[str, tuple[int, ...]], NeighborTable] = {}


def neighbor_table(lat: LatticeDescriptor, shape: tuple[int, ...]) -> NeighborTable:
    """Build (or fetch the cached) :class:`NeighborTable` for a grid."""
    key = (lat.name, tuple(int(s) for s in shape))
    table = _CACHE.get(key)
    if table is None:
        table = _CACHE[key] = NeighborTable(lat, key[1])
    return table


def clear_cache() -> None:
    """Drop all cached tables (tests / memory-conscious callers)."""
    _CACHE.clear()


def stream_gather(lat: LatticeDescriptor, f: np.ndarray,
                  out: np.ndarray | None = None) -> np.ndarray:
    """Table-driven drop-in for :func:`repro.core.streaming.stream_push`."""
    return neighbor_table(lat, f.shape[1:]).gather(f, out=out)
