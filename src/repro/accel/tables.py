"""Precomputed periodic neighbor-index tables for streaming gathers.

Exact streaming (paper Eq. 7) on a periodic grid is a fixed permutation:
component ``i`` of the streamed field at node ``x`` is the pre-stream
value at ``x - c_i`` (push and pull share the displacement, see
:mod:`repro.core.streaming`). A :class:`NeighborTable` precomputes the
flat source index of every ``(component, node)`` pair of a dense grid,
so the whole propagation step is a single ``np.take`` — the host-side
analogue of the index tables indirect-addressing GPU kernels stream
through (:mod:`repro.gpu.kernels.indirect`). No core holds one: a dense
grid copies wrap blocks (:mod:`repro.accel.fused`), and the dense table
(``2Q`` indices per node) stays the streaming oracle the tests compare
against. The sparse cores stream through a :class:`MaskedNeighborTable`,
built from the fluid rows alone, without a dense one (inventory:
docs/ALGORITHMS.md, *Realized allocations*).
"""

from __future__ import annotations

import numpy as np

from ..lattice import LatticeDescriptor

__all__ = ["NeighborTable", "MaskedNeighborTable"]


class NeighborTable:
    """Flat gather indices realizing periodic streaming for one grid.

    ``src`` is ``(Q, N)`` with ``streamed[q].ravel()[n] ==
    f[q].ravel()[src[q, n]]`` (the source node of the Eq. 7 displacement
    under periodic wrap); ``flat`` is ``src`` with the component offsets
    ``q * N`` added, so one ``np.take`` over the raveled ``(Q, N)``
    field is the whole propagation step.
    """

    def __init__(self, lat: LatticeDescriptor, shape: tuple[int, ...]):
        if len(shape) != lat.d:
            raise ValueError(
                f"shape {shape} does not match lattice dimension {lat.d}"
            )
        self.lat_name = lat.name
        self.shape = tuple(int(s) for s in shape)
        self.n_nodes = int(np.prod(self.shape))
        # Open per-axis coordinate rows, broadcast by the wrap-mode ravel:
        # no (D, N) coordinate array.
        grid = np.ogrid[tuple(slice(size) for size in self.shape)]
        src = np.empty((lat.q, *self.shape), dtype=np.intp)
        for q in range(lat.q):
            src[q] = np.ravel_multi_index(
                [x - c for x, c in zip(grid, lat.c[q])], self.shape,
                mode="wrap")
        self.src = src.reshape(lat.q, self.n_nodes)
        self.flat = np.add(self.src, np.arange(lat.q, dtype=np.intp)[:, None]
                           * self.n_nodes).reshape(-1)
        # Reusable ``gather(..., out=None)`` outputs (:meth:`_owned_out`).
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

        :func:`repro.core.streaming.stream_push` bit for bit (a pure
        permutation). ``out`` must not alias ``f``; omitted, the result
        lands in a **table-owned** buffer (:meth:`_owned_out`) that stays
        valid until the second subsequent ``out=None`` gather of its
        dtype: ``f = table.gather(f)`` ping-pongs without allocating.
        """
        if out is None:
            out = self._owned_out(f)
        if out is f or np.shares_memory(f, out):
            raise ValueError("gather cannot stream in place: out aliases f")
        # mode="clip": a no-op on in-range indices that skips NumPy's
        # bounce-buffer path for out= takes.
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
      with the rest weights, as the dense kernels' pinned solids would.

    What it holds is ``fluid_flat`` / ``dense_to_compact`` (the compact
    node list in C order and its ``(n_nodes,)`` inverse, ``-1`` at
    solids — the maps behind :meth:`compact` and :meth:`scatter`),
    ``flat_compact`` (``src_comp * n_fluid + src``: one ``np.take`` over
    a raveled compact field is the whole folded propagation step) and
    ``solid_links`` (per component, the compact targets whose source
    node is solid: rest overwrite, moving-wall momentum terms).
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
        self.fluid_flat = np.flatnonzero(~solid.ravel())
        self.n_fluid = n = int(self.fluid_flat.size)
        if n == 0:
            raise ValueError("mask has no fluid nodes to compact")
        self.dense_to_compact = np.full(self.n_nodes, -1, dtype=np.intp)
        self.dense_to_compact[self.fluid_flat] = np.arange(n, dtype=np.intp)

        # NeighborTable's arithmetic on the fluid rows only: the periodic
        # source node x - c_q of every compact node x, one component row
        # at a time.
        coords = np.unravel_index(self.fluid_flat, self.shape)
        flat = np.empty((lat.q, n), dtype=np.intp)
        self.solid_links: list[np.ndarray] = []
        for q in range(lat.q):
            src_dense = np.ravel_multi_index(
                [x - c for x, c in zip(coords, lat.c[q])], self.shape,
                mode="wrap")
            src = self.dense_to_compact[src_dense]      # -1: solid source
            links = np.flatnonzero(src < 0)
            self.solid_links.append(links)
            np.add(src, q * n, out=flat[q])
            # Fold: pull opposite[q] at the target node itself.
            flat[q, links] = lat.opposite[q] * n + links
        self.flat_compact = flat.reshape(-1)

    @property
    def src(self) -> np.ndarray:
        """``(Q, n_fluid)`` compact source index per link (folded: itself)."""
        return (self.flat_compact % self.n_fluid).reshape(-1, self.n_fluid)

    @property
    def src_comp(self) -> np.ndarray:
        """``(Q, n_fluid)`` source component per link (folded: opposite)."""
        return (self.flat_compact // self.n_fluid).reshape(-1, self.n_fluid)

    def gather_compact(self, fc: np.ndarray, out: np.ndarray) -> np.ndarray:
        """Stream a compact ``(Q, n_fluid)`` field (folded links included)."""
        np.take(fc.reshape(-1), self.flat_compact, out=out.reshape(-1),
                mode="clip")
        return out

    def compact(self, f: np.ndarray, out: np.ndarray) -> np.ndarray:
        """Gather the fluid columns of a dense ``(C, *shape)`` field."""
        np.take(f.reshape(out.shape[0], -1), self.fluid_flat, axis=1,
                out=out, mode="clip")
        return out

    def scatter(self, fc: np.ndarray, f: np.ndarray) -> np.ndarray:
        """Write a compact ``(Q, n_fluid)`` field into the dense fluid columns."""
        f.reshape(fc.shape[0], -1)[:, self.fluid_flat] = fc
        return f

    def expand(self, fc: np.ndarray, rest) -> np.ndarray:
        """A new dense ``(C, *shape)`` field of a compact one.

        ``fc`` at the fluid columns, ``rest`` (a ``(C,)`` column or a
        scalar) at the solid ones.
        """
        f = np.empty((fc.shape[0], self.n_nodes))
        f[...] = np.reshape(rest, (-1, 1))
        return self.scatter(fc, f).reshape(fc.shape[0], *self.shape)

    def plane(self, k: int) -> tuple[slice, np.ndarray]:
        """The compact columns of leading-axis plane ``k``, and where.

        ``(columns, at)``: a slice (the node list is in C order) and the
        columns' offsets within the plane.
        """
        size = self.n_nodes // self.shape[0]
        k %= self.shape[0]
        lo, hi = np.searchsorted(self.fluid_flat, [k * size, (k + 1) * size])
        return slice(lo, hi), self.fluid_flat[lo:hi] - k * size

