"""Single-lattice in-place streaming cores (the ``"aa"`` backend).

The fused kernels in :mod:`repro.accel.fused` are two-lattice: every
step reads the full ``(Q, N)`` field and writes a second one, moving
``2 Q x 8`` bytes of lattice state per node per step — exactly the
propagation-traffic ceiling the source paper attacks, and twice the
persistent footprint the state actually needs. This module brings the
single-lattice idea of the reference :class:`repro.solver.aa.AASolver`
(Bailey's AA pattern; see the memory-traffic model in
``docs/ALGORITHMS.md``) into the backend seam, as an array-level
realization that stays *collide-identical* to the fused cores:

:class:`InplaceSTCore`
    One persistent lattice, two alternating step flavours. The
    even-parity step streams into core-owned scratch, runs exactly the
    fused BGK(+Guo) collision, and writes the relaxed populations back
    *pre-streamed* — each component shifted by its own velocity, so the
    array ends holding ``S(f_{t+1})`` (the state the next stream pass
    would have produced). The odd-parity step therefore needs **no
    streaming pass at all**: it collides fully in place and leaves the
    natural ``f_{t+2}``. Over a step pair this removes one of the two
    per-pair streaming traversals (the measured MLUPS gain on
    memory-bound cells) while every even-time state matches the fused
    two-lattice trajectory bit for bit. With boundary objects present
    the core falls back to the conservative per-step path (identical to
    :class:`~repro.accel.fused.FusedSTCore`, scratch owned by the core),
    so the full feature matrix — boundaries, solids, Guo forcing — stays
    supported with trivial parity.

:class:`InplaceMRCore`
    The moment-representation analogue: the persistent state is the
    moment field, and the distribution exists in **one** core-owned
    lattice instead of the fused core's two. Reconstruction writes into
    that single buffer, and the streaming + re-projection collapse into
    a slab-wise gather-project: the pull-stream of each leading-axis
    chunk lands in an L2-sized scratch block via wrap-block slice
    copies and is immediately projected back to moments (one small
    dgemm per slab), eliminating the second lattice's store+load
    entirely. Supports MR-P/MR-R, solids, moment-space Guo forcing and
    the per-node ``tau_field`` collision; built with boundary objects it
    runs the inherited two-buffer fused step instead.

Both cores name the variant they run in ``path``: ``"lean"``
(boundary-free) or ``"bounded"`` (also a boundary-free ST core once it
is stepped without a clock).

Layout helpers
--------------
At odd times the lean ST state is stored component-shifted ("AA
layout"). :func:`natural_to_aa` / :func:`aa_to_natural` convert between
that layout and the natural one with exact per-component rolls (pure
permutations, so round trips are bit-exact). They back the
checkpoint-layout canonicalization in :mod:`repro.io.checkpoint` —
checkpoints are always written in natural layout, so they stay
compatible across backends and across odd/even resume points — and the
odd-parity macroscopic evaluation of
:meth:`repro.solver.standard.STSolver.macroscopic`.
"""

from __future__ import annotations

import numpy as np

from ..core.streaming import stream_push
from ..lattice import LatticeDescriptor
from ..obs.telemetry import NULL_TELEMETRY
from .fused import FusedMRCore, FusedSTCore

__all__ = [
    "InplaceSTCore",
    "InplaceMRCore",
    "natural_to_aa",
    "aa_to_natural",
]


def natural_to_aa(lat: LatticeDescriptor, f: np.ndarray) -> np.ndarray:
    """Natural post-collision state -> component-shifted AA layout.

    ``out[i] = roll(f[i], +c_i)`` — the pull-stream displacement applied
    eagerly, i.e. exactly the array the lean even-parity step of
    :class:`InplaceSTCore` leaves behind. Pure permutation per
    component, hence bit-exact and inverted by :func:`aa_to_natural`.
    """
    out = np.empty_like(f)
    stream_push(lat, f, out=out)
    return out


def aa_to_natural(lat: LatticeDescriptor, f: np.ndarray) -> np.ndarray:
    """Component-shifted AA layout -> natural state (inverse roll).

    ``out[i] = roll(f[i], -c_i)``, undoing :func:`natural_to_aa`
    exactly. Used to canonicalize odd-time checkpoints and to evaluate
    macroscopic fields at odd parity without mutating the solver state.
    """
    axes = tuple(range(f.ndim - 1))
    out = np.empty_like(f)
    for i in range(lat.q):
        out[i] = np.roll(f[i], shift=tuple(-lat.c[i]), axis=axes)
    return out


def _shift_blocks(shape: tuple[int, ...], c) -> list[tuple[tuple, tuple]]:
    """Slice-pair decomposition of ``dst = roll(src, +c)`` over ``shape``.

    Returns ``(dst, src)`` tuples of per-axis slices such that assigning
    ``dst[...] = src[...]`` block by block reproduces ``np.roll`` with
    shift ``c`` exactly — at most ``2**d`` contiguous wrap blocks, each a
    plain view, so the scatter-relax loop of :class:`InplaceSTCore` can
    fuse the roll into the collision write with zero temporaries.
    """
    per_axis: list[list[tuple[slice, slice]]] = []
    for size, comp in zip(shape, c):
        s = int(comp) % size
        if s == 0:
            per_axis.append([(slice(None), slice(None))])
        else:
            per_axis.append([
                (slice(s, None), slice(0, size - s)),
                (slice(0, s), slice(size - s, None)),
            ])
    blocks: list[tuple[tuple, tuple]] = [((), ())]
    for segments in per_axis:
        blocks = [(dst + (d,), src + (s,))
                  for dst, src in blocks for d, s in segments]
    return blocks


#: Target node count per gather-project chunk of :class:`InplaceMRCore`
#: (a ``Q x _TILE`` double block stays L2-resident on the hosts measured).
_TILE = 65536


class InplaceSTCore(FusedSTCore):
    """Single-lattice AA-pattern ST step (BGK, optional Guo forcing).

    Subclasses :class:`~repro.accel.fused.FusedSTCore` so the collision
    arithmetic is *shared code*, not a copy: every path relaxes through
    the same ``_relax`` body, and the lean steps only change where the
    relaxed populations land. State convention on the ``"lean"`` path
    (``time`` = steps completed):

    * even ``time``: ``f`` holds the natural post-collision lattice —
      bit-identical to the fused two-lattice state;
    * odd ``time``: ``f`` holds the *pre-streamed* next input,
      ``f[i] = roll(f_nat[i], +c_i)`` (AA layout).

    The parity comes from the owner's clock (``step(..., time=)``), so
    checkpoint/resume at any parity is just a matter of restoring the
    clock. The ``"bounded"`` path — chosen at construction whenever
    boundary objects are present, whose hooks see full natural arrays —
    is the inherited two-lattice step against the core-owned scratch. An
    owner that passes no clock (distributed ranks, whose halo exchange
    needs the natural layout after every step) cannot keep the lean
    state convention, so its first step moves the core to ``"bounded"``
    for good and ``path`` reports the step actually taken.
    """

    state_lattices = 1

    def __init__(self, lat: LatticeDescriptor, shape: tuple[int, ...],
                 tau: float, solid_mask: np.ndarray | None = None,
                 boundaries=()):
        super().__init__(lat, shape, tau, solid_mask)
        self.path = "bounded" if boundaries else "lean"
        self._blocks = [_shift_blocks(self.shape, lat.c[i])
                        for i in range(lat.q)]

    def step(self, f: np.ndarray, boundaries=(), tel=None,
             force: np.ndarray | None = None, tau_field=None,
             time: int | None = None) -> None:
        """Advance the single persistent lattice ``f`` one step in place.

        Lean even step (natural ``f_t`` -> AA-layout ``f_{t+1}``): stream
        into core scratch, relax there at contiguous speed, then
        block-copy the result back shifted by ``+c_i``, pre-streaming
        the next step (relaxing through the strided destination views
        instead measured slower everywhere; see ``docs/ALGORITHMS.md``).
        Lean odd step (AA layout -> natural ``f_{t+2}``): the array
        already holds the streamed input, so the whole step is one
        in-place collision — the saved memory pass of the AA pattern.
        """
        if time is None:
            self.path = "bounded"
        if self.path != "lean":
            super().step(f, boundaries, tel, force=force)
            return
        tel = NULL_TELEMETRY if tel is None else tel
        if time % 2:
            with tel.phase("collide"):
                self._relax(f, f, force)
            return
        scratch = self._scratch
        with tel.phase("stream:gather"):
            self._stream(f, scratch)
        with tel.phase("collide"):
            self._relax(scratch, scratch, force)
        with tel.phase("stream:scatter"):
            for i in range(self.lat.q):
                fi, si = f[i], scratch[i]
                for dst, src in self._blocks[i]:
                    fi[dst] = si[src]


class InplaceMRCore(FusedMRCore):
    """Single-buffer moment-representation step (MR-P / MR-R).

    Identical collision + reconstruction to
    :class:`~repro.accel.fused.FusedMRCore` (shared ``_reconstruct``),
    but on the ``"lean"`` path the reconstructed distribution lands in
    **one** core-owned lattice and the streamed re-projection is
    evaluated slab by slab: the pull-stream of a leading-axis chunk is
    gathered into an L2-sized buffer with roll-equivalent wrap-block
    slice copies (no index table — a ``(Q, N)`` int64 table would itself
    cost a lattice worth of memory), then projected with one small dgemm
    while still cache-hot. The second distribution buffer — and its full
    store+load traversal — disappears. Boundary hooks need the full
    streamed array, so a core built with boundary objects takes the
    ``"bounded"`` path: the inherited two-buffer step, same trajectory,
    no footprint win yet (see docs/ALGORITHMS.md).
    """

    state_lattices = 1

    def __init__(self, lat: LatticeDescriptor, shape: tuple[int, ...],
                 tau: float, scheme: str = "MR-P",
                 tau_bulk: float | None = None,
                 solid_mask: np.ndarray | None = None, boundaries=()):
        self.path = "bounded" if boundaries else "lean"
        super().__init__(lat, shape, tau, scheme=scheme, tau_bulk=tau_bulk,
                         solid_mask=solid_mask,
                         lattices=2 if boundaries else 1)
        if boundaries:
            return
        # Slab decomposition of the pull-stream: whole leading-axis
        # slabs of about ``_TILE`` nodes, so every gather is a wrap-block
        # *slice copy* (roll-equivalent).
        n0 = self.shape[0]
        self._tail = int(np.prod(self.shape[1:], dtype=np.int64)) or 1
        self._slab = max(1, min(n0, _TILE // self._tail or 1))
        self._tail_blocks = [_shift_blocks(self.shape[1:], lat.c[i][1:])
                             for i in range(lat.q)]
        self._row_shift = [int(lat.c[i][0]) % n0 for i in range(lat.q)]
        self._gbuf = np.empty((lat.q, self._slab, *self.shape[1:]))

    def step(self, m: np.ndarray, boundaries=(), tel=None,
             force: np.ndarray | None = None,
             tau_field: np.ndarray | None = None,
             time: int | None = None) -> None:
        """Advance the ``(M, *grid)`` moment field one step in place."""
        if self.path != "lean":
            super().step(m, boundaries, tel, force=force,
                         tau_field=tau_field)
            return
        if boundaries:
            raise ValueError(
                "this InplaceMRCore was built boundary-free (lean path); "
                "pass the boundary objects at construction for the "
                "bounded path"
            )
        tel = NULL_TELEMETRY if tel is None else tel
        lat = self.lat
        mf = self._flat(m, lat.n_moments)
        with tel.phase("collide"):
            self._reconstruct(m, force, tau_field)
        with tel.phase("stream:project"):
            n0, tail = self.shape[0], self._tail
            for a0 in range(0, n0, self._slab):
                a1 = min(a0 + self._slab, n0)
                rows = a1 - a0
                gb = self._gbuf[:, :rows]
                for qi in range(lat.q):
                    # streamed[qi] rows [a0:a1) = roll(f[qi], +c) there:
                    # leading-axis source rows start at (a0 - c0) mod n0
                    # (at most one wrap), trailing axes via wrap blocks.
                    src0 = (a0 - self._row_shift[qi]) % n0
                    first = min(rows, n0 - src0)
                    pieces = [(slice(0, first), slice(src0, src0 + first))]
                    if first < rows:
                        pieces.append((slice(first, rows),
                                       slice(0, rows - first)))
                    for gdst, fsrc in pieces:
                        for dst_t, src_t in self._tail_blocks[qi]:
                            gb[qi][(gdst, *dst_t)] = \
                                self._f_star[qi][(fsrc, *src_t)]
                np.matmul(self._mm, gb.reshape(lat.q, -1),
                          out=mf[:, a0 * tail:a1 * tail])
            self._pin_solids(m)
