"""Boundary-condition interface shared by all solvers.

Boundaries hook into two points of the LBM update cycle:

* ``post_stream(lat, f_new, f_source)`` — called right after streaming with
  the freshly streamed field ``f_new`` and the field that was streamed
  (post-collision) ``f_source``. Bounce-back and the inlet/outlet
  reconstructions live here; this is the point where, in the paper's MR
  GPU kernel, the distribution still lives in shared memory.
* ``post_collide(lat, f_star, f_post_stream)`` — called right after
  collision (used by full-way bounce-back, which replaces the collision on
  solid nodes by a reflection).

A boundary must first be bound to a lattice/domain/relaxation-time triple
via :meth:`Boundary.bind`, which precomputes index arrays so that the apply
hooks are pure vectorized scatter/gather operations.

A bound boundary may also have a *row extent*: :meth:`Boundary.slab_hooks`
cuts its ``post_stream`` by leading-axis row, so a sliding-window core
(:mod:`repro.accel.fused`) can run it slab by slab on the window's own
buffers and never needs the two whole lattices the plain hook is handed.
"""

from __future__ import annotations

import numpy as np

from ..geometry import Domain
from ..lattice import LatticeDescriptor

__all__ = ["Boundary", "Plane"]


class Plane:
    """An axis-aligned domain face: ``axis`` plus ``side`` (0 or -1).

    ``inward`` is the signed unit direction pointing from the face into the
    domain interior (+1 for the low side, -1 for the high side).
    """

    def __init__(self, axis: int, side: int):
        if side not in (0, -1):
            raise ValueError(f"side must be 0 or -1, got {side}")
        self.axis = int(axis)
        self.side = int(side)

    @property
    def inward(self) -> int:
        """Signed unit direction from the face into the domain interior."""
        return 1 if self.side == 0 else -1

    def face_index(self, shape: tuple[int, ...], offset: int = 0) -> tuple:
        """Indexing tuple selecting the plane ``offset`` nodes inward."""
        idx: list = [slice(None)] * len(shape)
        if self.side == 0:
            idx[self.axis] = offset
        else:
            idx[self.axis] = shape[self.axis] - 1 - offset
        return tuple(idx)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Plane(axis={self.axis}, side={self.side})"


class Boundary:
    """Abstract boundary condition. Subclasses precompute indices in
    :meth:`bind` and implement one or both apply hooks."""

    def bind(self, lat: LatticeDescriptor, domain: Domain, tau: float) -> "Boundary":
        """Precompute index arrays; returns self for chaining."""
        raise NotImplementedError

    def post_stream(self, lat: LatticeDescriptor, f_new: np.ndarray,
                    f_source: np.ndarray) -> None:
        """Mutate ``f_new`` in place after streaming (default: no-op)."""

    def post_collide(self, lat: LatticeDescriptor, f_star: np.ndarray,
                     f_post_stream: np.ndarray) -> None:
        """Mutate ``f_star`` in place after collision (default: no-op)."""

    def slab_hooks(self, lat: LatticeDescriptor,
                   slabs: list[tuple[int, int]]) -> list | None:
        """``post_stream`` cut at the leading-axis row ranges ``slabs``.

        ``slabs`` are consecutive ranges ``[a0, a1)`` covering axis 0. A
        boundary that can work on one of them at a time returns a list
        with one entry per slab: ``None`` where it touches no row, else
        a callable ``hook(f_new, f_src)`` doing exactly what
        :meth:`post_stream` does to those rows. ``f_new`` is a
        ``(Q, rows, *tail)`` buffer holding the streamed row ``x`` at
        ``x - a0`` — every row of the slab, and no other row may be read
        or written; ``f_src`` holds the post-collision row ``x`` at
        ``x mod f_src.shape[1]`` for the slab's own rows at least. Both
        are C-contiguous below the component axis and keep their layout
        from step to step, so a hook may index them flat
        (:func:`flat_view`).

        Returns ``None`` when the boundary has no row extent — the
        default: it needs whole lattices — or cannot be cut at *these*
        slabs (a stencil deeper than the edge slab).
        """
        return None


def flat_view(a: np.ndarray) -> np.ndarray:
    """The allocation under a ``(Q, rows, *tail)`` buffer as a 1-D view.

    Element ``(i, r, t)`` sits at ``i * (a.strides[0] // 8) + r * tail +
    t``: component rows may be padded apart, the planes below them are
    contiguous. What a slab hook gathers from and scatters into with one
    index array per boundary.
    """
    span = (a.shape[0] - 1) * (a.strides[0] // a.itemsize) + a[0].size
    return np.lib.stride_tricks.as_strided(a, (span,), (a.itemsize,))
