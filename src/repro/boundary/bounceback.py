"""Bounce-back wall boundaries (the paper's channel walls).

Half-way bounce-back reflects, on each fluid-solid link, the post-collision
population back into the fluid with reversed direction; the wall plane sits
half a lattice spacing beyond the last fluid node and the scheme is
second-order accurate for straight walls. A moving-wall momentum term
``2 w_i rho0 (c_i . u_w) / cs2`` supports driven cavities.

Full-way bounce-back instead replaces the collision at *solid* nodes by a
full reflection of all populations, introducing a one-step delay. Both are
provided; the half-way variant is the default used by the channel
workloads.
"""

from __future__ import annotations

import numpy as np

from ..geometry import Domain
from ..lattice import LatticeDescriptor
from .base import Boundary, flat_view

__all__ = ["HalfwayBounceBack", "FullwayBounceBack"]


class _SlabLinks:
    """The bounce-back links whose fluid node lies in one slab of rows.

    One gather out of the post-collision source and one scatter into the
    slab buffer for all directions together, through flat indices into
    the two allocations (see :meth:`Boundary.slab_hooks`); built on the
    first call, when the buffers' layout is known, and nothing is
    allocated afterwards. The writes are those of
    :meth:`HalfwayBounceBack.post_stream` to disjoint targets.
    """

    def __init__(self, a0: int, links: tuple, opposite: np.ndarray,
                 momentum: np.ndarray | None, vals: np.ndarray):
        self._a0, self._links, self._opposite = a0, links, opposite
        self._momentum, self._vals = momentum, vals
        self._new = self._src = None

    def _index(self, f_new: np.ndarray, f_src: np.ndarray) -> None:
        comp, row, rest = self._links
        plane = f_new[0, 0].size
        self._to = (comp * (f_new.strides[0] // 8)
                    + (row - self._a0) * plane + rest)
        self._from = (self._opposite[comp] * (f_src.strides[0] // 8)
                      + row % f_src.shape[1] * plane + rest)
        self._links = None

    def __call__(self, f_new: np.ndarray, f_src: np.ndarray) -> None:
        if self._links is not None:
            self._index(f_new, f_src)
        if f_new is not self._new:
            self._new, self._flat_new = f_new, flat_view(f_new)
        if f_src is not self._src:
            self._src, self._flat_src = f_src, flat_view(f_src)
        np.take(self._flat_src, self._from, out=self._vals, mode="clip")
        if self._momentum is not None:
            self._vals += self._momentum
        self._flat_new[self._to] = self._vals


class HalfwayBounceBack(Boundary):
    """Link-wise half-way bounce-back on all fluid-solid links.

    Parameters
    ----------
    wall_velocity:
        Optional ``(D, *shape)`` array giving the velocity of each solid
        node (only values at solid nodes are read). Used for moving walls,
        e.g. a cavity lid.
    rho0:
        Reference density in the moving-wall momentum correction.
    """

    def __init__(self, wall_velocity: np.ndarray | None = None, rho0: float = 1.0):
        self.wall_velocity = wall_velocity
        self.rho0 = float(rho0)
        self._links = [], []    # unbound: no links

    def bind(self, lat: LatticeDescriptor, domain: Domain, tau: float) -> "HalfwayBounceBack":
        """Check the inputs; the link lists are built on first use.

        A hook builds them when it first runs; the sparse gather table
        folds the links and never asks.
        """
        if self.wall_velocity is not None:
            uw = np.asarray(self.wall_velocity, dtype=np.float64)
            if uw.shape != (lat.d, *domain.shape):
                raise ValueError(
                    f"wall_velocity must have shape {(lat.d, *domain.shape)}, got {uw.shape}"
                )
        self._lat, self._domain, self._links = lat, domain, None
        return self

    def _targets_momentum(self) -> tuple[list, list]:
        """Per direction, the fluid-solid link targets (and momentum terms)."""
        if self._links is not None:
            return self._links
        lat, domain = self._lat, self._domain
        solid = domain.solid_mask
        fluidlike = domain.fluid_mask
        axes = tuple(range(solid.ndim))
        uw = (None if self.wall_velocity is None
              else np.asarray(self.wall_velocity, dtype=np.float64))
        targets, momentum = [], []
        for i in range(lat.q):
            if not lat.c[i].any():
                targets.append(None)
                momentum.append(None)
                continue
            # Node x receives component i from x - c_i; fix it if the
            # source is a solid node.
            from_solid = np.roll(solid, shift=tuple(lat.c[i]), axis=axes) & fluidlike
            idx = np.nonzero(from_solid)
            targets.append(idx if idx[0].size else None)
            if uw is None or idx[0].size == 0:
                momentum.append(None)
            else:
                src = tuple(
                    (idx[a] - lat.c[i, a]) % domain.shape[a] for a in range(lat.d)
                )
                cu = sum(lat.c[i, a] * uw[a][src] for a in range(lat.d))
                momentum.append(2.0 * lat.w[i] * self.rho0 * cu / lat.cs2)
        self._links = targets, momentum
        return self._links

    def post_stream(self, lat: LatticeDescriptor, f_new: np.ndarray,
                    f_source: np.ndarray) -> None:
        """Reflect the populations streamed out of solid nodes."""
        targets, momentum = self._targets_momentum()
        for i in range(lat.q):
            idx = targets[i]
            if idx is None:
                continue
            vals = f_source[lat.opposite[i]][idx]
            mom = momentum[i]
            if mom is not None:
                vals = vals + mom
            f_new[i][idx] = vals

    def slab_hooks(self, lat: LatticeDescriptor,
                   slabs: list[tuple[int, int]]) -> list | None:
        """The link lists cut by the leading row of their fluid node.

        ``np.nonzero`` returns each direction's links sorted by row, so
        one stable sort by row over all directions makes every slab's
        links a ``searchsorted`` slice. A subclass may have changed what
        ``post_stream`` does: only the exact class is cut.
        """
        if type(self) is not HalfwayBounceBack:
            return None
        targets, momentum = self._targets_momentum()
        live = [i for i, idx in enumerate(targets) if idx is not None]
        if not live:
            return [None] * len(slabs)
        row = np.concatenate([targets[i][0] for i in live])
        order = np.argsort(row, kind="stable")
        row = row[order]
        comp = np.repeat(live, [targets[i][0].size for i in live])[order]
        rest = np.concatenate([
            np.ravel_multi_index(targets[i][1:], self._domain.shape[1:])
            for i in live])[order]
        moving = self.wall_velocity is not None
        if moving:
            momentum = np.concatenate([momentum[i] for i in live])[order]
        cuts = np.searchsorted(row, [a0 for a0, _ in slabs] + [slabs[-1][1]])
        vals = np.empty(int(np.diff(cuts).max()))
        hooks = []
        for (a0, _), lo, hi in zip(slabs, cuts[:-1], cuts[1:]):
            hooks.append(None if lo == hi else _SlabLinks(
                a0, (comp[lo:hi], row[lo:hi], rest[lo:hi]), lat.opposite,
                momentum[lo:hi].copy() if moving else None, vals[:hi - lo]))
        return hooks


class FullwayBounceBack(Boundary):
    """Full-way bounce-back: solid nodes reflect all populations instead of
    colliding. Solid nodes participate in streaming normally."""

    def __init__(self) -> None:
        self._solid_idx: tuple[np.ndarray, ...] | None = None

    def bind(self, lat: LatticeDescriptor, domain: Domain, tau: float) -> "FullwayBounceBack":
        """Precompute the solid-node index set."""
        idx = np.nonzero(domain.solid_mask)
        self._solid_idx = idx if idx[0].size else None
        return self

    def post_collide(self, lat: LatticeDescriptor, f_star: np.ndarray,
                     f_post_stream: np.ndarray) -> None:
        """Replace the collision at solid nodes by a full reflection."""
        if self._solid_idx is None:
            return
        idx = self._solid_idx
        reflected = f_post_stream[lat.opposite][(slice(None), *idx)]
        f_star[(slice(None), *idx)] = reflected
