"""Second-order interpolated (Bouzidi) bounce-back for curved walls.

Half-way bounce-back puts every wall at the half-link position, so a
curved surface degenerates into a staircase and the scheme drops to
first-order accuracy in the wall position. The linear interpolated
bounce-back of Bouzidi, Firdaouss & Lallemand (2001) restores second
order by using the *actual* wall distance along each cut link: with
``q`` the fluid-node-to-wall distance as a fraction of the link length,
the population entering the fluid node ``x_f`` against the wall
direction ``j`` (``x_f + c_j`` solid, ``ibar = opposite(j)``) is

* ``q < 1/2``:  ``f_ibar(x_f) = 2 q f*_j(x_f) + (1 - 2 q) f*_j(x_f - c_j)``
* ``q >= 1/2``: ``f_ibar(x_f) = f*_j(x_f) / (2 q)
  + (2 q - 1) / (2 q) f*_ibar(x_f)``

both built from post-collision populations, and both reducing to plain
half-way bounce-back at ``q = 1/2``. Links whose upstream interpolation
node ``x_f - c_j`` is itself solid (thin gaps) fall back to the half-way
rule on that link.

The wall geometry enters through a signed distance function; the
``q`` of every cut link is found once at bind time by bisection along
the link. The boundary also accumulates the instantaneous momentum
exchange over its links each application (``last_force``), which is the
consistent curved-wall force — the plain
:class:`~repro.analysis.forces.MomentumExchangeForce` assumes the
half-way reflection and stays first-order on curved surfaces.

This is a generic post-stream hook: it runs unmodified under the
``reference``/``fused``/``aa`` backends and through the ``sparse``
backend's dense fallback path. It declares no row extent
(:meth:`~repro.boundary.Boundary.slab_hooks`): ``last_force`` is one
float reduction over all links per application, and per-slab partial
sums would change its last bits, so its problems step the ``bounded``
whole-lattice path.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from ..geometry import Domain
from ..lattice import LatticeDescriptor
from .base import Boundary

__all__ = ["InterpolatedBounceBack", "circle_sdf", "sphere_sdf"]


def circle_sdf(cx: float, cy: float, radius: float) -> Callable[[np.ndarray], np.ndarray]:
    """Signed distance to a circle (negative inside) in lattice coordinates."""
    def sdf(points: np.ndarray) -> np.ndarray:
        return np.hypot(points[0] - cx, points[1] - cy) - radius

    return sdf


def sphere_sdf(cx: float, cy: float, cz: float,
               radius: float) -> Callable[[np.ndarray], np.ndarray]:
    """Signed distance to a sphere (negative inside) in lattice coordinates."""
    def sdf(points: np.ndarray) -> np.ndarray:
        return np.sqrt((points[0] - cx) ** 2 + (points[1] - cy) ** 2
                       + (points[2] - cz) ** 2) - radius

    return sdf


def _link_fractions(sdf, start: np.ndarray, c: np.ndarray,
                    iters: int = 48) -> np.ndarray:
    """Wall-intersection fractions ``q`` along ``start + t c``, ``t in (0, 1]``.

    Bisection on the signed distance (fluid end positive, solid end
    negative), robust for any monotone-enough SDF; 48 halvings put the
    root far below the discretization error. Links whose solid end is
    not actually inside the surface (mask/SDF disagreement at tangent
    nodes) fall back to the half-way position ``q = 1/2``.
    """
    lo = np.zeros(start.shape[1])
    hi = np.ones(start.shape[1])
    d_hi = sdf(start + c[:, None])
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        d_mid = sdf(start + mid[None, :] * c[:, None])
        inside = d_mid <= 0.0
        hi = np.where(inside, mid, hi)
        lo = np.where(inside, lo, mid)
    q = 0.5 * (lo + hi)
    return np.where(d_hi > 0.0, 0.5, q)


class InterpolatedBounceBack(Boundary):
    """Bouzidi linear interpolated bounce-back on a curved solid surface.

    Parameters
    ----------
    sdf:
        Signed distance function of the wall surface in lattice
        coordinates: maps a ``(D, n)`` array of points to ``(n,)``
        distances, negative inside the solid. Must be consistent with
        the solid nodes it covers (``sdf <= 0`` there).
    body_mask:
        Optional boolean mask restricting the boundary to the links of
        one solid body; defaults to every solid node of the domain.
        Other solid nodes (e.g. straight channel walls handled by a
        separate :class:`~repro.boundary.HalfwayBounceBack`) are left
        untouched.

    After each application :attr:`last_force` holds the instantaneous
    momentum-exchange force vector over the boundary's links (lattice
    units), built from the true interpolated reflections.
    """

    def __init__(self, sdf: Callable[[np.ndarray], np.ndarray],
                 body_mask: np.ndarray | None = None):
        self.sdf = sdf
        self.body_mask = body_mask
        self._links: list = []
        #: Momentum-exchange force accumulated on the latest application.
        self.last_force: np.ndarray | None = None

    def bind(self, lat: LatticeDescriptor, domain: Domain,
             tau: float) -> "InterpolatedBounceBack":
        """Precompute per-link interpolation coefficients from the SDF."""
        solid = domain.solid_mask
        body = solid if self.body_mask is None else (
            np.asarray(self.body_mask, dtype=bool) & solid)
        fluidlike = domain.fluid_mask
        axes = tuple(range(solid.ndim))
        shape = domain.shape
        self._links = []
        self.last_force = np.zeros(lat.d)
        for i in range(lat.q):
            if not lat.c[i].any():
                continue
            # Node x receives component i from x - c_i; the link is cut
            # when that source lies inside the body.
            j = int(lat.opposite[i])           # direction into the wall
            from_body = np.roll(body, shift=tuple(lat.c[i]), axis=axes) & fluidlike
            idx = np.nonzero(from_body)
            if idx[0].size == 0:
                continue
            start = np.stack([a.astype(np.float64) for a in idx])
            c_j = lat.c[j].astype(np.float64)
            q = _link_fractions(self.sdf, start, c_j)
            # Upstream interpolation node x - c_j (= x + c_i), periodic.
            behind = tuple((idx[a] + lat.c[i, a]) % shape[a]
                           for a in range(lat.d))
            behind_fluid = fluidlike[behind]
            near = (q < 0.5) & behind_fluid
            far = q >= 0.5
            # Coefficients of f*_j(x), f*_j(x - c_j), f*_i(x):
            a_self = np.where(near, 2.0 * q,
                              np.where(far, 0.5 / q, 1.0))
            b_up = np.where(near, 1.0 - 2.0 * q, 0.0)
            c_own = np.where(far, (2.0 * q - 1.0) / (2.0 * q), 0.0)
            self._links.append((i, j, idx, behind, a_self, b_up, c_own))
        if not self._links:
            raise ValueError("surface has no cut fluid-solid links")
        return self

    def post_stream(self, lat: LatticeDescriptor, f_new: np.ndarray,
                    f_source: np.ndarray) -> None:
        """Write the interpolated reflections; accumulate the wall force."""
        force = np.zeros(lat.d)
        for i, j, idx, behind, a_self, b_up, c_own in self._links:
            out = f_source[j][idx]
            vals = a_self * out
            vals += b_up * f_source[j][behind]
            vals += c_own * f_source[i][idx]
            f_new[i][idx] = vals
            # Per link the wall absorbs c_j f*_j and injects c_i f_i:
            # the transfer along c_j is f*_j + f_i (since c_i = -c_j).
            force += lat.c[j] * float(out.sum() + vals.sum())
        self.last_force = force
