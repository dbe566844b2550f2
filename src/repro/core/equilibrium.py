"""Equilibrium distributions and equilibrium moments.

Implements the second-order Maxwell-Boltzmann expansion of paper Eq. 4 (the
classical LBGK equilibrium) together with its moment-space counterpart and
the third/fourth-order Hermite equilibrium coefficients
``a3_eq = rho*u*u*u`` and ``a4_eq = rho*u*u*u*u`` used by recursive
regularization (Section 2.3).
"""

from __future__ import annotations

import numpy as np

from ..lattice import LatticeDescriptor
from .blocking import _blocks
from .moments import pack_moments

__all__ = [
    "equilibrium",
    "equilibrium_moments",
    "a3_equilibrium_cols",
    "a4_equilibrium_cols",
    "equilibrium_extended",
]


def _as_velocity_field(lat: LatticeDescriptor, u: np.ndarray) -> np.ndarray:
    u = np.asarray(u, dtype=np.float64)
    if u.shape[0] != lat.d:
        raise ValueError(f"velocity field must have leading axis {lat.d}, got {u.shape}")
    return u


def _flat_fields(lat: LatticeDescriptor, rho, u) -> tuple:
    """``(grid, rho, u)`` with the fields flattened to ``(N,)`` / ``(D, N)``.

    The grid is that of ``u``; ``rho`` (a scalar, or anything that
    broadcasts against the grid) is broadcast to it.
    """
    u = _as_velocity_field(lat, u)
    rho = np.asarray(rho, dtype=np.float64)
    grid = np.broadcast_shapes(rho.shape, u.shape[1:])
    return (grid, np.broadcast_to(rho, grid).reshape(-1),
            np.broadcast_to(u, (lat.d, *grid)).reshape(lat.d, -1))


def equilibrium(lat: LatticeDescriptor, rho: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Second-order equilibrium distribution (paper Eq. 4).

    ``f_eq_i = w_i rho (1 + c.u/cs2 + (c.u)^2/(2 cs4) - u.u/(2 cs2))``,
    which is exactly the Hermite form
    ``w_i (H0 rho + H1.rho u / cs2 + H2 : rho u u / (2 cs4))``.

    Parameters have shapes ``grid`` (rho; a scalar is broadcast) and
    ``(D, *grid)`` (u); the result has shape ``(Q, *grid)``. The
    expression is evaluated over column blocks (:mod:`.blocking`)
    straight into the result, so a lattice-sized call allocates its
    result and block-wide temporaries, not five lattices.
    """
    grid, rho, u = _flat_fields(lat, rho, u)
    c, w = lat.c.astype(np.float64), lat.w[:, None]
    feq = np.empty((lat.q, rho.size))
    for cols in _blocks(rho.size):
        ub = u[:, cols]
        cu = np.einsum("qa,a...->q...", c, ub)
        usq = np.einsum("a...,a...->...", ub, ub)
        np.multiply(w * rho[cols], (
            1.0 + cu / lat.cs2 + cu * cu / (2.0 * lat.cs4) - usq / (2.0 * lat.cs2)
        ), out=feq[:, cols])
    return feq.reshape(lat.q, *grid)


def equilibrium_moments(lat: LatticeDescriptor, rho: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Equilibrium M-vector: ``[rho, rho u, (rho u u)_distinct]``.

    The Hermite second moment of Eq. 4 equilibrium is ``Pi_eq = rho u u``
    (paper, below Eq. 10). Shapes and blocking as :func:`equilibrium`.
    """
    grid, rho, u = _flat_fields(lat, rho, u)
    m = np.empty((lat.n_moments, rho.size))
    for cols in _blocks(rho.size):
        rb, ub = rho[cols], u[:, cols]
        pi_cols = np.stack([rb * ub[a] * ub[b] for a, b in lat.pair_tuples], axis=0)
        m[:, cols] = pack_moments(lat, rb, rb * ub, pi_cols)
    return m.reshape(lat.n_moments, *grid)


def a3_equilibrium_cols(lat: LatticeDescriptor, rho: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Distinct components of ``a3_eq = rho u u u`` (Section 2.3)."""
    u = _as_velocity_field(lat, u)
    return np.stack([rho * u[a] * u[b] * u[c] for a, b, c in lat.triple_tuples], axis=0)


def a4_equilibrium_cols(lat: LatticeDescriptor, rho: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Distinct components of ``a4_eq = rho u u u u`` (Section 2.3)."""
    u = _as_velocity_field(lat, u)
    return np.stack(
        [rho * u[a] * u[b] * u[c] * u[e] for a, b, c, e in lat.quad_tuples], axis=0
    )


def equilibrium_extended(lat: LatticeDescriptor, rho: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Fourth-order Hermite equilibrium (the equilibrium limit of Eq. 14).

    Adds the third- and fourth-order Hermite terms with coefficients
    ``a3_eq = rho uuu`` and ``a4_eq = rho uuuu`` on top of Eq. 4. On
    lattices that do not support some components (e.g. H3_xxx on D2Q9) the
    corresponding Hermite columns vanish identically, so the expression is
    automatically projected onto the supported subspace.
    """
    rho = np.asarray(rho, dtype=np.float64)
    base = equilibrium(lat, rho, u)
    from .regularization import hermite_delta_higher_order

    a3 = a3_equilibrium_cols(lat, rho, u)
    a4 = a4_equilibrium_cols(lat, rho, u)
    return base + hermite_delta_higher_order(lat, a3, a4)
