"""Lattice descriptors: velocity sets plus all derived moment machinery.

A :class:`LatticeDescriptor` bundles everything the solvers and the
virtual-GPU kernels need about a ``DdQq`` lattice:

* the discrete velocities ``c`` (shape ``(Q, D)``), weights ``w`` and the
  squared speed of sound ``cs2``;
* opposite-velocity indices (for bounce-back boundaries);
* discrete Hermite tensors up to fourth order (paper Eqs. 1-3, 14);
* the *moment-space* metadata of the paper's moment representation:
  ``M = 1 + D + D(D+1)/2`` moments (Section 2.2), laid out as
  ``[rho, j_x..j_D, Pi_xx, Pi_xy, ..., Pi_DD]`` with the second-order block
  in combinations-with-replacement order;
* the linear projection matrix ``moment_matrix`` (f -> M, Eqs. 1-3) and the
  linear reconstruction matrix ``reconstruction_matrix`` (collided moments
  -> f*, Eq. 11), plus the compressed third/fourth-order Hermite columns
  used by recursive regularization (Eq. 14).

Descriptors are immutable value objects; all arrays are set non-writeable.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .hermite import distinct_tensor_columns, hermite_tensors

__all__ = ["LatticeDescriptor", "build_descriptor"]


def _freeze(a: np.ndarray) -> np.ndarray:
    a = np.ascontiguousarray(a)
    a.setflags(write=False)
    return a


@dataclass(frozen=True)
class LatticeDescriptor:
    """Immutable description of a ``DdQq`` lattice and its moment space."""

    name: str
    c: np.ndarray                 # (Q, D) int velocities
    w: np.ndarray                 # (Q,) weights
    cs2: float                    # squared speed of sound

    # Derived fields (filled by build_descriptor).
    opposite: np.ndarray = field(default=None)          # (Q,) int
    h: tuple[np.ndarray, ...] = field(default=None)     # Hermite tensors 0..4
    pair_tuples: tuple[tuple[int, int], ...] = field(default=None)
    pair_mult: np.ndarray = field(default=None)         # (T,) int
    triple_tuples: tuple[tuple[int, ...], ...] = field(default=None)
    triple_mult: np.ndarray = field(default=None)
    quad_tuples: tuple[tuple[int, ...], ...] = field(default=None)
    quad_mult: np.ndarray = field(default=None)
    h2_cols: np.ndarray = field(default=None)           # (Q, T)
    h3_cols: np.ndarray = field(default=None)           # (Q, n3)
    h4_cols: np.ndarray = field(default=None)           # (Q, n4)
    # Indices of third/fourth-order columns that are *supported* by the
    # lattice: not identically zero AND not aliased onto lower-order
    # polynomials (e.g. H4_xxxx = -H2_xx on D2Q9). Only these participate
    # in the recursive-regularization reconstruction (Eq. 14), matching
    # the minimal Hermite basis of Malaspinas (2015).
    h3_supported: np.ndarray = field(default=None)
    h4_supported: np.ndarray = field(default=None)
    # Regularization columns: the supported higher-order Hermite columns,
    # Gram-Schmidt-orthogonalized against the lower-order basis under the
    # lattice-weight inner product. On fully fourth-order lattices (D2Q9,
    # D3Q27) these equal the raw columns; on D3Q15/D3Q19 the fourth-order
    # columns acquire small lower-order corrections so that the Eq. 14
    # reconstruction terms cannot pollute the conserved moments or Pi.
    h3_reg_cols: np.ndarray = field(default=None)
    h4_reg_cols: np.ndarray = field(default=None)
    moment_matrix: np.ndarray = field(default=None)     # (M, Q)
    reconstruction_matrix: np.ndarray = field(default=None)  # (Q, M)
    #: Largest ``|c_ia|`` over all velocities and axes: how many planes a
    #: population crosses per step (1 on the standard lattices, 3 on
    #: D3Q39) — the halo a slab needs and the depth of a streaming window.
    reach: int = field(default=None)

    # ------------------------------------------------------------------
    # Basic sizes
    # ------------------------------------------------------------------
    @property
    def q(self) -> int:
        """Number of discrete velocities (the `Q` in DdQq)."""
        return self.c.shape[0]

    @property
    def d(self) -> int:
        """Spatial dimension (the `D` in DdQq)."""
        return self.c.shape[1]

    @property
    def n_pairs(self) -> int:
        """Number of distinct second-order components, ``D(D+1)/2``."""
        return self.d * (self.d + 1) // 2

    @property
    def n_moments(self) -> int:
        """Size of the paper's moment space, ``M = 1 + D + D(D+1)/2``.

        6 for 2D lattices and 10 for 3D lattices (Section 2.2).
        """
        return 1 + self.d + self.n_pairs

    @property
    def cs4(self) -> float:
        return self.cs2 * self.cs2

    @property
    def cs6(self) -> float:
        return self.cs2 ** 3

    @property
    def cs8(self) -> float:
        return self.cs2 ** 4

    # ------------------------------------------------------------------
    # Moment-vector layout helpers
    # ------------------------------------------------------------------
    def pair_index(self, a: int, b: int) -> int:
        """Column of component ``(a, b)`` within the second-order block."""
        if a > b:
            a, b = b, a
        return self.pair_tuples.index((a, b))

    def moment_slot(self, kind: str, *idx: int) -> int:
        """Absolute slot of a moment in the ``M``-vector layout.

        ``kind`` is one of ``"rho"``, ``"j"`` (momentum component) or
        ``"pi"`` (second-order component).
        """
        if kind == "rho":
            return 0
        if kind == "j":
            (a,) = idx
            if not 0 <= a < self.d:
                raise ValueError(f"momentum component {a} out of range for D={self.d}")
            return 1 + a
        if kind == "pi":
            a, b = idx
            return 1 + self.d + self.pair_index(a, b)
        raise ValueError(f"unknown moment kind {kind!r}")

    # ------------------------------------------------------------------
    # Convenience physics
    # ------------------------------------------------------------------
    def viscosity(self, tau: float) -> float:
        """Kinematic viscosity of the BGK/regularized model, ``cs2 (tau-1/2)``."""
        return self.cs2 * (tau - 0.5)

    def tau_for_viscosity(self, nu: float) -> float:
        """Relaxation time giving kinematic viscosity ``nu``."""
        return nu / self.cs2 + 0.5

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"LatticeDescriptor({self.name}, D={self.d}, Q={self.q}, M={self.n_moments})"


def _find_opposites(c: np.ndarray) -> np.ndarray:
    q = c.shape[0]
    opp = np.full(q, -1, dtype=np.int64)
    for i in range(q):
        matches = np.where((c == -c[i]).all(axis=1))[0]
        if matches.size != 1:
            raise ValueError(f"velocity set is not symmetric at index {i}")
        opp[i] = matches[0]
    return opp


def _validate_weights(c: np.ndarray, w: np.ndarray, cs2: float) -> None:
    """Check the isotropy/normalization conditions that the single-speed
    lattices must satisfy up to the order the solvers rely on."""
    if not np.isclose(w.sum(), 1.0):
        raise ValueError(f"weights sum to {w.sum()}, expected 1")
    if np.any(w <= 0):
        raise ValueError("all lattice weights must be positive")
    d = c.shape[1]
    # First moment zero.
    if not np.allclose(np.einsum("q,qa->a", w, c), 0.0):
        raise ValueError("weighted first moment of velocities is nonzero")
    # Second moment cs2 * delta.
    second = np.einsum("q,qa,qb->ab", w, c, c)
    if not np.allclose(second, cs2 * np.eye(d)):
        raise ValueError("second velocity moment is not cs2 * identity")
    # Third moment zero (parity).
    third = np.einsum("q,qa,qb,qc->abc", w, c, c, c)
    if not np.allclose(third, 0.0):
        raise ValueError("third velocity moment is nonzero")


def _supported_columns(cols: np.ndarray, lower: np.ndarray,
                       w: np.ndarray, tol: float = 1e-10) -> np.ndarray:
    """Indices of columns that are non-zero and not aliased onto ``lower``.

    Aliasing is tested with a weighted least-squares projection: a column
    whose residual against the span of the lower-order basis (under the
    lattice-weight inner product) vanishes contributes nothing new on this
    velocity set (e.g. H3_xxx == 0 and H4_xxxx == -H2_xx on D2Q9).
    """
    sw = np.sqrt(w)[:, None]
    basis = lower * sw
    keep = []
    for k in range(cols.shape[1]):
        col = cols[:, k:k + 1] * sw
        norm = np.linalg.norm(col)
        if norm < tol:
            continue
        coef, *_ = np.linalg.lstsq(basis, col, rcond=None)
        residual = np.linalg.norm(col - basis @ coef)
        if residual > tol * max(1.0, norm):
            keep.append(k)
    return np.array(keep, dtype=np.int64)


def _orthogonalize_columns(cols: np.ndarray, supported: np.ndarray,
                           lower: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Project the lower-order basis out of the supported columns.

    Weighted least-squares projection under the lattice-weight inner
    product ``<f, g> = sum_i w_i f_i g_i``; the returned array matches
    ``cols`` in shape, with only the supported columns modified. This
    guarantees that reconstruction terms built from these columns carry no
    density, momentum or second-moment content on *any* lattice.
    """
    out = np.array(cols)
    if supported.size == 0:
        return out
    sw = np.sqrt(w)[:, None]
    basis = lower * sw
    for k in supported:
        col = cols[:, k:k + 1] * sw
        coef, *_ = np.linalg.lstsq(basis, col, rcond=None)
        out[:, k] = ((col - basis @ coef) / sw).ravel()
    return out


def build_descriptor(name: str, c: Sequence[Sequence[int]], w: Sequence[float],
                     cs2: float = 1.0 / 3.0) -> LatticeDescriptor:
    """Construct a fully-derived :class:`LatticeDescriptor`.

    Builds Hermite tensors to fourth order, the distinct-component
    compressions, and the moment projection / reconstruction matrices used
    by the moment-representation solvers and GPU kernels.
    """
    c_arr = np.asarray(c, dtype=np.int64)
    w_arr = np.asarray(w, dtype=np.float64)
    if c_arr.ndim != 2:
        raise ValueError("velocities must be a (Q, D) array")
    if w_arr.shape != (c_arr.shape[0],):
        raise ValueError("weights must have one entry per velocity")
    _validate_weights(c_arr, w_arr, cs2)

    opp = _find_opposites(c_arr)
    tensors = hermite_tensors(c_arr, cs2, max_order=4)
    d = c_arr.shape[1]
    q = c_arr.shape[0]

    h2_cols, pair_tuples, pair_mult = distinct_tensor_columns(tensors[2])
    h3_cols, triple_tuples, triple_mult = distinct_tensor_columns(tensors[3])
    h4_cols, quad_tuples, quad_mult = distinct_tensor_columns(tensors[4])

    # Lower-order basis (weighted) for alias detection: a higher-order
    # column that lies in the span of lower-order columns carries no new
    # information on this lattice and is excluded from Eq. 14.
    lower2 = np.column_stack(
        [np.ones(q), c_arr.astype(np.float64), h2_cols]
    )
    h3_supported = _supported_columns(h3_cols, lower2, w_arr)
    lower3 = np.column_stack([lower2, h3_cols[:, h3_supported]]) \
        if h3_supported.size else lower2
    h4_supported = _supported_columns(h4_cols, lower3, w_arr)

    h3_reg = _orthogonalize_columns(h3_cols, h3_supported, lower2, w_arr)
    h4_reg = _orthogonalize_columns(h4_cols, h4_supported, lower3, w_arr)

    # Projection: M_vec = moment_matrix @ f, rows [H0; H1_a; H2_(ab distinct)].
    n_m = 1 + d + len(pair_tuples)
    moment_matrix = np.empty((n_m, q), dtype=np.float64)
    moment_matrix[0, :] = 1.0
    moment_matrix[1:1 + d, :] = c_arr.T.astype(np.float64)
    moment_matrix[1 + d:, :] = h2_cols.T

    # Reconstruction (Eq. 11): f_i = w_i (rho + H1.j / cs2
    #   + sum_distinct mult * H2 * Pi / (2 cs4)).
    recon = np.empty((q, n_m), dtype=np.float64)
    recon[:, 0] = 1.0
    recon[:, 1:1 + d] = c_arr.astype(np.float64) / cs2
    recon[:, 1 + d:] = h2_cols * (pair_mult[None, :] / (2.0 * cs2 * cs2))
    recon *= w_arr[:, None]

    return LatticeDescriptor(
        name=name,
        c=_freeze(c_arr),
        w=_freeze(w_arr),
        cs2=float(cs2),
        opposite=_freeze(opp),
        h=tuple(_freeze(t) for t in tensors),
        pair_tuples=tuple(pair_tuples),
        pair_mult=_freeze(pair_mult),
        triple_tuples=tuple(triple_tuples),
        triple_mult=_freeze(triple_mult),
        quad_tuples=tuple(quad_tuples),
        quad_mult=_freeze(quad_mult),
        h2_cols=_freeze(h2_cols),
        h3_cols=_freeze(h3_cols),
        h4_cols=_freeze(h4_cols),
        h3_supported=_freeze(h3_supported),
        h4_supported=_freeze(h4_supported),
        h3_reg_cols=_freeze(h3_reg),
        h4_reg_cols=_freeze(h4_reg),
        moment_matrix=_freeze(moment_matrix),
        reconstruction_matrix=_freeze(recon),
        reach=int(np.abs(c_arr).max()),
    )
