"""Fused pure-NumPy step kernels for the ST / MR-P / MR-R schemes.

The reference solvers are written line-for-line against the paper's
algorithms: each step materializes the full post-collision distribution,
streams it with ``Q`` per-component ``np.roll`` passes, and projects
moments through ``np.einsum`` contractions that NumPy evaluates as naive
loops. This module holds the **one collide-and-project kernel per
family** that every fast backend steps with — :class:`FusedSTCore`
(Algorithm 1) and :class:`FusedMRCore` (Algorithm 2, MR-P/MR-R) — which

* evaluate every linear projection (moments -> f, Eq. 11; f -> moments,
  Eqs. 1-3; the Eq. 14 higher-order extension) as a single BLAS ``dgemm``
  over the flattened ``(components, nodes)`` field — for MR-R the
  reconstruction and the higher-order delta collapse into **one** matmul
  against the precomputed block matrix ``[R | E3 | E4]``;
* keep every intermediate, *and every lattice beyond the caller's
  persistent state*, in buffers the core allocates once, so the hot loop
  performs zero per-step allocations and callers own no scratch;
* fold body forcing (Guo's half-force scheme, distribution space for ST
  and the moment-space projection of :mod:`repro.core.forcing` for MR)
  into the collision stage — a handful of extra FMAs per node, no
  additional field passes;
* accept a per-node ``tau_field`` in the MR-P collision (the local
  relaxation of :class:`repro.solver.non_newtonian.PowerLawMRPSolver`);
* are **batch-polymorphic**: every array may carry leading batch axes
  (``f[B, Q, *grid]``, ``m[B, M, *grid]``) and ``tau`` may be a ``(B,)``
  vector, in which case the relaxation and Guo prefactors become
  ``(B, 1, 1)`` columns and the dgemms broadcast over the batch. The
  arithmetic is written once against ``(..., C, N)`` fields; what is
  genuinely different with a batch axis (the streaming pass and the
  per-member boundary loop) lives in :mod:`repro.accel.batched`.

Every kernel reproduces the corresponding reference solver to machine
precision: the collision arithmetic mirrors the reference expressions
operation-for-operation, and the only deviations are BLAS summation-order
effects at the level of one ulp per step (pinned by the parity suite in
``tests/unit/test_accel_backends.py``).

The other layouts and streaming patterns reuse these kernels rather than
copy them: :mod:`repro.accel.inplace` subclasses them (one lattice),
:mod:`repro.accel.sparse` binds them to a flat ``(n_fluid,)`` shape.

Core protocol
-------------
Cores are array-level: they know nothing about
:class:`~repro.solver.base.Solver`. Every core in :mod:`repro.accel` is
built by :func:`repro.accel.make_core`, exposes a read-only ``path``
(the step variant chosen at construction) and a ``state_lattices``
count (``Q``-multiples of the documented state footprint), and is
stepped by ``core.step(state, boundaries, tel, force=, tau_field=,
time=)``. ``state`` is the caller's persistent array (``f`` for ST,
``m`` for MR), updated in place; ``time`` is the owner's step clock,
read only by the parity-alternating lean path of
:class:`~repro.accel.inplace.InplaceSTCore`.
"""

from __future__ import annotations

import itertools

import numpy as np

from ..core.collision import _split_trace
from ..core.streaming import stream_push
from ..lattice import LatticeDescriptor
from ..obs.telemetry import NULL_TELEMETRY

__all__ = ["FusedSTCore", "FusedMRCore"]


def _column(tau):
    """``tau`` as a broadcast factor over ``(..., C, N)`` fields.

    A scalar stays a float (the single-simulation arithmetic, bit for
    bit); a ``(B,)`` vector becomes a ``(B, 1, 1)`` per-member column.
    """
    tau = np.asarray(tau, dtype=np.float64)
    return float(tau) if tau.ndim == 0 else tau[:, None, None]


def _row(x: np.ndarray, k: int) -> np.ndarray:
    """Component ``k`` of a ``(..., C, N)`` field as a ``(..., 1, N)`` view.

    Keeping the component axis lets one expression serve both a single
    simulation and a batch: rows broadcast against scalars, per-member
    ``(B, 1, 1)`` columns and per-node ``(N,)`` fields alike.
    """
    return x[..., k:k + 1, :]


class _FusedCore:
    """Construction and hooks common to the two kernel families."""

    #: Step variant this core runs; the two-lattice cores have only one.
    path = "dense"
    #: Full ``Q``-lattices in the documented state footprint of the
    #: backend (``docs/PERFORMANCE.md``, "state" column).
    state_lattices = 2

    def __init__(self, lat: LatticeDescriptor, shape: tuple[int, ...], tau,
                 solid_mask: np.ndarray | None):
        self.lat = lat
        self.shape = tuple(shape)
        #: relaxation time as a broadcast factor (see :func:`_column`).
        self.tau = _column(tau)
        self.keep = 1.0 - 1.0 / self.tau
        self.solid_mask = solid_mask
        #: leading batch axes of every buffer: ``()`` or ``(B,)``.
        self._lead = np.shape(tau)
        self._mm = np.ascontiguousarray(lat.moment_matrix)

    def _flat(self, x: np.ndarray | None, components: int):
        """``x`` viewed as ``(..., components, N)`` (``None`` passes through)."""
        return None if x is None else x.reshape(
            self._lead + (components, -1))

    def _stream(self, f: np.ndarray, out: np.ndarray) -> None:
        """Exact periodic streaming (Eq. 7) as ``Q`` sliced roll passes."""
        stream_push(self.lat, f, out=out)

    def _apply(self, hook: str, boundaries, f_new: np.ndarray,
               f_src: np.ndarray) -> None:
        """Run one boundary hook (``post_stream``/``post_collide``) in order."""
        for b in boundaries:
            getattr(b, hook)(self.lat, f_new, f_src)


class FusedSTCore(_FusedCore):
    """Fused stream+collide step for the two-lattice ST scheme (BGK).

    One step performs, over the flattened ``(Q, N)`` field:

    1. pull streaming into the core-owned scratch lattice;
    2. the post-stream boundary hooks (unchanged reference objects);
    3. BGK collision *through moment space*: ``m = P f`` (dgemm), the
       equilibrium as the Eq. 11 reconstruction of
       ``[rho, j, rho u u]`` (dgemm), and the relaxation written in
       place into the retired lattice buffer — no per-step temporary;
    4. solid-node pinning and the post-collide boundary hooks.

    The two lattice buffers keep fixed roles (caller's ``f`` / core
    scratch), so the caller's array is updated in place, never swapped.
    """

    def __init__(self, lat: LatticeDescriptor, shape: tuple[int, ...], tau,
                 solid_mask: np.ndarray | None = None):
        super().__init__(lat, shape, tau, solid_mask)
        lead, n = self._lead, int(np.prod(self.shape))
        m = lat.n_moments
        self._rc = np.ascontiguousarray(lat.reconstruction_matrix)
        self._scratch = np.empty(lead + (lat.q, *self.shape))
        self._m = np.empty(lead + (m, n))
        self._meq = np.empty(lead + (m, n))
        self._u = np.empty(lead + (lat.d, n))
        self._feq = np.empty(lead + (lat.q, n))
        self._force_bufs = None

    def _ensure_force_bufs(self) -> tuple:
        """Scratch for the fused Guo source (allocated on first forced step)."""
        if self._force_bufs is None:
            lat = self.lat
            lead, n = self._lead, self._m.shape[-1]
            self._force_bufs = (
                np.ascontiguousarray(lat.c, dtype=np.float64),  # (Q, D)
                np.empty(lead + (lat.q, n)),                    # c . F
                np.empty(lead + (lat.q, n)),                    # c . u
                np.empty(lead + (lat.d, n)),                    # u_a F_a terms
                np.empty(lead + (1, n)),                        # u . F
                # Guo prefactor (1 - 1/(2 tau)) w_i: (Q, 1) or (B, Q, 1)
                (1.0 - 0.5 / self.tau) * lat.w[:, None],
            )
        return self._force_bufs

    def _guo_source(self, ff: np.ndarray) -> np.ndarray:
        """Build the fused Guo source ``S_i`` for the flat force ``ff``.

        Mirrors :func:`repro.core.forcing.guo_source` operation for
        operation (including the division by ``cs2``/``cs4``) so forced
        fused runs track the reference trajectory at the ulp level.
        Returns the core-owned ``(..., Q, N)`` source buffer.
        """
        lat = self.lat
        cmat, cf, cu, uftmp, uf, wpref = self._ensure_force_bufs()
        np.matmul(cmat, ff, out=cf)
        np.matmul(cmat, self._u, out=cu)
        np.multiply(self._u, ff, out=uftmp)
        np.sum(uftmp, axis=-2, keepdims=True, out=uf)
        # S = pref w ((c.F - u.F)/cs2 + (c.u)(c.F)/cs4), built in place:
        # cu becomes the cs4 term, cf the cs2 term.
        cu *= cf
        cu /= lat.cs4
        cf -= uf
        cf /= lat.cs2
        cf += cu
        cf *= wpref
        return cf

    def _moments_and_feq(self, fs: np.ndarray, ff: np.ndarray | None) -> None:
        """Fill ``_m``/``_u``/``_meq``/``_feq`` from the flat lattice ``fs``.

        The moment projection, (optionally half-force-shifted) velocity
        and Eq. 11 equilibrium reconstruction behind every ST step of
        every backend — one body, so the single-lattice, compact and
        batched paths are collide-identical by construction.
        """
        lat = self.lat
        d = lat.d
        m, meq, u = self._m, self._meq, self._u
        np.matmul(self._mm, fs, out=m)
        rho, j = _row(m, 0), m[..., 1:1 + d, :]
        _row(meq, 0)[...] = rho
        if ff is None:
            np.divide(j, rho, out=u)
            meq[..., 1:1 + d, :] = j
        else:
            # u = (j + F/2)/rho; the equilibrium momentum is rho u.
            np.multiply(ff, 0.5, out=u)
            u += j
            u /= rho
            np.multiply(u, rho, out=meq[..., 1:1 + d, :])
        for k, (a, b) in enumerate(lat.pair_tuples):
            pair = _row(meq, 1 + d + k)
            np.multiply(_row(u, a), _row(u, b), out=pair)
            pair *= rho
        np.matmul(self._rc, meq, out=self._feq)

    def _relax(self, src: np.ndarray, dst: np.ndarray,
               force: np.ndarray | None) -> None:
        """BGK(+Guo) collision of the streamed lattice ``src`` into ``dst``.

        ``f* = feq + (1 - omega)(f - feq) [+ S]``, solid nodes pinned at
        rest equilibrium. ``dst`` may alias ``src`` (the in-place AA
        steps) or be the retired lattice of the two-lattice step.
        """
        lat = self.lat
        fs, out = self._flat(src, lat.q), self._flat(dst, lat.q)
        ff = self._flat(force, lat.d)
        self._moments_and_feq(fs, ff)
        np.subtract(fs, self._feq, out=out)
        out *= self.keep
        out += self._feq
        if ff is not None:
            out += self._guo_source(ff)
        if self.solid_mask is not None:
            dst[..., self.solid_mask] = lat.w[:, None]

    def step(self, f: np.ndarray, boundaries=(), tel=None,
             force: np.ndarray | None = None, tau_field=None,
             time: int | None = None) -> None:
        """Advance one step in place (``f`` ends as the new lattice).

        ``force`` is an optional ``(D, *grid)`` body-force field; the
        collision then evaluates the equilibrium at Guo's half-force
        velocity and adds the fused source term. ``tau_field`` and
        ``time`` belong to the shared core protocol and are unused here.
        """
        tel = NULL_TELEMETRY if tel is None else tel
        scratch = self._scratch
        with tel.phase("stream"):
            self._stream(f, scratch)
        with tel.phase("boundary"):
            self._apply("post_stream", boundaries, scratch, f)
        with tel.phase("collide"):
            self._relax(scratch, f, force)
        with tel.phase("boundary"):
            self._apply("post_collide", boundaries, f, scratch)


class FusedMRCore(_FusedCore):
    """Fused moment-representation step (MR-P or MR-R, Algorithm 2).

    One step goes moments -> f* -> streamed f -> moments with a single
    dgemm at each linear boundary of the pipeline:

    * moment-space collision (Eq. 10, mirroring the reference arithmetic
      exactly, including the optional ``tau_bulk`` trace split) into the
      coefficient block ``G``;
    * for MR-R, the collided third/fourth-order Hermite coefficients
      (Eqs. 12-13) are appended to ``G`` so that reconstruction (Eq. 14)
      is the single product ``[R | E3 | E4] @ G``;
    * roll streaming into the second core-owned lattice;
    * boundary hooks, then re-projection ``m = P f`` (dgemm) straight
      back into the caller's moment field.

    The distribution field exists only inside the lattices owned by the
    core — the caller's persistent state stays the ``(M, *grid)`` moment
    field, exactly as in Algorithm 2. ``lattices=1`` (subclasses whose
    streaming needs no second full lattice) skips the streamed buffer.
    """

    def __init__(self, lat: LatticeDescriptor, shape: tuple[int, ...], tau,
                 scheme: str = "MR-P", tau_bulk: float | None = None,
                 solid_mask: np.ndarray | None = None, lattices: int = 2):
        if scheme not in ("MR-P", "MR-R"):
            raise ValueError(f"scheme must be MR-P or MR-R, got {scheme!r}")
        super().__init__(lat, shape, tau, solid_mask)
        self.tau_bulk = tau_bulk
        self.scheme = scheme
        lead, n = self._lead, int(np.prod(self.shape))
        m = lat.n_moments
        self._pref = 1.0 - 0.5 / self.tau       # Guo force prefactor
        self._u = np.empty(lead + (lat.d, n))
        self._pi_eq = np.empty(lead + (lat.n_pairs, n))
        self._pi_neq = np.empty(lead + (lat.n_pairs, n))
        self._tau_bufs = [None, None]   # per-node keep / prefactor buffers
        self._src_buf = None    # scratch for the moment-space force terms
        self._f_star = np.empty(lead + (lat.q, *self.shape))
        self._f_new = np.empty_like(self._f_star) if lattices == 2 else None

        if scheme == "MR-P":
            self._rcext = np.ascontiguousarray(lat.reconstruction_matrix)
            self._g = np.empty(lead + (m, n))
            self._a34_specs = None
        else:
            s3, s4 = lat.h3_supported, lat.h4_supported
            w3 = lat.triple_mult[s3] / (6.0 * lat.cs6)
            w4 = lat.quad_mult[s4] / (24.0 * lat.cs8)
            e3 = lat.w[:, None] * lat.h3_reg_cols[:, s3] * w3[None, :]
            e4 = lat.w[:, None] * lat.h4_reg_cols[:, s4] * w4[None, :]
            self._rcext = np.ascontiguousarray(
                np.hstack([lat.reconstruction_matrix, e3, e4]))
            self._g = np.empty(lead + (m + s3.size + s4.size, n))
            # Index recipes for the supported recursion columns:
            # a3_abc = rho u_a u_b u_c + keep (u_a Pi_bc + u_b Pi_ac + u_c Pi_ab)
            # a4_abcd = rho u_a u_b u_c u_d + keep sum_6 u_r u_s Pi_pq
            trip = [(t, [(t[0], lat.pair_index(t[1], t[2])),
                         (t[1], lat.pair_index(t[0], t[2])),
                         (t[2], lat.pair_index(t[0], t[1]))])
                    for t in (lat.triple_tuples[k] for k in s3)]
            quads = []
            for k in s4:
                quad = lat.quad_tuples[k]
                terms = []
                for pos in itertools.combinations(range(4), 2):
                    rest = [quad[i] for i in range(4) if i not in pos]
                    terms.append((rest[0], rest[1],
                                  lat.pair_index(quad[pos[0]], quad[pos[1]])))
                quads.append((quad, terms))
            self._a34_specs = (trip, quads)

    def _collide(self, mf: np.ndarray, force: np.ndarray | None = None,
                 tau_field: np.ndarray | None = None) -> None:
        """Fill the coefficient block ``G`` from the flat moment field.

        ``force`` is an optional flat ``(..., D, N)`` body-force field:
        the equilibria are evaluated at Guo's half-force velocity and the
        projected source moments (momentum input ``F``, second-moment
        source ``(1 - 1/(2 tau))(u F + F u)``) are added, mirroring
        :func:`repro.core.forcing.apply_moment_space_force`.

        ``tau_field`` is an optional flat ``(N,)`` per-node relaxation
        time (MR-P, single simulation only); it replaces the scalar
        ``tau`` in both the relaxation factor and the force prefactor,
        mirroring the power-law solver's variable-tau collision.
        """
        lat = self.lat
        d, n_pairs = lat.d, lat.n_pairs
        rho, j, pi = _row(mf, 0), mf[..., 1:1 + d, :], mf[..., 1 + d:, :]
        u, pi_eq, pi_neq = self._u, self._pi_eq, self._pi_neq
        if force is None:
            np.divide(j, rho, out=u)
        else:
            np.multiply(force, 0.5, out=u)
            u += j
            u /= rho
        keep, pref = self.keep, self._pref
        if tau_field is not None:
            keep = self._per_node(0, -1.0, tau_field)
        for k, (a, b) in enumerate(lat.pair_tuples):
            pair = _row(pi_eq, k)
            np.multiply(_row(u, a), _row(u, b), out=pair)
            pair *= rho
        np.subtract(pi, pi_eq, out=pi_neq)
        g = self._g
        _row(g, 0)[...] = rho
        if force is None:
            g[..., 1:1 + d, :] = j
        else:
            np.add(j, force, out=g[..., 1:1 + d, :])
        g_pi = g[..., 1 + d:1 + d + n_pairs, :]
        if self.tau_bulk is None or tau_field is not None:
            # tau_field implies the plain projective relaxation (the
            # variable-tau reference path has no bulk split either).
            np.multiply(pi_neq, keep, out=g_pi)
            g_pi += pi_eq
        else:
            dev, trace_cols = _split_trace(lat, pi_neq)
            g_pi[:] = (pi_eq + self.keep * dev
                       + (1.0 - 1.0 / self.tau_bulk) * trace_cols)
        if force is not None:
            if tau_field is not None:
                pref = self._per_node(1, -0.5, tau_field)
            self._add_moment_force(g_pi, u, force, pref)
        if self._a34_specs is not None:
            trip, quads = self._a34_specs
            keep = self.keep
            row = 1 + d + n_pairs
            for (a, b, c), terms in trip:
                acc = rho * _row(u, a) * _row(u, b) * _row(u, c)
                for v, p in terms:
                    acc += keep * (_row(u, v) * _row(pi_neq, p))
                _row(g, row)[...] = acc
                row += 1
            for (a, b, c, e), terms in quads:
                acc = rho * _row(u, a) * _row(u, b) * _row(u, c) * _row(u, e)
                for r0, r1, p in terms:
                    acc += keep * (_row(u, r0) * _row(u, r1)
                                   * _row(pi_neq, p))
                _row(g, row)[...] = acc
                row += 1

    def _per_node(self, slot: int, coeff: float,
                  tau_field: np.ndarray) -> np.ndarray:
        """``1 + coeff / tau_field`` in the core-owned per-node buffer ``slot``."""
        buf = self._tau_bufs[slot]
        if buf is None:
            buf = self._tau_bufs[slot] = np.empty_like(tau_field)
        np.divide(coeff, tau_field, out=buf)
        buf += 1.0
        return buf

    def _add_moment_force(self, g_pi: np.ndarray, u: np.ndarray,
                          force: np.ndarray, pref) -> None:
        """Add the projected Guo second-moment source to ``g_pi`` in place."""
        if self._src_buf is None:
            row = g_pi.shape[:-2] + (1, g_pi.shape[-1])
            self._src_buf = (np.empty(row), np.empty(row))
        src, tmp = self._src_buf
        for k, (a, b) in enumerate(self.lat.pair_tuples):
            np.multiply(_row(u, a), _row(force, b), out=src)
            np.multiply(_row(u, b), _row(force, a), out=tmp)
            src += tmp
            src *= pref
            pair = _row(g_pi, k)
            pair += src

    def _reconstruct(self, m: np.ndarray, force: np.ndarray | None,
                     tau_field: np.ndarray | None) -> None:
        """Collide ``m`` in moment space and rebuild ``f*`` (Eq. 11 / 14).

        The shared front half of every MR step: leaves the post-collision
        distribution in the core-owned ``_f_star`` lattice.
        """
        lat = self.lat
        if tau_field is not None and self.scheme != "MR-P":
            raise ValueError(
                "per-node tau_field collision is implemented for the MR-P "
                "scheme only"
            )
        self._collide(self._flat(m, lat.n_moments),
                      force=self._flat(force, lat.d),
                      tau_field=None if tau_field is None
                      else tau_field.reshape(-1))
        np.matmul(self._rcext, self._g, out=self._flat(self._f_star, lat.q))

    def _pin_solids(self, m: np.ndarray) -> None:
        """Hold solid nodes at the rest moments ``(1, 0, ..., 0)``."""
        if self.solid_mask is not None:
            m[..., self.solid_mask] = 0.0
            m[..., 0, self.solid_mask] = 1.0

    def step(self, m: np.ndarray, boundaries=(), tel=None,
             force: np.ndarray | None = None,
             tau_field: np.ndarray | None = None,
             time: int | None = None) -> None:
        """Advance the ``(M, *grid)`` moment field one step in place.

        ``force`` is an optional ``(D, *grid)`` body-force field (the
        projected Guo coupling); ``tau_field`` an optional ``(*grid,)``
        per-node relaxation time (MR-P only, see :meth:`_collide`).
        """
        tel = NULL_TELEMETRY if tel is None else tel
        lat = self.lat
        with tel.phase("collide"):
            self._reconstruct(m, force, tau_field)
        with tel.phase("stream"):
            self._stream(self._f_star, self._f_new)
        with tel.phase("boundary"):
            self._apply("post_stream", boundaries, self._f_new, self._f_star)
        with tel.phase("macroscopic"):
            np.matmul(self._mm, self._flat(self._f_new, lat.q),
                      out=self._flat(m, lat.n_moments))
            self._pin_solids(m)
