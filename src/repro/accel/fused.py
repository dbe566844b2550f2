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
* are **cache-blocked the way the paper's column kernel is** (Algorithm
  2, Fig. 1): the collide bodies run over column chunks of ``_CHUNK``
  nodes in chunk-wide buffers, and the grid is stepped as a sliding
  window of leading-axis slabs that carries the boundary hooks with it,
  so between the caller's state being read and written no ``(Q, N)``
  intermediate ever reaches DRAM — and none is allocated: every buffer
  is the core's, sized once;
* apply body forcing (Guo's half-force scheme) in moment space for both
  families: the source's moments ``(0, pref F, pref (u F + F u))`` join
  the moments the reconstruction dgemm already reads — ST's
  equilibrium moments, MR's collided coefficients — so forcing costs a
  few row operations per chunk and no distribution-space pass;
* accept a per-node ``tau_field`` in the MR-P collision (the local
  relaxation of :class:`repro.solver.non_newtonian.PowerLawMRPSolver`).

Every kernel evaluates the reference expressions up to rounding: BLAS
summation order, and ST's relaxation regrouped through moments
(``f* = keep f + R g``, in real arithmetic the reference's ``feq +
keep (f - feq) + S``) — within the conformance matrix's per-step rule
(``tests/property/test_conformance.py``; docs/ALGORITHMS.md). The other
layouts reuse these kernels: :mod:`repro.accel.inplace` subclasses the
ST one (AA pattern), :mod:`repro.accel.sparse` binds both to a flat
``(n_fluid,)`` shape.

Core protocol
-------------
Cores are array-level: they know nothing about
:class:`~repro.solver.base.Solver`. Every core in :mod:`repro.accel` is
built by :func:`repro.accel.make_core`, refuses a boundary list its
static ``carries(boundaries)`` rejects (the cores here carry every one),
exposes a read-only ``path`` (the step variant its boundary list
selected) and a ``state_lattices`` count (whole ``Q``-lattices the step
keeps), and is stepped by
``core.step(state, boundaries, tel, force=, tau_field=)``. ``state`` is
the caller's persistent array (``f`` for ST, ``m`` for MR), updated in
place, and ``force`` the caller's body force, both in the core's layout
(``sparse``: compact fluid columns, which the solver expands when
somebody looks). A dense core's ``core.sync(state, tel)`` is called
whenever somebody else looks at the state, so it may keep it in an
order of its own between steps (``aa``: a pre-streamed lattice) and put
it right then. The cores here never do: their ``sync`` is a no-op.
"""

from __future__ import annotations

import itertools

import numpy as np

from ..boundary.base import Boundary
from ..core.blocking import _CHUNK, _SLAB_CHUNKS   # collide chunk, window slab
from ..core.collision import _split_trace
from ..lattice import LatticeDescriptor
from ..obs.telemetry import NULL_TELEMETRY

__all__ = ["FusedSTCore", "FusedMRCore"]


#: Doubles appended to a buffer row whose stride would otherwise be a
#: multiple of 4 KiB: rows at such a stride (2 MiB exactly on a 64^3
#: lattice) all map to the same cache sets, and a ``(Q, chunk)`` block of
#: them thrashes the moment a dgemm walks it column-wise.
_PAD = 8


def _row(x: np.ndarray, k: int) -> np.ndarray:
    """Component ``k`` of a ``(C, N)`` field as a ``(1, N)`` view.

    Keeping the component axis lets a row broadcast against the other
    rows of a block, scalars and per-node ``(N,)`` fields alike.
    """
    return x[k:k + 1]


def _rows(components: int, width: int) -> np.ndarray:
    """A ``(components, width)`` buffer off 4 KiB row strides."""
    pad = 0 if (width * 8) % 4096 else _PAD
    return np.empty((components, width + pad))[:, :width]


def _shift_blocks(shape: tuple[int, ...], c) -> list[tuple[tuple, tuple]]:
    """Slice-pair decomposition of ``dst = roll(src, +c)`` over ``shape``.

    Returns ``(dst, src)`` tuples of per-axis slices such that assigning
    ``dst[...] = src[...]`` block by block reproduces ``np.roll`` with
    shift ``c`` exactly — at most ``2**d`` contiguous wrap blocks, each a
    plain view, so streaming is slice copies with zero temporaries.
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


class _FusedCore:
    """Construction, slab geometry and hooks common to the two families.

    A core whose boundaries all have a row extent
    (:meth:`repro.boundary.Boundary.slab_hooks`; none is fine) is
    ``"lean"``: it steps a sliding window of leading-axis *slabs* (about
    ``_CHUNK`` nodes — ``_SLAB_CHUNKS`` chunks of planes smaller than one
    — never thinner than the lattice's ``reach``) and runs each slab's
    ``post_stream`` hooks in list order on the slab buffer right after
    its gather: the host transplant of the paper's column kernel
    (Algorithm 2, Fig. 1), no lattice-sized buffer beside the caller's
    state. ``post_collide`` hooks and boundaries that need whole
    lattices are ``"bounded"``: the same step over one slab that
    is the whole grid, which a lean grid of fewer than two slabs (or of
    edge slabs thinner than a boundary's stencil) takes too.
    """

    #: Lean cores slide; a subclass that needs whole lattices opts out.
    _slides = True

    @property
    def state_lattices(self) -> int:
        """Whole ``Q``-lattices the step keeps (the bounded step: two)."""
        return self._lean_lattices if self.path == "lean" else 2

    def __init__(self, lat: LatticeDescriptor, shape: tuple[int, ...], tau,
                 solid_mask: np.ndarray | None, boundaries=()):
        self.lat = lat
        self.shape = tuple(shape)
        self.tau = float(tau)
        self.keep = 1.0 - 1.0 / self.tau
        self._mm = np.ascontiguousarray(lat.moment_matrix)
        #: nodes per leading-axis plane
        self._tail = int(np.prod(self.shape[1:], dtype=np.int64))
        #: columns of every chunk-wide collide intermediate
        self._width = min(self.shape[0] * self._tail, _CHUNK)
        self._boundaries = tuple(boundaries)
        #: row ranges ``[a0, a1)`` the window visits; per slab its hooks
        self._slabs, self._hooks = self._cut()
        self.path = "bounded" if self._hooks is None else "lean"
        # flat solid nodes per slab, pinned as the slab is written
        solid = np.flatnonzero(False if solid_mask is None else solid_mask)
        edges = np.searchsorted(
            solid, [0] + [a1 * self._tail for _, a1 in self._slabs])
        self._pins = [solid[lo:hi] for lo, hi in zip(edges, edges[1:])]
        self._win = None    # stream plans and buffers (first step)

    @staticmethod
    def carries(boundaries) -> bool:
        """Core protocol: the window steps every boundary list."""
        return True

    def _cut(self) -> tuple[list, list | None]:
        """``(slabs, hooks per slab)``; hooks ``None``: the bounded step."""
        n0, bcs = self.shape[0], self._boundaries
        width = _CHUNK * (_SLAB_CHUNKS if self._tail < _CHUNK else 1)
        rows = max(self.lat.reach, width // self._tail)
        k = max(n0 // rows, 1) if self._slides else 1
        cuttable = not any(
            type(b).post_collide is not Boundary.post_collide for b in bcs)
        while cuttable:  # coarsen until no stencil is deeper than a slab
            slabs = [(n0 * i // k, n0 * (i + 1) // k) for i in range(k)]
            per = [b.slab_hooks(self.lat, slabs) for b in bcs]
            if None not in per:
                return slabs, [[p[s] for p in per if p[s] is not None]
                               for s in range(k)]
            cuttable, k = k > 1, k // 2
        return [(0, n0)], None

    def sync(self, state: np.ndarray, tel=NULL_TELEMETRY) -> None:
        """Core protocol: ``state`` is being looked at. It is current."""

    def _span(self, lo: int, hi: int) -> tuple:
        """Index of leading-axis rows ``[lo, hi)`` of a ``(C, *grid)`` field."""
        return (..., slice(lo, hi)) + (slice(None),) * (len(self.shape) - 1)

    def _flat(self, x: np.ndarray | None, components: int):
        """``x`` viewed as ``(components, N)`` (``None`` passes through)."""
        return None if x is None else x.reshape(components, -1)

    def _window(self, boundaries=None) -> tuple:
        """``(slabs, stream plans, *buffers)`` of the step, built on first
        use; a lean core refuses a boundary list it was not built with."""
        if (boundaries is not None and self._hooks is not None
                and tuple(boundaries) != self._boundaries):
            raise ValueError(
                "this core slides the boundary hooks it was built with "
                "(lean path); build a core for another boundary list")
        if self._win is None:
            self._win = (self._slabs, *self._build_window(
                self._slabs, max(a1 - a0 for a0, a1 in self._slabs)))
        return self._win

    def _stream_plan(self, a0: int, a1: int, source_rows: int) -> list:
        """Block copies that pull-stream rows ``[a0, a1)`` (Eq. 7).

        ``dst[i, x - a0] = src[i, (x - c_i0) mod source_rows]`` with the
        trailing axes rolled by ``c_i``; the source is the lattice or a
        ring of ``source_rows`` planes holding row ``x`` at ``x mod
        source_rows``. Rows wrap at most once and the trailing axes go
        through :func:`_shift_blocks`: slice copies, ``np.roll`` exactly.
        """
        plan, rows = [], a1 - a0
        for i, c in enumerate(self.lat.c):
            src0 = (a0 - int(c[0])) % source_rows
            first = min(rows, source_rows - src0)
            pieces = [(slice(0, first), slice(src0, src0 + first))]
            if first < rows:
                pieces.append((slice(first, rows), slice(0, rows - first)))
            for dst0, from0 in pieces:
                plan += [((i, dst0, *d), (i, from0, *s))
                         for d, s in _shift_blocks(self.shape[1:], c[1:])]
        return plan

    def _planes(self, rows: int | None) -> np.ndarray:
        """``(Q, rows, *tail)`` distribution planes; ``None``: a whole lattice."""
        q = self.lat.q
        if rows is None:
            return np.empty((q, *self.shape))
        return _rows(q, rows * self._tail).reshape(q, rows, *self.shape[1:])

    def _gather(self, plan: list, src: np.ndarray, dst: np.ndarray) -> None:
        """Run a :meth:`_stream_plan`: ``dst[d] = src[s]`` block by block."""
        for d, s in plan:
            dst[d] = src[s]

    def _stream(self, f: np.ndarray, out: np.ndarray) -> None:
        """Exact periodic streaming (Eq. 7) of a whole lattice."""
        self._gather(self._window()[1][0], f, out)

    def _apply(self, hook: str, boundaries, f_new: np.ndarray,
               f_src: np.ndarray) -> None:
        """Run one boundary hook (``post_stream``/``post_collide``) in order."""
        for b in boundaries:
            getattr(b, hook)(self.lat, f_new, f_src)

    def _post_stream(self, s: int, boundaries, f_new: np.ndarray,
                     f_src: np.ndarray, tel) -> None:
        """Slab ``s``'s hooks on its freshly gathered buffer, in list order."""
        if self._hooks is None:
            with tel.phase("boundary"):
                self._apply("post_stream", boundaries, f_new, f_src)
        elif self._hooks[s]:
            with tel.phase("boundary"):
                for hook in self._hooks[s]:
                    hook(f_new, f_src)

    def _pin(self, state: np.ndarray, s: int = 0) -> None:
        """Hold slab ``s``'s solid nodes of the flat ``state`` at rest."""
        if self._pins[s].size:
            state[..., self._pins[s]] = self._rest

    def _source_columns(self) -> np.ndarray:
        """``(Q, D D)`` reconstruction columns of the products ``u_a (pref
        F)_b``: each is the column of the pair it feeds, a diagonal
        pair's doubled (its two equal terms are one product)."""
        lat = self.lat
        d, r = lat.d, lat.reconstruction_matrix
        return np.stack([(1 + (a == b)) * r[:, 1 + d + lat.pair_index(a, b)]
                         for a in range(d) for b in range(d)], axis=1)

    def _add_moment_force(self, pf: np.ndarray, uf: np.ndarray,
                          u: np.ndarray, force: np.ndarray, pref) -> None:
        """Guo's source moments ``(0, pref F, pref (u F + F u))`` into
        rows of ``G``, factored: ``pf = pref F`` (``pref`` a scalar or a
        per-node ``(1, N)`` row) and ``uf`` the ``D x D`` products ``u_a
        (pref F)_b``, each formed once per chunk; the
        :meth:`_source_columns` of the reconstruction dgemm sum them."""
        d = self.lat.d
        np.multiply(force, pref, out=pf)
        np.multiply(u[:, None], pf, out=uf.reshape(d, d, -1))


class FusedSTCore(_FusedCore):
    """Fused stream+collide step for the ST scheme (BGK, Algorithm 1).

    Per slab: (1) pull streaming into a core-owned slab buffer, then
    the slab's ``post_stream`` hooks on it, with ``f`` — whose rows of
    that slab are not yet written — as the post-collision source; (2)
    BGK collision *through moment space*, chunk by chunk — ``m = P f``
    (dgemm), then ``f* = keep f + R g`` (dgemm) with ``g`` the
    equilibrium moments ``[rho, j, rho u u]`` over ``tau`` plus Guo's
    source moments; (3) the relaxed slab goes back into ``f`` one slab
    late, once the next slab has been gathered and nothing reads those
    rows again (the paper's delayed write-back; the last slab wraps onto
    the first rows and is gathered before anything is written).

    With a single slab the buffer is a scratch lattice; on the
    ``"bounded"`` form the hooks are the boundaries' whole-lattice ones,
    post-collide on ``f`` included, as in the reference step. Either way
    ``f`` is updated in place and holds the natural layout.
    """

    _lean_lattices = 1      # the persistent lattice itself

    def __init__(self, lat: LatticeDescriptor, shape: tuple[int, ...], tau,
                 solid_mask: np.ndarray | None = None, boundaries=()):
        super().__init__(lat, shape, tau, solid_mask, boundaries)
        w, d, r = self._width, lat.d, lat.reconstruction_matrix
        self._rest = lat.w[:, None]         # solid nodes: rest equilibrium
        # R g as [R / tau | R_j | source columns] @ [m_eq; pref F; u pref F]
        self._rc = np.ascontiguousarray(np.hstack(
            [r / self.tau, r[:, 1:1 + d], self._source_columns()]))
        self._pref = 1.0 - 0.5 / self.tau       # Guo force prefactor
        self._g = _rows(len(self._rc.T), w)     # moments, then G
        self._u = _rows(d, w)
        self._feq = _rows(lat.q, w)     # R g

    def _build_window(self, slabs: list, rows: int) -> tuple:
        """Stream plans out of ``f`` and the slab buffers (at most three)."""
        n0, k = self.shape[0], len(slabs)
        return ([self._stream_plan(a0, a1, n0) for a0, a1 in slabs],
                [self._planes(rows if k > 1 else None)
                 for _ in range(min(k, 3))])

    def _moments_and_feq(self, fs: np.ndarray, ff: np.ndarray | None):
        """``R g`` for the flat lattice chunk ``fs`` (a core-owned view).

        ``g = m_eq / tau + m_src``: the equilibrium moments ``[rho, rho u,
        rho u u]`` at Guo's half-force velocity ``u = (j + F/2) / rho``
        (against ``R / tau``) and the source moments that reconstruct to
        Guo's ``S_i`` exactly (:meth:`_add_moment_force`). One body, so
        the single-lattice and compact paths are collide-identical by
        construction.
        """
        lat = self.lat
        d, k, w = lat.d, lat.n_moments, fs.shape[-1]
        g, u, feq = (b[..., :w] for b in (self._g, self._u, self._feq))
        np.matmul(self._mm, fs, out=g[:k])
        rho, j = _row(g, 0), g[1:1 + d]
        if ff is not None:      # j becomes rho u = j + F/2
            np.multiply(ff, 0.5, out=u)
            j += u
        np.divide(j, rho, out=u)
        # ST never reads Pi: its rows become rho u u, the equilibrium's
        for n, (a, b) in enumerate(lat.pair_tuples):
            np.multiply(_row(j, a), _row(u, b), out=_row(g, 1 + d + n))
        if ff is None:
            g = g[:k]
        else:
            self._add_moment_force(g[k:k + d], g[k + d:], u, ff, self._pref)
        np.matmul(self._rc[:, :len(g)], g, out=feq)
        return feq

    def _relax(self, src: np.ndarray, dst: np.ndarray,
               force: np.ndarray | None) -> None:
        """BGK(+Guo) collision of the streamed lattice ``src`` into ``dst``.

        ``f* = keep f + R g`` (:meth:`_moments_and_feq`) over column
        chunks of ``_CHUNK`` nodes: each chunk is read straight out of
        ``src`` and relaxed straight into ``dst``, the moment-space
        intermediates living and dying in cache (a smaller field is one
        chunk: the unblocked arithmetic). ``dst`` may alias ``src``: a
        chunk's moments are taken before it is written.
        """
        q = self.lat.q
        fs, out = self._flat(src, q), self._flat(dst, q)
        ff = self._flat(force, self.lat.d)
        for c0 in range(0, fs.shape[-1], _CHUNK):
            cols = slice(c0, c0 + _CHUNK)
            rg = self._moments_and_feq(
                fs[..., cols], None if ff is None else ff[..., cols])
            x = out[..., cols]
            np.multiply(fs[..., cols], self.keep, out=x)
            x += rg

    def step(self, f: np.ndarray, boundaries=(), tel=None,
             force: np.ndarray | None = None, tau_field=None) -> None:
        """Advance one step in place (``f`` ends as the new lattice).

        ``force`` is an optional ``(D, *grid)`` body-force field; the
        collision then evaluates the equilibrium at Guo's half-force
        velocity and adds Guo's source through its moments. ``tau_field``
        belongs to the shared core protocol and is unused here.
        """
        tel = NULL_TELEMETRY if tel is None else tel
        slabs, plans, bufs = self._window(boundaries)
        last = len(slabs) - 1
        flat = self._flat(f, self.lat.q)

        def gather(s: int, buf: np.ndarray) -> None:
            with tel.phase("stream"):
                self._gather(plans[s], f, buf)
            self._post_stream(s, boundaries, buf, f, tel)

        def relax(s: int, buf: np.ndarray) -> None:
            a0, a1 = slabs[s]
            rows = self._span(a0, a1)
            with tel.phase("collide"):
                self._relax(buf[self._span(0, a1 - a0)], f[rows],
                            None if force is None else force[rows])
                self._pin(flat, s)

        # The last slab reads the first rows through the periodic wrap:
        # gather it while they are still old, relax it at the very end.
        gather(last, bufs[-1])
        if last:
            gather(0, bufs[0])
        for s in range(last):
            if s + 1 < last:
                gather(s + 1, bufs[(s + 1) % 2])
            relax(s, bufs[s % 2])
        relax(last, bufs[-1])
        if self._hooks is None:
            with tel.phase("boundary"):
                self._apply("post_collide", boundaries, f, bufs[0])


class FusedMRCore(_FusedCore):
    """Fused moment-representation step (MR-P or MR-R, Algorithm 2).

    Moments -> f* -> streamed f -> moments, one dgemm at each linear
    boundary of the pipeline:

    * moment-space collision (Eq. 10, the reference arithmetic including
      the optional ``tau_bulk`` trace split) into the coefficient block
      ``G``, chunk by chunk; for MR-R the collided third/fourth-order
      Hermite coefficients (Eqs. 12-13) are appended to ``G``, so the
      reconstruction (Eq. 14) is the single product ``[R | E3 | E4] @ G``;
    * ``f*`` lands in a *ring* of leading-axis planes running ``reach``
      planes ahead of the slab being streamed, so the moments a slab
      overwrites have already been collided (the first ``reach`` planes
      of ``f*`` are kept for the periodic wrap of the last slab);
    * the slab is pull-streamed out of the ring and re-projected
      ``m = P f`` (dgemm) straight into the caller's moment field.

    The distribution exists only inside that window, walls and
    inlet/outlet included (a slab's ``post_stream`` hooks run on the
    gathered slab, the ring their post-collision source); the state is
    the ``(M, *grid)`` moment field, as in Algorithm 2. With a single
    slab, ring and slab are two whole lattices.
    """

    _lean_lattices = 0      # the state is the moment field

    def __init__(self, lat: LatticeDescriptor, shape: tuple[int, ...], tau,
                 scheme: str = "MR-P", tau_bulk: float | None = None,
                 solid_mask: np.ndarray | None = None, boundaries=()):
        if scheme not in ("MR-P", "MR-R"):
            raise ValueError(f"scheme must be MR-P or MR-R, got {scheme!r}")
        super().__init__(lat, shape, tau, solid_mask, boundaries)
        self.tau_bulk = tau_bulk
        self.scheme = scheme
        w, m = self._width, lat.n_moments
        self._rest = np.eye(m)[:, :1]       # solid nodes: (1, 0, ..., 0)
        self._pref = 1.0 - 0.5 / self.tau       # Guo force prefactor
        self._pf = _rows(lat.d, w)      # pref F
        self._u = _rows(lat.d, w)
        self._uu = _rows(lat.n_pairs, w)      # u_a u_b
        self._pi_eq = _rows(lat.n_pairs, w)
        self._pi_neq = _rows(lat.n_pairs, w)
        # per-node keep / force-prefactor rows
        self._tau_bufs = _rows(2, w)

        if scheme == "MR-P":
            blocks = [lat.reconstruction_matrix]
            self._a34_specs = None
        else:
            s3, s4 = lat.h3_supported, lat.h4_supported
            w3 = lat.triple_mult[s3] / (6.0 * lat.cs6)
            w4 = lat.quad_mult[s4] / (24.0 * lat.cs8)
            e3 = lat.w[:, None] * lat.h3_reg_cols[:, s3] * w3[None, :]
            e4 = lat.w[:, None] * lat.h4_reg_cols[:, s4] * w4[None, :]
            blocks = [lat.reconstruction_matrix, e3, e4]
            # Recipes for the supported recursion columns (rows of G):
            # a3_abc = rho u_a u_b u_c + keep (u_a Pi_bc + u_b Pi_ac + u_c Pi_ab)
            # a4_abcd = rho u_a u_b u_c u_d + keep sum_6 (u_r u_s) Pi_pq
            # The velocity products are built left to right and shared by
            # prefix (rho u_x u_x serves xxy, xxz, xxyy, xxzz); a term that
            # occurs twice in a column is evaluated once and added twice.
            # Same operations in the same order as the naive sums, fewer.
            targets = []
            for t in ([lat.triple_tuples[k] for k in s3]
                      + [lat.quad_tuples[k] for k in s4]):
                pairs = list(itertools.combinations(range(len(t)), 2))
                if len(t) == 3:         # the reference adds u_a Pi_bc first
                    pairs.reverse()
                targets.append((t, [
                    (tuple(t[i] for i in range(len(t)) if i not in pos),
                     lat.pair_index(t[pos[0]], t[pos[1]])) for pos in pairs]))
            # each product lives in its column of G or, a proper prefix,
            # in a scratch row: index tuple -> (in G, row)
            where, products = {}, []    # (dst, src or None for rho, axis)
            for i, (t, _) in enumerate(targets):
                for n in range(1, len(t) + 1):
                    if t[:n] not in where:
                        where[t[:n]] = ((True, m + i) if n == len(t) else
                                        (False, len(where) - i))
                        products.append((where[t[:n]], where.get(t[:n - 1]),
                                         t[n - 1]))
            # (G row, a4?, distinct terms as (row of u — a4: of u_a u_b —,
            # row of Pi_neq), order of adds)
            sums = []
            for t, terms in targets:
                distinct = list(dict.fromkeys(terms))
                sums.append((
                    where[t][1], len(t) == 4,
                    [(axes[0] if len(t) == 3 else lat.pair_index(*axes), p)
                     for axes, p in distinct],
                    [distinct.index(term) for term in terms]))
            self._a34_specs = (products, sums)
            self._a34_bufs = (
                _rows(len(where) - len(targets), w),
                _rows(max(len(d) for _, _, d, _ in sums), w))
        # G's unforced rows; a force appends the source products' D D
        self._k = sum(b.shape[1] for b in blocks)
        self._rcext = np.ascontiguousarray(
            np.hstack(blocks + [self._source_columns()]))
        self._g = _rows(len(self._rcext.T), w)

    def _build_window(self, slabs: list, rows: int) -> tuple:
        """Stream plans out of the ``f*`` ring, ring, slab and wrap planes.

        With one slab the ring *is* the whole ``f*`` lattice (it wraps on
        itself); with more it holds the tallest slab plus ``reach``
        planes either side.
        """
        whole = len(slabs) == 1
        planes = self.shape[0] if whole else rows + 2 * self.lat.reach
        return ([self._stream_plan(a0, a1, planes) for a0, a1 in slabs],
                self._planes(None if whole else planes),
                self._planes(None if whole else rows),
                None if whole else self._planes(self.lat.reach))

    def _collide(self, mf: np.ndarray, force: np.ndarray | None = None,
                 tau_field: np.ndarray | None = None) -> np.ndarray:
        """Coefficient block ``G`` of one flat chunk of the moment field.

        With a flat ``(D, N)`` ``force`` the equilibria are evaluated
        at Guo's half-force velocity and the projected source moments
        are added (:func:`repro.core.forcing.apply_moment_space_force`):
        the momentum input ``F`` here, the second-moment source as the
        rows of :meth:`_add_moment_force` that end ``G``. A flat
        ``(N,)`` ``tau_field`` (MR-P) replaces ``tau``
        in the relaxation factor and the force prefactor, as in the
        power-law solver. Returns a view of the core-owned chunk buffer.
        """
        lat = self.lat
        d, n_pairs, w = lat.d, lat.n_pairs, mf.shape[-1]
        rho, j, pi = _row(mf, 0), mf[..., 1:1 + d, :], mf[..., 1 + d:, :]
        u, uu, pi_eq, pi_neq, g = (b[..., :w] for b in (
            self._u, self._uu, self._pi_eq, self._pi_neq, self._g))
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
            np.multiply(_row(u, a), _row(u, b), out=_row(uu, k))
        np.multiply(uu, rho, out=pi_eq)
        np.subtract(pi, pi_eq, out=pi_neq)
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
            self._add_moment_force(self._pf[..., :w], g[self._k:], u, force,
                                   pref)
        if self._a34_specs is not None:
            products, sums = self._a34_specs
            pre, tmp = (b[..., :w] for b in self._a34_bufs)
            for (in_g, row), src, a in products:
                np.multiply(rho if src is None else
                            _row(g if src[0] else pre, src[1]), _row(u, a),
                            out=_row(g if in_g else pre, row))
            keep = self.keep
            for row, a4, distinct, order in sums:
                factor = uu if a4 else u
                for k, (r, p) in enumerate(distinct):
                    term = _row(tmp, k)
                    np.multiply(_row(factor, r), _row(pi_neq, p), out=term)
                    term *= keep
                acc = _row(g, row)
                for k in order:
                    acc += _row(tmp, k)
        return g if force is not None else g[:self._k]

    def _per_node(self, slot: int, coeff: float,
                  tau_field: np.ndarray) -> np.ndarray:
        """``1 + coeff / tau_field`` in the core-owned per-node buffer ``slot``."""
        buf = self._tau_bufs[slot, :tau_field.shape[-1]]
        np.divide(coeff, tau_field, out=buf)
        buf += 1.0
        return buf

    def _reconstruct(self, m: np.ndarray, out: np.ndarray,
                     force: np.ndarray | None,
                     tau_field: np.ndarray | None) -> None:
        """Collide ``m`` in moment space and rebuild ``f*`` into ``out``.

        The shared front half of every MR step (Eq. 11 / 14), over column
        chunks of ``_CHUNK`` nodes so ``G`` and its inputs stay in cache.
        All arguments cover the same nodes: a whole grid, a slab of it,
        or a compact ``(n_fluid,)`` column list.
        """
        lat = self.lat
        if tau_field is not None and self.scheme != "MR-P":
            raise ValueError(
                "per-node tau_field collision is implemented for the MR-P "
                "scheme only"
            )
        mf, of = self._flat(m, lat.n_moments), self._flat(out, lat.q)
        ff = self._flat(force, lat.d)
        tf = None if tau_field is None else tau_field.reshape(-1)
        for c0 in range(0, mf.shape[-1], _CHUNK):
            cols = slice(c0, c0 + _CHUNK)
            g = self._collide(mf[..., cols],
                              None if ff is None else ff[..., cols],
                              None if tf is None else tf[cols])
            np.matmul(self._rcext[:, :len(g)], g, out=of[..., cols])

    def step(self, m: np.ndarray, boundaries=(), tel=None,
             force: np.ndarray | None = None,
             tau_field: np.ndarray | None = None) -> None:
        """Advance the ``(M, *grid)`` moment field one step in place.

        ``force`` is an optional ``(D, *grid)`` body-force field (the
        projected Guo coupling); ``tau_field`` an optional ``(*grid,)``
        per-node relaxation time (MR-P only, see :meth:`_collide`).
        """
        tel = NULL_TELEMETRY if tel is None else tel
        lat = self.lat
        slabs, plans, ring, slab, wrap = self._window(boundaries)
        mf = self._flat(m, lat.n_moments)
        n0, reach, tail = self.shape[0], lat.reach, self._tail
        planes = n0 if wrap is None else ring.shape[1]

        def fill(lo: int, hi: int, at: int) -> None:
            """``f*`` of rows ``[lo, hi)`` into the ring from plane ``at``."""
            while lo < hi:
                p = at % planes
                top = min(hi, lo + planes - p)
                rows = self._span(lo, top)
                self._reconstruct(
                    m[rows], ring[self._span(p, p + top - lo)],
                    None if force is None else force[rows],
                    None if tau_field is None else tau_field[rows])
                lo, at = top, at + top - lo

        done = 0
        for s, (a0, a1) in enumerate(slabs):
            with tel.phase("collide"):
                if s == 0 and wrap is not None:
                    fill(n0 - reach, n0, -reach)
                top = min(a1 + reach, n0)
                fill(done, top, done)
                done = top
                if wrap is not None and s == 0:
                    wrap[...] = ring[:, :reach]
                elif a1 + reach > n0 and wrap is not None:
                    for i in range(reach):
                        ring[:, (n0 + i) % planes] = wrap[:, i]
            with tel.phase("stream"):
                self._gather(plans[s], ring, slab)
            self._post_stream(s, boundaries, slab, ring, tel)
            with tel.phase("macroscopic"):
                np.matmul(self._mm,
                          self._flat(slab[self._span(0, a1 - a0)], lat.q),
                          out=mf[..., a0 * tail:a1 * tail])
                self._pin(mf, s)
