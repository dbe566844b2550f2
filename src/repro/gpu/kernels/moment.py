"""Virtual-GPU kernel for the MR propagation pattern (paper Algorithm 2).

The fluid domain is decomposed into *columns* parallel to the last axis
(y in 2D, z in 3D); each column maps to one thread block. Per sliding-
window iteration a block

1. reads the ``M`` moments of the current tile *plus a one-node halo in the
   non-axial (cross) directions* from global memory,
2. performs collision in moment space (Eq. 10; MR-R additionally
   reconstructs the higher-order coefficients, Eqs. 12-13),
3. maps the moments to the post-collision distribution (Eq. 11 / Eq. 14)
   and *streams into shared memory*: each component is written to the ring
   slot of the lattice site it is streaming to, with components leaving the
   column handled by the neighbouring columns' halos, and wall-bound
   components reflected in place (fused half-way bounce-back),
4. once a row of lattice sites has received all contributions, recomputes
   its moments (Eqs. 1-3) — applying the inlet/outlet reconstruction first
   where applicable — and writes them back to global memory at a
   circularly-shifted offset (Dethier et al. 2011) so that concurrent
   columns can never race on the moment array.

The shared-memory ring holds ``tile_cross x (w_t + 2) x Q`` doubles,
exactly the footprint stated in Section 3.2; the thread block size is
``(x_t + 2) * w_t`` in 2D and ``(x_t + 2)(y_t + 2) * w_t`` in 3D.

Blocks are executed in tile-lockstep (outer loop over window iterations,
inner loop over columns), mirroring the quasi-lockstep progress of equal-
work blocks on a real GPU — which is precisely the regime in which the
constant-shift scheme is race-free.

Periodic (and masked-geometry) domains additionally require the
wrap-around contributions of the first two rows; the kernel caches their
post-collision distributions in shared memory during the first window
iterations and replays them — plain deliveries and obstacle reflections
alike — in a short epilogue (the channel proxy app of the paper has walls
on the window axis and does not need this path).
"""

from __future__ import annotations

import math

import numpy as np

from ...core.collision import collide_moments_projective, collide_moments_recursive
from ...core.moments import f_from_moments, macroscopic
from ...obs.telemetry import NULL_TELEMETRY
from ..device import GPUDevice
from ..launch import (
    LaunchConfig,
    LaunchStats,
    occupancy,
    publish_launch,
    validate_launch,
)
from ..memory import GlobalArray, MemoryTracker
from .problem import KernelProblem

__all__ = ["MRKernel", "default_tile"]


def default_tile(shape: tuple[int, ...], target: int = 32) -> tuple[int, ...]:
    """Pick a cross-section tile: divisors of the cross extents close to
    ``target`` total nodes (16-wide in 2D — narrow enough that realistic
    domains yield >= 2 columns per SM; 8x8-ish in 3D, one node high in the
    window direction per the paper's tuning note)."""
    cross = shape[:-1]
    if len(cross) == 1:
        return (_largest_divisor(cross[0], target // 2),)
    tx = _largest_divisor(cross[0], int(round(math.sqrt(target * 2))))
    ty = _largest_divisor(cross[1], int(round(math.sqrt(target * 2))))
    return (tx, ty)


def _largest_divisor(n: int, at_most: int) -> int:
    for cand in range(min(at_most, n), 0, -1):
        if n % cand == 0:
            return cand
    return 1


class _ColumnGeometry:
    """Precomputed per-column index machinery (identical across window
    iterations; only the row coordinate varies)."""

    def __init__(self, kernel: "MRKernel", origin: tuple[int, ...]):
        prob = kernel.problem
        lat = prob.lat
        tile = kernel.tile_cross
        cross_shape = kernel.cross_shape
        ndim_c = len(tile)

        # Local cross coordinates of tile+halo nodes, halo = -1 .. tile.
        local_axes = [np.arange(-1, t + 1) for t in tile]
        mesh = np.meshgrid(*local_axes, indexing="ij")
        self.lc = [m.ravel() for m in mesh]                    # local coords
        n_th = self.lc[0].size

        # Global cross coordinates (may be out of range on non-periodic axes).
        gc_raw = [self.lc[a] + origin[a] for a in range(ndim_c)]
        self.in_domain = np.ones(n_th, dtype=bool)
        gc = []
        for a in range(ndim_c):
            if prob.axis_periodic(a):
                gc.append(gc_raw[a] % cross_shape[a])
            else:
                self.in_domain &= (gc_raw[a] >= 0) & (gc_raw[a] < cross_shape[a])
                gc.append(np.clip(gc_raw[a], 0, cross_shape[a] - 1))
        self.gc = gc
        # Flat cross index within a row (x fastest).
        flat = np.zeros(n_th, dtype=np.int64)
        stride = 1
        for a in range(ndim_c):
            flat += gc[a] * stride
            stride *= cross_shape[a]
        self.cross_flat = flat

        # Solidity of cross position (cross-axis walls, e.g. y walls in 3D).
        # Window-axis solidity is handled per row; masked geometries are
        # looked up per (cross, row) at run time instead.
        pad_rows = np.full(n_th, kernel.r_mid)   # a guaranteed-fluid row
        if prob.mode == "masked":
            self.cross_solid = ~self.in_domain
        else:
            self.cross_solid = prob.is_solid(self._full_coords(pad_rows))
            self.cross_solid |= ~self.in_domain  # out-of-domain: never scatter

        # In-tile mask and flat tile index of each tile+halo node.
        self.in_tile = np.ones(n_th, dtype=bool)
        tflat = np.zeros(n_th, dtype=np.int64)
        stride = 1
        for a in range(ndim_c):
            self.in_tile &= (self.lc[a] >= 0) & (self.lc[a] < tile[a])
            tflat += np.clip(self.lc[a], 0, tile[a] - 1) * stride
            stride *= tile[a]
        self.tile_flat_of_node = tflat
        self.n_tile = int(np.prod(tile))

        # Scatter tables per component: destination in-tile mask, flat tile
        # index, and destination cross solidity (or, for masked mode, the
        # destination global cross coordinates for run-time lookups).
        self.dest_in_tile = np.zeros((lat.q, n_th), dtype=bool)
        self.dest_tile_flat = np.zeros((lat.q, n_th), dtype=np.int64)
        self.dest_cross_solid = np.zeros((lat.q, n_th), dtype=bool)
        self.dest_leaves_domain = np.zeros((lat.q, n_th), dtype=bool)
        self.dest_gc: list[list[np.ndarray]] = []
        for i in range(lat.q):
            dl = [self.lc[a] + lat.c[i, a] for a in range(ndim_c)]
            ok = np.ones(n_th, dtype=bool)
            dflat = np.zeros(n_th, dtype=np.int64)
            stride = 1
            for a in range(ndim_c):
                ok &= (dl[a] >= 0) & (dl[a] < tile[a])
                dflat += np.clip(dl[a], 0, tile[a] - 1) * stride
                stride *= tile[a]
            self.dest_in_tile[i] = ok
            self.dest_tile_flat[i] = dflat
            dg_raw = [dl[a] + origin[a] for a in range(ndim_c)]
            leaves = np.zeros(n_th, dtype=bool)
            dg = []
            for a in range(ndim_c):
                if prob.axis_periodic(a):
                    dg.append(dg_raw[a] % cross_shape[a])
                else:
                    out = (dg_raw[a] < 0) | (dg_raw[a] >= cross_shape[a])
                    leaves |= out
                    dg.append(np.clip(dg_raw[a], 0, cross_shape[a] - 1))
            self.dest_gc.append(dg)
            if prob.mode != "masked":
                self.dest_cross_solid[i] = prob.is_solid(
                    kernel._coords_from_cross(dg, pad_rows)
                )
            self.dest_leaves_domain[i] = leaves

        # Tile nodes (no halo) in tile-flat order, for finalize.
        order = np.argsort(self.tile_flat_of_node[self.in_tile])
        sel = np.where(self.in_tile)[0][order]
        self.tile_sel = sel                       # tile+halo index -> sorted tile nodes
        self.tile_cross_flat = self.cross_flat[sel]
        self.tile_cross_solid = self.cross_solid[sel]
        self.tile_gc = [g[sel] for g in gc]

        # Inlet / outlet bookkeeping (channel mode): tile-node positions on
        # the global x extremes.
        if prob.mode == "channel":
            gx = self.tile_gc[0]
            self.inlet_nodes = np.where(gx == 0)[0]
            self.outlet_nodes = np.where(gx == cross_shape[0] - 1)[0]
            if self.outlet_nodes.size and tile[0] < 2:
                raise ValueError(
                    "outlet columns need a tile at least 2 nodes wide in x"
                )
        else:
            self.inlet_nodes = np.empty(0, dtype=np.int64)
            self.outlet_nodes = np.empty(0, dtype=np.int64)

    def _full_coords(self, rows: np.ndarray) -> tuple[np.ndarray, ...]:
        return (*self.gc, rows)


class _ColumnState:
    """Per-column mutable state for one timestep: the shared-memory ring
    (plus the wrap cache on periodic domains)."""

    def __init__(self, geo: _ColumnGeometry, w_t: int, q: int):
        self.ring = np.zeros((geo.n_tile, w_t + 2, q))
        self.wrap_cache: dict[int, np.ndarray] = {}


class MRKernel:
    """Column/tile moment-representation kernel (MR-P or MR-R)."""

    def __init__(self, problem: KernelProblem, device: GPUDevice,
                 scheme: str = "MR-P", tile_cross: tuple[int, ...] | None = None,
                 w_t: int = 1, tracker: MemoryTracker | None = None,
                 rho0: np.ndarray | float = 1.0, u0: np.ndarray | None = None,
                 telemetry=None):
        if scheme not in ("MR-P", "MR-R"):
            raise ValueError(f"scheme must be 'MR-P' or 'MR-R', got {scheme!r}")
        self.problem = problem
        self.device = device
        self.scheme = scheme
        self.tracker = tracker if tracker is not None else MemoryTracker()
        self.telemetry = telemetry if telemetry is not None else NULL_TELEMETRY
        lat = problem.lat
        if lat.reach > 1:
            raise ValueError(
                f"{lat.name} is a multi-speed lattice: the MR column kernel "
                f"uses one-node cross halos and a (w_t+2)-row ring, which "
                f"only carry |c| <= 1 links; use the reference MR solvers "
                f"for multi-speed lattices"
            )
        self.shape = problem.shape
        self.cross_shape = problem.shape[:-1]
        self.r_extent = problem.shape[-1]
        self.r_mid = self.r_extent // 2
        self.n = problem.n_nodes
        self.nodes_per_row = int(np.prod(self.cross_shape))

        self.tile_cross = tuple(tile_cross) if tile_cross else default_tile(self.shape)
        if len(self.tile_cross) != lat.d - 1:
            raise ValueError(
                f"tile_cross must have {lat.d - 1} entries, got {self.tile_cross}"
            )
        for a, t in enumerate(self.tile_cross):
            if self.cross_shape[a] % t != 0:
                raise ValueError(
                    f"tile extent {t} does not divide domain extent "
                    f"{self.cross_shape[a]} on cross axis {a}"
                )
        self.w_t = int(w_t)
        if self.r_extent % self.w_t != 0:
            raise ValueError(
                f"window tile height {self.w_t} does not divide the window "
                f"extent {self.r_extent}"
            )
        self.n_tiles = self.r_extent // self.w_t

        # Launch geometry — thread count and shared size per Section 3.2.
        threads = int(np.prod([t + 2 for t in self.tile_cross])) * self.w_t
        shared = int(np.prod(self.tile_cross)) * (self.w_t + 2) * lat.q * 8
        if problem.mode in ("periodic", "masked"):
            # Wrap cache: post-collision f of the first two rows (tile+halo).
            shared += 2 * int(np.prod([t + 2 for t in self.tile_cross])) * lat.q * 8
        n_cols = 1
        for a, t in enumerate(self.tile_cross):
            n_cols *= self.cross_shape[a] // t
        self.n_columns = n_cols
        self.config = LaunchConfig(n_cols, threads, shared)
        validate_launch(device, self.config)
        self.occupancy = occupancy(device, self.config)

        # Global moment arrays with circular-shift margin.
        self.shift_rows = 2 * self.w_t
        self.shift_elems = self.shift_rows * self.nodes_per_row
        self.array_len = self.n + self.shift_elems
        self.read_base = 0

        from ...core.equilibrium import equilibrium_moments

        rho = np.array(np.broadcast_to(np.asarray(rho0, dtype=np.float64),
                                       self.shape))
        u = np.zeros((lat.d, *self.shape)) if u0 is None else np.array(u0, float)
        mesh = np.meshgrid(*[np.arange(s) for s in self.shape], indexing="ij")
        solid0 = problem.is_solid(tuple(mesh))
        rho[solid0] = 1.0
        u[:, solid0] = 0.0
        m_eq = equilibrium_moments(lat, rho, u)
        self.moments = [
            GlobalArray(f"moment{m}", self.array_len, self.tracker,
                        init=m_eq[m].ravel(order="F"))
            for m in range(lat.n_moments)
        ]
        # Complex geometries: uint8 node-type grid fetched per tile+halo
        # read (traffic counted; solidity logic uses the host-side mask).
        self.node_types: GlobalArray | None = None
        if problem.mode == "masked":
            self.node_types = GlobalArray(
                "node_type", self.n, self.tracker,
                init=problem.solid_mask.ravel(order="F").astype(np.float64),
                itemsize=1,
            )

        # Column geometries.
        origins = [()]
        for a, t in enumerate(self.tile_cross):
            origins = [o + (s,) for o in origins
                       for s in range(0, self.cross_shape[a], t)]
        self._geos = [_ColumnGeometry(self, o) for o in origins]
        self.time = 0

    # ------------------------------------------------------------------
    # Index helpers
    # ------------------------------------------------------------------
    def _coords_from_cross(self, gc: list[np.ndarray], rows: np.ndarray
                           ) -> tuple[np.ndarray, ...]:
        return (*gc, rows)

    def _node_index(self, cross_flat: np.ndarray, rows: np.ndarray) -> np.ndarray:
        return rows.astype(np.int64) * self.nodes_per_row + cross_flat

    def _row_solid(self, rows: np.ndarray) -> np.ndarray:
        """Solidity contributed by the window axis (walls in channel mode)."""
        if self.problem.mode != "channel" or self.problem.lat.d < 2:
            return np.zeros(np.shape(rows), dtype=bool)
        rows = np.asarray(rows)
        return (rows <= 0) | (rows >= self.r_extent - 1)

    def _solid_src(self, geo: "_ColumnGeometry", rows_rep: np.ndarray
                   ) -> np.ndarray:
        """Solidity of the tile+halo source nodes at the given rows."""
        n_th = geo.lc[0].size
        rep = rows_rep.size // n_th
        if self.problem.mode == "masked":
            gc = [np.tile(g, rep) for g in geo.gc]
            solid = self.problem.is_solid((*gc, rows_rep % self.r_extent))
            return solid | np.tile(~geo.in_domain, rep)
        return np.tile(geo.cross_solid, rep) | self._row_solid(rows_rep)

    # ------------------------------------------------------------------
    # Timestep driver
    # ------------------------------------------------------------------
    def step(self) -> LaunchStats:
        lat = self.problem.lat
        self.tracker.flush_cache()   # no inter-step reuse at paper scales
        saved = self.tracker.report
        self.tracker.report = type(saved)()

        write_base = (self.read_base - self.shift_elems) % self.array_len
        states = [_ColumnState(g, self.w_t, lat.q) for g in self._geos]

        with self.telemetry.phase("gpu.step"):
            for tau in range(self.n_tiles):
                for geo, st in zip(self._geos, states):
                    self._column_iteration(geo, st, tau, write_base)
            for geo, st in zip(self._geos, states):
                self._column_epilogue(geo, st, write_base)

        traffic = self.tracker.report
        self.tracker.report = saved + traffic
        self.read_base = write_base
        self.time += 1
        stats = LaunchStats(
            config=self.config,
            traffic=traffic,
            n_nodes=self.n,
            kernel_name=f"{self.scheme}/{lat.name}",
        )
        publish_launch(self.telemetry, stats)
        return stats

    # ------------------------------------------------------------------
    # Column phases
    # ------------------------------------------------------------------
    def _collide_and_map(self, m_nodes: np.ndarray) -> np.ndarray:
        """Moment-space collision + reconstruction for a node set (Q, n)."""
        if self.scheme == "MR-P":
            m_star = collide_moments_projective(self.problem.lat, m_nodes,
                                                self.problem.tau)
            return f_from_moments(self.problem.lat, m_star)
        return collide_moments_recursive(self.problem.lat, m_nodes,
                                         self.problem.tau)

    def _column_iteration(self, geo: _ColumnGeometry, st: _ColumnState,
                          tau: int, write_base: int) -> None:
        lat = self.problem.lat
        w = self.w_t
        ring_h = w + 2
        periodic_w = self.problem.mode in ("periodic", "masked")

        # 1. Zero the ring slots of rows entering the window (free: shared
        # memory initialization).
        if tau == 0:
            st.ring[:] = 0.0
        else:
            for r in range(tau * w + 1, (tau + 1) * w + 1):
                st.ring[:, r % ring_h, :] = 0.0

        # 2. Read moments of tile+halo nodes for the source rows, collide,
        # map to distributions, and scatter into the ring.
        src_rows = np.arange(tau * w, (tau + 1) * w)
        n_th = geo.lc[0].size
        rows_rep = np.repeat(src_rows, n_th)
        cross_rep = np.tile(geo.cross_flat, w)
        in_dom = np.tile(geo.in_domain, w)
        node_idx = self._node_index(cross_rep[in_dom], rows_rep[in_dom])

        m_nodes = np.empty((lat.n_moments, node_idx.size))
        for m in range(lat.n_moments):
            m_nodes[m] = self.moments[m].read(node_idx, base=self.read_base)
        if self.node_types is not None:
            # Counted geometry fetch (uint8 per tile+halo node).
            self.node_types.read(node_idx % self.n)

        solid_src = self._solid_src(geo, rows_rep)
        f_star = np.zeros((lat.q, w * n_th))
        f_star[:, in_dom] = self._collide_and_map(m_nodes)

        if periodic_w and tau * w <= 1:
            for k, r in enumerate(src_rows):
                if r <= 1:
                    st.wrap_cache[int(r)] = f_star[:, k * n_th:(k + 1) * n_th].copy()

        self._scatter(geo, st, f_star, rows_rep, solid_src, tau)

        # 3. Finalize completed rows and write their moments back.
        lo = max(tau * w - 1, 1 if periodic_w else 0)
        hi = min((tau + 1) * w - 2, self.r_extent - 1)
        for r in range(lo, hi + 1):
            self._finalize_row(geo, st, r, r, write_base)

    def _scatter(self, geo: _ColumnGeometry, st: _ColumnState,
                 f_star: np.ndarray, rows_rep: np.ndarray,
                 solid_src: np.ndarray, tau: int,
                 plain_cw: tuple[int, ...] | None = None,
                 row_offset: int = 0,
                 reflect_rows: tuple[int, ...] | None = None) -> None:
        """Stream post-collision components into the shared-memory ring.

        ``rows_rep`` are the source rows per node (tile+halo repeated);
        ``row_offset`` shifts destination rows into virtual coordinates
        during the periodic epilogue. ``plain_cw`` restricts the regular
        deliveries to components with those window velocities, and
        ``reflect_rows`` restricts bounce-back reflections to sources on
        those (virtual) rows — both used by the wrap replay, which must
        re-deliver exactly what the first iteration deferred.
        """
        lat = self.problem.lat
        ring_h = self.w_t + 2
        periodic_w = self.problem.mode in ("periodic", "masked")
        n_th = geo.lc[0].size
        rep = rows_rep.size // n_th
        fluid_src = ~solid_src
        in_tile = np.tile(geo.in_tile, rep)
        tile_flat = np.tile(geo.tile_flat_of_node, rep)
        defer_wrap = periodic_w and tau == 0 and row_offset == 0

        for i in range(lat.q):
            cw = lat.c[i, -1]
            dest_rows = rows_rep + cw + row_offset
            src_rows_v = rows_rep + row_offset

            # Regular delivery: destination inside this column's tile.
            deliver = fluid_src & np.tile(geo.dest_in_tile[i], rep)
            if plain_cw is not None and cw not in plain_cw:
                deliver = np.zeros_like(deliver)
            if self.problem.mode == "masked":
                dgc = [np.tile(g, rep) for g in geo.dest_gc[i]]
                dest_solid = self.problem.is_solid(
                    (*dgc, dest_rows % self.r_extent)
                )
            else:
                dest_solid = np.tile(geo.dest_cross_solid[i], rep)
                if not periodic_w:
                    dest_solid = dest_solid | self._row_solid(
                        dest_rows - row_offset
                    )
            dest_gone = np.tile(geo.dest_leaves_domain[i], rep)

            if defer_wrap:
                # Deferred wrap writes (ring rows -1 and 0) are replayed
                # from the wrap cache in the epilogue.
                deliver = deliver & (dest_rows >= 1)

            plain = deliver & ~dest_solid & ~dest_gone
            if plain.any():
                slot = dest_rows[plain] % ring_h
                dst = np.tile(geo.dest_tile_flat[i], rep)[plain]
                st.ring[dst, slot, i] = f_star[i, plain]

            # Fused half-way bounce-back: wall-bound components reflect into
            # the source node's opposite slot (landing row = source row).
            reflect = fluid_src & dest_solid & ~dest_gone & in_tile
            if defer_wrap:
                reflect = reflect & (src_rows_v >= 1)
            if reflect_rows is not None:
                reflect = reflect & np.isin(src_rows_v, reflect_rows)
            if reflect.any():
                ibar = lat.opposite[i]
                slot = src_rows_v[reflect] % ring_h
                st.ring[tile_flat[reflect], slot, ibar] = f_star[i, reflect]

    def _column_epilogue(self, geo: _ColumnGeometry, st: _ColumnState,
                         write_base: int) -> None:
        """Finish the sweep: tail rows, plus wrap-around replay when the
        window axis is periodic."""
        lat = self.problem.lat
        w = self.w_t
        R = self.r_extent
        n_th = geo.lc[0].size

        if self.problem.mode in ("periodic", "masked"):
            # Replay exactly what the first iteration deferred:
            #   virtual src R   (= row 0): plain deliveries with c_w in
            #     {-1, 0} (ring rows R-1 and R) plus *all* of row 0's
            #     bounce-back reflections (they land on ring row R);
            #   virtual src R+1 (= row 1): plain deliveries with c_w = -1
            #     (ring row R); row 1's reflections were never deferred.
            for r, allowed in ((0, (-1, 0)), (1, (-1,))):
                f_star = st.wrap_cache[r]
                rows_rep = np.full(n_th, r)
                solid_src = self._solid_src(geo, rows_rep)
                self._scatter(
                    geo, st, f_star, rows_rep, solid_src, tau=-1,
                    plain_cw=allowed,
                    row_offset=R,
                    reflect_rows=(R,) if r == 0 else (),
                )
            # Finalize the deferred rows: R-1, then row 0 via its virtual
            # ring position R.
            self._finalize_row(geo, st, R - 1, R - 1, write_base)
            self._finalize_row(geo, st, R, 0, write_base)
        else:
            # Wall mode: only the last (solid) row remains.
            self._finalize_row(geo, st, R - 1, R - 1, write_base)

    def _finalize_row(self, geo: _ColumnGeometry, st: _ColumnState,
                      ring_row: int, real_row: int, write_base: int) -> None:
        """Recompute and write back the moments of one completed row."""
        lat = self.problem.lat
        ring_h = self.w_t + 2
        f_nodes = st.ring[:, ring_row % ring_h, :].T.copy()   # (Q, n_tile)

        if self.problem.mode == "masked":
            solid = self.problem.is_solid(
                (*geo.tile_gc, np.full(geo.n_tile, real_row))
            )
        else:
            solid = geo.tile_cross_solid | self._row_solid(
                np.full(geo.n_tile, real_row)
            )
        fluid = ~solid

        if self.problem.mode == "channel" and fluid.any():
            self._apply_channel_io(geo, f_nodes, real_row, fluid)

        m_vals = np.empty((lat.n_moments, geo.n_tile))
        if fluid.any():
            m_vals[:, fluid] = lat.moment_matrix @ f_nodes[:, fluid]
        m_vals[:, solid] = 0.0
        m_vals[0, solid] = 1.0

        rows = np.full(geo.n_tile, real_row, dtype=np.int64)
        node_idx = self._node_index(geo.tile_cross_flat, rows)
        for m in range(lat.n_moments):
            self.moments[m].write(node_idx, m_vals[m], base=write_base)

    def _apply_channel_io(self, geo: _ColumnGeometry, f_nodes: np.ndarray,
                          row: int, fluid: np.ndarray) -> None:
        """Inlet/outlet NEBB reconstruction on ring data at finalize time."""
        if self._row_solid(np.array([row]))[0]:
            return
        inlet = geo.inlet_nodes[fluid[geo.inlet_nodes]] if geo.inlet_nodes.size else geo.inlet_nodes
        if inlet.size:
            cross_idx = tuple(
                [geo.tile_gc[a][inlet] for a in range(1, len(geo.tile_gc))]
                + [np.full(inlet.size, row)]
            )
            f_in = f_nodes[:, inlet]
            self.problem.apply_inlet_nebb(f_in, cross_idx)
            f_nodes[:, inlet] = f_in
        outlet = geo.outlet_nodes[fluid[geo.outlet_nodes]] if geo.outlet_nodes.size else geo.outlet_nodes
        if outlet.size:
            f_out = f_nodes[:, outlet]
            u_t = None
            if self.problem.outlet_tangential == "extrapolate":
                # The first interior plane (x = Nx-2) lives in the same
                # column tile; read its post-stream state from the ring.
                _, u_t = macroscopic(self.problem.lat, f_nodes[:, outlet - 1])
            self.problem.apply_outlet_nebb(f_out, u_t)
            f_nodes[:, outlet] = f_out

    # ------------------------------------------------------------------
    # Host-side accessors
    # ------------------------------------------------------------------
    def moment_field(self) -> np.ndarray:
        """Host copy of the current moments as an ``(M, *shape)`` field."""
        lat = self.problem.lat
        idx = (np.arange(self.n) + self.read_base) % self.array_len
        out = np.empty((lat.n_moments, *self.shape))
        for m in range(lat.n_moments):
            out[m] = self.moments[m].data[idx].reshape(self.shape, order="F")
        return out

    def macroscopic_fields(self) -> tuple[np.ndarray, np.ndarray]:
        mf = self.moment_field()
        lat = self.problem.lat
        return mf[0], mf[1:1 + lat.d] / mf[0]

    @property
    def global_state_bytes(self) -> int:
        """Device-resident moment state (single shifted array)."""
        return sum(a.nbytes for a in self.moments)
