"""Property-based tests for the virtual-GPU substrate."""

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.gpu import (KernelProblem, LaunchConfig, MemoryTracker, MRKernel,
                       V100, occupancy)
from repro.gpu.memory import ITEM_BYTES, SECTOR_BYTES, GlobalArray
from repro.lattice import get_lattice


class TestMemoryProperties:
    @given(st.lists(st.integers(0, 999), min_size=1, max_size=200))
    @settings(max_examples=50, deadline=None)
    def test_sector_count_bounds(self, indices):
        """unique sectors <= unique elements; bytes = 8 * accesses."""
        tr = MemoryTracker()
        a = GlobalArray("x", 1000, tr)
        idx = np.array(indices)
        a.read(idx)
        r = tr.report
        assert r.bytes_read == idx.size * ITEM_BYTES
        n_unique = np.unique(idx).size
        assert 1 <= r.read_transactions <= n_unique
        # Sector bytes always cover the logical unique bytes.
        assert r.read_transactions * SECTOR_BYTES >= n_unique * ITEM_BYTES / 4

    @given(st.lists(st.integers(0, 499), min_size=1, max_size=100),
           st.integers(0, 10_000))
    @settings(max_examples=50, deadline=None)
    def test_write_read_roundtrip_with_base(self, indices, base):
        tr = MemoryTracker()
        a = GlobalArray("x", 500, tr)
        idx = np.unique(np.array(indices))
        vals = np.arange(idx.size, dtype=float)
        a.write(idx, vals, base=base)
        np.testing.assert_array_equal(a.read(idx, base=base), vals)

    @given(st.lists(st.integers(0, 99), min_size=1, max_size=60))
    @settings(max_examples=30, deadline=None)
    def test_l2_second_access_free(self, indices):
        tr = MemoryTracker(l2_bytes=64 * 1024)
        a = GlobalArray("x", 100, tr)
        idx = np.array(indices)
        a.read(idx)
        first = tr.report.read_transactions
        a.read(idx)
        assert tr.report.read_transactions == first


class TestOccupancyProperties:
    @given(st.integers(1, 5000), st.integers(32, 1024),
           st.integers(0, 96 * 1024))
    @settings(max_examples=80, deadline=None)
    def test_occupancy_invariants(self, blocks, threads, shared):
        cfg = LaunchConfig(blocks, threads, shared)
        try:
            occ = occupancy(V100, cfg)
        except ValueError:
            return                         # kernel cannot run at all
        assert occ.blocks_per_sm >= 1
        assert occ.active_blocks <= blocks
        assert occ.active_blocks <= occ.blocks_per_sm * V100.sm_count
        assert 0 < occ.tail_utilization <= 1
        assert occ.waves >= 1
        # Resources actually fit.
        if shared:
            assert occ.blocks_per_sm * shared <= V100.shared_mem_per_sm_bytes
        assert occ.blocks_per_sm * threads <= max(
            V100.max_threads_per_sm, threads
        )


class TestKernelStateProperties:
    @given(st.integers(0, 2 ** 31 - 1))
    @settings(max_examples=8, deadline=None)
    def test_st_mr_agree_on_random_periodic_states(self, seed):
        """For any random smooth initial state, the ST kernel (with BGK)
        and reference stay finite and mass-conserving; the MR kernel agrees
        with its reference bit-tightly."""
        lat = get_lattice("D2Q9")
        shape = (12, 10)
        rng = np.random.default_rng(seed)
        rho0 = 1 + 0.05 * rng.standard_normal(shape)
        u0 = 0.04 * rng.standard_normal((2, *shape))
        prob = KernelProblem(lat, shape, 0.8, mode="periodic")

        from repro.service.registry import build_single

        ref = build_single("periodic", "MR-P", lat, shape, tau=0.8, rho0=rho0,
                           u0=u0)
        kern = MRKernel(prob, V100, scheme="MR-P", tile_cross=(6,),
                        rho0=rho0, u0=u0)
        for _ in range(3):
            ref.step()
            kern.step()
        assert np.abs(kern.moment_field() - ref.m).max() < 1e-12

    @given(st.sampled_from([(4,), (6,), (12,)]), st.sampled_from([1, 2, 5]))
    @settings(max_examples=12, deadline=None)
    def test_mr_tiling_invariance(self, tile, w_t):
        """Physics must be invariant under every legal tiling choice."""
        lat = get_lattice("D2Q9")
        shape = (12, 10)
        rng = np.random.default_rng(3)
        rho0 = 1 + 0.05 * rng.standard_normal(shape)
        u0 = 0.04 * rng.standard_normal((2, *shape))
        prob = KernelProblem(lat, shape, 0.8, mode="periodic")
        base = MRKernel(prob, V100, scheme="MR-P", tile_cross=(12,), w_t=1,
                        rho0=rho0, u0=u0)
        other = MRKernel(prob, V100, scheme="MR-P", tile_cross=tile, w_t=w_t,
                         rho0=rho0, u0=u0)
        for _ in range(3):
            base.step()
            other.step()
        assert np.abs(base.moment_field() - other.moment_field()).max() < 1e-13
