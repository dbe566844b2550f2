"""Integration: virtual-GPU kernels vs reference solvers.

The central correctness claim of the reproduction: the ST pull kernel
(Algorithm 1) and the MR column kernel (Algorithm 2, with shared-memory
streaming, cross halos, sliding window and circular array shifting) must
produce the *same simulation states* as the plain vectorized reference
solvers, for every scheme, dimension and boundary setup.
"""

import numpy as np
import pytest

from repro.gpu import KernelProblem, MRKernel, STKernel, V100
from repro.lattice import get_lattice
from repro.service.registry import build_single
from repro.solver.presets import channel_inlet_profile

STEPS = 4


def periodic_setup(lattice_name, shape, tau=0.8, seed=11):
    lat = get_lattice(lattice_name)
    rng = np.random.default_rng(seed)
    rho0 = 1 + 0.03 * rng.standard_normal(shape)
    u0 = 0.03 * rng.standard_normal((lat.d, *shape))
    prob = KernelProblem(lat, shape, tau, mode="periodic")
    return lat, prob, rho0, u0


def channel_setup(lattice_name, shape, tau=0.9, u_max=0.04,
                  outlet_tangential="zero"):
    lat = get_lattice(lattice_name)
    u_in = channel_inlet_profile(lat, shape, u_max)
    prob = KernelProblem(lat, shape, tau, mode="channel", u_inlet=u_in,
                         outlet_tangential=outlet_tangential)
    u0 = np.zeros((lat.d, *shape))
    u0[:] = u_in[(slice(None), None) + (slice(None),) * (lat.d - 1)]
    u0[:, prob.node_type_grid() == 1] = 0.0
    ref = build_single("channel", "ST", lat, shape, tau=tau, u_max=u_max,
                       bc_method="nebb", outlet_tangential=outlet_tangential)
    return lat, prob, u0, ref


class TestSTKernel:
    @pytest.mark.parametrize("lattice_name,shape", [
        ("D2Q9", (20, 16)),
        ("D3Q19", (10, 8, 6)),
        ("D3Q27", (8, 6, 5)),
    ])
    def test_periodic_matches_reference(self, lattice_name, shape):
        lat, prob, rho0, u0 = periodic_setup(lattice_name, shape)
        ref = build_single("periodic", "ST", lat, shape, tau=0.8, rho0=rho0,
                           u0=u0)
        kernel = STKernel(prob, V100, rho0=rho0, u0=u0)
        for _ in range(STEPS):
            ref.step()
            kernel.step()
        assert np.abs(kernel.distribution() - ref.f).max() < 1e-13

    @pytest.mark.parametrize("lattice_name,shape", [
        ("D2Q9", (24, 12)),
        ("D3Q19", (12, 8, 7)),
    ])
    @pytest.mark.parametrize("tangential", ["zero", "extrapolate"])
    def test_channel_matches_reference(self, lattice_name, shape, tangential):
        lat, prob, u0, ref = channel_setup(lattice_name, shape,
                                           outlet_tangential=tangential)
        kernel = STKernel(prob, V100, rho0=1.0, u0=u0)
        for _ in range(STEPS):
            ref.step()
            kernel.step()
        assert np.abs(kernel.distribution() - ref.f).max() < 1e-12

    def test_block_size_does_not_change_results(self):
        lat, prob, rho0, u0 = periodic_setup("D2Q9", (16, 12))
        k1 = STKernel(prob, V100, block_size=64, rho0=rho0, u0=u0)
        k2 = STKernel(prob, V100, block_size=512, rho0=rho0, u0=u0)
        for _ in range(STEPS):
            k1.step()
            k2.step()
        assert np.abs(k1.distribution() - k2.distribution()).max() < 1e-15

    def test_traffic_near_ideal(self):
        """ST moves 2Q doubles per node (Table 2)."""
        lat, prob, rho0, u0 = periodic_setup("D2Q9", (64, 64))
        from repro.gpu import MemoryTracker

        tracker = MemoryTracker(l2_bytes=int(V100.l2_kb * 1024))
        kernel = STKernel(prob, V100, tracker=tracker, rho0=rho0, u0=u0)
        kernel.step()
        stats = kernel.step()
        per_node = stats.traffic.sector_bytes_total / stats.n_nodes
        assert per_node == pytest.approx(144, rel=0.02)


class TestMRKernel:
    @pytest.mark.parametrize("scheme", ["MR-P", "MR-R"])
    @pytest.mark.parametrize("lattice_name,shape,tile", [
        ("D2Q9", (16, 14), (8,)),
        ("D3Q19", (10, 8, 7), (5, 4)),
        ("D3Q27", (8, 6, 5), (4, 3)),
    ])
    def test_periodic_matches_reference(self, scheme, lattice_name, shape, tile):
        lat, prob, rho0, u0 = periodic_setup(lattice_name, shape)
        ref = build_single("periodic", scheme, lat, shape, tau=0.8, rho0=rho0,
                           u0=u0)
        kernel = MRKernel(prob, V100, scheme=scheme, tile_cross=tile,
                          rho0=rho0, u0=u0)
        for _ in range(STEPS):
            ref.step()
            kernel.step()
        assert np.abs(kernel.moment_field() - ref.m).max() < 1e-13

    @pytest.mark.parametrize("w_t", [1, 2, 3, 7])
    def test_window_tile_height_invariance(self, w_t):
        """All window tile heights give identical physics (ring logic)."""
        shape = (12, 21)                   # R = 21 divisible by 1, 3, 7
        if 21 % w_t:
            shape = (12, 20)               # for w_t = 2: R = 20
        lat, prob, rho0, u0 = periodic_setup("D2Q9", shape)
        ref = build_single("periodic", "MR-P", lat, shape, tau=0.8, rho0=rho0,
                           u0=u0)
        kernel = MRKernel(prob, V100, scheme="MR-P", tile_cross=(6,),
                          w_t=w_t, rho0=rho0, u0=u0)
        for _ in range(STEPS):
            ref.step()
            kernel.step()
        assert np.abs(kernel.moment_field() - ref.m).max() < 1e-13

    def test_cross_tile_invariance(self):
        shape = (24, 10)
        lat, prob, rho0, u0 = periodic_setup("D2Q9", shape)
        fields = []
        for tile in ((4,), (8,), (24,)):
            k = MRKernel(prob, V100, scheme="MR-P", tile_cross=tile,
                         rho0=rho0, u0=u0)
            for _ in range(STEPS):
                k.step()
            fields.append(k.moment_field())
        assert np.abs(fields[0] - fields[1]).max() < 1e-14
        assert np.abs(fields[0] - fields[2]).max() < 1e-14

    @pytest.mark.parametrize("scheme", ["MR-P", "MR-R"])
    @pytest.mark.parametrize("lattice_name,shape,tile", [
        ("D2Q9", (24, 12), (8,)),
        ("D3Q19", (12, 8, 7), (6, 4)),
    ])
    @pytest.mark.parametrize("tangential", ["zero", "extrapolate"])
    def test_channel_matches_reference(self, scheme, lattice_name, shape,
                                       tile, tangential):
        lat = get_lattice(lattice_name)
        u_in = channel_inlet_profile(lat, shape, 0.04)
        prob = KernelProblem(lat, shape, 0.9, mode="channel", u_inlet=u_in,
                             outlet_tangential=tangential)
        u0 = np.zeros((lat.d, *shape))
        u0[:] = u_in[(slice(None), None) + (slice(None),) * (lat.d - 1)]
        u0[:, prob.node_type_grid() == 1] = 0.0
        ref = build_single("channel", scheme, lat, shape, tau=0.9, u_max=0.04,
                           bc_method="nebb", outlet_tangential=tangential)
        kernel = MRKernel(prob, V100, scheme=scheme, tile_cross=tile,
                          rho0=1.0, u0=u0)
        for _ in range(STEPS):
            ref.step()
            kernel.step()
        assert np.abs(kernel.moment_field() - ref.m).max() < 1e-12

    def test_traffic_near_ideal_with_l2(self):
        """With the L2 model, MR DRAM traffic is 2M doubles per node: the
        halo reads are shared between neighbouring columns (Table 2)."""
        from repro.gpu import MemoryTracker

        lat, prob, rho0, u0 = periodic_setup("D2Q9", (64, 64))
        tracker = MemoryTracker(l2_bytes=int(V100.l2_kb * 1024))
        kernel = MRKernel(prob, V100, scheme="MR-P", tile_cross=(16,),
                          tracker=tracker, rho0=rho0, u0=u0)
        kernel.step()
        stats = kernel.step()
        per_node = stats.traffic.sector_bytes_total / stats.n_nodes
        assert per_node == pytest.approx(96, rel=0.01)

    def test_traffic_includes_halo_without_l2(self):
        """Without a cache model, the logical reads carry the exact halo
        amplification factor (tile+halo)/tile, and the sector counts are
        larger still (misaligned halo fetches)."""
        lat, prob, rho0, u0 = periodic_setup("D2Q9", (64, 64))
        kernel = MRKernel(prob, V100, scheme="MR-P", tile_cross=(16,),
                          rho0=rho0, u0=u0)
        kernel.step()
        stats = kernel.step()
        logical_read = stats.traffic.bytes_read / stats.n_nodes
        assert logical_read == pytest.approx(48 * 18 / 16, rel=1e-6)
        assert stats.traffic.sector_bytes_read > stats.traffic.bytes_read

    def test_divisibility_validated(self):
        lat, prob, *_ = periodic_setup("D2Q9", (16, 14))
        with pytest.raises(ValueError, match="divide"):
            MRKernel(prob, V100, tile_cross=(5,))
        with pytest.raises(ValueError, match="window"):
            MRKernel(prob, V100, tile_cross=(8,), w_t=4)

    def test_multispeed_rejected(self):
        lat, prob, *_ = periodic_setup("D3Q39", (8, 8, 8))
        with pytest.raises(ValueError, match="multi-speed"):
            MRKernel(prob, V100, tile_cross=(4, 4))

    def test_3d_window_tile_height(self):
        """w_t = 2 in 3D matches the reference like w_t = 1 does."""
        lat, prob, rho0, u0 = periodic_setup("D3Q19", (8, 6, 6))
        ref = build_single("periodic", "MR-P", lat, (8, 6, 6), tau=0.8,
                           rho0=rho0, u0=u0)
        kernel = MRKernel(prob, V100, scheme="MR-P", tile_cross=(4, 3),
                          w_t=2, rho0=rho0, u0=u0)
        for _ in range(STEPS):
            ref.step()
            kernel.step()
        assert np.abs(kernel.moment_field() - ref.m).max() < 1e-13

    def test_mi100_device_model(self):
        """Kernels validate and run against the MI100 model too."""
        from repro.gpu import MI100

        lat, prob, rho0, u0 = periodic_setup("D2Q9", (16, 10))
        ref = build_single("periodic", "MR-R", lat, (16, 10), tau=0.8,
                           rho0=rho0, u0=u0)
        kernel = MRKernel(prob, MI100, scheme="MR-R", tile_cross=(8,),
                          rho0=rho0, u0=u0)
        for _ in range(STEPS):
            ref.step()
            kernel.step()
        assert np.abs(kernel.moment_field() - ref.m).max() < 1e-13

    def test_st_kernel_multispeed_supported(self):
        """The pull ST kernel handles |c| > 1 (gathers with wrap)."""
        lat, prob, rho0, u0 = periodic_setup("D3Q39", (8, 7, 7))
        ref = build_single("periodic", "ST", lat, (8, 7, 7), tau=0.8,
                           rho0=rho0, u0=u0)
        kernel = STKernel(prob, V100, rho0=rho0, u0=u0)
        for _ in range(3):
            ref.step()
            kernel.step()
        assert np.abs(kernel.distribution() - ref.f).max() < 1e-13

    def test_bad_scheme(self):
        lat, prob, *_ = periodic_setup("D2Q9", (16, 14))
        with pytest.raises(ValueError, match="scheme"):
            MRKernel(prob, V100, scheme="ST")

    def test_state_bytes_smaller_than_st(self):
        """The footprint claim, at the level of allocated device arrays."""
        lat, prob, rho0, u0 = periodic_setup("D3Q19", (8, 8, 8))
        st = STKernel(prob, V100, rho0=rho0, u0=u0)
        mr = MRKernel(prob, V100, tile_cross=(4, 4), rho0=rho0, u0=u0)
        assert mr.global_state_bytes < 0.6 * st.global_state_bytes
