"""Honest wall-clock throughput of this library's components (CPU).

These are *our* Python/NumPy numbers, clearly labelled — not the paper's
GPU measurements. They document what a user should expect from the
reference solvers and how much slower the traffic-instrumented virtual-GPU
kernels are (they exist for measurement fidelity, not speed).
"""

import numpy as np
import pytest

from repro.gpu import KernelProblem, MRKernel, STKernel, V100
from repro.lattice import get_lattice
from repro.service.registry import build_single
from repro.validation import taylor_green_fields


def _mflups(n_fluid, result_seconds):
    return n_fluid / result_seconds / 1e6


class TestReferenceSolvers:
    @pytest.mark.parametrize("scheme", ["ST", "MR-P", "MR-R"])
    def test_d2q9_step(self, benchmark, scheme):
        shape = (128, 128)
        tau = 0.8
        rho0, u0 = taylor_green_fields(shape, 0.0, (tau - 0.5) / 3, 0.03)
        solver = build_single("periodic", scheme, "D2Q9", shape, tau=tau,
                              rho0=rho0, u0=u0)
        benchmark(solver.step)
        assert np.isfinite(solver.density()).all()

    @pytest.mark.parametrize("scheme", ["ST", "MR-P", "MR-R"])
    def test_d3q19_step(self, benchmark, scheme):
        solver = build_single("channel", scheme, "D3Q19", (32, 24, 24),
                              tau=0.8)
        benchmark(solver.step)
        assert np.isfinite(solver.density()).all()

    def test_d2q9_channel_step(self, benchmark):
        solver = build_single("channel", "MR-P", "D2Q9", (192, 66), tau=0.8)
        benchmark(solver.step)
        assert solver.diagnostics.max_speed() < 0.3


class TestVirtualGPUKernels:
    def test_st_kernel_step(self, benchmark):
        lat = get_lattice("D2Q9")
        prob = KernelProblem(lat, (64, 64), 0.8, mode="periodic")
        kernel = STKernel(prob, V100)
        benchmark(kernel.step)

    def test_mr_kernel_step(self, benchmark):
        lat = get_lattice("D2Q9")
        prob = KernelProblem(lat, (64, 64), 0.8, mode="periodic")
        kernel = MRKernel(prob, V100, tile_cross=(16,), w_t=8)
        benchmark(kernel.step)

    def test_aa_kernel_step(self, benchmark):
        from repro.gpu import AAKernel

        lat = get_lattice("D2Q9")
        prob = KernelProblem(lat, (64, 64), 0.8, mode="periodic")
        kernel = AAKernel(prob, V100)
        benchmark(kernel.step)

    def test_indirect_kernel_step(self, benchmark):
        from repro.gpu import STIndirectKernel

        lat = get_lattice("D2Q9")
        prob = KernelProblem(lat, (64, 64), 0.8, mode="periodic")
        kernel = STIndirectKernel(prob, V100)
        benchmark(kernel.step)


class TestExtensions:
    def test_refined_step(self, benchmark):
        from repro.refinement import RefinedTaylorGreen2D

        tg = RefinedTaylorGreen2D(shape=(48, 48), band=(16, 32))
        benchmark(tg.step)

    def test_power_law_step(self, benchmark):
        from repro.geometry import periodic_box
        from repro.solver import PowerLawMRPSolver

        lat = get_lattice("D2Q9")
        rng = np.random.default_rng(0)
        s = PowerLawMRPSolver(lat, periodic_box((96, 96)), 0.7,
                              consistency=0.05, exponent=0.7,
                              u0=0.02 * rng.standard_normal((2, 96, 96)))
        benchmark(s.step)


class TestCoreKernels:
    def test_collision_bgk_d3q19(self, benchmark, rng=np.random.default_rng(0)):
        from repro.core import BGKCollision, equilibrium

        lat = get_lattice("D3Q19")
        shape = (24, 24, 24)
        rho = 1 + 0.02 * rng.standard_normal(shape)
        u = 0.02 * rng.standard_normal((3, *shape))
        f = equilibrium(lat, rho, u)
        op = BGKCollision(0.8)
        benchmark(op, lat, f)

    def test_collision_recursive_d3q19(self, benchmark,
                                       rng=np.random.default_rng(0)):
        from repro.core import RecursiveRegularizedCollision, equilibrium

        lat = get_lattice("D3Q19")
        shape = (24, 24, 24)
        rho = 1 + 0.02 * rng.standard_normal(shape)
        u = 0.02 * rng.standard_normal((3, *shape))
        f = equilibrium(lat, rho, u)
        op = RecursiveRegularizedCollision(0.8)
        benchmark(op, lat, f)

    def test_moment_projection_d3q19(self, benchmark,
                                     rng=np.random.default_rng(0)):
        from repro.core import moments_from_f

        lat = get_lattice("D3Q19")
        f = rng.random((19, 32, 32, 32))
        benchmark(moments_from_f, lat, f)

    def test_streaming_d3q19(self, benchmark, rng=np.random.default_rng(0)):
        from repro.core import stream_push

        lat = get_lattice("D3Q19")
        f = rng.random((19, 32, 32, 32))
        out = np.empty_like(f)
        benchmark(stream_push, lat, f, out)
