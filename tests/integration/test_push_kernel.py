"""Integration: push-configuration ST kernel vs pull reference.

State convention: the push kernel's lattice holds the post-stream,
post-boundary field, so after n steps it equals one stream+boundary
application of the pull solver's post-collision state.
"""

import numpy as np
import pytest

from repro.core import stream_pull
from repro.gpu import KernelProblem, MemoryTracker, STKernel, STPushKernel, V100
from repro.lattice import get_lattice
from repro.service.registry import build_single
from repro.solver.presets import channel_inlet_profile
from repro.validation import taylor_green_fields


def expected_push_state(ref):
    """stream+boundary applied to the pull solver's current state."""
    exp = stream_pull(ref.lat, ref.f)
    for b in ref.boundaries:
        b.post_stream(ref.lat, exp, ref.f)
    return exp


class TestEquivalence:
    @pytest.mark.parametrize("lattice_name,shape", [
        ("D2Q9", (20, 16)),
        ("D3Q19", (10, 8, 6)),
    ])
    def test_periodic(self, lattice_name, shape):
        lat = get_lattice(lattice_name)
        rng = np.random.default_rng(4)
        rho0 = 1 + 0.03 * rng.standard_normal(shape)
        u0 = 0.03 * rng.standard_normal((lat.d, *shape))
        ref = build_single("periodic", "ST", lat, shape, tau=0.8, rho0=rho0,
                           u0=u0)
        prob = KernelProblem(lat, shape, 0.8, mode="periodic")
        kernel = STPushKernel(prob, V100, rho0=rho0, u0=u0)
        for _ in range(4):
            ref.step()
            kernel.step()
        assert np.abs(kernel.distribution()
                      - expected_push_state(ref)).max() < 1e-13

    @pytest.mark.parametrize("tangential", ["zero", "extrapolate"])
    def test_channel(self, tangential):
        lat = get_lattice("D2Q9")
        shape = (30, 14)
        u_in = channel_inlet_profile(lat, shape, 0.04)
        u0 = np.zeros((2, *shape))
        u0[:] = u_in[:, None, :]
        ref = build_single("channel", "ST", lat, shape, tau=0.9, u_max=0.04,
                           bc_method="nebb", outlet_tangential=tangential)
        u0[:, ref.domain.solid_mask] = 0.0
        prob = KernelProblem(lat, shape, 0.9, mode="channel", u_inlet=u_in,
                             outlet_tangential=tangential)
        kernel = STPushKernel(prob, V100, rho0=1.0, u0=u0)
        for _ in range(4):
            ref.step()
            kernel.step()
        fluid = ref.domain.fluid_mask
        diff = np.abs(kernel.distribution() - expected_push_state(ref))
        assert diff[:, fluid].max() < 1e-13

    def test_push_pull_same_macroscopic_trajectory(self):
        """rho/u agree between push and pull kernels at every step."""
        lat = get_lattice("D2Q9")
        shape = (16, 12)
        rho0, u0 = taylor_green_fields(shape, 0.0, 0.1, 0.04)
        prob = KernelProblem(lat, shape, 0.8, mode="periodic")
        pull = STKernel(prob, V100, rho0=rho0, u0=u0)
        push = STPushKernel(prob, V100, rho0=rho0, u0=u0)
        for _ in range(4):
            pull.step()
            push.step()
            r1, u1 = pull.macroscopic_fields()
            r2, u2 = push.macroscopic_fields()
            # Pull state is post-collision; push state is post-stream of
            # the same: macroscopic fields coincide (collision conserves,
            # streaming permutes).
            assert r1.sum() == pytest.approx(r2.sum(), rel=1e-13)


class TestPushTraffic:
    def test_total_traffic_close_to_pull(self):
        """Both configurations move ~2Q doubles per node; push pays a small
        write-misalignment penalty where pull's read misalignment is
        absorbed by the L2 — consistent with the paper preferring pull."""
        lat = get_lattice("D2Q9")
        prob = KernelProblem(lat, (128, 128), 0.8, mode="periodic")
        results = {}
        for name, cls in (("pull", STKernel), ("push", STPushKernel)):
            tr = MemoryTracker(l2_bytes=int(V100.l2_kb * 1024))
            k = cls(prob, V100, tracker=tr)
            k.step()
            stats = k.step()
            results[name] = stats.traffic
        n = 128 * 128
        pull_total = results["pull"].sector_bytes_total / n
        push_total = results["push"].sector_bytes_total / n
        assert pull_total == pytest.approx(144, rel=0.02)
        assert push_total == pytest.approx(144, rel=0.03)
        assert (results["push"].write_transactions
                >= results["pull"].write_transactions)
