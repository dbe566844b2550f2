"""Property-based tests: all propagation patterns agree on the physics.

The propagation pattern (two-lattice pull, in-place AA, moment
representation) is an implementation choice; for any random smooth
periodic state, every pattern must produce the same macroscopic
trajectory (to collision-model equivalence classes: ST==AA exactly,
MR-P==MR-R==projected dynamics).
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.geometry import periodic_box
from repro.gpu import AAKernel, KernelProblem, STKernel, STPushKernel, V100
from repro.lattice import get_lattice
from repro.solver import AASolver
from repro.service.registry import build_single


def random_state(shape, seed, d=2):
    rng = np.random.default_rng(seed)
    rho0 = 1 + 0.04 * rng.standard_normal(shape)
    u0 = 0.04 * rng.standard_normal((d, *shape))
    return rho0, u0


class TestPatternAgreement:
    @given(seed=st.integers(0, 2 ** 31 - 1), steps=st.integers(1, 6))
    @settings(max_examples=10, deadline=None)
    def test_aa_equals_st_trajectory(self, seed, steps):
        shape = (14, 12)
        lat = get_lattice("D2Q9")
        rho0, u0 = random_state(shape, seed)
        aa = AASolver(lat, periodic_box(shape), 0.8, rho0=rho0, u0=u0)
        stv = build_single("periodic", "ST", lat, shape, tau=0.8, rho0=rho0,
                           u0=u0)
        aa.run(steps)
        stv.run(steps)
        ra, ua = aa.macroscopic()
        rs, us = stv.macroscopic()
        np.testing.assert_allclose(ra, rs, atol=1e-12)
        np.testing.assert_allclose(ua, us, atol=1e-12)

    @given(seed=st.integers(0, 2 ** 31 - 1))
    @settings(max_examples=6, deadline=None)
    def test_three_st_kernels_agree(self, seed):
        """Pull, push and AA kernels produce the same density evolution."""
        shape = (12, 10)
        lat = get_lattice("D2Q9")
        rho0, u0 = random_state(shape, seed)
        prob = KernelProblem(lat, shape, 0.8, mode="periodic")
        kernels = [STKernel(prob, V100, rho0=rho0, u0=u0),
                   STPushKernel(prob, V100, rho0=rho0, u0=u0),
                   AAKernel(prob, V100, rho0=rho0, u0=u0)]
        for _ in range(4):
            fields = []
            for k in kernels:
                k.step()
                fields.append(k.macroscopic_fields()[0])
            pull, push, aa = fields
            # Pull reports the post-collision state and AA the pre-collision
            # state of the same time level: identical densities. Push's
            # convention is one streaming ahead, so only global invariants
            # match pointwise comparisons there.
            np.testing.assert_allclose(pull, aa, atol=1e-12)
            assert push.sum() == pytest.approx(pull.sum(), rel=1e-12)

    @given(seed=st.integers(0, 2 ** 31 - 1))
    @settings(max_examples=8, deadline=None)
    def test_aa_pairwise_identity_at_rest(self, seed):
        """A uniform state is a fixed point of both AA flavours."""
        rng = np.random.default_rng(seed)
        shape = (10, 8)
        lat = get_lattice("D2Q9")
        u0 = np.zeros((2, *shape))
        u0[0] = float(rng.uniform(-0.05, 0.05))
        aa = AASolver(lat, periodic_box(shape), 0.8, u0=u0)
        aa.run(5)
        _, u = aa.macroscopic()
        np.testing.assert_allclose(u[0], u0[0], atol=1e-13)
