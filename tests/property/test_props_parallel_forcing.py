"""Property-based tests: distributed decomposition and body forcing."""

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.core import (collide_moments_projective, equilibrium, guo_source,
                        moments_from_f)
from repro.lattice import get_lattice
from repro.service.registry import build_distributed

from test_conformance import Cell, check_rank_counts_agree


class TestDistributedProperties:
    @given(
        n_ranks=st.integers(1, 4),
        nx=st.integers(12, 30),
        ny=st.integers(6, 14),
        scheme=st.sampled_from(["ST", "MR-P", "MR-R"]),
    )
    @settings(max_examples=12, deadline=None)
    def test_any_decomposition_matches_reference(self, n_ranks, nx, ny,
                                                 scheme):
        """For any slab count and extents, a decomposed random forced box
        is its single-domain run (the conformance matrix's rule)."""
        check_rank_counts_agree(Cell("periodic", scheme, "D2Q9", "reference",
                                     f"emulated-{n_ranks}", shape=(nx, ny)))

    @given(n_ranks=st.integers(1, 5), steps=st.integers(1, 6))
    @settings(max_examples=15, deadline=None)
    def test_communication_accounting_scales(self, n_ranks, steps):
        """bytes_sent = ranks x 2 faces x payload x steps, exactly."""
        shape = (30, 8)
        d = build_distributed("periodic", "MR-P", "D2Q9", shape, n_ranks)
        d.run(steps)
        per_face_per_dir = 6 * 8                 # M doubles x 8 B
        expected = n_ranks * 2 * per_face_per_dir * shape[1] * steps
        assert d.comm.bytes_sent == expected


class TestForcingProperties:
    @given(
        fx=st.floats(-5e-4, 5e-4),
        fy=st.floats(-5e-4, 5e-4),
        tau=st.floats(0.6, 2.0),
        steps=st.integers(1, 6),
    )
    @settings(max_examples=25, deadline=None)
    def test_momentum_budget_exact(self, fx, fy, tau, steps):
        """Periodic fluid under any constant force gains exactly
        N F (steps + 1/2) of physical momentum (half-force convention)."""
        lat = get_lattice("D2Q9")
        from repro.solver import make_solver
        from repro.geometry import periodic_box

        s = make_solver("MR-P", lat, periodic_box((6, 6)), tau,
                        force=np.array([fx, fy]))
        s.run(steps)
        rho, u = s.macroscopic()
        p = np.array([(rho * u[0]).sum(), (rho * u[1]).sum()])
        expected = 36 * np.array([fx, fy]) * (steps + 0.5)
        np.testing.assert_allclose(p, expected, atol=1e-12)

    @given(
        seed=st.integers(0, 2 ** 31 - 1),
        tau=st.floats(0.55, 2.5),
    )
    @settings(max_examples=20, deadline=None)
    def test_guo_source_moment_identities(self, seed, tau):
        """Mass moment vanishes and momentum moment equals (1-1/2tau) F
        for random velocity/force fields, on both paper lattices."""
        rng = np.random.default_rng(seed)
        for name in ("D2Q9", "D3Q19"):
            lat = get_lattice(name)
            grid = (3,) * lat.d
            u = 0.06 * rng.standard_normal((lat.d, *grid))
            force = 1e-3 * rng.standard_normal((lat.d, *grid))
            s = guo_source(lat, u, force, tau)
            np.testing.assert_allclose(s.sum(axis=0), 0, atol=1e-14)
            mom = np.einsum("qa,q...->a...", lat.c.astype(float), s)
            np.testing.assert_allclose(mom, (1 - 0.5 / tau) * force,
                                       atol=1e-13)

    @given(seed=st.integers(0, 2 ** 31 - 1))
    @settings(max_examples=15, deadline=None)
    def test_forced_collision_reduces_to_unforced(self, seed):
        """force=0 and force=None give identical collided moments."""
        lat = get_lattice("D3Q19")
        rng = np.random.default_rng(seed)
        grid = (3, 3, 3)
        rho = 1 + 0.04 * rng.standard_normal(grid)
        u = 0.04 * rng.standard_normal((3, *grid))
        m = moments_from_f(lat, equilibrium(lat, rho, u))
        a = collide_moments_projective(lat, m, 0.8)
        b = collide_moments_projective(lat, m, 0.8,
                                       force=np.zeros((3, *grid)))
        np.testing.assert_allclose(a, b, atol=1e-15)
