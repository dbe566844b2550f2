"""Unit tests for the multi-speed D3Q39 lattice (Section 5 future work)."""

import numpy as np
import pytest

from repro.core import (RecursiveRegularizedCollision,
                        collide_moments_recursive, equilibrium, macroscopic,
                        moments_from_f, stream_push)
from repro.geometry import channel_3d
from repro.lattice import get_lattice
from repro.solver import make_solver
from repro.service.registry import build_single


@pytest.fixture
def q39():
    return get_lattice("D3Q39")


class TestConstruction:
    def test_shell_census(self, q39):
        speeds = (q39.c ** 2).sum(axis=1)
        census = {int(s): int((speeds == s).sum()) for s in np.unique(speeds)}
        assert census == {0: 1, 1: 6, 3: 8, 4: 6, 8: 12, 9: 6}

    def test_cs2_two_thirds(self, q39):
        assert q39.cs2 == pytest.approx(2 / 3)

    def test_full_fourth_order_isotropy(self, q39):
        """The raison d'etre of multi-speed lattices."""
        c = q39.c.astype(float)
        m4 = np.einsum("q,qa,qb,qc,qd->abcd", q39.w, c, c, c, c)
        eye = np.eye(3)
        iso = q39.cs4 * (
            np.einsum("ab,cd->abcd", eye, eye)
            + np.einsum("ac,bd->abcd", eye, eye)
            + np.einsum("ad,bc->abcd", eye, eye)
        )
        assert np.allclose(m4, iso)

    def test_sixth_order_diagonal(self, q39):
        c = q39.c.astype(float)
        m6 = np.einsum("q,qa,qb,qc->abc", q39.w, c ** 2, c ** 2, c ** 2)
        assert m6[0, 1, 2] == pytest.approx(q39.cs6, rel=1e-12)

    def test_complete_hermite_basis(self, q39):
        """All 10 third-order and all 15 fourth-order components supported."""
        assert len(q39.h3_supported) == 10
        assert len(q39.h4_supported) == 15

    def test_moment_space_unchanged(self, q39):
        assert q39.n_moments == 10             # M depends only on D


class TestPhysics:
    def test_equilibrium_moments(self, q39, rng):
        grid = (4, 3, 3)
        rho = 1 + 0.03 * rng.standard_normal(grid)
        u = 0.03 * rng.standard_normal((3, *grid))
        feq = equilibrium(q39, rho, u)
        r2, u2 = macroscopic(q39, feq)
        assert np.allclose(r2, rho)
        assert np.allclose(u2, u)

    def test_mr_losslessness(self, q39, rng):
        grid = (3, 3, 3)
        rho = 1 + 0.03 * rng.standard_normal(grid)
        u = 0.03 * rng.standard_normal((3, *grid))
        f = equilibrium(q39, rho, u) * (1 + 0.01 * rng.standard_normal((39, *grid)))
        fr = RecursiveRegularizedCollision(0.8)(q39, f)
        fr2 = collide_moments_recursive(q39, moments_from_f(q39, f), 0.8)
        assert np.allclose(fr, fr2, atol=1e-13)

    def test_multispeed_streaming(self, q39, rng):
        """Speed-3 components advance three nodes per step."""
        grid = (7, 7, 7)
        f = rng.random((39, *grid))
        out = stream_push(q39, f)
        i3 = np.where((q39.c == (3, 0, 0)).all(axis=1))[0][0]
        assert out[i3][(4, 2, 2)] == f[i3][(1, 2, 2)]

    def test_solver_runs_and_conserves(self, q39, rng):
        shape = (6, 6, 6)
        u0 = 0.02 * rng.standard_normal((3, *shape))
        s = build_single("periodic", "MR-R", q39, shape, tau=0.8, u0=u0)
        m0 = s.diagnostics.mass()
        p0 = s.diagnostics.momentum()
        s.run(10)
        assert s.diagnostics.mass() == pytest.approx(m0, rel=1e-12)
        assert np.allclose(s.diagnostics.momentum(), p0, atol=1e-12)

    def test_walls_rejected(self, q39):
        """One-node walls cannot confine speed-3 populations."""
        with pytest.raises(ValueError, match="multi-speed"):
            make_solver("ST", q39, channel_3d(8, 6, 6), 0.8)

    def test_uniform_flow_invariant(self, q39):
        shape = (5, 5, 5)
        u0 = np.zeros((3, *shape))
        u0[0] = 0.04
        s = build_single("periodic", "MR-P", q39, shape, tau=0.7, u0=u0)
        s.run(5)
        rho, u = s.macroscopic()
        assert np.allclose(rho, 1.0, atol=1e-13)
        assert np.allclose(u[0], 0.04, atol=1e-13)


class TestPerformanceImplications:
    def test_bf_reduction(self, q39):
        """The Section 5 motivation: MR slashes the multi-speed B/F."""
        from repro.perf import bytes_per_flup, memory_reduction

        assert bytes_per_flup(q39, "ST") == 2 * 39 * 8    # 624
        assert bytes_per_flup(q39, "MR") == 160
        assert memory_reduction(q39) == pytest.approx(1 - 10 / 39)

    def test_roofline_projection(self, q39):
        from repro.gpu import V100
        from repro.perf import roofline_mflups

        st = roofline_mflups(V100, q39, "ST")
        mr = roofline_mflups(V100, q39, "MR")
        assert mr / st == pytest.approx(39 / 10)
