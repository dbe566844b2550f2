"""Unit tests for bounce-back boundaries."""

import numpy as np
import pytest

from repro.boundary import FullwayBounceBack, HalfwayBounceBack
from repro.core import stream_push
from repro.geometry import channel_2d, lid_driven_cavity


def make_channel_state(lat, nx=8, ny=6, seed=0):
    domain = channel_2d(nx, ny, with_io=False)
    rng = np.random.default_rng(seed)
    f_star = lat.w[:, None, None] * (1 + 0.1 * rng.standard_normal((lat.q, nx, ny)))
    return domain, f_star


class TestHalfwayBounceBack:
    def test_reflects_wall_links(self, d2q9):
        domain, f_star = make_channel_state(d2q9)
        bb = HalfwayBounceBack().bind(d2q9, domain, 0.8)
        f_new = stream_push(d2q9, f_star)
        bb.post_stream(d2q9, f_new, f_star)
        # A fluid node at y=1 receives its c=(0,1) population from the wall
        # at y=0: it must equal its own pre-stream c=(0,-1) value.
        up = np.where((d2q9.c == (0, 1)).all(axis=1))[0][0]
        down = d2q9.opposite[up]
        assert np.allclose(f_new[up][:, 1], f_star[down][:, 1])

    def test_diagonal_links_reflected(self, d2q9):
        domain, f_star = make_channel_state(d2q9)
        bb = HalfwayBounceBack().bind(d2q9, domain, 0.8)
        f_new = stream_push(d2q9, f_star)
        bb.post_stream(d2q9, f_new, f_star)
        i = np.where((d2q9.c == (1, 1)).all(axis=1))[0][0]
        ibar = d2q9.opposite[i]
        # Node (x, 1) receives (1,1) from (x-1, 0): solid -> reflected.
        assert np.allclose(f_new[i][2:, 1], f_star[ibar][2:, 1])

    def test_interior_untouched(self, d2q9):
        domain, f_star = make_channel_state(d2q9)
        bb = HalfwayBounceBack().bind(d2q9, domain, 0.8)
        f_new = stream_push(d2q9, f_star)
        expected_interior = stream_push(d2q9, f_star)[:, :, 2:-2]
        bb.post_stream(d2q9, f_new, f_star)
        assert np.allclose(f_new[:, :, 2:-2], expected_interior)

    def test_no_solid_is_noop(self, d2q9):
        from repro.geometry import periodic_box

        domain = periodic_box((6, 6))
        rng = np.random.default_rng(1)
        f_star = rng.random((9, 6, 6))
        bb = HalfwayBounceBack().bind(d2q9, domain, 0.8)
        f_new = stream_push(d2q9, f_star)
        before = f_new.copy()
        bb.post_stream(d2q9, f_new, f_star)
        assert np.array_equal(f_new, before)

    def test_mass_conservation_closed_box(self, d2q9):
        """A closed cavity with resting walls conserves mass exactly."""
        from repro.solver import make_solver

        domain = lid_driven_cavity(8)
        rng = np.random.default_rng(2)
        u0 = np.zeros((2, 8, 8))
        u0[:, 2:6, 2:6] = 0.03 * rng.standard_normal((2, 4, 4))
        solver = make_solver("ST", d2q9, domain, 0.8,
                             boundaries=[HalfwayBounceBack()], u0=u0)
        m0 = solver.diagnostics.mass()
        solver.run(50)
        assert solver.diagnostics.mass() == pytest.approx(m0, rel=1e-12)

    def test_moving_wall_adds_momentum(self, d2q9):
        """A moving lid must inject x momentum into a quiescent cavity."""
        from repro.solver import make_solver

        n = 10
        domain = lid_driven_cavity(n)
        wall_u = np.zeros((2, n, n))
        wall_u[0, :, -1] = 0.05
        solver = make_solver("ST", d2q9, domain, 0.8,
                             boundaries=[HalfwayBounceBack(wall_velocity=wall_u)])
        solver.run(5)
        # Total momentum oscillates acoustically later on, but the early
        # transient and the near-lid flow must follow the lid direction.
        assert solver.diagnostics.momentum()[0] > 0
        u = solver.velocity()
        assert u[0][n // 2, -2] > 0

    def test_wall_velocity_shape_checked(self, d2q9):
        domain = lid_driven_cavity(6)
        bad = np.zeros((2, 5, 5))
        with pytest.raises(ValueError, match="wall_velocity"):
            HalfwayBounceBack(wall_velocity=bad).bind(d2q9, domain, 0.8)

    def test_no_slip_steady_state(self, d2q9):
        """Fluid at rest in a closed cavity stays exactly at rest."""
        from repro.solver import make_solver

        domain = lid_driven_cavity(7)
        solver = make_solver("MR-P", d2q9, domain, 0.8,
                             boundaries=[HalfwayBounceBack()])
        solver.run(10)
        assert solver.diagnostics.max_speed() == pytest.approx(0.0, abs=1e-14)


class TestFullwayBounceBack:
    def test_solid_nodes_reflect(self, d2q9):
        domain, f_star = make_channel_state(d2q9)
        fw = FullwayBounceBack().bind(d2q9, domain, 0.8)
        f_post_stream = stream_push(d2q9, f_star)
        f_coll = f_post_stream.copy()
        fw.post_collide(d2q9, f_coll, f_post_stream)
        solid = domain.solid_mask
        for i in range(d2q9.q):
            assert np.allclose(f_coll[i][solid],
                               f_post_stream[d2q9.opposite[i]][solid])

    def test_fluid_nodes_untouched(self, d2q9):
        domain, f_star = make_channel_state(d2q9)
        fw = FullwayBounceBack().bind(d2q9, domain, 0.8)
        f_post = stream_push(d2q9, f_star)
        f_coll = f_post.copy()
        fw.post_collide(d2q9, f_coll, f_post)
        fluid = ~domain.solid_mask
        assert np.allclose(f_coll[:, fluid], f_post[:, fluid])

    def test_noop_without_solids(self, d2q9):
        from repro.geometry import periodic_box

        fw = FullwayBounceBack().bind(d2q9, periodic_box((5, 5)), 0.8)
        f = np.random.default_rng(0).random((9, 5, 5))
        before = f.copy()
        fw.post_collide(d2q9, f, before)
        assert np.array_equal(f, before)
