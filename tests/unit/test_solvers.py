"""Unit tests for the ST / MR-P / MR-R solver drivers."""

import numpy as np
import pytest

from repro.core import BGKCollision, ProjectiveRegularizedCollision
from repro.geometry import channel_2d, periodic_box
from repro.lattice import get_lattice
from repro.solver import MRPSolver, MRRSolver, SCHEMES, STSolver, make_solver
from repro.service.registry import build_single


class TestConstruction:
    def test_scheme_names(self, d2q9):
        dom = periodic_box((4, 4))
        assert isinstance(make_solver("ST", d2q9, dom, 0.8), STSolver)
        assert isinstance(make_solver("mr-p", d2q9, dom, 0.8), MRPSolver)
        assert isinstance(make_solver("MR_R", d2q9, dom, 0.8), MRRSolver)
        with pytest.raises(ValueError, match="unknown scheme"):
            make_solver("LBGK", d2q9, dom, 0.8)

    def test_state_sizes_match_paper_model(self, d2q9):
        """2Q doubles/node for ST, 2M for MR (Table 2 footprint)."""
        dom = periodic_box((4, 4))
        assert make_solver("ST", d2q9, dom, 0.8).state_values_per_node == 18
        assert make_solver("MR-P", d2q9, dom, 0.8).state_values_per_node == 12
        lat3 = get_lattice("D3Q19")
        dom3 = periodic_box((3, 3, 3))
        assert make_solver("ST", lat3, dom3, 0.8).state_values_per_node == 38
        assert make_solver("MR-R", lat3, dom3, 0.8).state_values_per_node == 20

    def test_dimension_mismatch(self, d2q9):
        with pytest.raises(ValueError, match="dimension"):
            STSolver(d2q9, periodic_box((3, 3, 3)), 0.8)

    def test_invalid_tau(self, d2q9):
        with pytest.raises(ValueError, match="tau"):
            STSolver(d2q9, periodic_box((4, 4)), 0.5)

    def test_bad_u0_shape(self, d2q9):
        with pytest.raises(ValueError, match="u0"):
            STSolver(d2q9, periodic_box((4, 4)), 0.8, u0=np.zeros((2, 5, 4)))

    def test_initial_state_is_equilibrium(self, d2q9, rng):
        shape = (5, 5)
        rho0 = 1 + 0.02 * rng.standard_normal(shape)
        u0 = 0.02 * rng.standard_normal((2, *shape))
        for scheme in SCHEMES:
            s = make_solver(scheme, d2q9, periodic_box(shape), 0.8,
                            rho0=rho0, u0=u0)
            rho, u = s.macroscopic()
            assert np.allclose(rho, rho0)
            assert np.allclose(u, u0)

    def test_solid_nodes_initialized_at_rest(self, d2q9):
        dom = channel_2d(6, 5, with_io=False)
        s = make_solver("MR-P", d2q9, dom, 0.8,
                        u0=np.full((2, 6, 5), 0.03))
        rho, u = s.macroscopic()
        assert np.allclose(u[:, dom.solid_mask], 0.0)
        assert np.allclose(rho[dom.solid_mask], 1.0)

    def test_collision_override_st(self, d2q9):
        s = STSolver(d2q9, periodic_box((4, 4)), 0.8,
                     collision=ProjectiveRegularizedCollision(0.8))
        assert isinstance(s.collision, ProjectiveRegularizedCollision)
        with pytest.raises(ValueError, match="tau"):
            STSolver(d2q9, periodic_box((4, 4)), 0.8,
                     collision=BGKCollision(0.9))


class TestStepping:
    def test_uniform_flow_is_invariant(self, d2q9):
        """A uniform periodic flow is an exact fixed point of all schemes."""
        shape = (6, 6)
        u0 = np.zeros((2, *shape))
        u0[0] = 0.05
        for scheme in SCHEMES:
            s = make_solver(scheme, d2q9, periodic_box(shape), 0.7, u0=u0)
            s.run(5)
            rho, u = s.macroscopic()
            assert np.allclose(rho, 1.0, atol=1e-13), scheme
            assert np.allclose(u[0], 0.05, atol=1e-13), scheme

    def test_mass_momentum_conserved_periodic(self, d2q9, rng):
        shape = (6, 6)
        u0 = 0.03 * rng.standard_normal((2, *shape))
        for scheme in SCHEMES:
            s = make_solver(scheme, d2q9, periodic_box(shape), 0.8, u0=u0)
            m0 = s.diagnostics.mass()
            p0 = s.diagnostics.momentum()
            s.run(20)
            assert s.diagnostics.mass() == pytest.approx(m0, rel=1e-12)
            assert np.allclose(s.diagnostics.momentum(), p0, atol=1e-12)

    def test_time_counter(self, d2q9):
        s = make_solver("ST", d2q9, periodic_box((4, 4)), 0.8)
        s.run(7)
        assert s.time == 7

    def test_callback(self, d2q9):
        calls = []
        s = make_solver("MR-P", d2q9, periodic_box((4, 4)), 0.8)
        s.run(10, callback=lambda sv: calls.append(sv.time), callback_interval=3)
        assert calls == [3, 6, 9]

    def test_run_to_steady_state_immediate(self, d2q9):
        s = make_solver("ST", d2q9, periodic_box((4, 4)), 0.8)
        steps = s.run_to_steady_state(tol=1e-12, check_interval=5)
        assert steps == 5                          # rest state: instant

    def test_run_to_steady_state_timeout(self, d2q9, rng):
        u0 = 0.05 * rng.standard_normal((2, 8, 8))
        s = make_solver("ST", d2q9, periodic_box((8, 8)), 2.0, u0=u0)
        with pytest.raises(RuntimeError, match="no steady state"):
            s.run_to_steady_state(tol=1e-16, check_interval=5, max_steps=10)


class TestPresets:
    def test_channel_problem_shapes(self):
        s = build_single("channel", "MR-P", "D2Q9", (12, 8), tau=0.8)
        assert s.domain.shape == (12, 8)
        assert len(s.boundaries) == 3

    def test_channel_shape_mismatch(self):
        with pytest.raises(ValueError, match="shape"):
            build_single("channel", "ST", "D3Q19", (12, 8))

    def test_periodic_problem(self, rng):
        u0 = 0.02 * rng.standard_normal((2, 6, 6))
        s = build_single("periodic", "MR-R", "D2Q9", (6, 6), tau=0.8, u0=u0)
        assert not s.boundaries
        assert np.allclose(s.velocity(), u0)

    def test_channel_inlet_profile_3d(self):
        from repro.solver.presets import channel_inlet_profile

        lat = get_lattice("D3Q19")
        u = channel_inlet_profile(lat, (10, 7, 9), 0.05)
        assert u.shape == (3, 7, 9)
        assert u[0].max() == pytest.approx(0.05)
        assert np.allclose(u[0][0, :], 0)          # rim at rest
        assert np.allclose(u[1:], 0)

    def test_start_from_rest(self):
        s = build_single("channel", "ST", "D2Q9", (10, 6),
                         start_from_profile=False)
        assert s.diagnostics.max_speed() == pytest.approx(0.0)
