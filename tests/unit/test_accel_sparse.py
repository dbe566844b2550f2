"""Unit tests for the sparse fluid-node-list backend (repro.accel.sparse)."""

import numpy as np
import pytest

from repro.accel import BACKENDS, SparseMRCore, SparseSTCore, solver_caps
from repro.accel.sparse import boundaries_fold
from repro.boundary import FullwayBounceBack, HalfwayBounceBack
from repro.geometry import (Domain, cylinder_in_channel, lid_driven_cavity,
                            porous_medium)
from repro.lattice import get_lattice
from repro.solver import (STSolver, channel_problem, forced_channel_problem,
                          make_solver)


def masked_domain(shape, fraction=0.4, seed=3):
    rng = np.random.default_rng(seed)
    nt = np.zeros(shape, dtype=np.int8)
    nt[rng.random(shape) < fraction] = 1
    nt.flat[0] = 0
    return Domain(nt)


def run_pair(build, steps=5):
    """Run fused vs sparse instances of one problem; return the max
    absolute macroscopic difference over fluid nodes."""
    states = []
    solid = None
    for backend in ("fused", "sparse"):
        s = build(backend)
        s.run(steps)
        rho, u = s.macroscopic()
        states.append(np.concatenate([rho[None], u]))
        solid = s.domain.solid_mask
    return float(np.abs(states[0][:, ~solid] - states[1][:, ~solid]).max())


class TestRegistration:
    def test_backend_listed(self):
        assert "sparse" in BACKENDS

    @pytest.mark.parametrize("scheme", ["ST", "MR-P", "MR-R"])
    def test_solvers_advertise_support(self, scheme):
        lat = get_lattice("D2Q9")
        s = make_solver(scheme, lat, masked_domain((8, 6)), 0.8,
                        boundaries=[HalfwayBounceBack()], backend="sparse")
        assert solver_caps(s) is not None
        assert s.backend == "sparse"

    def test_state_values_per_node_counts_single_lattice(self):
        lat = get_lattice("D2Q9")
        s = STSolver(lat, masked_domain((8, 6)), 0.8,
                     boundaries=[HalfwayBounceBack()], backend="sparse")
        assert s.state_values_per_node == lat.q

    def test_fullway_rejected_at_construction(self):
        lat = get_lattice("D2Q9")
        with pytest.raises(ValueError, match="post-collide"):
            make_solver("ST", lat, masked_domain((8, 6)), 0.8,
                        boundaries=[FullwayBounceBack()], backend="sparse")

    def test_boundaries_fold_predicate(self):
        assert boundaries_fold([])
        assert boundaries_fold([HalfwayBounceBack()])
        assert not boundaries_fold([HalfwayBounceBack(),
                                    HalfwayBounceBack()])
        assert not boundaries_fold([FullwayBounceBack()])


class TestLeanPathParity:
    @pytest.mark.parametrize("scheme", ["ST", "MR-P", "MR-R"])
    def test_porous_bounceback(self, scheme):
        """Folded bounce-back gather matches the fused dense step."""
        lat = get_lattice("D2Q9")
        domain = porous_medium((16, 14), solid_fraction=0.5, seed=1)

        def build(backend):
            rng = np.random.default_rng(11)
            u0 = 0.03 * rng.standard_normal((2, 16, 14))
            return make_solver(scheme, lat, domain, 0.8,
                               boundaries=[HalfwayBounceBack()], u0=u0,
                               backend=backend)

        assert run_pair(build) < 1e-13

    def test_d3q19_cylinder_mask(self):
        lat = get_lattice("D3Q19")
        domain = masked_domain((8, 7, 6), fraction=0.35, seed=5)

        def build(backend):
            return make_solver("MR-P", lat, domain, 0.7,
                               boundaries=[HalfwayBounceBack()],
                               backend=backend)

        assert run_pair(build) < 1e-13

    def test_moving_wall_momentum_folds(self):
        """The lid-driven cavity's moving-wall momentum terms fold into
        the gather at parity with the dense hook."""
        lat = get_lattice("D2Q9")
        domain = lid_driven_cavity(12)
        lid = np.zeros((2, 12, 12))
        lid[0, :, -1] = 0.08

        def build(backend):
            return make_solver("MR-R", lat, domain, 0.8,
                               boundaries=[HalfwayBounceBack(
                                   wall_velocity=lid)],
                               backend=backend)

        assert run_pair(build, steps=8) < 1e-13

    def test_guo_forcing(self):
        def build(backend):
            return forced_channel_problem("MR-P", "D2Q9", (16, 10), tau=0.8,
                                          u_max=0.04, backend=backend)

        assert run_pair(build) < 1e-13

    def test_variable_tau_power_law(self):
        from repro.solver.non_newtonian import PowerLawMRPSolver

        lat = get_lattice("D2Q9")
        from repro.geometry import channel_2d

        domain = channel_2d(14, 10, with_io=False)
        force = np.zeros(2)
        force[0] = 1e-5

        def build(backend):
            rng = np.random.default_rng(7)
            u0 = 0.02 * rng.standard_normal((2, 14, 10))
            u0[:, domain.solid_mask] = 0.0
            return PowerLawMRPSolver(lat, domain, 0.8,
                                     boundaries=[HalfwayBounceBack()],
                                     force=force, consistency=0.1,
                                     exponent=0.8, u0=u0, backend=backend)

        assert run_pair(build) < 1e-13


class TestDenseFallbackParity:
    @pytest.mark.parametrize("scheme", ["ST", "MR-R"])
    def test_channel_with_inlet_outlet(self, scheme):
        """Inlet/outlet hooks route through the dense fallback at parity."""

        def build(backend):
            return channel_problem(scheme, "D2Q9", (20, 12), tau=0.8,
                                   u_max=0.04, backend=backend)

        assert run_pair(build, steps=6) < 1e-13

    def test_cylinder_channel(self):
        domain = cylinder_in_channel(24, 14, 6.0, 6.5, 3.0, with_io=False)
        lat = get_lattice("D2Q9")
        force = np.zeros(2)
        force[0] = 2e-6

        def build(backend):
            return make_solver("MR-P", lat, domain, 0.8,
                               boundaries=[HalfwayBounceBack()], force=force,
                               backend=backend)

        assert run_pair(build, steps=10) < 1e-13

    def test_fallback_flag_matches_boundaries(self):
        lat = get_lattice("D2Q9")
        solid = np.zeros((10, 8), bool)
        solid[:, 0] = solid[:, -1] = True
        lean = SparseSTCore(lat, solid, 0.8,
                            boundaries=[HalfwayBounceBack()])
        assert lean.lean
        fallback = SparseMRCore(lat, solid, 0.8, scheme="MR-P",
                                boundaries=[HalfwayBounceBack(),
                                            HalfwayBounceBack()])
        assert not fallback.lean


class TestDistributedSparse:
    def test_emulated_forced_channel_matches_reference(self):
        from repro.parallel import RunSpec

        states = []
        for accel in ("reference", "sparse"):
            spec = RunSpec("forced-channel", "MR-P", "D2Q9", (32, 18), 2,
                           tau=0.8, accel=accel, options={"u_max": 0.04})
            s = spec.build()
            s.run(20)
            rho, u = s.gather_macroscopic()
            states.append(np.concatenate([rho[None], u]))
        assert np.abs(states[0] - states[1]).max() < 1e-13

    def test_post_collide_boundary_rejected(self):
        from repro.geometry import channel_2d
        from repro.parallel.decomposition import DistributedST

        lat = get_lattice("D2Q9")
        with pytest.raises(ValueError, match="post-collide"):
            DistributedST(lat, channel_2d(16, 10, with_io=False), 0.8, 2,
                          periodic_axis0=True,
                          boundary_factory=lambda r, n: [FullwayBounceBack()],
                          accel="sparse")
