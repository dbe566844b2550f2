"""Parity and contract tests for the single-lattice ``"aa"`` backend.

The in-place streaming cores of :mod:`repro.accel.inplace` promise
bit-for-bit agreement with the two-lattice fused backend at every step
(they cut the same columns: the conformance matrix's tolerance rule,
``tests/property/test_conformance.py``), across the full feature
matrix: boundaries, solids, Guo forcing and the per-node variable-tau
collision. These tests pin that contract,
checkpoints at either parity, and the configuration error paths (how an
odd step is stored is private to the core:
``tests/property/test_props_sparse_state.py`` pins what ``solver.f``
shows instead).
"""

import numpy as np
import pytest

from repro.accel import BACKENDS, FusedMRCore
from repro.boundary import HalfwayBounceBack
from repro.geometry import SOLID, Domain, lid_driven_cavity, periodic_box
from repro.lattice import get_lattice
from repro.solver import make_solver
from repro.service.registry import build_single

from test_conformance import (Cell, assert_agree, check_backends_agree,
                              check_resume, fields)

SCHEMES = ("ST", "MR-P", "MR-R")
#: a boundary-free ST box: the problem ``aa`` steps with its own core
AA_BOX = Cell("periodic", "ST", "D2Q9", "aa", shape=(12, 10))


def assert_aa_is_fused(build, steps=8):
    """``build(backend)`` stepped on ``aa`` is its ``fused`` run."""
    fused, aa = build("fused").run(steps), build("aa").run(steps)
    assert_agree(fields(*aa.macroscopic()), fields(*fused.macroscopic()),
                 exact=True)


def random_periodic_builder(scheme, lattice_name, shape, tau=0.8,
                            forced=False, solids=False):
    lat = get_lattice(lattice_name)
    rng = np.random.default_rng(7)
    rho0 = 1 + 0.02 * rng.standard_normal(shape)
    u0 = 0.03 * rng.standard_normal((lat.d, *shape))
    nt = np.zeros(shape, dtype=np.int8)
    if solids:
        nt[tuple(slice(3, 6) for _ in shape)] = SOLID
    force = None
    if forced:
        force = 1e-5 * rng.standard_normal((lat.d, *shape))
    return lambda backend: make_solver(scheme, lat, Domain(nt), tau,
                                       rho0=rho0, u0=u0, force=force,
                                       backend=backend)


class TestInplaceParity:
    """aa == fused, bit for bit, on the full feature matrix."""

    @pytest.mark.parametrize("scheme", SCHEMES)
    @pytest.mark.parametrize("lattice_name,shape", [
        ("D2Q9", (20, 14)),
        ("D3Q19", (8, 7, 6)),
    ])
    @pytest.mark.parametrize("steps", [7, 8])
    def test_periodic_even_and_odd(self, scheme, lattice_name, shape, steps):
        """Periodic boxes match at even *and* odd step counts."""
        assert_aa_is_fused(
            random_periodic_builder(scheme, lattice_name, shape), steps=steps)

    @pytest.mark.parametrize("scheme", SCHEMES)
    @pytest.mark.parametrize("lattice_name,shape", [
        ("D2Q9", (14, 10)),
        ("D3Q19", (7, 6, 5)),
    ])
    def test_forced_periodic(self, scheme, lattice_name, shape):
        """The Guo source survives the scatter/local step split."""
        assert_aa_is_fused(random_periodic_builder(
            scheme, lattice_name, shape, forced=True))

    @pytest.mark.parametrize("scheme", SCHEMES)
    @pytest.mark.parametrize("lattice_name,shape", [
        ("D2Q9", (14, 10)),
        ("D3Q19", (7, 6, 5)),
    ])
    def test_lean_solids(self, scheme, lattice_name, shape):
        """Solid pinning lands on the right (shifted) nodes in lean mode."""
        assert_aa_is_fused(random_periodic_builder(
            scheme, lattice_name, shape, solids=True))

    @pytest.mark.parametrize("scheme", SCHEMES)
    def test_poiseuille_channel_fallback(self, scheme):
        """Bounded problems take the conservative path, still exact."""
        check_backends_agree(Cell("channel", scheme, "D2Q9", "aa",
                                  shape=(24, 12)))

    @pytest.mark.parametrize("scheme", SCHEMES)
    def test_forced_channel(self, scheme):
        """Body-forced bounce-back channels (fallback + Guo source)."""
        check_backends_agree(Cell("forced-channel", scheme, "D2Q9", "aa",
                                  shape=(20, 12)))

    @pytest.mark.parametrize("scheme", SCHEMES)
    def test_lid_driven_cavity(self, scheme):
        """Moving-wall cavity: solids + wall-velocity bounce-back."""
        lat = get_lattice("D2Q9")
        n = 10
        wall_u = np.zeros((2, n, n))
        wall_u[0, :, -1] = 0.05
        bcs = [HalfwayBounceBack(wall_velocity=wall_u)]
        assert_aa_is_fused(
            lambda backend: make_solver(scheme, lat, lid_driven_cavity(n),
                                        0.8, boundaries=bcs,
                                        backend=backend), steps=12)

    def test_variable_tau_power_law(self):
        """The per-node tau_field path reaches the aa MR core too."""
        from repro.solver import PowerLawMRPSolver

        lat = get_lattice("D2Q9")
        rng = np.random.default_rng(11)
        u0 = 0.04 * (rng.random((2, 14, 10)) - 0.5)

        def build(backend):
            return PowerLawMRPSolver(lat, periodic_box((14, 10)), 0.8, u0=u0,
                                     consistency=0.06, exponent=0.8,
                                     backend=backend)

        assert_aa_is_fused(build)

    def test_even_step_state_is_bit_exact(self):
        """Even-time lattice state equals fused bit for bit, not just eps."""
        build = random_periodic_builder("ST", "D2Q9", (16, 12))
        ref, fast = build("fused"), build("aa")
        ref.run(6)
        fast.run(6)
        assert np.array_equal(ref.f, fast.f)


class TestInplaceCheckpoint:
    """Checkpoints hold the natural lattice at any parity."""

    @pytest.mark.parametrize("steps", [3, 5])
    def test_odd_step_round_trip_bit_exact(self, steps):
        check_resume(AA_BOX, steps - 2, "aa")       # odd, before the end

    def test_cross_backend_restore_at_odd_time(self):
        """An aa checkpoint taken at odd parity resumes under fused."""
        check_resume(AA_BOX, 3, "fused")


class TestInplaceContracts:
    def test_aa_always_available(self):
        assert "aa" in BACKENDS

    def test_state_values_per_node_halved_for_st(self):
        st_aa = build_single("periodic", "ST", "D2Q9", (8, 8), tau=0.8,
                             backend="aa")
        st_fused = build_single("periodic", "ST", "D2Q9", (8, 8), tau=0.8,
                                backend="fused")
        assert st_aa.state_values_per_node == st_aa.lat.q
        # boundary-free, fused slides a window over its one lattice too
        assert st_fused.state_values_per_node == st_fused.lat.q
        walled = [build_single("forced-channel", "ST", "D2Q9", (8, 8), tau=0.8,
                               u_max=0.04, backend=backend)
                  for backend in ("aa", "fused")]
        # ... and the window carries the walls: one lattice either way
        assert [s.state_values_per_node for s in walled] == [9, 9]

    def test_mr_core_rejects_boundaries(self):
        lat = get_lattice("D2Q9")
        core = FusedMRCore(lat, (8, 8), 0.8, scheme="MR-P")
        solver = build_single("periodic", "MR-P", "D2Q9", (8, 8), tau=0.8)
        with pytest.raises(ValueError, match="boundary"):
            core.step(solver.m, [HalfwayBounceBack()], None)

    def test_mr_core_guards_tau_field_to_mrp(self):
        lat = get_lattice("D2Q9")
        core = FusedMRCore(lat, (8, 8), 0.8, scheme="MR-R")
        solver = build_single("periodic", "MR-R", "D2Q9", (8, 8), tau=0.8)
        with pytest.raises(ValueError, match="MR-P"):
            core.step(solver.m, [], None,
                      tau_field=np.full((8, 8), 0.8))

    def test_st_non_bgk_rejected_like_fused(self):
        """aa shares the fused validation rules (ST is BGK-only)."""
        from repro.core.collision import TRTCollision
        from repro.solver import STSolver

        lat = get_lattice("D2Q9")
        with pytest.raises(ValueError, match="BGK"):
            STSolver(lat, periodic_box((8, 8)), 0.8,
                     collision=TRTCollision(0.8), backend="aa")
