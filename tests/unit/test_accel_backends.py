"""Backend parity on validation cases, and construction-time validation.

Registered kinds are the conformance matrix's
(``tests/property/test_conformance.py``): the ids below that name one
run the matrix's check on the matrix's own cell. The others build a
case the registry does not have — the lid-driven cavity, the
bulk-viscosity split, a time-dependent force, power-law flow indices
other than the kind's — and hold ``fused`` to ``reference`` by the
matrix's tolerance rule. :class:`TestBackendValidation` pins what
:func:`repro.accel.validate_backend` refuses, and when.
"""

import numpy as np
import pytest

from repro.accel import (FusedMRCore, make_stepper, solver_caps,
                         validate_backend)
from repro.boundary import HalfwayBounceBack
from repro.geometry import (channel_2d, channel_3d, lid_driven_cavity,
                            periodic_box)
from repro.lattice import get_lattice
from repro.service.registry import build_single
from repro.solver import MRPSolver, PowerLawMRPSolver, make_solver
from repro.solver.non_newtonian import power_law_force
from repro.validation import taylor_green_fields

from test_conformance import (SHAPES, Cell, assert_agree, check_backends_agree,
                              fields)

SCHEMES = ("ST", "MR-P", "MR-R")


def assert_fused_is_reference(build, steps=8):
    """``build(backend)`` stepped on ``fused`` is its ``reference`` run."""
    ref, fast = build("reference").run(steps), build("fused").run(steps)
    assert_agree(fields(*fast.macroscopic()), fields(*ref.macroscopic()),
                 exact=False, steps=steps)


def cavity_builder(scheme, n=10, tau=0.8):
    lat = get_lattice("D2Q9")
    wall_u = np.zeros((2, n, n))
    wall_u[0, :, -1] = 0.05
    bcs = [HalfwayBounceBack(wall_velocity=wall_u)]
    return lambda backend: make_solver(scheme, lat, lid_driven_cavity(n), tau,
                                       boundaries=bcs, backend=backend)


class TestFusedParity:
    @pytest.mark.parametrize("scheme", SCHEMES)
    @pytest.mark.parametrize("lattice_name,shape", SHAPES.items())
    def test_taylor_green_periodic(self, scheme, lattice_name, shape):
        """Every backend agrees on vortices (2D) and random states (3D)."""
        kind = "taylor-green" if lattice_name == "D2Q9" else "periodic"
        check_backends_agree(Cell(kind, scheme, lattice_name, "fused",
                                  shape=shape))

    @pytest.mark.parametrize("scheme", SCHEMES)
    def test_poiseuille_channel(self, scheme):
        """... with inlet/outlet + wall boundaries."""
        check_backends_agree(Cell("channel", scheme, "D2Q9", "fused"))

    @pytest.mark.parametrize("scheme", SCHEMES)
    def test_lid_driven_cavity(self, scheme):
        """Fused == reference with solid nodes and a moving-wall BC."""
        assert_fused_is_reference(cavity_builder(scheme), steps=12)

    def test_bulk_viscosity_split(self):
        """The two-relaxation trace split is fused identically."""
        lat = get_lattice("D2Q9")
        rho0, u0 = taylor_green_fields((16, 12), 0.0, lat.viscosity(0.8),
                                       0.04)
        assert_fused_is_reference(lambda backend: MRPSolver(
            lat, periodic_box((16, 12)), 0.8, tau_bulk=1.1, rho0=rho0, u0=u0,
            backend=backend))

    def test_step_count_and_time_advance(self):
        solver = build_single("taylor-green", "ST", "D2Q9", (10, 8),
                              backend="fused")
        solver.run(5)
        assert solver.time == 5


class TestFusedForcedParity:
    """The fused Guo-source path reproduces every forced reference solver."""

    @pytest.mark.parametrize("scheme", SCHEMES)
    @pytest.mark.parametrize("lattice_name,shape", SHAPES.items())
    def test_forced_periodic(self, scheme, lattice_name, shape):
        check_backends_agree(Cell("periodic", scheme, lattice_name, "fused",
                                  shape=shape))

    @pytest.mark.parametrize("scheme", SCHEMES)
    @pytest.mark.parametrize("lattice_name,shape", SHAPES.items())
    def test_forced_channel(self, scheme, lattice_name, shape):
        check_backends_agree(Cell("forced-channel", scheme, lattice_name,
                                  "fused", shape=shape))

    def test_time_dependent_force(self):
        """set_force between steps reaches the fused kernels too."""
        lat = get_lattice("D2Q9")
        u0 = 0.03 * (np.random.default_rng(3).random((2, 12, 10)) - 0.5)
        ref, fast = (make_solver("MR-P", lat, periodic_box((12, 10)), 0.8,
                                 u0=u0, force=np.array([1.2e-5, 0.0]),
                                 backend=backend)
                     for backend in ("reference", "fused"))
        for t in range(6):
            f = np.array([1e-5 * np.cos(0.3 * t), 0.5e-5 * np.sin(0.3 * t)])
            ref.set_force(f)
            fast.set_force(f)
            ref.step()
            fast.step()
        assert_agree(fast.m, ref.m, exact=False, steps=6)


def power_law_channel_builder(lattice_name, exponent, tau=0.7, u_max=0.02):
    """Force-driven power-law channel (the fused variable-tau path)."""
    lat = get_lattice(lattice_name)
    shape = (16, 12) if lat.d == 2 else (8, 8, 6)
    domain = (channel_2d if lat.d == 2 else channel_3d)(*shape, with_io=False)
    consistency = lat.viscosity(tau)
    force = np.zeros(lat.d)
    force[0] = power_law_force(u_max, shape[1] - 2, consistency, exponent)
    return lambda backend: PowerLawMRPSolver(
        lat, domain, tau, boundaries=[HalfwayBounceBack()], force=force,
        consistency=consistency, exponent=exponent, backend=backend)


class TestFusedVariableTauParity:
    """The fused per-node tau_field path reproduces PowerLawMRPSolver."""

    @pytest.mark.parametrize("lattice_name", ["D2Q9", "D3Q19"])
    @pytest.mark.parametrize("exponent", [0.7, 1.3])
    def test_power_law_poiseuille(self, lattice_name, exponent):
        """Fused == reference for shear-thinning and shear-thickening."""
        assert_fused_is_reference(
            power_law_channel_builder(lattice_name, exponent), steps=10)

    def test_unforced_power_law_periodic(self):
        """Variable-tau collision without forcing is fused identically."""
        lat = get_lattice("D2Q9")
        u0 = 0.04 * (np.random.default_rng(11).random((2, 14, 10)) - 0.5)
        assert_fused_is_reference(lambda backend: PowerLawMRPSolver(
            lat, periodic_box((14, 10)), 0.8, u0=u0, consistency=0.06,
            exponent=0.8, backend=backend))

    def test_tau_field_tracks_reference(self):
        """The relaxation field itself matches after several steps."""
        build = power_law_channel_builder("D2Q9", 0.7)
        ref, fast = build("reference").run(8), build("fused").run(8)
        assert_agree(fast.tau_field, ref.tau_field, exact=False, steps=8)

    def test_apparent_viscosity_masks_solids(self):
        """apparent_viscosity reports NaN inside walls, finite in fluid."""
        solver = power_law_channel_builder("D2Q9", 0.7)("reference")
        solver.run(4)
        nu = solver.apparent_viscosity()
        assert np.isnan(nu[solver.domain.solid_mask]).all()
        assert np.isfinite(nu[solver.domain.fluid_mask]).all()


class TestBackendValidation:
    def test_unknown_backend_rejected_at_construction(self):
        with pytest.raises(ValueError, match="unknown backend"):
            build_single("periodic", "ST", "D2Q9", (8, 8), tau=0.8,
                         backend="cuda")

    def test_reference_backend_needs_no_stepper(self):
        solver = build_single("periodic", "ST", "D2Q9", (8, 8), tau=0.8)
        assert make_stepper(solver) is None

    def test_uncertified_subclass_rejected_at_construction(self):
        """Subclasses that do not declare accel_caps never get fast paths.

        The capability handshake is an explicit per-class opt-in: a
        subclass inherits the parent's physics entry points but NOT its
        ``accel_caps``, so a physics-overriding subclass is rejected at
        construction time unless it certifies itself.
        """

        class UncertifiedMRP(MRPSolver):
            """Hypothetical subclass that never certified its physics."""

        lat = get_lattice("D2Q9")
        with pytest.raises(ValueError, match="accel_caps"):
            UncertifiedMRP(lat, periodic_box((8, 8)), 0.8, backend="fused")
        # And make_stepper on a reference-constructed instance agrees.
        solver = UncertifiedMRP(lat, periodic_box((8, 8)), 0.8)
        assert solver_caps(solver) is None
        with pytest.raises(ValueError, match="accel_caps"):
            make_stepper(solver, "fused")

    def test_certified_solvers_expose_caps(self):
        """Every shipped solver family declares its own capability set."""
        lat = get_lattice("D2Q9")
        st = build_single("periodic", "ST", "D2Q9", (8, 8), tau=0.8)
        mrp = build_single("periodic", "MR-P", "D2Q9", (8, 8), tau=0.8)
        mrr = build_single("periodic", "MR-R", "D2Q9", (8, 8), tau=0.8)
        pl = PowerLawMRPSolver(lat, periodic_box((8, 8)), 0.8,
                               consistency=0.05, exponent=0.7)
        assert solver_caps(st) == {"family": "st"}
        assert solver_caps(mrp) == {"family": "mr", "scheme": "MR-P"}
        assert solver_caps(mrr) == {"family": "mr", "scheme": "MR-R"}
        assert solver_caps(pl) == {"family": "mr", "scheme": "MR-P",
                                   "variable_tau": True}

    def test_forced_solver_accepted_for_fused(self):
        """Forcing no longer falls back: the fused stepper is built."""
        solver = build_single("periodic", "MR-P", "D2Q9", (8, 8), tau=0.8,
                              force=np.array([1e-5, 0.0]))
        assert validate_backend(solver, "fused") is not None
        assert make_stepper(solver, "fused") is not None

    def test_validate_backend_reference_is_none(self):
        solver = build_single("periodic", "ST", "D2Q9", (8, 8), tau=0.8)
        assert validate_backend(solver, "reference") is None

    def test_st_non_bgk_collision_rejected_at_construction(self):
        """Only the plain BGK collision is fused for the ST family."""
        from repro.core.collision import TRTCollision
        from repro.solver import STSolver

        lat = get_lattice("D2Q9")
        with pytest.raises(ValueError, match="BGK"):
            STSolver(lat, periodic_box((8, 8)), 0.8,
                     collision=TRTCollision(0.8), backend="fused")

    def test_variable_tau_limited_to_mr_p_core(self):
        """The fused core guards its per-node tau_field to MR-P."""
        lat = get_lattice("D2Q9")
        core = FusedMRCore(lat, (8, 8), 0.8, scheme="MR-R")
        solver = build_single("periodic", "MR-R", "D2Q9", (8, 8), tau=0.8)
        tau_field = np.full((8, 8), 0.8)
        with pytest.raises(ValueError, match="MR-P"):
            core.step(solver.m, [], solver.telemetry, tau_field=tau_field)
