"""Parity and validation tests for the fast-path execution backends.

Every backend must reproduce the reference solvers to machine precision;
these tests pin that contract on the repo's validation cases
(Taylor-Green, Poiseuille channel, lid-driven cavity) and exercise the
configuration-matrix error paths of :func:`repro.accel.make_stepper`.
"""

import numpy as np
import pytest

from repro.accel import (FusedMRCore, make_stepper, solver_caps,
                         validate_backend)
from repro.boundary import HalfwayBounceBack
from repro.geometry import channel_2d, lid_driven_cavity, periodic_box
from repro.lattice import get_lattice
from repro.solver import (MRPSolver, PowerLawMRPSolver, channel_problem,
                          forced_channel_problem, make_solver,
                          periodic_problem)
from repro.solver.non_newtonian import power_law_force
from repro.validation import taylor_green_fields

SCHEMES = ("ST", "MR-P", "MR-R")
MACHINE_EPS = 1e-13


def run_pair(build, backend, steps=8):
    """Run reference and ``backend`` from identical state; return max diffs."""
    ref = build("reference")
    fast = build(backend)
    ref.run(steps)
    fast.run(steps)
    rho_r, u_r = ref.macroscopic()
    rho_f, u_f = fast.macroscopic()
    return (float(np.abs(rho_r - rho_f).max()),
            float(np.abs(u_r - u_f).max()))


def taylor_green_builder(scheme, lattice_name, shape, tau=0.8):
    lat = get_lattice(lattice_name)
    if lat.d == 2:
        rho0, u0 = taylor_green_fields(shape, 0.0, lat.viscosity(tau), 0.04)
    else:
        rng = np.random.default_rng(7)
        rho0 = 1 + 0.02 * rng.standard_normal(shape)
        u0 = 0.03 * rng.standard_normal((lat.d, *shape))
    return lambda backend: periodic_problem(scheme, lat, shape, tau,
                                            rho0=rho0, u0=u0, backend=backend)


def cavity_builder(scheme, n=10, tau=0.8):
    lat = get_lattice("D2Q9")
    wall_u = np.zeros((2, n, n))
    wall_u[0, :, -1] = 0.05
    bcs = [HalfwayBounceBack(wall_velocity=wall_u)]

    def build(backend):
        return make_solver(scheme, lat, lid_driven_cavity(n), tau,
                           boundaries=bcs, backend=backend)

    return build


class TestFusedParity:
    @pytest.mark.parametrize("scheme", SCHEMES)
    @pytest.mark.parametrize("lattice_name,shape", [
        ("D2Q9", (20, 14)),
        ("D3Q19", (8, 7, 6)),
    ])
    def test_taylor_green_periodic(self, scheme, lattice_name, shape):
        """Fused == reference on periodic boxes, to machine precision."""
        drho, du = run_pair(
            taylor_green_builder(scheme, lattice_name, shape), "fused")
        assert drho < MACHINE_EPS
        assert du < MACHINE_EPS

    @pytest.mark.parametrize("scheme", SCHEMES)
    def test_poiseuille_channel(self, scheme):
        """Fused == reference with inlet/outlet + wall boundaries."""
        drho, du = run_pair(
            lambda backend: channel_problem(scheme, "D2Q9", (24, 12),
                                            tau=0.8, u_max=0.04,
                                            backend=backend), "fused")
        assert drho < MACHINE_EPS
        assert du < MACHINE_EPS

    @pytest.mark.parametrize("scheme", SCHEMES)
    def test_lid_driven_cavity(self, scheme):
        """Fused == reference with solid nodes and a moving-wall BC."""
        drho, du = run_pair(cavity_builder(scheme), "fused", steps=12)
        assert drho < MACHINE_EPS
        assert du < MACHINE_EPS

    def test_bulk_viscosity_split(self):
        """The two-relaxation trace split is fused identically."""
        lat = get_lattice("D2Q9")
        rho0, u0 = taylor_green_fields((16, 12), 0.0, lat.viscosity(0.8),
                                       0.04)

        def build(backend):
            return MRPSolver(lat, periodic_box((16, 12)), 0.8, tau_bulk=1.1,
                             rho0=rho0, u0=u0, backend=backend)

        drho, du = run_pair(build, "fused")
        assert drho < MACHINE_EPS
        assert du < MACHINE_EPS

    def test_step_count_and_time_advance(self):
        solver = taylor_green_builder("ST", "D2Q9", (10, 8))("fused")
        solver.run(5)
        assert solver.time == 5


def forced_periodic_builder(scheme, lattice_name, shape, tau=0.8):
    """Forced periodic box with a random non-trivial initial state."""
    lat = get_lattice(lattice_name)
    rng = np.random.default_rng(3)
    u0 = 0.03 * (rng.random((lat.d, *shape)) - 0.5)
    force = np.zeros(lat.d)
    force[0] = 1.2e-5
    return lambda backend: make_solver(scheme, lat, periodic_box(shape), tau,
                                       u0=u0, force=force, backend=backend)


def power_law_channel_builder(lattice_name, exponent, tau=0.7, u_max=0.02):
    """Force-driven power-law channel (the fused variable-tau path)."""
    lat = get_lattice(lattice_name)
    shape = (16, 12) if lat.d == 2 else (8, 8, 6)
    if lat.d == 2:
        domain = channel_2d(*shape, with_io=False)
    else:
        from repro.geometry import channel_3d

        domain = channel_3d(*shape, with_io=False)
    consistency = lat.viscosity(tau)
    force = np.zeros(lat.d)
    force[0] = power_law_force(u_max, shape[1] - 2, consistency, exponent)
    return lambda backend: PowerLawMRPSolver(
        lat, domain, tau, boundaries=[HalfwayBounceBack()], force=force,
        consistency=consistency, exponent=exponent, backend=backend)


class TestFusedForcedParity:
    """The fused Guo-source path reproduces every forced reference solver."""

    @pytest.mark.parametrize("scheme", SCHEMES)
    @pytest.mark.parametrize("lattice_name,shape", [
        ("D2Q9", (14, 10)),
        ("D3Q19", (7, 6, 5)),
    ])
    def test_forced_periodic(self, scheme, lattice_name, shape):
        """Fused == reference on forced periodic boxes."""
        drho, du = run_pair(
            forced_periodic_builder(scheme, lattice_name, shape), "fused")
        assert drho < MACHINE_EPS
        assert du < MACHINE_EPS

    @pytest.mark.parametrize("scheme", SCHEMES)
    @pytest.mark.parametrize("lattice_name,shape", [
        ("D2Q9", (20, 12)),
        ("D3Q19", (8, 8, 6)),
    ])
    def test_forced_channel(self, scheme, lattice_name, shape):
        """Fused == reference on body-force-driven bounce-back channels."""
        drho, du = run_pair(
            lambda backend: forced_channel_problem(
                scheme, lattice_name, shape, tau=0.7, u_max=0.03,
                backend=backend), "fused", steps=10)
        assert drho < MACHINE_EPS
        assert du < MACHINE_EPS

    def test_time_dependent_force(self):
        """set_force between steps reaches the fused kernels too."""
        build = forced_periodic_builder("MR-P", "D2Q9", (12, 10))
        ref, fast = build("reference"), build("fused")
        for t in range(6):
            f = np.array([1e-5 * np.cos(0.3 * t), 0.5e-5 * np.sin(0.3 * t)])
            ref.set_force(f)
            fast.set_force(f)
            ref.step()
            fast.step()
        assert np.abs(ref.m - fast.m).max() < MACHINE_EPS


class TestFusedVariableTauParity:
    """The fused per-node tau_field path reproduces PowerLawMRPSolver."""

    @pytest.mark.parametrize("lattice_name", ["D2Q9", "D3Q19"])
    @pytest.mark.parametrize("exponent", [0.7, 1.3])
    def test_power_law_poiseuille(self, lattice_name, exponent):
        """Fused == reference for shear-thinning and shear-thickening."""
        drho, du = run_pair(
            power_law_channel_builder(lattice_name, exponent), "fused",
            steps=10)
        assert drho < MACHINE_EPS
        assert du < MACHINE_EPS

    def test_unforced_power_law_periodic(self):
        """Variable-tau collision without forcing is fused identically."""
        lat = get_lattice("D2Q9")
        rng = np.random.default_rng(11)
        u0 = 0.04 * (rng.random((2, 14, 10)) - 0.5)

        def build(backend):
            return PowerLawMRPSolver(lat, periodic_box((14, 10)), 0.8, u0=u0,
                                     consistency=0.06, exponent=0.8,
                                     backend=backend)

        drho, du = run_pair(build, "fused")
        assert drho < MACHINE_EPS
        assert du < MACHINE_EPS

    def test_tau_field_tracks_reference(self):
        """The relaxation field itself matches after several steps."""
        build = power_law_channel_builder("D2Q9", 0.7)
        ref, fast = build("reference"), build("fused")
        ref.run(8)
        fast.run(8)
        # The relaxation field is a nonlinear function of the strain rate
        # (exponent (n-1)/n), which amplifies ulp-level state differences;
        # compare it with a relative tolerance rather than MACHINE_EPS.
        rel = np.abs(ref.tau_field - fast.tau_field) / np.abs(ref.tau_field)
        assert rel.max() < 1e-12

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
            periodic_problem("ST", "D2Q9", (8, 8), 0.8, backend="cuda")

    def test_reference_backend_needs_no_stepper(self):
        solver = periodic_problem("ST", "D2Q9", (8, 8), 0.8)
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
        st = periodic_problem("ST", "D2Q9", (8, 8), 0.8)
        mrp = periodic_problem("MR-P", "D2Q9", (8, 8), 0.8)
        mrr = periodic_problem("MR-R", "D2Q9", (8, 8), 0.8)
        pl = PowerLawMRPSolver(lat, periodic_box((8, 8)), 0.8,
                               consistency=0.05, exponent=0.7)
        assert solver_caps(st) == {"family": "st", "batched": True}
        assert solver_caps(mrp) == {"family": "mr", "scheme": "MR-P",
                                    "batched": True}
        assert solver_caps(mrr) == {"family": "mr", "scheme": "MR-R",
                                    "batched": True}
        # Variable-tau physics is per-node: certified for fused, but NOT
        # for lockstep batching.
        assert solver_caps(pl) == {"family": "mr", "scheme": "MR-P",
                                   "variable_tau": True}

    def test_forced_solver_accepted_for_fused(self):
        """Forcing no longer falls back: the fused stepper is built."""
        solver = periodic_problem("MR-P", "D2Q9", (8, 8), 0.8,
                                  force=np.array([1e-5, 0.0]))
        assert validate_backend(solver, "fused") is not None
        assert make_stepper(solver, "fused") is not None

    def test_validate_backend_reference_is_none(self):
        solver = periodic_problem("ST", "D2Q9", (8, 8), 0.8)
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
        solver = periodic_problem("MR-R", "D2Q9", (8, 8), 0.8)
        tau_field = np.full((8, 8), 0.8)
        with pytest.raises(ValueError, match="MR-P"):
            core.step(solver.m, [], solver.telemetry, tau_field=tau_field)
