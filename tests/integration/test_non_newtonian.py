"""Integration: power-law (non-Newtonian) channel flows.

The moment representation's gradient-free shear rate drives a per-node
adaptive relaxation time; steady force-driven channel profiles must match
the analytic Ostwald-de Waele solutions for shear-thinning (n < 1),
Newtonian (n = 1) and shear-thickening (n > 1) fluids.
"""

import numpy as np
import pytest

from repro.boundary import HalfwayBounceBack
from repro.geometry import channel_2d, periodic_box
from repro.lattice import get_lattice
from repro.solver.non_newtonian import (PowerLawMRPSolver, power_law_force,
                                        power_law_poiseuille_profile)


def run_power_law(n, K, u_max, shape=(8, 26), max_steps=120_000):
    lat = get_lattice("D2Q9")
    force = power_law_force(u_max, shape[1] - 2, K, n)
    solver = PowerLawMRPSolver(
        lat, channel_2d(*shape, with_io=False), tau=0.6,
        boundaries=[HalfwayBounceBack()],
        force=np.array([force, 0.0]),
        consistency=K, exponent=n,
    )
    solver.run_to_steady_state(tol=1e-11, check_interval=500,
                               max_steps=max_steps)
    return solver


class TestAnalyticProfiles:
    @pytest.mark.parametrize("n,K,u_max,tol", [
        (0.7, 0.05, 0.02, 5e-3),      # shear-thinning
        (1.0, 0.05, 0.02, 2e-3),      # Newtonian sanity
        (1.5, 0.36, 0.05, 5e-3),      # shear-thickening
    ])
    def test_profile(self, n, K, u_max, tol):
        solver = run_power_law(n, K, u_max)
        ux = solver.velocity()[0][4]
        ana = power_law_poiseuille_profile(solver.domain.shape[1], u_max, n)
        err = np.abs(ux[1:-1] - ana[1:-1]).max() / u_max
        assert err < tol, (n, err)

    def test_shear_thinning_blunter_than_parabola(self):
        """n < 1 flattens the core: u at quarter-height exceeds the
        Newtonian value for equal peak velocity."""
        prof_07 = power_law_poiseuille_profile(26, 1.0, 0.7)
        prof_10 = power_law_poiseuille_profile(26, 1.0, 1.0)
        quarter = 6
        assert prof_07[quarter] > prof_10[quarter]

    def test_viscosity_field_structure(self):
        """Shear-thinning: apparent viscosity is lowest at the walls
        (highest shear) and highest at the centreline."""
        solver = run_power_law(0.7, 0.05, 0.02)
        nu = solver.apparent_viscosity()[4, 1:-1]
        mid = nu.size // 2
        assert nu[mid] > 1.5 * nu[0]
        assert nu[mid] > 1.5 * nu[-1]

    def test_newtonian_limit_matches_mrp(self):
        """n = 1 reproduces the plain MR-P solver exactly at steady state."""
        from repro.validation import poiseuille_profile

        solver = run_power_law(1.0, 0.05, 0.02)
        ana = poiseuille_profile(26, 0.02)
        err = np.abs(solver.velocity()[0][4, 1:-1] - ana[1:-1]).max() / 0.02
        assert err < 2e-3


class TestConstruction:
    def test_validation(self):
        lat = get_lattice("D2Q9")
        box = periodic_box((6, 6))
        with pytest.raises(ValueError, match="consistency"):
            PowerLawMRPSolver(lat, box, 0.8, consistency=-1.0)
        with pytest.raises(ValueError, match="flow index"):
            PowerLawMRPSolver(lat, box, 0.8, exponent=0.0)
        with pytest.raises(ValueError, match="bounds"):
            PowerLawMRPSolver(lat, box, 0.8, nu_bounds=(0.1, 0.01))

    def test_conservation(self):
        lat = get_lattice("D2Q9")
        rng = np.random.default_rng(0)
        u0 = 0.03 * rng.standard_normal((2, 8, 8))
        s = PowerLawMRPSolver(lat, periodic_box((8, 8)), 0.7,
                              consistency=0.05, exponent=0.8, u0=u0)
        m0 = s.diagnostics.mass()
        p0 = s.diagnostics.momentum()
        s.run(20)
        assert s.diagnostics.mass() == pytest.approx(m0, rel=1e-12)
        assert np.allclose(s.diagnostics.momentum(), p0, atol=1e-12)

    def test_tau_field_shape_and_bounds(self):
        lat = get_lattice("D2Q9")
        s = PowerLawMRPSolver(lat, periodic_box((8, 8)), 0.7,
                              consistency=0.05, exponent=0.7)
        s.run(3)
        assert s.tau_field.shape == (8, 8)
        nu = s.apparent_viscosity()
        assert (nu >= s.nu_bounds[0] - 1e-15).all()
        assert (nu <= s.nu_bounds[1] + 1e-15).all()
