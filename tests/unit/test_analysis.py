"""Unit tests for the analysis package (observables + convergence)."""

import numpy as np
import pytest

from repro.analysis import (deviatoric_stress_from_moments, enstrophy,
                            fit_convergence_order, mach_number,
                            reynolds_number, strain_rate_fd,
                            strain_rate_from_moments, velocity_gradient,
                            vorticity)
from repro.service.registry import build_single
from repro.validation import taylor_green_fields


def shear_field(n=32, amp=0.02):
    """u_x = amp sin(2 pi y / n): known gradient field."""
    u = np.zeros((2, n, n))
    y = np.arange(n)
    k = 2 * np.pi / n
    u[0] = amp * np.sin(k * y)[None, :]
    return u, amp, k


class TestGradientsAndVorticity:
    def test_velocity_gradient_shear(self):
        u, amp, k = shear_field()
        g = velocity_gradient(u)
        y = np.arange(32)
        # d_y u_x = amp k cos(k y) (central difference of a sine is exact
        # up to the sinc factor sin(k)/k).
        expected = amp * np.sin(k) / 1.0 * np.cos(k * y) / 1.0
        assert np.allclose(g[1, 0][0], expected, atol=1e-12)
        assert np.allclose(g[0, 0], 0)

    def test_vorticity_2d_shear(self):
        u, amp, k = shear_field()
        w = vorticity(u)
        # omega = d_x u_y - d_y u_x = -d_y u_x.
        g = velocity_gradient(u)
        assert np.allclose(w, -g[1, 0])

    def test_vorticity_3d_solid_rotation(self):
        n = 16
        x = np.arange(n) - n / 2 + 0.5
        u = np.zeros((3, n, n, n))
        # Solid-body rotation around z: u = Omega x r.
        omega_z = 1e-3
        u[0] = -omega_z * x[None, :, None]
        u[1] = omega_z * x[:, None, None]
        w = vorticity(u, periodic=False)
        interior = np.s_[2:-2, 2:-2, 2:-2]
        assert np.allclose(w[2][interior], 2 * omega_z, atol=1e-10)
        assert np.allclose(w[0][interior], 0, atol=1e-10)

    def test_dimension_checks(self):
        with pytest.raises(ValueError):
            velocity_gradient(np.zeros((3, 4, 4)))
        with pytest.raises(ValueError):
            vorticity(np.zeros((1, 5)))

    def test_enstrophy_positive(self):
        u, *_ = shear_field()
        assert enstrophy(u) > 0
        assert enstrophy(np.zeros_like(u)) == 0


class TestStrainFromMoments:
    def test_matches_fd_on_taylor_green(self, d2q9):
        """The gradient-free MR strain rate agrees with finite differences."""
        shape, tau = (48, 48), 0.8
        nu = (tau - 0.5) / 3
        rho_i, u_i = taylor_green_fields(shape, 0.0, nu, 0.03)
        s = build_single("periodic", "MR-P", "D2Q9", shape, tau=tau,
                         rho0=rho_i, u0=u_i)
        s.run(60)
        s_mom = strain_rate_from_moments(d2q9, s.m, tau)
        s_fd = strain_rate_fd(d2q9, s.velocity())
        scale = np.abs(s_fd).max()
        assert scale > 0
        assert np.abs(s_mom - s_fd).max() / scale < 0.05

    def test_zero_for_uniform_flow(self, d2q9):
        s = build_single("periodic", "MR-P", "D2Q9", (8, 8), tau=0.8,
                         u0=np.full((2, 8, 8), 0.03))
        s.run(3)
        strain = strain_rate_from_moments(d2q9, s.m, 0.8)
        assert np.abs(strain).max() < 1e-12

    def test_deviatoric_stress_scaling(self, d2q9):
        """sigma = 2 rho nu S componentwise."""
        shape, tau = (32, 32), 0.9
        nu = (tau - 0.5) / 3
        rho_i, u_i = taylor_green_fields(shape, 0.0, nu, 0.02)
        s = build_single("periodic", "MR-P", "D2Q9", shape, tau=tau,
                         rho0=rho_i, u0=u_i)
        s.run(20)
        strain = strain_rate_from_moments(d2q9, s.m, tau)
        stress = deviatoric_stress_from_moments(d2q9, s.m, tau)
        assert np.allclose(stress, 2 * nu * s.m[0] * strain, atol=1e-15)


class TestDimensionlessNumbers:
    def test_mach(self, d2q9):
        u = np.zeros((2, 4, 4))
        u[0] = 0.1
        ma = mach_number(d2q9, u)
        assert np.allclose(ma, 0.1 / np.sqrt(1 / 3))

    def test_reynolds(self, d2q9):
        assert reynolds_number(d2q9, 0.05, 60, 0.8) == pytest.approx(
            0.05 * 60 / 0.1
        )


class TestConvergenceFit:
    def test_exact_power_law(self):
        res = [8, 16, 32]
        errors = [1.0 / r ** 2 for r in res]
        assert fit_convergence_order(res, errors) == pytest.approx(2.0)

    def test_first_order(self):
        res = [10, 20, 40]
        errors = [0.3 / r for r in res]
        assert fit_convergence_order(res, errors) == pytest.approx(1.0)

    def test_input_validation(self):
        with pytest.raises(ValueError):
            fit_convergence_order([8], [0.1])
        with pytest.raises(ValueError):
            fit_convergence_order([8, 16], [0.1, -0.1])


@pytest.mark.parametrize("scheme", ["MR-P", "MR-R"])
def test_taylor_green_second_order(scheme):
    from repro.analysis import taylor_green_convergence

    errors, order = taylor_green_convergence(scheme, resolutions=(16, 24, 32))
    assert errors[0] > errors[-1]
    assert order > 1.6, (scheme, errors, order)
