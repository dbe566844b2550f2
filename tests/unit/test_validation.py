"""Unit tests for analytic solutions and error norms."""

import numpy as np
import pytest

from repro.validation import (duct_profile, kinetic_energy, l2_error,
                              linf_error, poiseuille_pressure_gradient,
                              poiseuille_profile, relative_l2_error,
                              taylor_green_decay_rate, taylor_green_fields)


class TestPoiseuille:
    def test_peak_at_centre(self):
        prof = poiseuille_profile(33, 0.1)
        assert prof.max() == pytest.approx(0.1, rel=1e-3)
        assert np.argmax(prof) == 16

    def test_walls_zero(self):
        prof = poiseuille_profile(20, 0.1)
        assert prof[0] == 0 and prof[-1] == 0

    def test_symmetry(self):
        prof = poiseuille_profile(24, 0.05)
        assert np.allclose(prof, prof[::-1])

    def test_nonnegative(self):
        assert (poiseuille_profile(11, 0.03) >= 0).all()

    def test_pressure_gradient_sign(self):
        assert poiseuille_pressure_gradient(0.05, 20, 0.1) < 0


class TestDuct:
    def test_peak_normalized(self):
        prof = duct_profile(21, 21, 0.07)
        assert prof.max() == pytest.approx(0.07)

    def test_rim_zero(self):
        prof = duct_profile(15, 13, 0.05)
        assert np.allclose(prof[0], 0) and np.allclose(prof[-1], 0)
        assert np.allclose(prof[:, 0], 0) and np.allclose(prof[:, -1], 0)

    def test_square_duct_symmetry(self):
        prof = duct_profile(17, 17, 0.05)
        # Exact mirror symmetry along the series axis; transpose symmetry
        # only up to the Fourier truncation.
        assert np.allclose(prof, prof[::-1, :], atol=1e-12)
        assert np.allclose(prof, prof.T, atol=1e-4)

    def test_wide_duct_approaches_poiseuille(self):
        """A very wide duct's central column tends to plane Poiseuille."""
        ny, nz = 18, 130
        prof = duct_profile(ny, nz, 0.04)
        centre = prof[:, nz // 2]
        plane = poiseuille_profile(ny, 0.04)
        assert np.allclose(centre[1:-1], plane[1:-1], rtol=0.02)


class TestTaylorGreen:
    def test_incompressible_initial_field(self):
        _, u = taylor_green_fields((32, 32), 0.0, 0.01, 0.05)
        div = np.gradient(u[0], axis=0) + np.gradient(u[1], axis=1)
        assert np.abs(div).max() < 1e-3

    def test_decay(self):
        nu, shape = 0.02, (32, 32)
        _, u0 = taylor_green_fields(shape, 0.0, nu, 0.05)
        _, u1 = taylor_green_fields(shape, 100.0, nu, 0.05)
        expected = np.exp(-nu * 2 * (2 * np.pi / 32) ** 2 * 100)
        assert np.abs(u1).max() / np.abs(u0).max() == pytest.approx(expected, rel=1e-6)

    def test_decay_rate_helper(self):
        rate = taylor_green_decay_rate((32, 64), 0.01)
        kx, ky = 2 * np.pi / 32, 2 * np.pi / 64
        assert rate == pytest.approx(2 * 0.01 * (kx ** 2 + ky ** 2))

    def test_mean_density_preserved(self):
        rho, _ = taylor_green_fields((48, 48), 0.0, 0.01, 0.05, rho0=1.2)
        assert rho.mean() == pytest.approx(1.2, abs=1e-6)


class TestNorms:
    def test_l2(self, rng):
        a = rng.standard_normal((5, 5))
        assert l2_error(a, a) == 0
        assert l2_error(a, a + 1) == pytest.approx(1.0)

    def test_linf(self):
        a = np.zeros(4)
        b = np.array([0, -3, 2, 0.5])
        assert linf_error(a, b) == 3

    def test_masked(self):
        a = np.zeros((3, 3))
        b = np.zeros((3, 3))
        b[0, 0] = 5
        mask = np.ones((3, 3), bool)
        mask[0, 0] = False
        assert linf_error(a, b, mask) == 0
        assert linf_error(a, b) == 5

    def test_relative_l2(self):
        ref = np.full(10, 2.0)
        assert relative_l2_error(1.9 * np.ones(10) + 0.1, ref) == pytest.approx(0.0)
        assert relative_l2_error(np.zeros(10), ref) == pytest.approx(1.0)
        with pytest.raises(ValueError):
            relative_l2_error(ref, np.zeros(10))

    def test_kinetic_energy(self):
        rho = np.full((2, 2), 2.0)
        u = np.ones((2, 2, 2))
        assert kinetic_energy(rho, u) == pytest.approx(0.5 * 2 * 2 * 4)

    def test_vector_field_masking(self, rng):
        rho = np.ones((4, 4))
        u = rng.standard_normal((2, 4, 4))
        mask = np.zeros((4, 4), bool)
        mask[1:3, 1:3] = True
        full = kinetic_energy(rho, u)
        partial = kinetic_energy(rho, u, mask)
        assert partial < full
