"""Unit tests for equilibrium distributions and equilibrium moments."""

import numpy as np
import pytest

from repro.core import (a3_equilibrium_cols, a4_equilibrium_cols, equilibrium,
                        equilibrium_extended, equilibrium_moments, macroscopic,
                        moments_from_f)


class TestSecondOrderEquilibrium:
    def test_rest_state_is_weights(self, lattice):
        rho = np.ones((3,) * lattice.d)
        u = np.zeros((lattice.d,) + rho.shape)
        feq = equilibrium(lattice, rho, u)
        assert np.allclose(feq, lattice.w.reshape((-1,) + (1,) * lattice.d))

    def test_moments_recovered(self, lattice, random_state):
        rho, u, _ = random_state
        feq = equilibrium(lattice, rho, u)
        r2, u2 = macroscopic(lattice, feq)
        assert np.allclose(r2, rho)
        assert np.allclose(u2, u)

    def test_second_moment_is_rho_uu(self, lattice, random_state):
        """sum H2 f_eq = rho u u — the identity behind Eq. 10's Pi_eq."""
        rho, u, _ = random_state
        feq = equilibrium(lattice, rho, u)
        m = moments_from_f(lattice, feq)
        for k, (a, b) in enumerate(lattice.pair_tuples):
            assert np.allclose(m[1 + lattice.d + k], rho * u[a] * u[b])

    def test_scales_linearly_with_density(self, lattice, random_state):
        rho, u, _ = random_state
        assert np.allclose(
            equilibrium(lattice, 2 * rho, u), 2 * equilibrium(lattice, rho, u)
        )

    def test_galilean_symmetry(self, lattice, random_state):
        """f_eq(rho, -u) at c equals f_eq(rho, u) at -c."""
        rho, u, _ = random_state
        f_plus = equilibrium(lattice, rho, u)
        f_minus = equilibrium(lattice, rho, -u)
        assert np.allclose(f_minus, f_plus[lattice.opposite])

    def test_rejects_bad_velocity_shape(self, lattice):
        rho = np.ones((3,) * lattice.d)
        with pytest.raises(ValueError, match="leading axis"):
            equilibrium(lattice, rho, np.zeros((lattice.d + 1, *rho.shape)))


class TestEquilibriumMoments:
    def test_matches_projection(self, lattice, random_state):
        rho, u, _ = random_state
        m_direct = equilibrium_moments(lattice, rho, u)
        m_proj = moments_from_f(lattice, equilibrium(lattice, rho, u))
        assert np.allclose(m_direct, m_proj, atol=1e-12)


class TestExtendedEquilibrium:
    def test_conserves_hydrodynamics(self, lattice, random_state):
        rho, u, _ = random_state
        feq4 = equilibrium_extended(lattice, rho, u)
        r2, u2 = macroscopic(lattice, feq4)
        assert np.allclose(r2, rho)
        assert np.allclose(u2, u)

    def test_reduces_to_second_order_at_rest(self, lattice):
        rho = np.full((3,) * lattice.d, 1.1)
        u = np.zeros((lattice.d,) + rho.shape)
        assert np.allclose(
            equilibrium_extended(lattice, rho, u), equilibrium(lattice, rho, u)
        )

    def test_higher_order_terms_are_order_u3(self, lattice):
        """Extended minus second-order equilibrium scales like u^3."""
        rho = np.ones((2,) * lattice.d)
        u1 = np.full((lattice.d,) + rho.shape, 0.02)
        u2 = 2 * u1
        d1 = np.abs(equilibrium_extended(lattice, rho, u1)
                    - equilibrium(lattice, rho, u1)).max()
        d2 = np.abs(equilibrium_extended(lattice, rho, u2)
                    - equilibrium(lattice, rho, u2)).max()
        if d1 > 0:
            assert 6.0 < d2 / d1 < 18.0       # ~8x for cubic leading term

    def test_a3_a4_equilibrium_cols(self, lattice, random_state):
        rho, u, _ = random_state
        a3 = a3_equilibrium_cols(lattice, rho, u)
        for k, (a, b, c) in enumerate(lattice.triple_tuples):
            assert np.allclose(a3[k], rho * u[a] * u[b] * u[c])
        a4 = a4_equilibrium_cols(lattice, rho, u)
        for k, (a, b, c, e) in enumerate(lattice.quad_tuples):
            assert np.allclose(a4[k], rho * u[a] * u[b] * u[c] * u[e])


class TestScalarDensity:
    """Regression: ``equilibrium(lat, 1.0, u)`` — the call ``Solver(rho0=1.0)``
    invites. The weights used to be reshaped by ``rho.ndim`` (0 for a
    scalar) and so broadcast along the *last grid axis*: silently wrong
    populations on a grid whose last extent equals ``Q``, an opaque
    broadcast error on any other."""

    @staticmethod
    def fields(grid):
        from repro.lattice import get_lattice

        lat = get_lattice("D2Q9")
        u = np.zeros((lat.d, *grid))
        u[0] = 0.01
        u[1] = np.linspace(-0.02, 0.02, grid[1])
        return lat, u

    @pytest.mark.parametrize("grid", [(5, 9), (5, 7)],
                             ids=["last-extent-is-Q", "last-extent-is-not-Q"])
    @pytest.mark.parametrize("fn", [equilibrium, equilibrium_moments,
                                    equilibrium_extended],
                             ids=lambda fn: fn.__name__)
    def test_scalar_equals_grid_of_that_scalar(self, fn, grid):
        lat, u = self.fields(grid)
        for rho in (1.0, 0.97, np.float64(1.25), np.array(1.1)):
            full = fn(lat, np.full(grid, float(rho)), u)
            assert full.shape[1:] == grid
            assert np.array_equal(fn(lat, rho, u), full)

    def test_density_broadcasts_against_the_grid(self):
        lat, u = self.fields((5, 9))
        row = np.linspace(0.9, 1.1, 9)              # one value per column
        full = np.broadcast_to(row, (5, 9)).copy()
        assert np.array_equal(equilibrium(lat, row, u),
                              equilibrium(lat, full, u))
        assert np.array_equal(equilibrium_moments(lat, row, u),
                              equilibrium_moments(lat, full, u))

    def test_grid_shaped_density_is_the_whole_array_expression(self,
                                                               lattice,
                                                               random_state):
        """The blocked evaluation is the one-expression Eq. 4 bit for bit."""
        rho, u, _ = random_state
        cu = np.einsum("qa,a...->q...", lattice.c.astype(np.float64), u)
        usq = np.einsum("a...,a...->...", u, u)
        whole = lattice.w.reshape((-1,) + (1,) * rho.ndim) * rho * (
            1.0 + cu / lattice.cs2 + cu * cu / (2.0 * lattice.cs4)
            - usq / (2.0 * lattice.cs2))
        assert np.array_equal(equilibrium(lattice, rho, u), whole)
