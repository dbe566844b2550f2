"""Unit tests for the regularization machinery (Eqs. 8-9, recursions)."""

import numpy as np
import pytest

from repro.core import (equilibrium, hermite_delta_higher_order,
                        hermite_delta_second_order, macroscopic,
                        pi_neq_cols_from_f, recursive_a3_neq_cols,
                        recursive_a4_neq_cols, regularize_projective)


class TestPiNeq:
    def test_zero_for_equilibrium(self, lattice, random_state):
        rho, u, _ = random_state
        feq = equilibrium(lattice, rho, u)
        pi = pi_neq_cols_from_f(lattice, feq, rho, u)
        assert np.allclose(pi, 0, atol=1e-12)

    def test_matches_direct_projection(self, lattice, random_state):
        """Eq. 8: Pi_neq = sum H2 (f - f_eq)."""
        rho, u, f = random_state
        rho, u = macroscopic(lattice, f)
        feq = equilibrium(lattice, rho, u)
        direct = np.einsum("qt,q...->t...", lattice.h2_cols, f - feq)
        assert np.allclose(pi_neq_cols_from_f(lattice, f, rho, u), direct,
                           atol=1e-12)


class TestHermiteDeltas:
    def test_second_order_delta_has_zero_hydrodynamics(self, lattice, rng):
        """The regularized non-equilibrium part carries no mass/momentum."""
        grid = (4,) * lattice.d
        pi = rng.standard_normal((lattice.n_pairs, *grid))
        delta = hermite_delta_second_order(lattice, pi)
        assert np.allclose(delta.sum(axis=0), 0, atol=1e-13)
        mom = np.einsum("qa,q...->a...", lattice.c.astype(float), delta)
        assert np.allclose(mom, 0, atol=1e-13)

    def test_second_order_delta_reproduces_pi(self, lattice, rng):
        """sum H2 delta = Pi: the delta is the H2-inverse image."""
        grid = (3,) * lattice.d
        pi = rng.standard_normal((lattice.n_pairs, *grid))
        delta = hermite_delta_second_order(lattice, pi)
        got = np.einsum("qt,q...->t...", lattice.h2_cols, delta)
        assert np.allclose(got, pi, atol=1e-12)

    def test_higher_order_delta_preserves_first_three_moments(self, lattice, rng):
        """Eq. 14's extra terms are invisible to rho, j and Pi."""
        grid = (3,) * lattice.d
        a3 = rng.standard_normal((len(lattice.triple_tuples), *grid))
        a4 = rng.standard_normal((len(lattice.quad_tuples), *grid))
        delta = hermite_delta_higher_order(lattice, a3, a4)
        m = np.einsum("mq,q...->m...", lattice.moment_matrix, delta)
        assert np.allclose(m, 0, atol=1e-12)


class TestProjectiveRegularization:
    def test_idempotent(self, lattice, random_state):
        """Regularization is a projection: applying twice = applying once."""
        _, _, f = random_state
        f1 = regularize_projective(lattice, f)
        f2 = regularize_projective(lattice, f1)
        assert np.allclose(f1, f2, atol=1e-13)

    def test_preserves_tracked_moments(self, lattice, random_state):
        _, _, f = random_state
        from repro.core import moments_from_f

        f_reg = regularize_projective(lattice, f)
        assert np.allclose(
            moments_from_f(lattice, f_reg), moments_from_f(lattice, f),
            atol=1e-12,
        )


class TestRecursions:
    def test_a3_recursion_formula(self, lattice, rng):
        """a3_abc = u_a Pi_bc + u_b Pi_ac + u_c Pi_ab, component by component."""
        grid = (3,) * lattice.d
        u = rng.standard_normal((lattice.d, *grid))
        pi = rng.standard_normal((lattice.n_pairs, *grid))

        def pi_at(a, b):
            return pi[lattice.pair_index(a, b)]

        a3 = recursive_a3_neq_cols(lattice, u, pi)
        for k, (a, b, c) in enumerate(lattice.triple_tuples):
            expected = u[a] * pi_at(b, c) + u[b] * pi_at(a, c) + u[c] * pi_at(a, b)
            assert np.allclose(a3[k], expected)

    def test_a4_recursion_symmetric_pairs(self, lattice, rng):
        """a4 sums Pi over all six index-pair choices."""
        grid = (2,) * lattice.d
        u = rng.standard_normal((lattice.d, *grid))
        pi = rng.standard_normal((lattice.n_pairs, *grid))

        def pi_at(a, b):
            return pi[lattice.pair_index(a, b)]

        a4 = recursive_a4_neq_cols(lattice, u, pi)
        for k, (a, b, c, e) in enumerate(lattice.quad_tuples):
            expected = (
                u[a] * u[b] * pi_at(c, e) + u[a] * u[c] * pi_at(b, e)
                + u[a] * u[e] * pi_at(b, c) + u[b] * u[c] * pi_at(a, e)
                + u[b] * u[e] * pi_at(a, c) + u[c] * u[e] * pi_at(a, b)
            )
            assert np.allclose(a4[k], expected)

    def test_recursions_vanish_for_zero_pi(self, lattice, rng):
        grid = (2,) * lattice.d
        u = rng.standard_normal((lattice.d, *grid))
        zero = np.zeros((lattice.n_pairs, *grid))
        assert np.allclose(recursive_a3_neq_cols(lattice, u, zero), 0)
        assert np.allclose(recursive_a4_neq_cols(lattice, u, zero), 0)


class TestChapmanEnskogConsistency:
    """The recursion closed forms must match a direct Chapman-Enskog
    evaluation on a smooth manufactured field: at leading order,
    a3_neq ~ -tau cs2 rho (u_a S_bc + perms) with Pi_neq = -2 rho cs2 tau S.
    """

    @pytest.mark.parametrize("name", ["D2Q9", "D3Q19"])
    def test_a3_leading_order(self, name):
        from repro.lattice import get_lattice

        lat = get_lattice(name)
        rng = np.random.default_rng(7)
        u = 0.03 * rng.standard_normal(lat.d)
        grad = 1e-3 * rng.standard_normal((lat.d, lat.d))   # grad[a,b] = d_a u_b
        strain = 0.5 * (grad + grad.T)
        rho, tau = 1.0, 0.8
        pi_neq = np.stack(
            [-2.0 * rho * lat.cs2 * tau * strain[a, b]
             for a, b in lat.pair_tuples]
        )
        a3 = recursive_a3_neq_cols(lat, u.reshape(-1, 1), pi_neq.reshape(len(pi_neq), 1))
        # Direct CE form: -tau cs2 rho [u_a (d_b u_c + d_c u_b) + perms].
        for k, (a, b, c) in enumerate(lat.triple_tuples):
            expected = -2.0 * tau * lat.cs2 * rho * (
                u[a] * strain[b, c] + u[b] * strain[a, c] + u[c] * strain[a, b]
            )
            assert a3[k, 0] == pytest.approx(expected, rel=1e-12)
