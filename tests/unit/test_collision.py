"""Unit tests for the three collision operators and their moment forms."""

import numpy as np
import pytest

from repro.core import (BGKCollision, ProjectiveRegularizedCollision,
                        RecursiveRegularizedCollision,
                        collide_moments_projective, collide_moments_recursive,
                        collision_from_name, equilibrium, f_from_moments,
                        macroscopic, moments_from_f)

OPERATORS = [BGKCollision, ProjectiveRegularizedCollision, RecursiveRegularizedCollision]


class TestCommonProperties:
    @pytest.mark.parametrize("op_cls", OPERATORS)
    def test_conserves_mass_momentum(self, lattice, random_state, op_cls):
        _, _, f = random_state
        f_star = op_cls(0.8)(lattice, f)
        r1, u1 = macroscopic(lattice, f)
        r2, u2 = macroscopic(lattice, f_star)
        assert np.allclose(r1, r2, atol=1e-12)
        assert np.allclose(r1 * u1, r2 * u2, atol=1e-12)

    @pytest.mark.parametrize("op_cls", [BGKCollision, ProjectiveRegularizedCollision])
    def test_equilibrium_is_fixed_point(self, lattice, random_state, op_cls):
        rho, u, _ = random_state
        feq = equilibrium(lattice, rho, u)
        assert np.allclose(op_cls(0.7)(lattice, feq), feq, atol=1e-12)

    def test_extended_equilibrium_is_recursive_fixed_point(self, lattice, random_state):
        """MR-R's equilibrium includes the third/fourth-order Hermite terms
        (Eq. 14 with zero non-equilibrium parts)."""
        from repro.core import equilibrium_extended

        rho, u, _ = random_state
        feq4 = equilibrium_extended(lattice, rho, u)
        assert np.allclose(
            RecursiveRegularizedCollision(0.7)(lattice, feq4), feq4, atol=1e-12
        )

    @pytest.mark.parametrize("op_cls", [BGKCollision, ProjectiveRegularizedCollision])
    def test_tau_one_projects_to_equilibrium(self, lattice, random_state, op_cls):
        """At tau = 1 the non-equilibrium part is fully discarded."""
        _, _, f = random_state
        rho, u = macroscopic(lattice, f)
        f_star = op_cls(1.0)(lattice, f)
        assert np.allclose(f_star, equilibrium(lattice, rho, u), atol=1e-12)

    def test_recursive_tau_one_projects_to_extended_equilibrium(
            self, lattice, random_state):
        from repro.core import equilibrium_extended

        _, _, f = random_state
        rho, u = macroscopic(lattice, f)
        f_star = RecursiveRegularizedCollision(1.0)(lattice, f)
        assert np.allclose(f_star, equilibrium_extended(lattice, rho, u),
                           atol=1e-12)

    @pytest.mark.parametrize("op_cls", OPERATORS)
    def test_invalid_tau_rejected(self, op_cls):
        with pytest.raises(ValueError, match="tau"):
            op_cls(0.5)
        with pytest.raises(ValueError, match="tau"):
            op_cls(-1.0)

    @pytest.mark.parametrize("op_cls", OPERATORS)
    def test_omega(self, op_cls):
        assert op_cls(0.8).omega == pytest.approx(1.25)

    def test_viscosity_passthrough(self, paper_lattice):
        op = BGKCollision(0.9)
        assert op.viscosity(paper_lattice) == pytest.approx(0.4 / 3)


class TestRegularizationEffects:
    def test_projective_filters_ghost_content(self, lattice, random_state):
        """Projective collision output is fully determined by the moments."""
        _, _, f = random_state
        op = ProjectiveRegularizedCollision(0.8)
        f_star = op(lattice, f)
        # Add ghost noise that leaves the first three moment sets unchanged.
        m = moments_from_f(lattice, f)
        f_ghost = f_from_moments(lattice, m)      # same moments, no ghosts
        assert np.allclose(op(lattice, f_ghost), f_star, atol=1e-12)

    def test_bgk_keeps_ghost_content(self, lattice, random_state):
        """BGK, by contrast, is sensitive to ghost (higher-order) content."""
        _, _, f = random_state
        op = BGKCollision(0.8)
        m = moments_from_f(lattice, f)
        f_ghost = f_from_moments(lattice, m)
        if not np.allclose(f, f_ghost):
            assert not np.allclose(op(lattice, f), op(lattice, f_ghost))

    def test_projective_vs_recursive_differ(self, paper_lattice, rng):
        lat = paper_lattice
        grid = (4,) * lat.d
        rho = 1.0 + 0.05 * rng.standard_normal(grid)
        u = 0.04 * rng.standard_normal((lat.d, *grid))
        f = equilibrium(lat, rho, u) * (
            1.0 + 0.02 * rng.standard_normal((lat.q, *grid))
        )
        fp = ProjectiveRegularizedCollision(0.8)(lat, f)
        fr = RecursiveRegularizedCollision(0.8)(lat, f)
        assert not np.allclose(fp, fr)

    def test_recursive_equals_projective_at_zero_velocity(self, lattice, rng):
        """With u = 0 the recursions vanish, so MR-R == MR-P."""
        grid = (3,) * lattice.d
        rho = 1.0 + 0.05 * rng.standard_normal(grid)
        u0 = np.zeros((lattice.d, *grid))
        f = equilibrium(lattice, rho, u0)
        pi_noise = rng.standard_normal((lattice.n_pairs, *grid)) * 0.01
        from repro.core import hermite_delta_second_order

        f = f + hermite_delta_second_order(lattice, pi_noise)
        fp = ProjectiveRegularizedCollision(0.8)(lattice, f)
        fr = RecursiveRegularizedCollision(0.8)(lattice, f)
        assert np.allclose(fp, fr, atol=1e-13)


class TestMomentSpaceForms:
    def test_projective_equivalence(self, lattice, random_state):
        """Eqs. 10-11 == Eq. 9 to machine precision (losslessness)."""
        _, _, f = random_state
        tau = 0.8
        fd = ProjectiveRegularizedCollision(tau)(lattice, f)
        fm = f_from_moments(
            lattice, collide_moments_projective(lattice, moments_from_f(lattice, f), tau)
        )
        assert np.allclose(fd, fm, atol=1e-13)

    def test_recursive_equivalence(self, lattice, random_state):
        """Eqs. 10+12-14 in moment space == distribution space."""
        _, _, f = random_state
        tau = 0.8
        fd = RecursiveRegularizedCollision(tau)(lattice, f)
        fm = collide_moments_recursive(lattice, moments_from_f(lattice, f), tau)
        assert np.allclose(fd, fm, atol=1e-13)

    def test_moment_collision_conserves(self, lattice, random_state):
        _, _, f = random_state
        m = moments_from_f(lattice, f)
        m_star = collide_moments_projective(lattice, m, 0.9)
        assert np.allclose(m_star[0], m[0])
        assert np.allclose(m_star[1:1 + lattice.d], m[1:1 + lattice.d])

    def test_moment_collision_relaxes_pi(self, lattice, random_state):
        _, _, f = random_state
        m = moments_from_f(lattice, f)
        tau = 0.8
        m_star = collide_moments_projective(lattice, m, tau)
        rho = m[0]
        u = m[1:1 + lattice.d] / rho
        for k, (a, b) in enumerate(lattice.pair_tuples):
            pi_eq = rho * u[a] * u[b]
            expected = pi_eq + (1 - 1 / tau) * (m[1 + lattice.d + k] - pi_eq)
            assert np.allclose(m_star[1 + lattice.d + k], expected)

    def test_invalid_tau(self, paper_lattice):
        m = np.zeros((paper_lattice.n_moments, 2, 2) if paper_lattice.d == 2
                     else (paper_lattice.n_moments, 2, 2, 2))
        m[0] = 1.0
        with pytest.raises(ValueError):
            collide_moments_projective(paper_lattice, m, 0.3)
        with pytest.raises(ValueError):
            collide_moments_recursive(paper_lattice, m, 0.3)


class TestFactory:
    @pytest.mark.parametrize("name,cls", [
        ("bgk", BGKCollision), ("ST", BGKCollision),
        ("projective", ProjectiveRegularizedCollision),
        ("MR-P", ProjectiveRegularizedCollision),
        ("recursive", RecursiveRegularizedCollision),
        ("mr_r", RecursiveRegularizedCollision),
    ])
    def test_names(self, name, cls):
        assert isinstance(collision_from_name(name, 0.8), cls)

    def test_unknown(self):
        with pytest.raises(ValueError):
            collision_from_name("mrt", 0.8)
