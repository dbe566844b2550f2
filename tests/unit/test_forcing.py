"""Unit tests for Guo body-force coupling (distribution and moment space)."""

import numpy as np
import pytest

from repro.core import (apply_moment_space_force, collide_moments_projective,
                        collide_moments_recursive, equilibrium, guo_source,
                        moments_from_f, normalize_force)
from repro.geometry import periodic_box
from repro.solver import make_solver


class TestNormalizeForce:
    def test_vector_broadcast(self, d2q9):
        f = normalize_force(d2q9, [1e-4, 0.0], (4, 5))
        assert f.shape == (2, 4, 5)
        assert np.allclose(f[0], 1e-4)

    def test_field_passthrough(self, d2q9, rng):
        field = rng.standard_normal((2, 4, 5))
        f = normalize_force(d2q9, field, (4, 5))
        assert np.allclose(f, field)
        assert f is not field                      # copy, not alias

    def test_bad_shape(self, d2q9):
        with pytest.raises(ValueError, match="force"):
            normalize_force(d2q9, np.zeros(3), (4, 5))


class TestGuoSourceMoments:
    """The defining moment identities of the Guo source term."""

    def _setup(self, lat, rng):
        grid = (3,) * lat.d
        u = 0.05 * rng.standard_normal((lat.d, *grid))
        force = 1e-3 * rng.standard_normal((lat.d, *grid))
        return u, force

    def test_zeroth_moment_vanishes(self, lattice, rng):
        u, force = self._setup(lattice, rng)
        s = guo_source(lattice, u, force, tau=0.8)
        assert np.allclose(s.sum(axis=0), 0, atol=1e-14)

    def test_first_moment(self, lattice, rng):
        u, force = self._setup(lattice, rng)
        tau = 0.8
        s = guo_source(lattice, u, force, tau)
        mom = np.einsum("qa,q...->a...", lattice.c.astype(float), s)
        assert np.allclose(mom, (1 - 0.5 / tau) * force, atol=1e-13)

    def test_second_hermite_moment(self, lattice, rng):
        """sum H2 S = (1 - 1/(2tau)) (u F + F u) up to lattice anisotropy."""
        u, force = self._setup(lattice, rng)
        tau = 0.7
        s = guo_source(lattice, u, force, tau)
        got = np.einsum("qt,q...->t...", lattice.h2_cols, s)
        for k, (a, b) in enumerate(lattice.pair_tuples):
            expected = (1 - 0.5 / tau) * (u[a] * force[b] + u[b] * force[a])
            # D3Q15/19 have imperfect 4th-order isotropy: allow small slack.
            assert np.allclose(got[k], expected, atol=2e-5), (a, b)

    def test_moment_space_matches_projection(self, lattice, rng):
        """The Guo source is the reconstruction of its moments ``(0, pref
        F, pref (u F + F u))`` on every lattice, to roundoff (what the fast
        cores relax with); apply_moment_space_force == moments of the full
        Guo source, for fully fourth-order-isotropic lattices."""
        u, force = self._setup(lattice, rng)
        tau, d = 0.9, lattice.d
        s = guo_source(lattice, u, force, tau)
        src = np.zeros((lattice.n_moments, *u.shape[1:]))
        src[1:1 + d] = force
        for k, (a, b) in enumerate(lattice.pair_tuples):
            src[1 + d + k] = u[a] * force[b] + u[b] * force[a]
        rebuilt = np.einsum("qm,m...->q...", lattice.reconstruction_matrix,
                            (1 - 0.5 / tau) * src)
        assert np.abs(rebuilt - s).max() <= 1e-14 * np.abs(s).max()
        if lattice.name in ("D3Q15", "D3Q19"):
            pytest.skip("anisotropic 4th moments: projection differs slightly")
        proj = moments_from_f(lattice, s)
        m = np.zeros_like(proj)
        apply_moment_space_force(lattice, m, u, force, tau)
        # First moment: the solver adds F to j overall; the raw source
        # carries (1 - 1/(2 tau)) F (the rest enters via feq(u*)).
        assert np.allclose(proj[0], m[0], atol=1e-14)
        assert np.allclose(proj[1 + lattice.d:], m[1 + lattice.d:], atol=1e-13)


class TestForcedCollisions:
    def test_momentum_input_exact(self, paper_lattice):
        """One forced collision adds exactly F to the momentum."""
        lat = paper_lattice
        grid = (4,) * lat.d
        rng = np.random.default_rng(0)
        rho = 1 + 0.02 * rng.standard_normal(grid)
        u = 0.02 * rng.standard_normal((lat.d, *grid))
        f = equilibrium(lat, rho, u)
        m = moments_from_f(lat, f)
        force = np.zeros((lat.d, *grid))
        force[0] = 1e-3
        m_star = collide_moments_projective(lat, m, 0.8, force=force)
        assert np.allclose(m_star[1] - m[1], 1e-3)
        assert np.allclose(m_star[0], m[0])

    def test_recursive_reduces_to_projective_at_zero_velocity(self, d2q9):
        grid = (4, 4)
        rho = np.ones(grid)
        f = equilibrium(d2q9, rho, np.zeros((2, *grid)))
        m = moments_from_f(d2q9, f)
        force = np.zeros((2, *grid))
        force[1] = 5e-4
        from repro.core import f_from_moments

        fp = f_from_moments(
            d2q9, collide_moments_projective(d2q9, m, 0.8, force=force)
        )
        fr = collide_moments_recursive(d2q9, m, 0.8, force=force)
        # u* = F/(2 rho) != 0, so tiny higher-order differences ~ O(u*^3).
        assert np.allclose(fp, fr, atol=1e-9)

    def test_zero_force_is_noop(self, d2q9, rng):
        grid = (4, 4)
        rho = 1 + 0.02 * rng.standard_normal(grid)
        u = 0.02 * rng.standard_normal((2, *grid))
        m = moments_from_f(d2q9, equilibrium(d2q9, rho, u))
        zero = np.zeros((2, *grid))
        a = collide_moments_projective(d2q9, m, 0.8)
        b = collide_moments_projective(d2q9, m, 0.8, force=zero)
        assert np.allclose(a, b, atol=1e-15)


class TestForcedSolvers:
    @pytest.mark.parametrize("scheme", ["ST", "MR-P", "MR-R"])
    def test_uniform_acceleration(self, d2q9, scheme):
        """Free periodic fluid under constant force: momentum grows by
        N * F per step (plus the half-force shift in the reported u)."""
        n_steps = 8
        fx = 2e-4
        s = make_solver(scheme, d2q9, periodic_box((6, 6)), 0.8,
                        force=np.array([fx, 0.0]))
        s.run(n_steps)
        rho, u = s.macroscopic()
        px = (rho * u[0]).sum()
        expected = 36 * fx * n_steps + 36 * fx / 2
        assert px == pytest.approx(expected, rel=1e-10)

    def test_st_requires_bgk_for_forcing(self, d2q9):
        from repro.core import ProjectiveRegularizedCollision
        from repro.solver import STSolver

        with pytest.raises(ValueError, match="BGK"):
            STSolver(d2q9, periodic_box((4, 4)), 0.8,
                     collision=ProjectiveRegularizedCollision(0.8),
                     force=np.array([1e-4, 0.0]))

    def test_force_zeroed_in_walls(self, d2q9):
        from repro.geometry import channel_2d

        dom = channel_2d(6, 5, with_io=False)
        s = make_solver("MR-P", d2q9, dom, 0.8, force=np.array([1e-3, 0.0]))
        assert np.allclose(s.force[:, dom.solid_mask], 0.0)

    @pytest.mark.parametrize("scheme", ["ST", "MR-P", "MR-R"])
    def test_forced_poiseuille(self, scheme):
        """Steady body-force-driven channel matches the parabola."""
        from repro.service.registry import build_single
        from repro.validation import poiseuille_profile

        s = build_single("forced-channel", scheme, "D2Q9", (12, 22), tau=0.9,
                         u_max=0.03)
        s.run_to_steady_state(tol=1e-10, check_interval=200, max_steps=60_000)
        ux = s.velocity()[0]
        ana = poiseuille_profile(22, 0.03)
        err = np.abs(ux[6, 1:-1] - ana[1:-1]).max() / 0.03
        # BGK carries the well-known tau-dependent bounce-back slip; the
        # regularized schemes are nearly exact for this flow.
        tol = 5e-3 if scheme == "ST" else 1e-3
        assert err < tol, (scheme, err)
