"""Unit tests for moment-space projections (Eqs. 1-3, 11)."""

import numpy as np

from repro.core import (equilibrium, f_from_moments, macroscopic,
                        moments_from_f, pack_moments, pi_cols_from_tensor,
                        pi_tensor_from_cols, second_moment_cols, split_moments,
                        velocity_from_moments)


class TestProjection:
    def test_macroscopic_matches_sums(self, lattice, random_state):
        _, _, f = random_state
        rho, u = macroscopic(lattice, f)
        assert np.allclose(rho, f.sum(axis=0))
        j = np.einsum("qa,q...->a...", lattice.c.astype(float), f)
        assert np.allclose(u, j / rho)

    def test_moment_layout(self, lattice, random_state):
        _, _, f = random_state
        m = moments_from_f(lattice, f)
        rho, u = macroscopic(lattice, f)
        assert m.shape == (lattice.n_moments, *f.shape[1:])
        assert np.allclose(m[0], rho)
        assert np.allclose(m[1:1 + lattice.d], rho * u)
        assert np.allclose(m[1 + lattice.d:], second_moment_cols(lattice, f))

    def test_second_moment_definition(self, lattice, random_state):
        """Pi_ab = sum_i (c_ia c_ib - cs2 delta_ab) f_i (Eq. 3)."""
        _, _, f = random_state
        cols = second_moment_cols(lattice, f)
        c = lattice.c.astype(float)
        for k, (a, b) in enumerate(lattice.pair_tuples):
            expected = np.einsum("q,q...->...",
                                 c[:, a] * c[:, b]
                                 - lattice.cs2 * (a == b), f)
            assert np.allclose(cols[k], expected)

    def test_split_pack_roundtrip(self, lattice, random_state):
        _, _, f = random_state
        m = moments_from_f(lattice, f)
        rho, j, pi = split_moments(lattice, m)
        m2 = pack_moments(lattice, rho, j, pi)
        assert np.allclose(m, m2)

    def test_velocity_from_moments(self, lattice, random_state):
        rho, u, f = random_state
        m = moments_from_f(lattice, f)
        rho2, u2 = macroscopic(lattice, f)
        assert np.allclose(velocity_from_moments(lattice, m), u2)


class TestReconstruction:
    def test_equilibrium_is_fixed_point(self, lattice, random_state):
        """Reconstruction of equilibrium moments gives back Eq. 4."""
        rho, u, _ = random_state
        from repro.core import equilibrium_moments

        m = equilibrium_moments(lattice, rho, u)
        assert np.allclose(f_from_moments(lattice, m), equilibrium(lattice, rho, u))

    def test_moments_preserved(self, lattice, random_state):
        """M(R m) = m: Eq. 11 reproduces exactly its input moments."""
        _, _, f = random_state
        m = moments_from_f(lattice, f)
        f_rec = f_from_moments(lattice, m)
        assert np.allclose(moments_from_f(lattice, f_rec), m, atol=1e-12)

    def test_reconstruction_loses_only_higher_moments(self, lattice, random_state):
        """R(M f) != f in general (the state also has ghost content) but
        conserves everything the paper's moment space tracks."""
        _, _, f = random_state
        f_rec = f_from_moments(lattice, moments_from_f(lattice, f))
        r1, u1 = macroscopic(lattice, f)
        r2, u2 = macroscopic(lattice, f_rec)
        assert np.allclose(r1, r2)
        assert np.allclose(u1, u2)


class TestTensorHelpers:
    def test_cols_tensor_roundtrip(self, lattice, rng):
        grid = (4,) * lattice.d
        sym = rng.standard_normal((lattice.d, lattice.d, *grid))
        sym = sym + np.swapaxes(sym, 0, 1)
        cols = pi_cols_from_tensor(lattice, sym)
        back = pi_tensor_from_cols(lattice, cols)
        assert np.allclose(back, sym)

    def test_cols_shape(self, lattice):
        cols = pi_cols_from_tensor(
            lattice, np.zeros((lattice.d, lattice.d, 3))
        )
        assert cols.shape == (lattice.n_pairs, 3)
