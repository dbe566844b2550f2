"""Property-based tests (hypothesis) for the core moment/collision algebra."""

import numpy as np
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from repro.core import (BGKCollision, ProjectiveRegularizedCollision,
                        RecursiveRegularizedCollision,
                        collide_moments_projective, collide_moments_recursive,
                        equilibrium, f_from_moments, macroscopic,
                        moments_from_f, regularize_projective, stream_push)
from repro.lattice import get_lattice

LATTICES = ["D1Q3", "D2Q9", "D3Q19"]


def state_strategy(lattice_name: str):
    """Random positive near-equilibrium distribution states."""
    lat = get_lattice(lattice_name)
    grid = {1: (6,), 2: (4, 3), 3: (3, 3, 2)}[lat.d]
    rho_s = hnp.arrays(np.float64, grid,
                       elements=st.floats(0.7, 1.4))
    u_s = hnp.arrays(np.float64, (lat.d, *grid),
                     elements=st.floats(-0.08, 0.08))
    noise_s = hnp.arrays(np.float64, (lat.q, *grid),
                         elements=st.floats(-0.03, 0.03))

    @st.composite
    def build(draw):
        rho = draw(rho_s)
        u = draw(u_s)
        noise = draw(noise_s)
        f = equilibrium(lat, rho, u) * (1.0 + noise)
        return lat, f

    return build()


@st.composite
def any_state(draw):
    name = draw(st.sampled_from(LATTICES))
    return draw(state_strategy(name))


class TestConservationProperties:
    @given(any_state(), st.floats(0.55, 3.0))
    @settings(max_examples=40, deadline=None)
    def test_collisions_conserve_mass_momentum(self, state, tau):
        lat, f = state
        for op in (BGKCollision(tau), ProjectiveRegularizedCollision(tau),
                   RecursiveRegularizedCollision(tau)):
            f_star = op(lat, f)
            r0, u0 = macroscopic(lat, f)
            r1, u1 = macroscopic(lat, f_star)
            np.testing.assert_allclose(r1, r0, rtol=1e-10, atol=1e-12)
            np.testing.assert_allclose(r1 * u1, r0 * u0, rtol=1e-8, atol=1e-12)

    @given(any_state())
    @settings(max_examples=30, deadline=None)
    def test_streaming_permutes_values(self, state):
        """Streaming is a pure permutation: sorted values are invariant."""
        lat, f = state
        out = stream_push(lat, f)
        for i in range(lat.q):
            np.testing.assert_array_equal(
                np.sort(out[i], axis=None), np.sort(f[i], axis=None)
            )


class TestMomentSpaceProperties:
    @given(any_state())
    @settings(max_examples=30, deadline=None)
    def test_projection_reconstruction_identity(self, state):
        """M . R = identity on moment space, for arbitrary states."""
        lat, f = state
        m = moments_from_f(lat, f)
        m2 = moments_from_f(lat, f_from_moments(lat, m))
        np.testing.assert_allclose(m2, m, rtol=1e-9, atol=1e-12)

    @given(any_state(), st.floats(0.55, 3.0))
    @settings(max_examples=30, deadline=None)
    def test_mr_losslessness_projective(self, state, tau):
        """Moment-space MR-P == distribution-space projective collision."""
        lat, f = state
        fd = ProjectiveRegularizedCollision(tau)(lat, f)
        fm = f_from_moments(
            lat, collide_moments_projective(lat, moments_from_f(lat, f), tau)
        )
        np.testing.assert_allclose(fm, fd, rtol=1e-9, atol=1e-13)

    @given(any_state(), st.floats(0.55, 3.0))
    @settings(max_examples=30, deadline=None)
    def test_mr_losslessness_recursive(self, state, tau):
        lat, f = state
        fd = RecursiveRegularizedCollision(tau)(lat, f)
        fm = collide_moments_recursive(lat, moments_from_f(lat, f), tau)
        np.testing.assert_allclose(fm, fd, rtol=1e-9, atol=1e-13)

    @given(any_state())
    @settings(max_examples=30, deadline=None)
    def test_regularization_idempotent(self, state):
        lat, f = state
        f1 = regularize_projective(lat, f)
        f2 = regularize_projective(lat, f1)
        np.testing.assert_allclose(f2, f1, rtol=1e-9, atol=1e-13)


class TestEquilibriumProperties:
    @given(any_state())
    @settings(max_examples=30, deadline=None)
    def test_equilibrium_positive_at_moderate_mach(self, state):
        lat, f = state
        rho, u = macroscopic(lat, f)
        u = np.clip(u, -0.1, 0.1)
        assert (equilibrium(lat, rho, u) > 0).all()

    @given(any_state(), st.floats(0.51, 5.0))
    @settings(max_examples=30, deadline=None)
    def test_collision_is_contraction_toward_equilibrium(self, state, tau):
        """|f* - feq| <= |f - feq| componentwise for BGK (tau >= 1/2...)."""
        lat, f = state
        rho, u = macroscopic(lat, f)
        feq = equilibrium(lat, rho, u)
        f_star = BGKCollision(tau)(lat, f)
        lhs = np.abs(f_star - feq)
        rhs = np.abs(f - feq) * abs(1 - 1 / tau) + 1e-12
        assert (lhs <= rhs + 1e-12).all()
