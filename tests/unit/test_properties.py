"""Property-based tests over seeded random states.

Instead of hand-picked fixtures, these tests draw many random (but
reproducibly seeded) physical states and assert the algebraic properties
the schemes are built on:

* the M -> f -> M moment round trip is the identity (the projection and
  reconstruction matrices of paper Eqs. 3/11 are mutual inverses on
  moment space);
* the Eq. 4 equilibrium carries exactly the density and momentum it was
  built from, for any subsonic velocity (|u| < 0.3 c_s);
* projective and recursive regularization are idempotent projections and
  conserve the macroscopic state;
* push streaming on a periodic domain is a permutation, undone exactly by
  the inverse displacement — and the table-driven gather used by the
  accel backends is the same permutation;
* every accel backend reproduces the reference trajectory and its
  conservation laws on random forced periodic boxes (the ``periodic``
  cells of the conformance matrix, ``tests/property/test_conformance.py``,
  on this module's grids, by its tolerance rule).

Each property is exercised on both paper lattices (D2Q9, D3Q19) and
several seeds; the algebraic identities hold to 1e-12 absolute.
"""

import numpy as np
import pytest

from repro.accel import BACKENDS, FusedMRCore, NeighborTable
from repro.core.equilibrium import equilibrium
from repro.core.forcing import guo_source
from repro.core.moments import f_from_moments, macroscopic, moments_from_f
from repro.core.regularization import (hermite_delta_higher_order,
                                       hermite_delta_second_order,
                                       pi_neq_cols_from_f,
                                       recursive_a3_neq_cols,
                                       recursive_a4_neq_cols,
                                       regularize_projective)
from repro.core.streaming import stream_push
from repro.lattice import get_lattice
from repro.obs.watchdog import SOUND_SPEED
from repro.service.registry import build_single

from test_conformance import Cell, check_backends_agree, check_conservation

LATTICES = ["D2Q9", "D3Q19"]
SEEDS = [0, 1, 2, 3]
TOL = 1e-12


def _grid(lat):
    """A small odd-sized grid matching the lattice dimensionality."""
    return (7, 5) if lat.d == 2 else (6, 5, 4)


def _random_state(lat, seed, grid=None, mach=0.15, noise=0.02):
    """A random near-equilibrium state: (rho, u, f) with |u| < mach * c_s.

    ``f`` is the equilibrium of the random macroscopic fields plus a small
    non-equilibrium perturbation, i.e. the kind of state a running solver
    actually produces.
    """
    rng = np.random.default_rng(seed)
    grid = grid or _grid(lat)
    rho = 1.0 + 0.05 * rng.standard_normal(grid)
    u = rng.standard_normal((lat.d, *grid))
    speed = np.sqrt((u ** 2).sum(axis=0))
    u *= mach * SOUND_SPEED / speed.max()
    f = equilibrium(lat, rho, u)
    f += noise * f * rng.standard_normal(f.shape)
    return rho, u, f


def regularize_recursive(lat, f):
    """Recursive (Malaspinas) regularization of ``f`` — the MR-R collision's
    reconstruction, composed from the package's own building blocks."""
    rho, u = macroscopic(lat, f)
    feq = equilibrium(lat, rho, u)
    pi_neq = pi_neq_cols_from_f(lat, f, rho, u)
    a3 = recursive_a3_neq_cols(lat, u, pi_neq)
    a4 = recursive_a4_neq_cols(lat, u, pi_neq)
    return (feq + hermite_delta_second_order(lat, pi_neq)
            + hermite_delta_higher_order(lat, a3, a4))


@pytest.mark.parametrize("lattice", LATTICES)
@pytest.mark.parametrize("seed", SEEDS)
class TestMomentRoundTrip:
    """moment_matrix and reconstruction_matrix are mutual inverses on M."""

    def test_m_to_f_to_m_identity(self, lattice, seed):
        lat = get_lattice(lattice)
        rng = np.random.default_rng(seed)
        grid = _grid(lat)
        m = rng.standard_normal((lat.moment_matrix.shape[0], *grid))
        m[0] += 2.0  # keep density-like slot away from zero
        back = moments_from_f(lat, f_from_moments(lat, m))
        assert np.abs(back - m).max() < TOL

    def test_f_state_roundtrip_preserves_macroscopic(self, lattice, seed):
        lat = get_lattice(lattice)
        rho, u, f = _random_state(lat, seed)
        f2 = f_from_moments(lat, moments_from_f(lat, f))
        rho2, u2 = macroscopic(lat, f2)
        rho1, u1 = macroscopic(lat, f)
        assert np.abs(rho2 - rho1).max() < TOL
        assert np.abs(u2 - u1).max() < TOL


@pytest.mark.parametrize("lattice", LATTICES)
@pytest.mark.parametrize("seed", SEEDS)
class TestEquilibriumConservation:
    """Eq. 4 equilibrium reproduces its own (rho, u) for any |u| < 0.3 c_s."""

    def test_moments_of_equilibrium(self, lattice, seed):
        lat = get_lattice(lattice)
        rng = np.random.default_rng(seed)
        grid = _grid(lat)
        rho = 1.0 + 0.1 * rng.standard_normal(grid)
        u = rng.standard_normal((lat.d, *grid))
        u *= 0.3 * SOUND_SPEED / np.sqrt((u ** 2).sum(axis=0)).max()
        feq = equilibrium(lat, rho, u)
        rho_eq, u_eq = macroscopic(lat, feq)
        assert np.abs(rho_eq - rho).max() < TOL
        assert np.abs(u_eq - u).max() < TOL

    def test_equilibrium_is_regularization_fixed_point(self, lattice, seed):
        lat = get_lattice(lattice)
        rng = np.random.default_rng(seed)
        grid = _grid(lat)
        rho = 1.0 + 0.05 * rng.standard_normal(grid)
        u = rng.standard_normal((lat.d, *grid))
        u *= 0.1 * SOUND_SPEED / np.sqrt((u ** 2).sum(axis=0)).max()
        feq = equilibrium(lat, rho, u)
        assert np.abs(regularize_projective(lat, feq) - feq).max() < TOL
        assert np.abs(regularize_recursive(lat, feq) - feq).max() < TOL


@pytest.mark.parametrize("lattice", LATTICES)
@pytest.mark.parametrize("seed", SEEDS)
class TestRegularizationIdempotence:
    """Both regularizations are projections: R(R(f)) = R(f)."""

    def test_projective_idempotent(self, lattice, seed):
        lat = get_lattice(lattice)
        _, _, f = _random_state(lat, seed)
        once = regularize_projective(lat, f)
        twice = regularize_projective(lat, once)
        assert np.abs(twice - once).max() < TOL

    def test_recursive_idempotent(self, lattice, seed):
        lat = get_lattice(lattice)
        _, _, f = _random_state(lat, seed)
        once = regularize_recursive(lat, f)
        twice = regularize_recursive(lat, once)
        assert np.abs(twice - once).max() < TOL

    def test_regularization_conserves_macroscopic(self, lattice, seed):
        lat = get_lattice(lattice)
        rho, u, f = _random_state(lat, seed)
        rho0, u0 = macroscopic(lat, f)
        for reg in (regularize_projective, regularize_recursive):
            rho1, u1 = macroscopic(lat, reg(lat, f))
            assert np.abs(rho1 - rho0).max() < TOL
            assert np.abs(u1 - u0).max() < TOL


@pytest.mark.parametrize("lattice", LATTICES)
@pytest.mark.parametrize("seed", SEEDS)
class TestStreamingInverse:
    """Push streaming is a permutation; the inverse displacement undoes it."""

    @staticmethod
    def _unstream(lat, f):
        """Roll every component back by -c_i (the exact inverse)."""
        grid_axes = tuple(range(f.ndim - 1))
        out = np.empty_like(f)
        for i in range(lat.q):
            out[i] = np.roll(f[i], shift=tuple(-lat.c[i]), axis=grid_axes)
        return out

    def test_stream_then_inverse_is_identity(self, lattice, seed):
        lat = get_lattice(lattice)
        _, _, f = _random_state(lat, seed)
        streamed = stream_push(lat, f)
        assert np.array_equal(self._unstream(lat, streamed), f)

    def test_stream_is_a_permutation(self, lattice, seed):
        lat = get_lattice(lattice)
        _, _, f = _random_state(lat, seed)
        streamed = stream_push(lat, f)
        for i in range(lat.q):
            assert np.array_equal(np.sort(streamed[i].ravel()),
                                  np.sort(f[i].ravel()))

    def test_gather_matches_roll_streaming(self, lattice, seed):
        lat = get_lattice(lattice)
        _, _, f = _random_state(lat, seed)
        assert np.array_equal(NeighborTable(lat, f.shape[1:]).gather(f),
                              stream_push(lat, f))


@pytest.mark.parametrize("lattice", LATTICES)
@pytest.mark.parametrize("seed", SEEDS)
class TestForceProjection:
    """Algebraic content of the Guo forcing used by every forced path.

    The fused kernels fold the source into collision rather than calling
    :func:`guo_source`, so these properties pin down the shared contract:
    the source carries no mass, ``(1 - 1/(2 tau)) F`` momentum, and the
    symmetrized ``(1 - 1/(2 tau)) (u_a F_b + u_b F_a)`` second moment.
    """

    TAU = 0.8

    def _u_and_force(self, lat, seed):
        rng = np.random.default_rng(seed)
        grid = _grid(lat)
        u = 0.05 * rng.standard_normal((lat.d, *grid))
        force = 1e-4 * rng.standard_normal((lat.d, *grid))
        return u, force

    def test_guo_source_moment_content(self, lattice, seed):
        lat = get_lattice(lattice)
        u, force = self._u_and_force(lat, seed)
        src = guo_source(lat, u, force, self.TAU)
        pref = 1.0 - 0.5 / self.TAU
        c = lat.c.astype(np.float64)

        mass = src.sum(axis=0)
        mom = np.einsum("qa,q...->a...", c, src)
        second = np.einsum("qa,qb,q...->ab...", c, c, src)
        expected = pref * (np.einsum("a...,b...->ab...", u, force)
                           + np.einsum("b...,a...->ab...", u, force))

        assert np.abs(mass).max() < TOL
        assert np.abs(mom - pref * force).max() < TOL
        assert np.abs(second - expected).max() < TOL

    def test_guo_source_raw_is_unscaled(self, lattice, seed):
        """``tau=None`` strips exactly the BGK ``1 - 1/(2 tau)`` prefactor."""
        lat = get_lattice(lattice)
        u, force = self._u_and_force(lat, seed)
        scaled = guo_source(lat, u, force, self.TAU)
        raw = guo_source(lat, u, force, None)
        pref = 1.0 - 0.5 / self.TAU
        assert np.abs(scaled - pref * raw).max() < TOL

    @pytest.mark.parametrize("scheme", ["ST", "MR-P", "MR-R"])
    def test_forced_step_adds_exactly_f_per_node(self, lattice, seed, scheme):
        """Guo forcing injects momentum ``F`` per node per step, no mass."""
        lat = get_lattice(lattice)
        grid = _grid(lat)
        rng = np.random.default_rng(seed)
        force = np.zeros(lat.d)
        force[0] = 2.5e-5
        solver = build_single("periodic", scheme, lattice, grid, tau=self.TAU,
                              rho0=1.0 + 0.02 * rng.standard_normal(grid),
                              u0=0.02 * rng.standard_normal((lat.d, *grid)),
                              force=force)
        n_nodes = float(np.prod(grid))

        def totals():
            rho, u = solver.macroscopic()
            return rho.sum(), (rho * u).sum(axis=tuple(range(1, u.ndim)))

        mass0, mom0 = totals()
        steps = 3
        solver.run(steps)
        mass1, mom1 = totals()
        assert abs(mass1 - mass0) < TOL * n_nodes
        expected = mom0 + steps * n_nodes * force
        assert np.abs(mom1 - expected).max() < TOL * n_nodes

    def test_uniform_tau_field_equals_scalar_tau(self, lattice, seed):
        """A constant ``tau_field`` reproduces the scalar-tau MR-P kernel."""
        lat = get_lattice(lattice)
        grid = _grid(lat)
        _, _, f = _random_state(lat, seed, grid=grid)
        m1 = moments_from_f(lat, f)
        m2 = m1.copy()
        core_a = FusedMRCore(lat, grid, self.TAU, scheme="MR-P")
        core_b = FusedMRCore(lat, grid, self.TAU, scheme="MR-P")
        tau_field = np.full(grid, self.TAU)
        for _ in range(3):
            core_a.step(m1, [], None)
            core_b.step(m2, [], None, tau_field=tau_field)
        assert np.abs(m1 - m2).max() < TOL


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("scheme", ["ST", "MR-P", "MR-R"])
@pytest.mark.parametrize("lattice", LATTICES)
class TestBackendProperties:
    """Every accel backend preserves the reference physics on random ICs."""

    @staticmethod
    def cell(backend, scheme, lattice):
        grid = (12, 8) if lattice == "D2Q9" else (8, 6, 5)
        return Cell("periodic", scheme, lattice, backend, shape=grid)

    def test_matches_reference_trajectory(self, backend, scheme, lattice):
        check_backends_agree(self.cell(backend, scheme, lattice))

    def test_conserves_mass_and_momentum(self, backend, scheme, lattice):
        check_conservation(self.cell(backend, scheme, lattice))
