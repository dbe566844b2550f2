"""Unit tests for the two-relaxation bulk-viscosity split (moment space)."""

import numpy as np
import pytest

from repro.core import (ProjectiveRegularizedCollision,
                        collide_moments_projective, equilibrium,
                        f_from_moments, macroscopic, moments_from_f)
from repro.core.collision import _split_trace
from repro.lattice import get_lattice
from repro.solver import MRPSolver
from repro.geometry import periodic_box


@pytest.fixture
def state(paper_lattice, rng):
    lat = paper_lattice
    grid = (4,) * lat.d
    rho = 1 + 0.04 * rng.standard_normal(grid)
    u = 0.04 * rng.standard_normal((lat.d, *grid))
    f = equilibrium(lat, rho, u) * (1 + 0.02 * rng.standard_normal((lat.q, *grid)))
    return lat, f


class TestTraceSplit:
    def test_decomposition_sums(self, paper_lattice, rng):
        lat = paper_lattice
        cols = rng.standard_normal((lat.n_pairs, 3))
        dev, tr = _split_trace(lat, cols)
        assert np.allclose(dev + tr, cols)
        # Deviatoric part is traceless.
        diag = [lat.pair_index(a, a) for a in range(lat.d)]
        assert np.allclose(sum(dev[k] for k in diag), 0, atol=1e-13)
        # Trace part is isotropic: off-diagonals zero, diagonals equal.
        off = [k for k in range(lat.n_pairs) if k not in diag]
        for k in off:
            assert np.allclose(tr[k], 0)
        assert np.allclose(tr[diag[0]], tr[diag[-1]])


class TestBulkCollision:
    def test_tau_bulk_equal_tau_is_noop(self, state):
        lat, f = state
        m = moments_from_f(lat, f)
        a = collide_moments_projective(lat, m, 0.8)
        b = collide_moments_projective(lat, m, 0.8, tau_bulk=0.8)
        assert np.allclose(a, b, atol=1e-14)

    def test_distribution_moment_equivalence(self, state):
        lat, f = state
        op = ProjectiveRegularizedCollision(0.8, tau_bulk=1.3)
        fd = op(lat, f)
        fm = f_from_moments(
            lat,
            collide_moments_projective(lat, moments_from_f(lat, f), 0.8,
                                       tau_bulk=1.3),
        )
        assert np.allclose(fd, fm, atol=1e-13)

    def test_conserves_mass_momentum(self, state):
        lat, f = state
        f_star = ProjectiveRegularizedCollision(0.8, tau_bulk=2.0)(lat, f)
        r0, u0 = macroscopic(lat, f)
        r1, u1 = macroscopic(lat, f_star)
        assert np.allclose(r0, r1, atol=1e-13)
        assert np.allclose(r0 * u0, r1 * u1, atol=1e-13)

    def test_shear_unaffected_by_bulk_rate(self, state):
        """Off-diagonal Pi relaxes with tau regardless of tau_bulk."""
        lat, f = state
        m = moments_from_f(lat, f)
        a = collide_moments_projective(lat, m, 0.8)
        b = collide_moments_projective(lat, m, 0.8, tau_bulk=3.0)
        off = [1 + lat.d + k for k, (x, y) in enumerate(lat.pair_tuples)
               if x != y]
        assert np.allclose(a[off], b[off], atol=1e-14)
        diag = [1 + lat.d + lat.pair_index(x, x) for x in range(lat.d)]
        assert not np.allclose(a[diag], b[diag])

    def test_invalid_tau_bulk(self):
        with pytest.raises(ValueError):
            ProjectiveRegularizedCollision(0.8, tau_bulk=0.4)


class TestAcousticDamping:
    def test_higher_bulk_viscosity_damps_pressure_pulse_faster(self):
        """A density pulse in a periodic box decays faster with larger
        tau_bulk — the physical effect the knob exists for."""
        lat = get_lattice("D2Q9")
        shape = (48, 48)
        x, y = np.meshgrid(np.arange(48), np.arange(48), indexing="ij")
        rho0 = 1.0 + 0.01 * np.exp(-((x - 24) ** 2 + (y - 24) ** 2) / 18.0)

        def residual(tau_bulk):
            s = MRPSolver(lat, periodic_box(shape), 0.52, rho0=rho0,
                          tau_bulk=tau_bulk)
            s.run(300)
            return float(np.abs(s.density() - 1.0).max())

        low = residual(0.52)        # bulk = shear (tiny)
        high = residual(1.5)        # strongly enhanced bulk viscosity
        assert high < 0.6 * low
