"""Integration: two-level grid refinement in moment space."""

import numpy as np
import pytest

from repro.refinement import (RefinedSimulation2D, RefinedTaylorGreen2D,
                              fine_tau, pi_neq_scale)
from repro.service.registry import build_single
from repro.validation import relative_l2_error, taylor_green_fields


class TestScaling:
    def test_fine_tau(self):
        """Equal physical viscosity: tau_f - 1/2 = 2 (tau_c - 1/2)."""
        assert fine_tau(0.8) == pytest.approx(1.1)
        assert fine_tau(0.55) == pytest.approx(0.6)

    def test_pi_neq_scale(self):
        assert pi_neq_scale(0.8) == pytest.approx(1.1 / 1.6)
        # tau -> inf: scale -> 1 (the neq rescale matters most near 1/2).
        assert pi_neq_scale(50.0) == pytest.approx(1.0, abs=0.01)

    def test_band_validation(self):
        with pytest.raises(ValueError, match="band"):
            RefinedSimulation2D((32, 16), (0, 10), 0.8)
        with pytest.raises(ValueError, match="band"):
            RefinedSimulation2D((32, 16), (10, 31), 0.8)


class TestInterfaceExactness:
    def test_uniform_flow_passes_exactly(self):
        """A uniform flow has zero Pi_neq and constant fields: every
        interface operation is exact, so the state must stay uniform to
        machine precision on both grids."""
        shape, band = (32, 16), (10, 20)
        u0 = np.zeros((2, *shape))
        u0[0] = 0.04
        u0[1] = -0.02
        r = RefinedSimulation2D(shape, band, 0.8, u0=u0)
        r.run(10)
        rho_c, u_c = r.coarse_macroscopic()
        assert np.abs(rho_c - 1.0).max() < 1e-13
        assert np.abs(u_c[0] - 0.04).max() < 1e-13
        assert np.abs(u_c[1] + 0.02).max() < 1e-13
        rho_f, u_f = r.fine_macroscopic()
        assert np.abs(u_f[0] - 0.04).max() < 1e-13

    def test_rest_state_fixed_point(self):
        r = RefinedSimulation2D((24, 12), (8, 16), 0.7)
        r.run(5)
        _, u_c = r.coarse_macroscopic()
        assert np.abs(u_c).max() < 1e-14


class TestTaylorGreen:
    def test_accuracy_matches_unrefined(self):
        """With node-aligned ghosts and cubic interface interpolation the
        refined run tracks the analytic solution as well as the plain
        coarse solver — no secular interface drift."""
        shape, band, tau, amp = (48, 48), (16, 32), 0.8, 0.03
        nu = (tau - 0.5) / 3.0

        tg = RefinedTaylorGreen2D(shape=shape, band=band, tau=tau, u0=amp)
        rho_i, u_i = taylor_green_fields(shape, 0.0, nu, amp)
        plain = build_single("periodic", "MR-P", "D2Q9", shape, tau=tau,
                             rho0=rho_i, u0=u_i)
        for _ in range(4):
            tg.run(100)
            plain.run(100)
            _, u_ana = taylor_green_fields(shape, float(tg.time), nu, amp)
            _, u_c = tg.coarse_macroscopic()
            err_ref = relative_l2_error(u_c, u_ana)
            err_plain = relative_l2_error(plain.velocity(), u_ana)
            assert err_ref < 1.5 * err_plain + 5e-4, (tg.time, err_ref,
                                                      err_plain)

    def test_fine_band_consistent_with_coarse(self):
        """The fine solution restricted at coincident nodes equals the
        coarse field there (the restriction wrote it)."""
        tg = RefinedTaylorGreen2D(shape=(48, 48), band=(16, 32))
        tg.run(50)
        rho_c, u_c = tg.coarse_macroscopic()
        rho_f, u_f = tg.fine_macroscopic()
        fx, fy = tg.fine_coordinates()
        # Coarse x=20 corresponds to fine column k with fx=20.
        k = int(np.where(np.isclose(fx, 20.0))[0][0])
        np.testing.assert_allclose(u_f[0][k, ::2], u_c[0][20], atol=1e-12)

    def test_mass_nearly_conserved(self):
        tg = RefinedTaylorGreen2D(shape=(48, 48), band=(16, 32))
        m0 = tg.coarse_macroscopic()[0].mean()
        tg.run(200)
        m1 = tg.coarse_macroscopic()[0].mean()
        # The interface exchange is not telescopingly conservative, but
        # the drift must stay at round-off-accumulation scale.
        assert abs(m1 - m0) / m0 < 1e-5

    def test_linear_interpolation_drifts(self):
        """Ablation: replacing the cubic ghost interpolation with linear
        re-introduces the secular interface error Lagrava et al. describe
        — the reason the cubic stencil is the default."""

        class LinearGhosts(RefinedTaylorGreen2D):
            def _sample_coarse(self, m_c, fx, fy):
                lat = self.lat
                nx, ny = self.shape
                x0 = np.floor(fx).astype(int) % nx
                x1 = (x0 + 1) % nx
                wx = (fx - np.floor(fx))[:, None]
                y0 = np.floor(fy).astype(int) % ny
                y1 = (y0 + 1) % ny
                wy = (fy - np.floor(fy))[None, :]

                def bil(field):
                    return ((1 - wx) * (1 - wy) * field[np.ix_(x0, y0)]
                            + wx * (1 - wy) * field[np.ix_(x1, y0)]
                            + (1 - wx) * wy * field[np.ix_(x0, y1)]
                            + wx * wy * field[np.ix_(x1, y1)])

                rho_c = m_c[0]
                u_c = m_c[1:3] / rho_c
                pi_eq = np.stack([rho_c * u_c[a] * u_c[b]
                                  for a, b in lat.pair_tuples])
                pi_neq_c = m_c[3:] - pi_eq
                return (bil(rho_c),
                        np.stack([bil(u_c[a]) for a in range(2)]),
                        np.stack([bil(pi_neq_c[k])
                                  for k in range(lat.n_pairs)]))

        shape, band, tau, amp = (48, 48), (16, 32), 0.8, 0.03
        nu = (tau - 0.5) / 3.0
        cubic = RefinedTaylorGreen2D(shape=shape, band=band, tau=tau, u0=amp)
        linear = LinearGhosts(shape=shape, band=band, tau=tau, u0=amp)
        cubic.run(300)
        linear.run(300)
        _, u_ana = taylor_green_fields(shape, 300.0, nu, amp)
        err_cubic = relative_l2_error(cubic.coarse_macroscopic()[1], u_ana)
        err_linear = relative_l2_error(linear.coarse_macroscopic()[1], u_ana)
        assert err_linear > 2.0 * err_cubic

    def test_energy_decays_at_physical_rate(self):
        from repro.validation import kinetic_energy, taylor_green_decay_rate

        tg = RefinedTaylorGreen2D(shape=(48, 48), band=(16, 32), tau=0.8,
                                  u0=0.02)
        rho, u = tg.coarse_macroscopic()
        e0 = kinetic_energy(rho, u)
        tg.run(200)
        rho, u = tg.coarse_macroscopic()
        e1 = kinetic_energy(rho, u)
        rate = -np.log(e1 / e0) / 200
        assert rate == pytest.approx(
            taylor_green_decay_rate((48, 48), tg.nu), rel=0.03
        )
