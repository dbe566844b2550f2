"""Integration: physical correctness of all three schemes.

Every scheme must solve the same flows to the same accuracy: the moment
representation is a reformulation, not a new physical model.
"""

import numpy as np
import pytest

from repro.service.registry import build_single
from repro.validation import (kinetic_energy, linf_error, poiseuille_profile,
                              relative_l2_error, taylor_green_decay_rate,
                              taylor_green_fields)

SCHEMES = ["ST", "MR-P", "MR-R"]


class TestTaylorGreen2D:
    @pytest.mark.parametrize("scheme", SCHEMES)
    def test_velocity_field_accuracy(self, scheme):
        shape, tau, u0 = (48, 48), 0.8, 0.03
        nu = (tau - 0.5) / 3
        rho_i, u_i = taylor_green_fields(shape, 0.0, nu, u0)
        s = build_single("periodic", scheme, "D2Q9", shape, tau=tau,
                         rho0=rho_i, u0=u_i)
        s.run(200)
        _, u_ref = taylor_green_fields(shape, 200.0, nu, u0)
        assert relative_l2_error(s.velocity(), u_ref) < 5e-3

    @pytest.mark.parametrize("scheme", SCHEMES)
    def test_viscous_decay_rate(self, scheme):
        shape, tau, u0 = (64, 64), 0.7, 0.02
        nu = (tau - 0.5) / 3
        rho_i, u_i = taylor_green_fields(shape, 0.0, nu, u0)
        s = build_single("periodic", scheme, "D2Q9", shape, tau=tau,
                         rho0=rho_i, u0=u_i)
        e0 = kinetic_energy(*s.macroscopic())
        s.run(300)
        e1 = kinetic_energy(*s.macroscopic())
        rate = -np.log(e1 / e0) / 300
        assert rate == pytest.approx(taylor_green_decay_rate(shape, nu), rel=0.02)

    def test_grid_convergence_second_order(self):
        """Halving the grid spacing reduces the TG error ~4x (diffusive
        scaling: compare at equal physical time)."""
        errors = {}
        for n in (24, 48):
            tau = 0.8
            nu = (tau - 0.5) / 3
            steps = int(200 * (n / 48) ** 2)     # diffusive time scaling
            rho_i, u_i = taylor_green_fields((n, n), 0.0, nu, 0.02)
            s = build_single("periodic", "MR-P", "D2Q9", (n, n), tau=tau,
                             rho0=rho_i, u0=u_i)
            s.run(steps)
            _, u_ref = taylor_green_fields((n, n), float(steps), nu, 0.02)
            errors[n] = relative_l2_error(s.velocity(), u_ref)
        order = np.log2(errors[24] / errors[48])
        assert order > 1.5

    def test_schemes_agree_with_each_other(self):
        shape, tau = (32, 32), 0.9
        nu = (tau - 0.5) / 3
        rho_i, u_i = taylor_green_fields(shape, 0.0, nu, 0.02)
        fields = {}
        for scheme in SCHEMES:
            s = build_single("periodic", scheme, "D2Q9", shape, tau=tau,
                             rho0=rho_i, u0=u_i)
            s.run(100)
            fields[scheme] = s.velocity()
        # Regularized schemes filter ghost modes; all must stay close.
        assert relative_l2_error(fields["MR-P"], fields["ST"]) < 2e-3
        assert relative_l2_error(fields["MR-R"], fields["MR-P"]) < 2e-3


class TestChannelPoiseuille2D:
    @pytest.mark.parametrize("scheme", SCHEMES)
    @pytest.mark.parametrize("bc", ["regularized-fd", "nebb"])
    def test_steady_profile(self, scheme, bc):
        shape, u_max = (48, 26), 0.04
        s = build_single("channel", scheme, "D2Q9", shape, tau=0.9,
                         u_max=u_max, bc_method=bc)
        s.run_to_steady_state(tol=1e-9, check_interval=200, max_steps=40_000)
        ux = s.velocity()[0]
        analytic = poiseuille_profile(shape[1], u_max)
        err = linf_error(ux[shape[0] // 2, 1:-1], analytic[1:-1]) / u_max
        assert err < 7e-3, (scheme, bc, err)

    def test_streamwise_invariance(self):
        """Developed flow: the profile must not vary along the channel."""
        s = build_single("channel", "MR-P", "D2Q9", (60, 22), tau=0.9,
                         u_max=0.04)
        s.run_to_steady_state(tol=1e-9, check_interval=200, max_steps=40_000)
        ux = s.velocity()[0]
        mid = ux[30, 1:-1]
        for x in (15, 45):
            assert np.allclose(ux[x, 1:-1], mid, atol=5e-4)

    def test_mass_flux_constant_along_channel(self):
        s = build_single("channel", "ST", "D2Q9", (48, 20), tau=0.9,
                         u_max=0.04)
        s.run_to_steady_state(tol=1e-8, check_interval=200, max_steps=40_000)
        rho, u = s.macroscopic()
        flux = (rho * u[0])[:, 1:-1].sum(axis=1)
        assert flux[5:-5].std() / flux[5:-5].mean() < 1e-3


class TestChannel3D:
    @pytest.mark.parametrize("scheme", SCHEMES)
    def test_duct_flow_develops(self, scheme):
        from repro.validation import duct_profile

        shape, u_max = (24, 14, 14), 0.04
        s = build_single("channel", scheme, "D3Q19", shape, tau=0.9,
                         u_max=u_max)
        s.run(2500)
        ux = s.velocity()[0]
        mid = ux[shape[0] // 2]
        analytic = duct_profile(shape[1], shape[2], u_max)
        err = relative_l2_error(mid[1:-1, 1:-1], analytic[1:-1, 1:-1])
        assert err < 5e-2, (scheme, err)

    def test_no_slip_at_duct_walls(self):
        s = build_single("channel", "MR-R", "D3Q19", (16, 10, 10), tau=0.9,
                         u_max=0.04)
        s.run(500)
        u = s.velocity()
        speed = np.sqrt((u ** 2).sum(axis=0))
        # Wall nodes are pinned; check the first fluid layer is slow.
        assert speed[8, 1, :].max() < 0.02


class TestStability:
    def test_regularization_stabilizes_underresolved_flow(self):
        """At low tau and coarse resolution, BGK blows up earlier than the
        regularized schemes — the stability motivation of Section 2."""
        shape = (24, 24)
        tau = 0.505                        # very low viscosity
        rng = np.random.default_rng(5)
        u0 = 0.12 * rng.standard_normal((2, *shape))   # aggressive IC

        def survives(scheme, steps=400):
            s = build_single("periodic", scheme, "D2Q9", shape, tau=tau, u0=u0)
            try:
                s.run(steps)
            except FloatingPointError:
                return False
            rho = s.density()
            return bool(np.isfinite(rho).all() and rho.min() > 0)

        with np.errstate(all="ignore"):
            bgk_ok = survives("ST")
            mrr_ok = survives("MR-R")
        assert mrr_ok, "recursive regularization should survive"
        if bgk_ok:
            pytest.skip("BGK survived this IC too; stability margin case")
