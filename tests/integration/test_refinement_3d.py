"""Integration: 3D two-level grid refinement (D3Q19 x-band)."""

import numpy as np
import pytest

from repro.refinement import RefinedSimulation3D
from repro.service.registry import build_single
from repro.validation import relative_l2_error, taylor_green_fields


def extruded_tg(shape, t, nu, amp):
    """2D Taylor-Green extruded along z (analytic in 3D)."""
    rho2, u2 = taylor_green_fields(shape[:2], t, nu, amp)
    rho = np.repeat(rho2[:, :, None], shape[2], axis=2)
    u = np.zeros((3, *shape))
    u[0] = np.repeat(u2[0][:, :, None], shape[2], axis=2)
    u[1] = np.repeat(u2[1][:, :, None], shape[2], axis=2)
    return rho, u


class TestInterface3D:
    def test_uniform_flow_exact(self):
        shape, band = (24, 10, 8), (8, 16)
        u0 = np.zeros((3, *shape))
        u0[0], u0[1], u0[2] = 0.03, -0.015, 0.01
        r = RefinedSimulation3D(shape, band, 0.8, u0=u0)
        r.run(6)
        _, u = r.coarse_macroscopic()
        for a, val in enumerate((0.03, -0.015, 0.01)):
            assert np.abs(u[a] - val).max() < 1e-13
        _, u_f = r.fine_macroscopic()
        assert np.abs(u_f[0] - 0.03).max() < 1e-13

    def test_validation(self):
        with pytest.raises(ValueError, match="band"):
            RefinedSimulation3D((16, 8, 8), (0, 8), 0.8)
        with pytest.raises(ValueError, match="scheme"):
            RefinedSimulation3D((16, 8, 8), (4, 10), 0.8, scheme="ST")
        with pytest.raises(ValueError, match="tau"):
            RefinedSimulation3D((16, 8, 8), (4, 10), 0.5)


class TestAccuracy3D:
    @pytest.mark.parametrize("scheme", ["MR-P", "MR-R"])
    def test_extruded_taylor_green(self, scheme):
        """The refined 3D run tracks the analytic solution at least as
        well as the unrefined solver (no interface drift)."""
        shape, band, tau, amp = (32, 32, 8), (10, 22), 0.8, 0.03
        nu = (tau - 0.5) / 3.0
        rho0, u0 = extruded_tg(shape, 0.0, nu, amp)
        r = RefinedSimulation3D(shape, band, tau, rho0=rho0, u0=u0,
                                scheme=scheme)
        plain = build_single("periodic", scheme, "D3Q19", shape, tau=tau,
                             rho0=rho0, u0=u0)
        for _ in range(2):
            r.run(50)
            plain.run(50)
            _, u_ana = extruded_tg(shape, float(r.time), nu, amp)
            e_ref = relative_l2_error(r.coarse_macroscopic()[1], u_ana)
            e_pln = relative_l2_error(plain.velocity(), u_ana)
            assert e_ref < 1.3 * e_pln + 5e-4, (scheme, r.time, e_ref, e_pln)

    def test_z_invariance_preserved(self):
        """An extruded flow must stay z-invariant through the interface."""
        shape, band, tau, amp = (32, 32, 8), (10, 22), 0.8, 0.02
        nu = (tau - 0.5) / 3.0
        rho0, u0 = extruded_tg(shape, 0.0, nu, amp)
        r = RefinedSimulation3D(shape, band, tau, rho0=rho0, u0=u0)
        r.run(40)
        _, u = r.coarse_macroscopic()
        z_spread = np.abs(u - u[:, :, :, :1]).max()
        assert z_spread < 1e-12
        assert np.abs(u[2]).max() < 1e-12
