"""Unit tests for velocity-inlet and pressure-outlet boundaries."""

import numpy as np
import pytest

from repro.boundary import Plane, PressureOutlet, VelocityInlet
from repro.core import equilibrium, macroscopic, stream_push
from repro.geometry import channel_2d, channel_3d
from repro.lattice import get_lattice


class TestPlane:
    def test_inward(self):
        assert Plane(0, 0).inward == 1
        assert Plane(1, -1).inward == -1

    def test_face_index(self):
        assert Plane(0, 0).face_index((5, 4)) == (0, slice(None))
        assert Plane(0, -1).face_index((5, 4)) == (4, slice(None))
        assert Plane(1, -1).face_index((5, 4), offset=2) == (slice(None), 1)

    def test_invalid_side(self):
        with pytest.raises(ValueError):
            Plane(0, 1)


class TestVelocityInlet:
    def _setup(self, lat, method, velocity=(0.05, 0.0)):
        domain = channel_2d(8, 6)
        inlet = VelocityInlet(Plane(0, 0), np.array(velocity), method=method)
        inlet.bind(lat, domain, tau=0.8)
        return domain, inlet

    @pytest.mark.parametrize("method", ["nebb", "regularized-fd"])
    def test_enforces_prescribed_velocity(self, d2q9, method):
        """After reconstruction, the inlet nodes carry the target velocity."""
        domain, inlet = self._setup(d2q9, method)
        rho = np.ones(domain.shape)
        u = np.zeros((2, *domain.shape))
        u[0] = 0.02                               # background flow
        f_star = equilibrium(d2q9, rho, u)
        f_new = stream_push(d2q9, f_star)
        inlet.post_stream(d2q9, f_new, f_star)
        r2, u2 = macroscopic(d2q9, f_new)
        active = domain.node_type[0] != 1         # non-solid inlet nodes
        assert np.allclose(u2[0][0][active], 0.05, atol=1e-10)
        assert np.allclose(u2[1][0][active], 0.0, atol=1e-10)

    def test_profile_velocity(self, d2q9):
        domain = channel_2d(8, 6)
        prof = np.zeros((2, 6))
        prof[0] = np.array([0, 0.01, 0.03, 0.03, 0.01, 0])
        inlet = VelocityInlet(Plane(0, 0), prof, method="nebb").bind(
            d2q9, domain, 0.8
        )
        f_star = equilibrium(d2q9, np.ones(domain.shape),
                             np.zeros((2, *domain.shape)))
        f_new = stream_push(d2q9, f_star)
        inlet.post_stream(d2q9, f_new, f_star)
        _, u2 = macroscopic(d2q9, f_new)
        assert np.allclose(u2[0][0][1:-1], prof[0][1:-1], atol=1e-10)

    def test_zou_he_density_relation(self, d2q9):
        """rho at the inlet follows (S0 + 2 S-)/(1 - u_n)."""
        domain, inlet = self._setup(d2q9, "nebb")
        rng = np.random.default_rng(3)
        f_star = d2q9.w[:, None, None] * (
            1 + 0.05 * rng.standard_normal((9, *domain.shape))
        )
        f_new = stream_push(d2q9, f_star)
        fslab = f_new[:, 0, :]
        cx = d2q9.c[:, 0]
        s0 = fslab[cx == 0].sum(axis=0)
        sm = fslab[cx < 0].sum(axis=0)
        expected_rho = (s0 + 2 * sm) / (1 - 0.05)
        inlet.post_stream(d2q9, f_new, f_star)
        rho, _ = macroscopic(d2q9, f_new)
        assert np.allclose(rho[0][1:-1], expected_rho[1:-1], atol=1e-12)

    def test_wrong_velocity_shape(self, d2q9):
        domain = channel_2d(8, 6)
        with pytest.raises(ValueError, match="velocity"):
            VelocityInlet(Plane(0, 0), np.zeros((2, 5))).bind(d2q9, domain, 0.8)

    def test_bad_method(self):
        with pytest.raises(ValueError, match="method"):
            VelocityInlet(Plane(0, 0), (0.01, 0.0), method="zou-he-deluxe")

    def test_axis_out_of_range(self, d2q9):
        domain = channel_2d(8, 6)
        with pytest.raises(ValueError, match="axis"):
            VelocityInlet(Plane(2, 0), (0.0, 0.0)).bind(d2q9, domain, 0.8)

    def test_3d_inlet(self):
        lat = get_lattice("D3Q19")
        domain = channel_3d(6, 5, 5)
        inlet = VelocityInlet(Plane(0, 0), np.array([0.03, 0, 0]),
                              method="nebb").bind(lat, domain, 0.8)
        f_star = equilibrium(lat, np.ones(domain.shape),
                             np.zeros((3, *domain.shape)))
        f_new = stream_push(lat, f_star)
        inlet.post_stream(lat, f_new, f_star)
        _, u = macroscopic(lat, f_new)
        active = domain.node_type[0] != 1
        assert np.allclose(u[0][0][active], 0.03, atol=1e-10)


class TestPressureOutlet:
    @pytest.mark.parametrize("method", ["nebb", "regularized-fd"])
    def test_enforces_density(self, d2q9, method):
        domain = channel_2d(8, 6)
        outlet = PressureOutlet(Plane(0, -1), rho_out=1.02, method=method,
                                tangential="zero").bind(d2q9, domain, 0.8)
        rho = np.ones(domain.shape)
        u = np.zeros((2, *domain.shape))
        u[0] = 0.03
        f_star = equilibrium(d2q9, rho, u)
        f_new = stream_push(d2q9, f_star)
        outlet.post_stream(d2q9, f_new, f_star)
        r2, _ = macroscopic(d2q9, f_new)
        assert np.allclose(r2[-1][1:-1], 1.02, atol=1e-10)

    def test_outflow_velocity_consistent(self, d2q9):
        """Outlet velocity follows from mass balance, stays near the flow."""
        domain = channel_2d(8, 6)
        outlet = PressureOutlet(Plane(0, -1), rho_out=1.0,
                                method="nebb").bind(d2q9, domain, 0.8)
        u = np.zeros((2, *domain.shape))
        u[0] = 0.04
        f_star = equilibrium(d2q9, np.ones(domain.shape), u)
        f_new = stream_push(d2q9, f_star)
        outlet.post_stream(d2q9, f_new, f_star)
        _, u2 = macroscopic(d2q9, f_new)
        assert np.allclose(u2[0][-1][1:-1], 0.04, atol=1e-3)

    def test_tangential_modes(self, d2q9):
        domain = channel_2d(8, 6)
        u = np.zeros((2, *domain.shape))
        u[0] = 0.03
        u[1] = 0.01                               # transverse component
        f_star = equilibrium(d2q9, np.ones(domain.shape), u)

        # NEBB only replaces the unknown populations, so the tangential
        # velocity is not enforced exactly; 'extrapolate' must nonetheless
        # land the outlet tangential velocity closer to the interior value.
        results = {}
        for mode in ("zero", "extrapolate"):
            outlet = PressureOutlet(Plane(0, -1), method="nebb",
                                    tangential=mode).bind(d2q9, domain, 0.8)
            f_new = stream_push(d2q9, f_star)
            outlet.post_stream(d2q9, f_new, f_star)
            _, u2 = macroscopic(d2q9, f_new)
            results[mode] = np.abs(u2[1][-1][2:-2] - 0.01).max()
        assert results["extrapolate"] < results["zero"]

    def test_bad_tangential(self):
        with pytest.raises(ValueError, match="tangential"):
            PressureOutlet(Plane(0, -1), tangential="mirror")


def _thin_domain(nx, ny=6):
    """A hand-built channel thinner than the factories allow."""
    from repro.geometry import SOLID, Domain

    nt = np.zeros((nx, ny), dtype=np.int8)
    nt[:, 0] = SOLID
    nt[:, -1] = SOLID
    return Domain(nt)


class TestThinDomainGuard:
    """regularized-fd needs >= 3 planes along the face axis at bind time.

    Its one-sided finite difference reads two interior planes; on a
    thinner domain ``face_index(offset=2)`` silently wraps to the face
    itself and produced garbage strain rates. The guard turns that into
    a bind-time error.
    """

    @pytest.mark.parametrize("make_bc", [
        lambda: VelocityInlet(Plane(0, 0), (0.03, 0.0),
                              method="regularized-fd"),
        lambda: PressureOutlet(Plane(0, -1), method="regularized-fd"),
    ])
    def test_fd_rejected_on_two_plane_domain(self, d2q9, make_bc):
        domain = _thin_domain(2)
        with pytest.raises(ValueError, match="at least 3 planes"):
            make_bc().bind(d2q9, domain, 0.8)

    def test_fd_accepted_on_three_plane_domain(self, d2q9):
        domain = channel_2d(3, 6)
        VelocityInlet(Plane(0, 0), (0.03, 0.0),
                      method="regularized-fd").bind(d2q9, domain, 0.8)

    def test_nebb_still_works_on_thin_domain(self, d2q9):
        """NEBB reads only the face plane, so thin domains stay legal."""
        domain = _thin_domain(2)
        inlet = VelocityInlet(Plane(0, 0), (0.03, 0.0),
                              method="nebb").bind(d2q9, domain, 0.8)
        f_star = equilibrium(d2q9, np.ones(domain.shape),
                             np.zeros((2, *domain.shape)))
        f_new = stream_push(d2q9, f_star)
        inlet.post_stream(d2q9, f_new, f_star)
