"""Unit tests for momentum-exchange forces and run-time monitors."""

import numpy as np
import pytest

from repro.analysis import MomentumExchangeForce, drag_lift_coefficients
from repro.boundary import HalfwayBounceBack
from repro.geometry import channel_2d, lid_driven_cavity, periodic_box
from repro.solver import (ConvergenceMonitor, EnergyMonitor, EnstrophyMonitor,
                          ForceMonitor, Monitors, ProbeMonitor, make_solver)
from repro.service.registry import build_single
from repro.validation import taylor_green_fields


class TestMomentumExchange:
    def test_quiescent_fluid_zero_force(self, d2q9):
        s = make_solver("ST", d2q9, lid_driven_cavity(10), 0.8,
                        boundaries=[HalfwayBounceBack()])
        s.run(5)
        force = MomentumExchangeForce(s).force()
        assert np.allclose(force, 0.0, atol=1e-14)

    @pytest.mark.parametrize("scheme", ["ST", "MR-P", "MR-R"])
    def test_channel_walls_balance_body_force(self, scheme):
        """At steady state the wall drag balances the driving force."""
        s = build_single("forced-channel", scheme, "D2Q9", (12, 18), tau=0.9,
                         u_max=0.03)
        s.run_to_steady_state(tol=1e-11, check_interval=200, max_steps=60_000)
        wall_force = MomentumExchangeForce(s).force()
        driving = s.force[0].sum()          # total force on the fluid
        assert wall_force[0] == pytest.approx(driving, rel=1e-3)
        assert abs(wall_force[1]) < 1e-10

    def test_masks_validated(self, d2q9):
        dom = channel_2d(8, 6, with_io=False)
        s = make_solver("ST", d2q9, dom, 0.8,
                        boundaries=[HalfwayBounceBack()])
        with pytest.raises(ValueError, match="shape"):
            MomentumExchangeForce(s, body_mask=np.ones((3, 3), bool))
        fluid_mask = ~dom.solid_mask
        with pytest.raises(ValueError, match="solid"):
            MomentumExchangeForce(s, body_mask=fluid_mask)

    def test_no_boundary_links(self, d2q9):
        s = make_solver("ST", d2q9, periodic_box((6, 6)), 0.8)
        with pytest.raises(ValueError, match="links"):
            MomentumExchangeForce(s)

    def test_coefficients(self):
        cd, cl = drag_lift_coefficients(np.array([0.02, -0.01]), 1.0, 0.1, 10)
        assert cd == pytest.approx(0.02 / (0.5 * 0.01 * 10))
        assert cl == pytest.approx(-0.01 / (0.5 * 0.01 * 10))
        with pytest.raises(ValueError):
            drag_lift_coefficients(np.zeros(2), 1.0, 0.0, 1.0)


class TestMonitors:
    def _tg_solver(self, steps=0):
        shape, tau = (24, 24), 0.8
        rho0, u0 = taylor_green_fields(shape, 0.0, 0.1, 0.03)
        return build_single("periodic", "MR-P", "D2Q9", shape, tau=tau,
                            rho0=rho0, u0=u0)

    def test_sampling_cadence(self):
        s = self._tg_solver()
        em = EnergyMonitor(every=5)
        s.run(20, callback=em)
        assert em.times == [5, 10, 15, 20]

    def test_energy_decays(self):
        s = self._tg_solver()
        em = EnergyMonitor(every=10)
        s.run(50, callback=em)
        vals = em.series()[1]
        assert (np.diff(vals) < 0).all()

    def test_enstrophy_decays(self):
        s = self._tg_solver()
        en = EnstrophyMonitor(every=10)
        s.run(50, callback=en)
        assert en.values[-1] < en.values[0]

    def test_probe(self):
        s = self._tg_solver()
        pm = ProbeMonitor((6, 12), every=10)
        s.run(20, callback=pm)
        assert len(pm.values) == 2
        assert pm.values[0].shape == (2,)
        _, u = s.macroscopic()
        assert np.allclose(pm.values[-1], u[:, 6, 12])

    def test_composition(self):
        s = self._tg_solver()
        em = EnergyMonitor(every=10)
        pm = ProbeMonitor((3, 3), every=20)
        s.run(40, callback=Monitors(em, pm))
        assert len(em.values) == 4
        assert len(pm.values) == 2

    def test_convergence_monitor(self):
        s = build_single("periodic", "ST", "D2Q9", (8, 8),
                         tau=0.8)   # rest fluid
        cm = ConvergenceMonitor(every=5)
        s.run(15, callback=cm)
        # The first visit (t=5) only records the baseline; no inf sentinel.
        assert cm.times == [10, 15]
        assert np.isfinite(cm.series()[1]).all()
        assert cm.values[-1] == pytest.approx(0.0, abs=1e-15)
        assert cm.converged

    def test_invalid_interval(self):
        with pytest.raises(ValueError):
            EnergyMonitor(every=0)

    def test_force_monitor_runs(self, d2q9):
        n = 10
        wall_u = np.zeros((2, n, n))
        wall_u[0, :, -1] = 0.05
        s = make_solver("ST", d2q9, lid_driven_cavity(n), 0.8,
                        boundaries=[HalfwayBounceBack(wall_velocity=wall_u)])
        fm = ForceMonitor(s, every=5)
        s.run(20, callback=fm)
        assert len(fm.values) == 4
        # The moving lid drags the fluid +x; reaction force on the walls
        # is the fluid's momentum sink — nonzero once flow develops.
        assert np.abs(fm.values[-1]).max() > 0


class TestEndOfRunFlush:
    """Runs whose length is not a multiple of ``every`` keep the end state."""

    def _tg_solver(self):
        shape, tau = (16, 16), 0.8
        rho0, u0 = taylor_green_fields(shape, 0.0, 0.1, 0.03)
        return build_single("periodic", "MR-P", "D2Q9", shape, tau=tau,
                            rho0=rho0, u0=u0)

    def test_final_state_recorded_off_cadence(self):
        s = self._tg_solver()
        em = EnergyMonitor(every=5)
        s.run(13, callback=em)           # 13 % 5 != 0: previously dropped
        assert em.times == [5, 10, 13]

    def test_no_duplicate_when_on_cadence(self):
        s = self._tg_solver()
        em = EnergyMonitor(every=5)
        s.run(10, callback=em)
        assert em.times == [5, 10]

    def test_flush_through_composition(self):
        s = self._tg_solver()
        em = EnergyMonitor(every=4)
        pm = ProbeMonitor((3, 3), every=10)
        s.run(7, callback=Monitors(em, pm))
        assert em.times == [4, 7]
        assert pm.times == [7]
        _, u = s.macroscopic()
        assert np.allclose(pm.values[-1], u[:, 3, 3])

    def test_convergence_monitor_flush_no_inf(self):
        s = build_single("periodic", "ST", "D2Q9", (8, 8),
                         tau=0.8)   # rest fluid
        cm = ConvergenceMonitor(every=5)
        s.run(13, callback=cm)
        assert cm.times == [10, 13]
        assert np.isfinite(cm.series()[1]).all()
        assert cm.converged

    def test_convergence_flush_before_baseline(self):
        """Flush with no baseline yet must not record an inf sample."""
        s = build_single("periodic", "ST", "D2Q9", (8, 8), tau=0.8)
        cm = ConvergenceMonitor(every=50)
        s.run(3, callback=cm)            # never reaches the cadence
        assert cm.times == []
        assert cm.values == []

    def test_plain_callable_callbacks_still_work(self):
        """run() must not require callbacks to implement flush()."""
        s = self._tg_solver()
        seen = []
        s.run(3, callback=lambda solver: seen.append(solver.time))
        assert seen == [1, 2, 3]
