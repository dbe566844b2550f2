"""Integration: pulsatile (Womersley-type) channel flow.

Time-dependent body forcing via Solver.set_force, validated against the
analytic oscillatory-channel solution — the canonical hemodynamics
benchmark of the moment representation's application domain.
"""

import numpy as np
import pytest

from repro.service.registry import build_single
from repro.validation import womersley_number, womersley_profile


def run_pulsatile(scheme: str, shape=(10, 26), tau=0.8, period=1200,
                  amplitude=1e-5, cycles=4):
    nu = (tau - 0.5) / 3.0
    omega = 2 * np.pi / period
    s = build_single("forced-channel", scheme, "D2Q9", shape, tau=tau,
                     u_max=0.01)
    errs = []
    peak = max(
        np.abs(womersley_profile(shape[1], t, amplitude, omega, nu)).max()
        for t in range(0, period, period // 16)
    )
    for t in range(cycles * period):
        # Mid-step force for second-order time coupling.
        s.set_force([amplitude * np.cos(omega * (s.time + 0.5)), 0.0])
        s.run(1)
        if t >= (cycles - 1) * period and t % (period // 8) == 0:
            ana = womersley_profile(shape[1], s.time, amplitude, omega, nu)
            ux = s.velocity()[0][shape[0] // 2]
            errs.append(np.abs(ux[1:-1] - ana[1:-1]).max() / peak)
    return max(errs), omega, nu


class TestWomersley:
    @pytest.mark.parametrize("scheme", ["ST", "MR-P", "MR-R"])
    def test_profile_accuracy(self, scheme):
        err, omega, nu = run_pulsatile(scheme)
        assert err < 0.02, (scheme, err)

    def test_womersley_number_regime(self):
        _, omega, nu = run_pulsatile("MR-P", cycles=1)
        alpha = womersley_number(26, omega, nu)
        assert 1.5 < alpha < 4.0          # genuinely unsteady regime

    def test_profile_phase_lag(self):
        """At alpha > 1 the centreline velocity lags the force: when the
        force peaks, the flow is still accelerating."""
        shape, tau, period, amplitude = (10, 26), 0.8, 1200, 1e-5
        nu = (tau - 0.5) / 3.0
        omega = 2 * np.pi / period
        s = build_single("forced-channel", "MR-P", "D2Q9", shape, tau=tau,
                         u_max=0.01)
        centre = []
        for t in range(3 * period):
            s.set_force([amplitude * np.cos(omega * (s.time + 0.5)), 0.0])
            s.run(1)
            if t >= 2 * period:
                centre.append(s.velocity()[0][5, shape[1] // 2])
        centre = np.asarray(centre)
        # Flow peak lags the force peak (t=0 of the cycle) by a positive
        # phase; analytic lag = angle of 1/(i w) (1 - 1/cosh(kh)) term.
        lag_steps = int(np.argmax(centre))
        ana = [womersley_profile(shape[1], 2 * period + k, amplitude,
                                 omega, nu)[shape[1] // 2]
               for k in range(period)]
        ana_lag = int(np.argmax(ana))
        assert abs(lag_steps - ana_lag) <= period // 16


class TestSetForce:
    def test_requires_forced_solver(self):
        s = build_single("periodic", "MR-P", "D2Q9", (8, 8), tau=0.8)
        with pytest.raises(ValueError, match="without forcing"):
            s.set_force([1e-4, 0.0])

    def test_zeroes_solids(self):
        s = build_single("forced-channel", "MR-P", "D2Q9", (8, 10), u_max=0.01)
        s.set_force([5e-5, 0.0])
        assert np.allclose(s.force[:, s.domain.solid_mask], 0.0)
        assert np.allclose(s.force[0][~s.domain.solid_mask], 5e-5)

    def test_in_place_update(self):
        """set_force mutates the existing array (kernels keep their view)."""
        s = build_single("forced-channel", "ST", "D2Q9", (8, 10), u_max=0.01)
        ref = s.force
        s.set_force([7e-5, 0.0])
        assert s.force is ref
