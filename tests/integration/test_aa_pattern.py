"""Integration: AA-pattern single-lattice solver vs two-lattice ST."""

import numpy as np
import pytest

from repro.geometry import channel_2d, periodic_box
from repro.lattice import get_lattice
from repro.perf import state_values_per_node
from repro.solver import AASolver
from repro.service.registry import build_single
from repro.validation import relative_l2_error, taylor_green_fields


def make_pair(lattice_name, shape, tau=0.8, seed=3):
    lat = get_lattice(lattice_name)
    rng = np.random.default_rng(seed)
    rho0 = 1 + 0.03 * rng.standard_normal(shape)
    u0 = 0.03 * rng.standard_normal((lat.d, *shape))
    aa = AASolver(lat, periodic_box(shape), tau, rho0=rho0, u0=u0)
    st = build_single("periodic", "ST", lat, shape, tau=tau, rho0=rho0, u0=u0)
    return aa, st


class TestEquivalence:
    @pytest.mark.parametrize("lattice_name,shape", [
        ("D2Q9", (18, 14)),
        ("D3Q19", (8, 7, 6)),
        ("D3Q27", (6, 6, 5)),
    ])
    def test_matches_st_every_step(self, lattice_name, shape):
        """Same macroscopic trajectory at both parities, to epsilon."""
        aa, st = make_pair(lattice_name, shape)
        for _ in range(6):
            aa.run(1)
            st.run(1)
            ra, ua = aa.macroscopic()
            rs, us = st.macroscopic()
            assert np.abs(ra - rs).max() < 1e-13
            assert np.abs(ua - us).max() < 1e-13

    def test_taylor_green_accuracy(self):
        shape, tau, u0 = (48, 48), 0.8, 0.03
        nu = (tau - 0.5) / 3
        rho_i, u_i = taylor_green_fields(shape, 0.0, nu, u0)
        aa = AASolver(get_lattice("D2Q9"), periodic_box(shape), tau,
                      rho0=rho_i, u0=u_i)
        aa.run(200)
        _, u_ref = taylor_green_fields(shape, 200.0, nu, u0)
        assert relative_l2_error(aa.velocity(), u_ref) < 5e-3

    def test_conservation(self):
        aa, _ = make_pair("D2Q9", (12, 12))
        m0 = aa.diagnostics.mass()
        p0 = aa.diagnostics.momentum()
        aa.run(21)                         # odd count: ends mid-pair
        assert aa.diagnostics.mass() == pytest.approx(m0, rel=1e-12)
        assert np.allclose(aa.diagnostics.momentum(), p0, atol=1e-12)


class TestRestrictions:
    def test_rejects_solids(self):
        lat = get_lattice("D2Q9")
        with pytest.raises(ValueError, match="periodic"):
            AASolver(lat, channel_2d(8, 6, with_io=False), 0.8)

    def test_rejects_forcing(self):
        lat = get_lattice("D2Q9")
        with pytest.raises(ValueError, match="forcing"):
            AASolver(lat, periodic_box((6, 6)), 0.8,
                     force=np.array([1e-4, 0.0]))


class TestFootprintStory:
    def test_three_way_footprint(self):
        """AA halves ST's footprint; MR beats both in 3D (Section 4.1+)."""
        lat = get_lattice("D3Q19")
        st = state_values_per_node(lat, "ST")
        aa = state_values_per_node(lat, "AA")
        mr = state_values_per_node(lat, "MR")
        assert (st, aa, mr) == (38, 19, 20)
        # In 3D, AA and MR footprints are nearly equal...
        assert abs(aa - mr) <= 1
        # ...but MR still moves 47% fewer bytes per update.
        from repro.perf import bytes_per_flup

        assert bytes_per_flup(lat, "MR") < 0.6 * bytes_per_flup(lat, "ST")

    def test_solver_reports_footprint(self):
        aa, st = make_pair("D2Q9", (8, 8))
        assert aa.state_values_per_node == 9
        assert st.state_values_per_node == 18


class TestOddParity:
    """Odd step counts and odd-time reads — the AA pattern's tricky half."""

    @pytest.mark.parametrize("n_steps", [1, 3, 5, 7])
    def test_matches_st_after_odd_step_counts(self, n_steps):
        """Fresh runs ending mid-pair agree with ST at every odd length."""
        aa, st = make_pair("D2Q9", (16, 12), seed=n_steps)
        aa.run(n_steps)
        st.run(n_steps)
        ra, ua = aa.macroscopic()
        rs, us = st.macroscopic()
        assert np.abs(ra - rs).max() < 1e-13
        assert np.abs(ua - us).max() < 1e-13

    def test_macroscopic_at_odd_parity_is_pure(self):
        """Odd-time macroscopic() gathers without touching solver state."""
        aa, st = make_pair("D2Q9", (14, 10), seed=11)
        aa.run(3)
        assert aa.time % 2 == 1
        f_before = aa.f.copy()
        r1, u1 = aa.macroscopic()
        r2, u2 = aa.macroscopic()
        assert np.array_equal(aa.f, f_before)       # read did not mutate
        assert np.array_equal(r1, r2)
        assert np.array_equal(u1, u2)
        # Mass/momentum computed through the odd-parity gather agree with
        # the two-lattice solver's straight moments.
        st.run(3)
        rs, us = st.macroscopic()
        assert np.abs(r1 - rs).max() < 1e-13
        assert np.abs(u1 - us).max() < 1e-13

    def test_phase_accounting_over_step_pairs(self):
        """Per-phase telemetry adds up: distinct gather/scatter sub-phases,
        correct call counts, and child times summing to the step time."""
        from repro.obs import Telemetry

        aa, _ = make_pair("D2Q9", (48, 48), seed=5)
        tel = Telemetry()
        aa.attach_telemetry(tel)
        k = 4
        aa.run(2 * k)

        assert tel.phases["step"].calls == 2 * k
        assert tel.phases["step/collide"].calls == 2 * k
        assert tel.phases["step/stream:gather"].calls == k
        assert tel.phases["step/stream:scatter"].calls == k
        assert "step/stream" not in tel.phases

        step_total = tel.phase_total("step")
        children = sum(stats.total for path, stats in tel.phases.items()
                       if path.startswith("step/"))
        # Children are disjoint sub-spans of "step": their sum can never
        # exceed it, and outside-phase overhead is a few allocations only.
        assert children <= step_total
        assert children >= 0.5 * step_total
