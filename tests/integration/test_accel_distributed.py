"""Fused fast-path backend inside the distributed slab runtime."""

import numpy as np
import pytest

from repro.parallel import RunSpec
from repro.validation import taylor_green_fields


def build_spec(kind, scheme, ranks, accel="reference"):
    shape = (30, 18)
    if kind == "channel":
        opts = {"u_max": 0.04, "bc_method": "nebb"}
    elif kind == "forced-channel":
        opts = {"u_max": 0.04}
    else:
        nu = (0.8 - 0.5) / 3.0
        rho0, u0 = taylor_green_fields(shape, 0.0, nu, 0.04)
        opts = {"rho0": rho0, "u0": u0}
    return RunSpec(kind, scheme, "D2Q9", shape, ranks, tau=0.8,
                   options=opts, accel=accel)


class TestEmulatedFusedParity:
    @pytest.mark.parametrize("kind", ["channel", "periodic", "forced-channel"])
    @pytest.mark.parametrize("scheme", ["ST", "MR-P", "MR-R"])
    def test_matches_reference_ranks(self, kind, scheme):
        """Per-rank fused cores reproduce the reference slab trajectory."""
        ref = build_spec(kind, scheme, 3).build()
        fused = build_spec(kind, scheme, 3, accel="fused").build()
        ref.run(10)
        fused.run(10)
        rho_r, u_r = ref.gather_macroscopic()
        rho_f, u_f = fused.gather_macroscopic()
        assert np.abs(rho_r - rho_f).max() < 1e-13
        assert np.abs(u_r - u_f).max() < 1e-13

    def test_fused_rank_count_invariance(self):
        """The fused trajectory is independent of the slab count."""
        two = build_spec("channel", "MR-P", 2, accel="fused").build()
        five = build_spec("channel", "MR-P", 5, accel="fused").build()
        two.run(12)
        five.run(12)
        rho_2, u_2 = two.gather_macroscopic()
        rho_5, u_5 = five.gather_macroscopic()
        assert np.abs(rho_2 - rho_5).max() < 1e-13
        assert np.abs(u_2 - u_5).max() < 1e-13

    def test_numba_rejected_for_distributed(self):
        with pytest.raises(ValueError, match="numba"):
            build_spec("channel", "ST", 2, accel="numba").build()

    @pytest.mark.parametrize("scheme", ["ST", "MR-P", "MR-R"])
    def test_forced_channel_matches_single_domain(self, scheme):
        """The distributed forced channel reproduces the single solver."""
        from repro.solver import forced_channel_problem

        dist = build_spec("forced-channel", scheme, 3, accel="fused").build()
        ref = forced_channel_problem(scheme, "D2Q9", (30, 18), tau=0.8,
                                     u_max=0.04)
        dist.run(15)
        ref.run(15)
        rho_d, u_d = dist.gather_macroscopic()
        rho_r, u_r = ref.macroscopic()
        assert np.abs(rho_d - rho_r).max() < 1e-13
        assert np.abs(u_d - u_r).max() < 1e-13


class TestEmulatedInplaceParity:
    """The single-lattice ``aa`` backend inside the slab runtime.

    Distributed aa ranks run the conservative natural-layout step every
    step (halo exchange and checkpoints see natural arrays), so they
    must match the reference ranks exactly. The runtime drops the
    per-rank scratch lattice; boundary-free MR ranks then really run
    one distribution buffer lighter, while ST ranks trade it for the
    core-owned scratch (neutral — the conservative fallback still
    needs a gather target).
    """

    @pytest.mark.parametrize("kind", ["channel", "periodic", "forced-channel"])
    @pytest.mark.parametrize("scheme", ["ST", "MR-P", "MR-R"])
    def test_matches_reference_ranks(self, kind, scheme):
        ref = build_spec(kind, scheme, 3).build()
        aa = build_spec(kind, scheme, 3, accel="aa").build()
        ref.run(10)
        aa.run(10)
        rho_r, u_r = ref.gather_macroscopic()
        rho_a, u_a = aa.gather_macroscopic()
        assert np.abs(rho_r - rho_a).max() < 1e-13
        assert np.abs(u_r - u_a).max() < 1e-13

    def test_aa_ranks_drop_scratch_lattice(self, field_doubles):
        """A rank owns only its state; the core's buffers are the inventory.

        Same check as ``tests/unit/test_accel_cores.py`` on one slab of
        the decomposition. A rank this small is a single window slab, so
        ``fused`` and ``aa`` hold the same buffers: the streamed slab for
        ST, the ``f*`` ring and the streamed slab for MR, each a whole
        lattice here (on a grid of several slabs they are a few planes).
        """
        for scheme, field, scratch in (("ST", "f", "_f_streamed"),
                                       ("MR-P", "m", "_f_scratch")):
            for accel in ("fused", "aa"):
                dist = build_spec("periodic", scheme, 2, accel=accel).build()
                dist.run(2)
                state = dist.ranks[0]
                # the rank solver's reference-only buffer
                assert getattr(state, scratch) is None
                lat, n = dist.lat, state.domain.n_nodes
                q, m, d, p = lat.q, lat.n_moments, lat.d, lat.n_pairs
                expected = (
                    n * (2 * q + q + m + d + q + (2 * q + d + 1))
                    if scheme == "ST"
                    else n * (m + 2 * q + m + d + 3 * p + 2 + 2))
                core = state._stepper.core
                assert field_doubles(getattr(state, field), core,
                                     min_size=n) == expected
                # boundary-free: one persistent lattice for ST, none
                # beside the moments for MR
                assert core.state_lattices == (1 if scheme == "ST" else 0)
                # a rank's halo exchange looks every step, so a
                # boundary-free aa ST core takes (and reports) the
                # natural-layout step; the sliding-window steps are
                # natural at every step
                assert state.accel_path == {
                    ("fused", "ST"): "lean", ("fused", "MR-P"): "lean",
                    ("aa", "ST"): "bounded", ("aa", "MR-P"): "lean",
                }[accel, scheme]
        assert build_spec("periodic", "ST", 2).build().ranks[0] \
            ._f_streamed is not None


class TestProcessFused:
    def test_process_backend_runs_fused(self):
        """Real worker processes honour RunSpec.accel and report it."""
        from repro.parallel import run_process

        res = run_process(build_spec("channel", "MR-P", 2, accel="fused"), 8)
        ref = build_spec("channel", "MR-P", 2).build()
        ref.run(8)
        rho_r, u_r = ref.gather_macroscopic()
        assert np.abs(res.rho - rho_r).max() < 1e-13
        assert np.abs(res.u - u_r).max() < 1e-13
        assert all(rec["accel"] == "fused" for rec in res.per_rank)
