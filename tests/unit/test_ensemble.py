"""Unit tests for the lockstep ensemble runner and the sweep machinery.

Covers the enrolment contract (capability handshake and compatibility
rejections), zero-copy member packing (state rebinding, observability,
``set_force`` liveness), lockstep ``run`` semantics (callbacks, flush,
time sync, telemetry), MLUPS attribution, and the ``mrlbm sweep`` engine
(grid expansion, fingerprint dedupe, batch packing, execution with
manifests and a summary).
"""

import json

import numpy as np
import pytest

from repro.ensemble import (
    EnsembleRunner,
    SWEEP_PROBLEMS,
    build_sweep_member,
    expand_sweep,
    pack_batches,
    run_sweep,
)
from repro.lattice import get_lattice
from repro.obs import Telemetry
from repro.parallel.runtime import RunSpec
from repro.solver import MRPSolver, PowerLawMRPSolver
from repro.service.registry import build_single
from repro.validation import taylor_green_fields

from test_conformance import assert_agree, fields


def tg_member(scheme="MR-P", shape=(12, 10), tau=0.8, u_max=0.04,
              backend="fused"):
    lat = get_lattice("D2Q9")
    rho0, u0 = taylor_green_fields(shape, 0.0, lat.viscosity(tau), u_max)
    return build_single("periodic", scheme, lat, shape, tau=tau, rho0=rho0,
                        u0=u0, backend=backend)


class TestEnrolment:
    def test_needs_members(self):
        with pytest.raises(ValueError, match="at least one"):
            EnsembleRunner([])

    def test_rejects_duplicate_member(self):
        m = tg_member()
        with pytest.raises(ValueError, match="distinct"):
            EnsembleRunner([m, m])

    def test_rejects_uncertified_solver(self):
        """PowerLawMRPSolver overrides physics and must not batch."""
        from repro.geometry import periodic_box

        lat = get_lattice("D2Q9")
        m = PowerLawMRPSolver(lat, periodic_box((10, 8)), 0.8,
                              consistency=0.05)
        with pytest.raises(ValueError, match="batched"):
            EnsembleRunner([m])

    def test_rejects_mixed_schemes(self):
        with pytest.raises(ValueError, match="share one scheme"):
            EnsembleRunner([tg_member("MR-P"), tg_member("MR-R")])

    def test_rejects_mixed_shapes(self):
        with pytest.raises(ValueError, match="share one grid shape"):
            EnsembleRunner([tg_member(shape=(12, 10)),
                            tg_member(shape=(10, 12))])

    def test_enrols_aa_backend_members_at_an_odd_step(self):
        """How ``aa`` stores an odd step is the core's business: enrolment
        reads ``member.f``, which is the natural lattice on every backend."""
        taus = (0.7, 0.9)
        members = [tg_member("ST", tau=t, backend="aa").run(3) for t in taus]
        alone = [tg_member("ST", tau=t, backend="fused").run(3 + 4)
                 for t in taus]
        EnsembleRunner(members).run(4)
        for member, solo in zip(members, alone):
            assert member.time == solo.time
            assert np.array_equal(member.f, solo.f)

    def test_rejects_time_skew(self):
        a, b = tg_member(), tg_member()
        a.run(2)
        with pytest.raises(ValueError, match="agree on time"):
            EnsembleRunner([a, b])

    def test_rejects_mixed_forcing(self):
        forced = build_single("periodic", "MR-P", "D2Q9", (12, 10), tau=0.8,
                              force=np.array([1e-5, 0.0]), backend="fused")
        with pytest.raises(ValueError, match="all-or-none"):
            EnsembleRunner([tg_member(), forced])

    def test_rejects_tau_bulk_member(self):
        lat = get_lattice("D2Q9")
        from repro.geometry import periodic_box

        m = MRPSolver(lat, periodic_box((10, 8)), tau=0.8, tau_bulk=0.9,
                      backend="fused")
        with pytest.raises(ValueError, match="tau_bulk"):
            EnsembleRunner([m, tg_member()])


class TestPackingAndRun:
    def test_members_are_live_views(self):
        """Member state is rebound to batch views, not copied away."""
        members = [tg_member(tau=t) for t in (0.7, 0.9)]
        runner = EnsembleRunner(members)
        for k, m in enumerate(members):
            assert m.m.base is runner._m
            assert np.shares_memory(m.m, runner._m[k])
        runner.run(3)
        for m in members:
            rho, u = m.macroscopic()      # reads the live batched state
            assert np.isfinite(rho).all() and np.isfinite(u).all()
            assert m.time == 3

    def test_set_force_drives_the_batch(self):
        """After enrolment, member.set_force still reaches the kernel
        (a sparse member's too, which holds its own force compact)."""
        for backend in ("fused", "sparse"):
            members = [build_single("forced-channel", "ST", "D2Q9", (12, 8),
                                    tau=0.8, u_max=0.04, backend=backend)
                for _ in range(2)]
            runner = EnsembleRunner(members)
            members[1].set_force(np.array([2e-5, 0.0]))
            assert np.shares_memory(members[1].force, runner._force[1])
            assert runner._force[1, 0].max() == pytest.approx(2e-5)

    def test_member_callbacks_and_flush(self):
        """The batch steps with no callbacks (a sweep exposes none of the
        run loop's flags); member clocks advance with it."""
        members = [tg_member(tau=t) for t in (0.7, 0.9, 1.1)]
        EnsembleRunner(members).run(4)
        assert [m.time for m in members] == [4, 4, 4]

    def test_callback_count_validated(self):
        with pytest.raises(TypeError, match="member_callbacks"):
            EnsembleRunner([tg_member()]).run(2, member_callbacks=[None])

    def test_telemetry_counts_steps(self):
        members = [tg_member(tau=t) for t in (0.7, 0.9)]
        tel = Telemetry()
        EnsembleRunner(members).attach_telemetry(tel).run(3)
        assert tel.counters["steps"] == 3
        assert tel.phase_total("step") > 0.0

    def test_mlups_attribution_sums_to_aggregate(self):
        members = [tg_member(tau=t) for t in (0.7, 0.9, 1.1)]
        runner = EnsembleRunner(members)
        per = runner.member_mlups(0.5, 10)
        assert sum(per) == pytest.approx(runner.aggregate_mlups(0.5, 10))
        assert all(p > 0 for p in per)
        assert runner.aggregate_mlups(0.0, 10) == 0.0


class TestSweepExpansion:
    def test_grid_cross_product(self):
        specs, dropped = expand_sweep(
            "taylor-green", ["MR-P", "ST"], ["D2Q9"], [(16, 16), (24, 24)],
            [0.7, 0.9], u_maxes=[0.04])
        assert len(specs) == 8 and dropped == 0
        assert all(s.kind == "taylor-green" for s in specs)
        assert all(s.options["u_max"] == 0.04 for s in specs)

    def test_fingerprint_dedupe(self):
        specs, dropped = expand_sweep(
            "taylor-green", ["MR-P"], ["D2Q9"], [(16, 16)],
            [0.8, 0.8, 0.8])
        assert len(specs) == 1 and dropped == 2

    def test_unknown_problem_rejected(self):
        with pytest.raises(ValueError, match="unknown sweep problem"):
            expand_sweep("cavity", ["ST"], ["D2Q9"], [(8, 8)], [0.8])
        assert "taylor-green" in SWEEP_PROBLEMS

    def test_taylor_green_needs_2d(self):
        spec = RunSpec(kind="taylor-green", scheme="MR-P", lattice="D3Q19",
                       shape=(8, 8, 8), n_ranks=1, tau=0.8)
        with pytest.raises(ValueError, match="2D"):
            build_sweep_member(spec)

    def test_pack_batches_groups_and_chunks(self):
        specs, _ = expand_sweep("taylor-green", ["MR-P"], ["D2Q9"],
                                [(16, 16), (24, 24)],
                                [0.6, 0.7, 0.8, 0.9, 1.0])
        batches = pack_batches(specs, max_batch=3)
        # 2 shapes x 5 taus -> per shape: chunks of 3 + 2.
        assert [len(b) for b in batches] == [3, 2, 3, 2]
        for batch in batches:
            keys = {(s.kind, s.scheme, s.lattice, s.shape) for s in batch}
            assert len(keys) == 1

    def test_pack_batches_validates_max_batch(self):
        with pytest.raises(ValueError, match="max_batch"):
            pack_batches([], max_batch=0)


class TestRunSweep:
    def test_sweep_executes_and_writes_artifacts(self, tmp_path):
        specs, _ = expand_sweep("taylor-green", ["MR-P"], ["D2Q9"],
                                [(16, 16)], [0.7, 0.9, 1.1])
        lines = []
        result = run_sweep(specs, steps=4, max_batch=8, out_dir=tmp_path,
                           progress=lines.append)
        assert len(result.members) == 3
        assert len(result.batches) == 1 and result.batches[0]["size"] == 3
        assert result.batches[0]["batched"] is True
        assert lines and "MLUPS" in lines[0]
        summary = json.loads((tmp_path / "sweep_summary.json").read_text())
        assert summary["n_members"] == 3
        for row in result.members:
            path = tmp_path / f"member-{row['fingerprint']}.json"
            manifest = json.loads(path.read_text())
            assert manifest["extra"]["fingerprint"] == row["fingerprint"]
            assert row["mlups"] > 0

    def test_sweep_parity_with_solo_runs(self):
        """Sweep members end bit for bit on their independent runs."""
        specs, _ = expand_sweep("forced-channel", ["MR-P"], ["D2Q9"],
                                [(16, 10)], [0.7, 1.0])
        run_sweep_members = [build_sweep_member(s) for s in specs]
        runner = EnsembleRunner(run_sweep_members)
        runner.run(6)
        for spec, member in zip(specs, run_sweep_members):
            solo = build_sweep_member(spec)
            solo.run(6)
            assert_agree(fields(*member.macroscopic()),
                         fields(*solo.macroscopic()), exact=True)

    def test_singleton_chunk_runs_directly(self, tmp_path):
        specs, _ = expand_sweep("taylor-green", ["MR-P"], ["D2Q9"],
                                [(16, 16)], [0.8])
        result = run_sweep(specs, steps=3, out_dir=tmp_path)
        assert result.batches[0]["size"] == 1
        assert result.batches[0]["batched"] is False
        assert result.members[0]["steps"] == 3

    def test_defensive_dedupe(self):
        spec = expand_sweep("taylor-green", ["MR-P"], ["D2Q9"],
                            [(16, 16)], [0.8])[0][0]
        twin = RunSpec(kind=spec.kind, scheme=spec.scheme,
                       lattice=spec.lattice, shape=spec.shape, n_ranks=1,
                       tau=spec.tau, options=dict(spec.options))
        result = run_sweep([spec, twin], steps=2)
        assert result.duplicates_dropped == 1
        assert len(result.members) == 1
