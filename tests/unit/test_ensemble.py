"""Unit tests for the sweep engine behind ``mrlbm sweep``.

Covers what a sweep admits as a member, its per-member records (clocks,
progress lines, wall time, MLUPS), grid expansion with fingerprint
dedupe, and execution with manifests and a summary. Every member the
``swept`` fixture steps is checked, bit for bit, against its own
single-domain ``fused`` run.
"""

import dataclasses
import inspect
import json

import pytest

from repro.ensemble import SWEEP_PROBLEMS, expand_sweep, run_sweep
from repro.parallel.runtime import RunSpec


def grid(*taus, problem="taylor-green", scheme="MR-P", shape=(16, 16)):
    return expand_sweep(problem, [scheme], ["D2Q9"], [shape], taus)[0]


class TestEnrolment:
    def test_needs_members(self):
        with pytest.raises(ValueError, match="at least one"):
            run_sweep([], steps=2)

    def test_rejects_duplicate_member(self, swept):
        """The same spec twice is one member, stepped once."""
        spec = grid(0.8)[0]
        result, members = swept([spec, spec], 2)
        assert len(members) == 1 and result.duplicates_dropped == 1

    def test_rejects_uncertified_solver(self):
        """Only the registry's sweepable kinds build as members."""
        spec = RunSpec(kind="porous", scheme="MR-P", lattice="D2Q9",
                       shape=(16, 16), n_ranks=1, tau=0.8)
        with pytest.raises(ValueError, match="unknown sweep problem kind"):
            run_sweep([spec], steps=1)

    def test_enrols_aa_backend_members_at_an_odd_step(self, swept):
        """A member runs on the backend its spec names: ``aa`` ST after an
        odd step count reads the natural lattice, its ``fused`` run's."""
        specs = [dataclasses.replace(s, accel="aa")
                 for s in grid(0.7, 0.9, scheme="ST")]
        _, members = swept(specs, 3)
        assert [m.backend for m in members] == ["aa", "aa"]


class TestPackingAndRun:
    def test_member_callbacks_and_flush(self, swept):
        """Every member's clock reads the sweep's step count."""
        result, members = swept(grid(0.7, 0.9, 1.1), 4)
        assert [m.time for m in members] == [4, 4, 4]
        assert [row["steps"] for row in result.members] == [4, 4, 4]

    def test_callback_count_validated(self):
        """``progress`` hears one line per member."""
        lines = []
        run_sweep(grid(0.7, 0.9), steps=2, progress=lines.append)
        assert len(lines) == 2 and all("MLUPS" in line for line in lines)

    def test_telemetry_counts_steps(self, tmp_path):
        result = run_sweep(grid(0.8), steps=3, out_dir=tmp_path)
        fp = result.members[0]["fingerprint"]
        manifest = json.loads((tmp_path / f"member-{fp}.json").read_text())
        assert manifest["steps"] == 3

    def test_mlups_attribution_sums_to_aggregate(self, swept):
        """A member's MLUPS is its own updates over its own wall time."""
        result, members = swept(grid(0.7, 0.9, 1.1), 5)
        walls = [row["wall_s"] for row in result.members]
        assert [row["mlups"] for row in result.members] == pytest.approx(
            [m.domain.n_fluid * 5 / w / 1e6 for m, w in zip(members, walls)])
        assert result.to_dict()["aggregate_mlups"] == pytest.approx(
            3 * 256 * 5 / sum(walls) / 1e6)


class TestSweepExpansion:
    def test_grid_cross_product(self):
        specs, dropped = expand_sweep(
            "taylor-green", ["MR-P", "ST"], ["D2Q9"], [(16, 16), (24, 24)],
            [0.7, 0.9], u_maxes=[0.04])
        assert len(specs) == 8 and dropped == 0
        assert all(s.kind == "taylor-green" for s in specs)
        assert all(s.options["u_max"] == 0.04 for s in specs)
        assert {s.accel for s in specs} == {"fused"}

    def test_fingerprint_dedupe(self):
        specs, dropped = expand_sweep("taylor-green", ["MR-P"], ["D2Q9"],
                                      [(16, 16)], [0.8, 0.8, 0.8])
        assert len(specs) == 1 and dropped == 2

    def test_unknown_problem_rejected(self):
        with pytest.raises(ValueError, match="unknown sweep problem"):
            expand_sweep("cavity", ["ST"], ["D2Q9"], [(8, 8)], [0.8])
        assert "taylor-green" in SWEEP_PROBLEMS

    def test_taylor_green_needs_2d(self):
        spec = RunSpec(kind="taylor-green", scheme="MR-P", lattice="D3Q19",
                       shape=(8, 8, 8), n_ranks=1, tau=0.8)
        with pytest.raises(ValueError, match="2D"):
            run_sweep([spec], steps=1)

    def test_pack_batches_validates_max_batch(self):
        """There is no batch to size: a sweep takes its members and steps."""
        assert list(inspect.signature(run_sweep).parameters) == [
            "specs", "steps", "out_dir", "progress"]


class TestRunSweep:
    def test_sweep_executes_and_writes_artifacts(self, tmp_path, one_record):
        lines, specs = [], grid(0.7, 0.9, 1.1)
        result = run_sweep(specs, steps=4, out_dir=tmp_path,
                           progress=lines.append)
        assert len(result.members) == 3 and len(lines) == 3
        summary = json.loads((tmp_path / "sweep_summary.json").read_text())
        assert summary == json.loads(json.dumps(result.to_dict()))
        for row in result.members:
            path = tmp_path / f"member-{row['fingerprint']}.json"
            manifest = json.loads(path.read_text())
            assert manifest["extra"]["fingerprint"] == row["fingerprint"]
            assert manifest["extra"]["wall_s"] == row["wall_s"]
            assert row["mlups"] > 0
        one_record(specs[-1], path)         # the last member's manifest

    def test_sweep_parity_with_solo_runs(self, swept):
        """Heterogeneous-tau forced members end bit for bit on their solo
        ``fused`` runs (the fixture's check)."""
        specs = grid(0.7, 1.0, problem="forced-channel", shape=(16, 10))
        _, members = swept(specs, 6)
        assert [m.tau for m in members] == [0.7, 1.0]

    def test_singleton_chunk_runs_directly(self, swept):
        """Every member is a single-domain run of its own: its record has
        its own wall time and no batch."""
        result, _ = swept(grid(0.8), 3)
        (row,) = result.members
        assert row["steps"] == 3 and row["wall_s"] > 0 and "batch" not in row

    def test_defensive_dedupe(self):
        spec = grid(0.8)[0]
        result = run_sweep([spec, dataclasses.replace(spec)], steps=2)
        assert result.duplicates_dropped == 1 and len(result.members) == 1
