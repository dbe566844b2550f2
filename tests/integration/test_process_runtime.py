"""Integration: the multiprocess slab runtime vs the reference solvers.

Covers the acceptance bar of the runtime: equivalence with the
single-domain solvers for every scheme (the conformance matrix's
``process`` cells, ``tests/property/test_conformance.py``), agreement
(fields and byte accounting) with the emulated backend, the merged
telemetry report,
and the failure paths — worker exception propagation, barrier unwinding
and shared-memory cleanup (no leaked ``/dev/shm`` segments).
"""

import dataclasses
import mmap
from multiprocessing import resource_tracker
from types import SimpleNamespace

import numpy as np
import pytest

from repro.parallel import (ParallelRuntimeError, blas, ProcessRuntime,
                            RunSpec, run_process)
from repro.parallel import runtime as runtime_module
from repro.validation import taylor_green_fields

from test_conformance import Cell, check_rank_counts_agree

SCHEMES = ["ST", "MR-P", "MR-R"]


class TestChannelEquivalence:
    """`--backend process` is the single-domain solver, by the rule."""

    @pytest.mark.parametrize("scheme", SCHEMES)
    def test_matches_single_domain(self, scheme):
        check_rank_counts_agree(Cell("channel", scheme, "D2Q9", "reference",
                                     "process-2", shape=(32, 14)))

    def test_three_ranks_periodic_3d(self):
        check_rank_counts_agree(Cell("periodic", "MR-P", "D3Q19", "reference",
                                     "process-3", shape=(12, 6, 5)))


class TestBackendAgreement:
    """The process and emulated backends are the same decomposition."""

    def test_single_rank_matches_emulated(self):
        shape, tau = (24, 10), 0.8
        rho0, u0 = taylor_green_fields(shape, 0.0, 0.1, 0.04)
        spec = RunSpec("periodic", "MR-R", "D2Q9", shape, 1, tau=tau,
                       options={"rho0": rho0, "u0": u0})
        result = run_process(spec, 5)
        emu = spec.build().run(5)
        rg, ug = emu.gather_macroscopic()
        assert np.array_equal(result.rho, rg)
        assert np.array_equal(result.u, ug)
        assert result.comm.bytes_sent == emu.comm.bytes_sent

    def test_comm_accounting_matches_emulated(self):
        shape = (30, 12)
        spec = RunSpec("periodic", "ST", "D2Q9", shape, 3, tau=0.8)
        result = run_process(spec, 4)
        emu = spec.build().run(4)
        assert result.comm.bytes_sent == emu.comm.bytes_sent
        assert result.comm.messages == emu.comm.messages
        assert result.comm.steps == emu.comm.steps == 4
        assert result.comm.bytes_per_step() == emu.comm.bytes_per_step()


class TestMergedReport:
    """Per-rank telemetry folds into one cohort report."""

    def test_report_structure(self):
        spec = RunSpec("periodic", "MR-P", "D2Q9", (24, 10), 2, tau=0.8)
        result = run_process(spec, 5)
        report = result.report
        assert report["n_ranks"] == 2
        assert report["steps"] == 5
        assert report["counters"]["steps"] == 10           # 2 ranks x 5
        assert len(report["mlups_per_rank"]) == 2
        assert report["mlups"] > 0
        # All interior fluid nodes are owned exactly once.
        assert report["n_fluid"] == 24 * 10
        for phase in ("step", "step/pack", "step/barrier", "step/unpack",
                      "step/compute"):
            assert report["phases"][phase]["calls"] > 0
        # Set-up and tear-down are phases of their own, outside ``step``;
        # nothing is published per step.
        for phase in ("attach", "gather"):
            assert report["phases"][phase]["calls"] == 2
        assert "step/publish" not in report["phases"]
        assert report["comm"]["bytes_per_step"] == pytest.approx(
            result.comm.bytes_per_step())

    def test_report_says_which_process_set_the_memory_peak(self):
        """Every rank summary carries its process's peak RSS; the merged
        report carries the largest of ranks and parent, and names it."""
        spec = RunSpec("periodic", "MR-P", "D2Q9", (24, 10), 2, tau=0.8)
        result = run_process(spec, 3)
        ranks = {f"rank {rep['rank']}": rep["summary"]["peak_rss_mb"]
                 for rep in result.per_rank}
        assert len(ranks) == 2 and min(ranks.values()) > 0
        report = result.report
        assert report["peak_rss_process"] in {*ranks, "parent"}
        assert report["peak_rss_mb"] >= max(ranks.values())
        if report["peak_rss_process"] != "parent":
            assert report["peak_rss_mb"] == ranks[report["peak_rss_process"]]

    def test_rank_reports_say_where_compute_went(self):
        """A rank is a solver with the rank's telemetry attached, so its
        own phases nest under ``step/compute`` in every rank summary and
        in the merged report."""
        steps, ranks = 6, 2
        spec = RunSpec("forced-channel", "MR-P", "D2Q9", (24, 12), ranks,
                       accel="fused")
        result = run_process(spec, steps)
        for phases in ([rep["summary"]["phases"] for rep in result.per_rank]
                       + [result.report["phases"]]):
            inner = {name: rec for name, rec in phases.items()
                     if name.startswith("step/compute/")}
            assert {"step/compute/collide", "step/compute/stream"} <= set(inner)
            assert (sum(rec["total_s"] for rec in inner.values())
                    <= phases["step/compute"]["total_s"])
        merged = result.report["phases"]
        assert merged["step/compute/collide"]["calls"] == steps * ranks
        assert merged["step/compute"]["calls"] == steps * ranks

    def test_two_ranks_on_two_cores_run_one_blas_thread_each(self,
                                                             monkeypatch):
        if blas.share_cores(1) == blas.NO_SETTER:
            pytest.skip(blas.NO_SETTER)
        monkeypatch.setattr(blas, "_cores", lambda: 2)
        monkeypatch.delenv("OPENBLAS_NUM_THREADS", raising=False)
        result = run_process(RunSpec("periodic", "ST", "D2Q9", (24, 10), 2), 2)
        assert [rep["blas_threads"] for rep in result.per_rank] == [1, 1]

    def test_solver_time_and_comm_advance(self):
        spec = RunSpec("periodic", "ST", "D2Q9", (24, 10), 2, tau=0.8)
        runtime = ProcessRuntime(spec)
        runtime.run(3)
        assert runtime.solver.time == 3
        assert runtime.solver.comm.steps == 3

    def test_repeated_runs_do_not_accumulate(self):
        """Every ``run`` starts from the spec's initial condition, so the
        second call returns the same fields under the same labels."""
        spec = RunSpec("periodic", "ST", "D2Q9", (24, 10), 2, tau=0.8)
        runtime = ProcessRuntime(spec)
        first, second = runtime.run(3), runtime.run(3)
        assert np.array_equal(first.rho, second.rho)
        assert np.array_equal(first.u, second.u)
        assert runtime.solver.time == 3
        assert first.comm == second.comm == runtime.solver.comm
        assert runtime.solver.comm == spec.build().run(3).comm


class TestOneBuildPerRank:
    """The parent's shell is the only spec build, a rank is built by its
    own forked worker only, nothing but faces and the final ``(rho, u)``
    is shared, and the ranks gather."""

    @pytest.mark.parametrize("n_ranks", [1, 2, 3])
    @pytest.mark.parametrize("scheme", ["ST", "MR-P"])
    def test_forked_workers_never_build(self, monkeypatch, tmp_path, built,
                                        refuse_to_build, scheme, n_ranks):
        spec = RunSpec("channel", scheme, "D2Q9", (24, 10), n_ranks, tau=0.8,
                       accel="fused", options={"u_max": 0.04})
        clean = run_process(spec, 9)
        ck = str(tmp_path / "ck")

        def unregistered(name, rtype):
            """Nothing is named, so no process — the parent included —
            hands the resource tracker anything to clean up (its lock a
            sibling job thread of the server may hold at fork time)."""
            raise AssertionError(f"{rtype} {name} was registered")

        for leg in (spec,
                    dataclasses.replace(spec, checkpoint_dir=ck,
                                        checkpoint_every=4),
                    dataclasses.replace(spec, resume_from=ck)):
            runtime = ProcessRuntime(leg)
            with monkeypatch.context() as patch:
                patch.setattr(RunSpec, "build", refuse_to_build)
                patch.setattr(resource_tracker, "register", unregistered)
                result = runtime.run(9)
            assert np.array_equal(result.rho, clean.rho)
            assert np.array_equal(result.u, clean.u)
        assert result.start_step == 8
        # ... and the parent never built a rank: each worker built its own.
        assert not built

    @pytest.mark.parametrize("kind, n_ranks, faces", [
        ("periodic", 1, 2), ("periodic", 3, 6),
        ("channel", 1, 0), ("channel", 3, 4)])
    def test_plan_is_one_output_block_plus_faces(self, monkeypatch,
                                                 leaked_segments,
                                                 kind, n_ranks, faces):
        shape, mapped = (24, 10), []
        monkeypatch.setattr(runtime_module, "mmap", SimpleNamespace(
            mmap=lambda fd, n: mapped.append((fd, n)) or mmap.mmap(fd, n)))
        runtime = ProcessRuntime(RunSpec(kind, "MR-P", "D2Q9", shape,
                                         n_ranks, tau=0.8))
        runtime.run(2)
        face = 6 * shape[1] * 8          # the M = 6 moments of a D2Q9 face
        assert mapped == [(-1, 3 * 24 * 10 * 8)] + faces * [(-1, face)]

        mapped.clear()
        failing = ProcessRuntime(dataclasses.replace(
            runtime.spec, fault={"rank": 0, "step": 1}))
        with pytest.raises(ParallelRuntimeError):
            failing.run(4, run_timeout=120.0)
        assert len(mapped) == 1 + faces
        assert leaked_segments() == []


class TestFailurePaths:
    """Worker failures surface as structured errors, never deadlocks."""

    def test_injected_fault_propagates(self):
        spec = RunSpec("periodic", "MR-P", "D2Q9", (24, 10), 2, tau=0.8,
                       fault={"rank": 1, "step": 2})
        with pytest.raises(ParallelRuntimeError) as excinfo:
            run_process(spec, 6, run_timeout=120.0)
        failures = excinfo.value.failures
        assert any(f.rank == 1 and f.exc_type == "FaultInjected"
                   for f in failures)
        assert any(f.step == 2 for f in failures if f.rank == 1)
        assert "injected fault" in str(excinfo.value)

    def test_no_shared_memory_leak_on_abort(self, leaked_segments):
        spec = RunSpec("periodic", "ST", "D2Q9", (24, 10), 3, tau=0.8,
                       fault={"rank": 0, "step": 0})
        with pytest.raises(ParallelRuntimeError):
            run_process(spec, 4, run_timeout=120.0)
        assert not leaked_segments()

    def test_no_shared_memory_leak_on_success(self, leaked_segments):
        spec = RunSpec("periodic", "ST", "D2Q9", (24, 10), 2, tau=0.8)
        run_process(spec, 2)
        assert not leaked_segments()

    def test_bad_spec_kind_raises_locally(self):
        with pytest.raises(ValueError, match="unknown problem kind"):
            RunSpec("lid", "ST", "D2Q9", (24, 10), 2).build()
