"""Integration: distributed checkpoints — save, kill, resume, re-shard.

A cohort checkpointed, stopped and resumed — on the same or another rank
count — lands on the uninterrupted run's fields by the conformance
matrix's rule (``check_process_resume``, tests/property/
test_conformance.py): bit for bit on ``reference``. The rest is the
checkpoint directory contract itself: COMPLETE markers, torn-directory
rejection, pruning, and manifest validation against an incompatible
spec.
"""

import shutil
from dataclasses import replace

import numpy as np
import pytest

from repro.io.checkpoint import (checkpoint_step, is_checkpoint_complete,
                                 latest_checkpoint, load_manifest_for_resume,
                                 read_slab, resolve_resume)
from repro.parallel import FaultSpec, ProcessRuntime, RunSpec, run_process

from test_conformance import (Cell, assert_same_fields, check_process_resume,
                              spec)

SHAPE_2D = (24, 10)
TAU = 0.8


def _cell(scheme, n_ranks):
    return Cell("periodic", scheme, "D2Q9", "reference", f"process-{n_ranks}",
                SHAPE_2D)


def _spec(scheme, n_ranks, **kw):
    return RunSpec("periodic", scheme, "D2Q9", SHAPE_2D, n_ranks,
                   tau=TAU, **kw)


class TestSaveKillResume:
    """Checkpoint -> stop -> resume equals the uninterrupted trajectory."""

    @pytest.mark.parametrize("scheme", ["ST", "MR-P"])
    @pytest.mark.parametrize("n_ranks", [1, 2, 4])
    def test_roundtrip_machine_precision(self, scheme, n_ranks):
        check_process_resume(_cell(scheme, n_ranks), n_ranks, at=4, every=2)

    @pytest.mark.parametrize("scheme", ["ST", "MR-P"])
    @pytest.mark.parametrize("ranks", [(2, 3), (4, 2), (1, 4), (1, 2), (3, 1)])
    def test_resume_with_different_rank_count(self, scheme, ranks):
        check_process_resume(_cell(scheme, ranks[0]), ranks[1])

    def test_resume_from_explicit_step_dir(self, tmp_path):
        cell = _cell("MR-P", 2)
        run_process(replace(spec(cell), checkpoint_dir=str(tmp_path),
                            checkpoint_every=1, checkpoint_keep=10), 4)
        resumed = run_process(replace(spec(cell), resume_from=str(
            tmp_path / "step-00000003")), 5)
        assert resumed.start_step == 3
        assert_same_fields(resumed, run_process(spec(cell), 5))

    @pytest.mark.parametrize("scheme", ["ST", "MR-P"])
    def test_resume_from_compressed_rank_files(self, tmp_path, scheme):
        """Rank files used to be ``np.savez_compressed``; a directory
        written that way resumes to the same bits as today's."""
        ck = tmp_path / "ck"
        run_process(_spec(scheme, 2, checkpoint_dir=str(ck),
                          checkpoint_every=4), 5)
        resumed = run_process(_spec(scheme, 3, resume_from=str(ck)), 9)
        for rank_file in ck.glob("step-*/rank*.npz"):
            with np.load(rank_file) as data:
                arrays = dict(data)
            size = rank_file.stat().st_size
            np.savez_compressed(rank_file, **arrays)
            assert rank_file.stat().st_size < size
        again = run_process(_spec(scheme, 3, resume_from=str(ck)), 9)
        assert again.start_step == resumed.start_step == 4
        assert_same_fields(again, resumed)

    def test_resumed_solver_time_is_total_steps(self, tmp_path):
        ck = str(tmp_path / "ck")
        run_process(_spec("ST", 2, checkpoint_dir=ck, checkpoint_every=3), 5)
        runtime = ProcessRuntime(_spec("ST", 2, resume_from=ck))
        assert runtime.run(8).start_step == 3
        assert runtime.solver.time == 8


@pytest.fixture(scope="module")
def written(tmp_path_factory):
    """A 2-rank MR-P cohort's checkpoint root: every 2 of 9 steps, all kept."""
    ck = tmp_path_factory.mktemp("ck")
    run_process(_spec("MR-P", 2, checkpoint_dir=str(ck), checkpoint_every=2,
                      checkpoint_keep=10), 9)
    return ck


class TestCheckpointDirectoryContract:
    """Layout, markers, pruning and validation of the on-disk format."""

    def test_layout_and_manifest(self, written):
        assert sorted(p.name for p in written.iterdir()) == [
            f"step-0000000{k}" for k in (2, 4, 6, 8)]
        step_dir = written / "step-00000008"
        assert is_checkpoint_complete(step_dir)
        assert checkpoint_step(step_dir) == 8
        assert sorted(p.name for p in step_dir.iterdir()) == [
            "COMPLETE", "manifest.json", "rank0000.npz", "rank0001.npz"]
        manifest = load_manifest_for_resume(step_dir)
        assert (manifest["scheme"], manifest["steps"]) == ("MR-P", 8)
        assert manifest["extra"]["n_ranks"] == 2
        assert manifest["extra"]["backend"] == "process"

    def test_pruning_keeps_newest(self, tmp_path):
        run_process(_spec("ST", 2, checkpoint_dir=str(tmp_path),
                          checkpoint_every=2, checkpoint_keep=2), 9)
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            "step-00000006", "step-00000008"]

    def test_a_retry_never_resumes_another_problems_step(self, written,
                                                         tmp_path):
        """The newest step of a reused directory is MR-P's: the ST retry
        resumes its own step 5 beside it, to the straight run."""
        ck = shutil.copytree(written, tmp_path / "ck")
        result = run_process(_spec(
            "ST", 2, checkpoint_dir=str(ck), checkpoint_every=5,
            max_restarts=1, fault=FaultSpec(rank=1, step=7)), 10)
        assert result.restarts == 1 and result.start_step == 5
        assert_same_fields(result, run_process(_spec("ST", 2), 10))
        assert {2, 4, 6, 8} <= {checkpoint_step(d) for d in ck.iterdir()}

    def test_torn_checkpoint_is_ignored(self, written, tmp_path):
        ck = shutil.copytree(written, tmp_path / "ck")
        (ck / "step-00000008" / "COMPLETE").unlink()  # a crash mid-write
        assert checkpoint_step(latest_checkpoint(ck)) == 6
        with pytest.raises(FileNotFoundError):
            load_manifest_for_resume(ck / "step-00000008")

    def test_resume_validates_spec_compatibility(self, written):
        for bad in (dict(scheme="ST"), dict(tau=0.9), dict(shape=(32, 10))):
            bad_spec = replace(_spec("MR-P", 2, resume_from=str(written)),
                               **bad)
            with pytest.raises(ValueError, match="checkpoint"):
                run_process(bad_spec, 10)

    def test_resume_past_end_raises(self, written):
        with pytest.raises(ValueError, match="steps"):
            run_process(_spec("MR-P", 2, resume_from=str(written)), 8)

    def test_resume_from_empty_dir_raises(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            run_process(_spec("ST", 2,
                              resume_from=str(tmp_path / "nothing")), 5)

    def test_loaded_slabs_tile_the_domain(self, written):
        """Every plane read out of the two rank files is the cohort's."""
        spec, whole = _spec("MR-P", 2), np.empty((6, *SHAPE_2D))
        step_dir, at = resolve_resume(written, 9, spec.record("process"))
        read_slab(step_dir, np.arange(SHAPE_2D[0]), whole, SHAPE_2D[0])
        cohort = spec.build().run(at)
        assert np.array_equal(whole, np.concatenate(
            [r.m[:, cohort.interior(i)] for i, r in enumerate(cohort.ranks)],
            axis=1))

    def test_no_shared_memory_leak(self, leaked_segments):
        check_process_resume(_cell("ST", 2), 2, at=4, every=2)
        assert leaked_segments() == []
