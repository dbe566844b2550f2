"""Integration: distributed checkpoints — save, kill, resume, re-shard.

The acceptance bar of the fault-tolerance layer (docs/PARALLEL.md): a run
that is checkpointed, killed, and resumed must land on *exactly* the same
fields as an uninterrupted run — bit for bit (``reference`` ranks cut no
columns: the conformance matrix's tolerance rule,
``tests/property/test_conformance.py``), for both the ST and MR
representations, for 1/2/4 ranks, and when the resumed run uses a
different rank count than the writing run (a rank copies its planes
out of the rank files that hold them). Also covers the checkpoint
directory contract itself: COMPLETE markers, torn-directory rejection,
pruning, and manifest validation against an incompatible spec.
"""

import numpy as np
import pytest

from repro.io.checkpoint import (
    checkpoint_step,
    is_checkpoint_complete,
    latest_checkpoint,
    load_distributed_checkpoint,
    load_manifest_for_resume,
    validate_checkpoint_manifest,
)
from repro.parallel import RunSpec, run_process

from test_conformance import assert_same_fields

SHAPE_2D = (24, 10)
TAU = 0.8


def _spec(scheme, n_ranks, **kw):
    return RunSpec("periodic", scheme, "D2Q9", SHAPE_2D, n_ranks,
                   tau=TAU, **kw)


class TestSaveKillResume:
    """Checkpoint -> stop -> resume equals the uninterrupted trajectory."""

    @pytest.mark.parametrize("scheme", ["ST", "MR-P"])
    @pytest.mark.parametrize("n_ranks", [1, 2, 4])
    def test_roundtrip_machine_precision(self, tmp_path, scheme, n_ranks):
        ck = str(tmp_path / "ck")
        clean = run_process(_spec(scheme, n_ranks), 10)
        # first leg writes a checkpoint at step 5, then "dies" at step 7
        run_process(_spec(scheme, n_ranks, checkpoint_dir=ck,
                          checkpoint_every=5), 7)
        resumed = run_process(_spec(scheme, n_ranks, resume_from=ck), 10)
        assert resumed.start_step == 5
        assert_same_fields(resumed, clean)

    @pytest.mark.parametrize("scheme", ["ST", "MR-P"])
    @pytest.mark.parametrize("ranks", [(2, 3), (4, 2), (1, 4), (1, 2), (3, 1)])
    def test_resume_with_different_rank_count(self, tmp_path, scheme, ranks):
        write_ranks, read_ranks = ranks
        ck = str(tmp_path / "ck")
        clean = run_process(_spec(scheme, write_ranks), 12)
        run_process(_spec(scheme, write_ranks, checkpoint_dir=ck,
                          checkpoint_every=4), 9)
        resumed = run_process(_spec(scheme, read_ranks, resume_from=ck), 12)
        assert resumed.start_step == 8
        assert_same_fields(resumed, clean)

    def test_resume_from_explicit_step_dir(self, tmp_path):
        ck = str(tmp_path / "ck")
        clean = run_process(_spec("MR-P", 2), 10)
        run_process(_spec("MR-P", 2, checkpoint_dir=ck, checkpoint_every=3,
                          checkpoint_keep=10), 10)
        step_dir = tmp_path / "ck" / "step-00000003"
        resumed = run_process(_spec("MR-P", 2,
                                    resume_from=str(step_dir)), 10)
        assert resumed.start_step == 3
        assert_same_fields(resumed, clean)

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
        assert np.array_equal(again.rho, resumed.rho)
        assert np.array_equal(again.u, resumed.u)

    def test_resumed_solver_time_is_total_steps(self, tmp_path):
        from repro.parallel import ProcessRuntime

        ck = str(tmp_path / "ck")
        run_process(_spec("ST", 2, checkpoint_dir=ck, checkpoint_every=3), 5)
        runtime = ProcessRuntime(_spec("ST", 2, resume_from=ck))
        result = runtime.run(8)
        assert result.start_step == 3
        assert runtime.solver.time == 8


class TestCheckpointDirectoryContract:
    """Layout, markers, pruning and validation of the on-disk format."""

    def test_layout_and_manifest(self, tmp_path):
        ck = tmp_path / "ck"
        run_process(_spec("MR-P", 2, checkpoint_dir=str(ck),
                          checkpoint_every=4, checkpoint_keep=10), 9)
        dirs = sorted(p.name for p in ck.iterdir())
        assert dirs == ["step-00000004", "step-00000008"]
        step_dir = ck / "step-00000008"
        assert is_checkpoint_complete(step_dir)
        assert checkpoint_step(step_dir) == 8
        names = sorted(p.name for p in step_dir.iterdir())
        assert names == ["COMPLETE", "manifest.json", "rank0000.npz",
                         "rank0001.npz"]
        manifest = load_manifest_for_resume(step_dir)
        assert manifest["scheme"] == "MR-P"
        assert manifest["steps"] == 8
        assert manifest["extra"]["n_ranks"] == 2
        assert manifest["extra"]["backend"] == "process"

    def test_pruning_keeps_newest(self, tmp_path):
        ck = tmp_path / "ck"
        run_process(_spec("ST", 2, checkpoint_dir=str(ck),
                          checkpoint_every=2, checkpoint_keep=2), 9)
        dirs = sorted(p.name for p in ck.iterdir())
        assert dirs == ["step-00000006", "step-00000008"]

    def test_torn_checkpoint_is_ignored(self, tmp_path):
        ck = tmp_path / "ck"
        run_process(_spec("ST", 2, checkpoint_dir=str(ck),
                          checkpoint_every=3, checkpoint_keep=10), 7)
        newest = ck / "step-00000006"
        (newest / "COMPLETE").unlink()  # simulate a crash mid-write
        found = latest_checkpoint(ck)
        assert found is not None and checkpoint_step(found) == 3
        with pytest.raises(FileNotFoundError):
            load_manifest_for_resume(newest)

    def test_resume_validates_spec_compatibility(self, tmp_path):
        ck = str(tmp_path / "ck")
        run_process(_spec("MR-P", 2, checkpoint_dir=ck,
                          checkpoint_every=3), 5)
        for bad in (dict(scheme="ST"), dict(tau=0.9),
                    dict(shape=(32, 10))):
            spec = RunSpec("periodic", bad.get("scheme", "MR-P"), "D2Q9",
                           bad.get("shape", SHAPE_2D), 2,
                           tau=bad.get("tau", TAU), resume_from=ck)
            with pytest.raises(ValueError, match="checkpoint"):
                run_process(spec, 10)

    def test_resume_past_end_raises(self, tmp_path):
        ck = str(tmp_path / "ck")
        run_process(_spec("ST", 2, checkpoint_dir=ck, checkpoint_every=3), 5)
        with pytest.raises(ValueError, match="steps"):
            run_process(_spec("ST", 2, resume_from=ck), 3)

    def test_resume_from_empty_dir_raises(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            run_process(_spec("ST", 2,
                              resume_from=str(tmp_path / "nothing")), 5)

    def test_loaded_slabs_tile_the_domain(self, tmp_path):
        ck = tmp_path / "ck"
        run_process(_spec("MR-P", 4, checkpoint_dir=str(ck),
                          checkpoint_every=4), 5)
        manifest, slabs = load_distributed_checkpoint(
            latest_checkpoint(ck))
        assert [s["rank"] for s in slabs] == [0, 1, 2, 3]
        assert slabs[0]["start"] == 0
        assert slabs[-1]["stop"] == SHAPE_2D[0]
        validate_checkpoint_manifest(manifest, scheme="MR-P",
                                     lattice="D2Q9", shape=SHAPE_2D,
                                     tau=TAU)

    def test_no_shared_memory_leak(self, tmp_path, leaked_segments):
        ck = str(tmp_path / "ck")
        run_process(_spec("ST", 2, checkpoint_dir=ck, checkpoint_every=2), 5)
        run_process(_spec("ST", 2, resume_from=ck), 8)
        assert leaked_segments() == []
