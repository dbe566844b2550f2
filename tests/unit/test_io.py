"""Unit tests for snapshot and checkpoint I/O."""

import zipfile
from dataclasses import replace

import numpy as np
import pytest

from repro.io import (load_fields, load_slabs, save_archive, save_fields,
                      save_rank_slab, save_slabs, write_vtk)
from repro.io.snapshots import _BLOCK
from repro.service.registry import build_single

from test_conformance import Cell, build, check_resume, identity, restore, save


class TestSnapshots:
    def test_npz_roundtrip(self, tmp_path, rng):
        rho = 1 + 0.01 * rng.standard_normal((6, 5))
        u = 0.02 * rng.standard_normal((2, 6, 5))
        path = save_fields(tmp_path / "snap.npz", rho, u, time=42,
                           extra_field=np.arange(3.0))
        data = load_fields(path)
        assert np.allclose(data["rho"], rho)
        assert np.allclose(data["u"], u)
        assert data["time"] == 42
        assert np.allclose(data["extra_field"], [0, 1, 2])

    def test_vtk_2d_structure(self, tmp_path, rng):
        rho = np.ones((4, 3))
        u = 0.01 * rng.standard_normal((2, 4, 3))
        path = write_vtk(tmp_path / "out.vtk", rho, u)
        text = path.read_text()
        assert "DIMENSIONS 4 3 1" in text
        assert "POINT_DATA 12" in text
        assert "SCALARS density double 1" in text
        assert "VECTORS velocity double" in text
        # 12 density lines between the lookup table and the vectors.
        assert text.count("\n") > 24

    def test_vtk_3d(self, tmp_path):
        rho = np.full((3, 3, 2), 1.1)
        u = np.zeros((3, 3, 3, 2))
        path = write_vtk(tmp_path / "out3.vtk", rho, u)
        assert "DIMENSIONS 3 3 2" in path.read_text()

    def test_vtk_rejects_bad_shapes(self, tmp_path):
        with pytest.raises(ValueError):
            write_vtk(tmp_path / "x.vtk", np.ones(5), np.zeros((1, 5)))
        with pytest.raises(ValueError):
            write_vtk(tmp_path / "x.vtk", np.ones((4, 4)), np.zeros((3, 4, 4)))

    def test_vtk_order_x_fastest(self, tmp_path):
        rho = np.arange(6.0).reshape(3, 2)       # rho[x, y]
        u = np.zeros((2, 3, 2))
        text = write_vtk(tmp_path / "o.vtk", rho, u).read_text()
        lines = text.splitlines()
        start = lines.index("LOOKUP_TABLE default") + 1
        vals = [float(v) for v in lines[start:start + 6]]
        # x fastest: (0,0),(1,0),(2,0),(0,1),(1,1),(2,1)
        assert vals == [0, 2, 4, 1, 3, 5]


class TestCheckpoints:
    """A single domain checkpoints as a one-slab cohort."""

    CELL = Cell("periodic", "ST", "D2Q9", "reference", shape=(6, 6))

    @pytest.mark.parametrize("scheme", ["ST", "MR-P", "MR-R"])
    def test_roundtrip_continues_identically(self, scheme):
        check_resume(replace(self.CELL, scheme=scheme), 3, "reference")

    def test_scheme_mismatch_rejected(self, tmp_path):
        save(build(self.CELL).run(2), tmp_path)
        for field, value in (("scheme", "MR-P"), ("tau", 0.9)):
            solver = build(self.CELL)
            with pytest.raises(ValueError, match="checkpoint is incompatible"
                               f" with this run:\n  {field}"):
                restore(tmp_path, solver, ident={**identity(solver),
                                                 field: value})

    def test_domain_mismatch_rejected(self, tmp_path):
        save(build(self.CELL).run(2), tmp_path)
        with pytest.raises(ValueError, match="incompatible.*\n  shape"):
            restore(tmp_path, build(replace(self.CELL, shape=(7, 6))))

    def test_a_longer_axis_0_is_refused_by_the_reader(self, tmp_path):
        """The rank files must end at the resumed run's ``nx`` exactly."""
        wider = save(build(replace(self.CELL, shape=(7, 6))), tmp_path)
        with pytest.raises(ValueError, match="up to 7, global extent is 6"):
            load_slabs(wider, build(self.CELL))

    def test_sealing_prunes_only_its_own_problem(self, tmp_path):
        """A reused directory: another problem's steps 10 and 20 neither
        push this run's step 4 out nor are pruned by its steps 8, 12."""
        for cell, steps in ((replace(self.CELL, scheme="MR-P"), (10, 20)),
                            (self.CELL, (4, 8, 12))):
            solver = build(cell)
            for solver.time in steps:
                save(solver, tmp_path)
                assert (tmp_path / f"step-{solver.time:08d}").is_dir()
        assert sorted(int(d.name[5:]) for d in tmp_path.iterdir()) == [
            8, 10, 12, 20]

    def test_mr_checkpoint_smaller_than_st(self, tmp_path):
        """The compression claim applies to checkpoints too (M < Q)."""
        st, mr = (save_slabs(tmp_path / s, 0, build(replace(self.CELL,
                  scheme=s))) / "rank0000.npz" for s in ("ST", "MR-P"))
        assert mr.stat().st_size < st.stat().st_size


class TestOneArchiveWriter:
    """Every ``.npz`` the package writes goes through ``save_archive``:
    uncompressed, atomic, and readable next to compressed archives of
    earlier versions."""

    @staticmethod
    def _write(kind, directory, value):
        """Write one archive of the given kind holding ``value``."""
        if kind == "fields":
            return save_fields(directory / "out.npz", np.full((4, 3), value),
                               np.zeros((2, 4, 3)))
        if kind == "checkpoint":        # a single domain's one slab
            solver = build_single("periodic", "MR-P", "D2Q9", (6, 5),
                                  rho0=value)
            return save_slabs(directory, 0, solver) / "rank0000.npz"
        return save_rank_slab(directory, 0, np.full((9, 3, 4), value),
                              start=0, stop=3, step=2, scheme="ST",
                              lattice="D2Q9")

    @pytest.mark.parametrize("kind", ["fields", "checkpoint", "rank_slab"])
    def test_interrupted_write_keeps_the_previous_file(self, tmp_path,
                                                       monkeypatch, kind):
        path = self._write(kind, tmp_path, 1.0)
        before = path.read_bytes()

        def torn(fh, array):
            fh.write(b"half a member")
            raise OSError("disk full")

        monkeypatch.setattr("repro.io.snapshots._write_npy", torn)
        with pytest.raises(OSError, match="disk full"):
            self._write(kind, tmp_path, 2.0)
        assert path.read_bytes() == before
        assert [p.name for p in path.parent.iterdir()] == [path.name]

    @pytest.mark.parametrize("kind", ["fields", "checkpoint", "rank_slab"])
    def test_archives_are_stored_not_deflated(self, tmp_path, kind):
        path = self._write(kind, tmp_path, 1.0)
        with zipfile.ZipFile(path) as archive:
            assert {info.compress_type for info in archive.infolist()} \
                == {zipfile.ZIP_STORED}

    def test_members_are_np_savez_bytes_written_in_blocks(self, tmp_path,
                                                          traced):
        strided = np.broadcast_to(np.arange(2000.0), (3000, 2000))[:, ::2]
        arrays = {"c": np.ones((3, 4)), "strided": strided[:5], "zero_d":
                  np.asarray(7), "f": np.asfortranarray(strided[:5, :7])}
        np.savez(tmp_path / "a.npz", **arrays)
        with zipfile.ZipFile(tmp_path / "a.npz") as ref, zipfile.ZipFile(
                save_archive(tmp_path / "b", **arrays)) as new:
            assert all(new.read(n) == ref.read(n) for n in ref.namelist())
        peak = traced(lambda: save_archive(tmp_path / "big", field=strided))[2]
        assert peak <= _BLOCK + 65536     # 24 MB: one block, zip's few kB

    def test_suffix_and_directories_are_supplied(self, tmp_path):
        path = save_archive(tmp_path / "deep" / "er" / "snap", a=np.arange(3))
        assert path == tmp_path / "deep" / "er" / "snap.npz"
        assert np.array_equal(np.load(path)["a"], [0, 1, 2])

    def test_compressed_archives_of_earlier_versions_still_load(
            self, tmp_path, rng):
        """Until this writer existed every archive was
        ``np.savez_compressed``; those files must read back bit for bit."""
        rho, u = rng.standard_normal((6, 5)), rng.standard_normal((2, 6, 5))
        np.savez_compressed(tmp_path / "old.npz", rho=rho, u=u,
                            time=np.asarray(7))
        old = load_fields(tmp_path / "old.npz")
        new = load_fields(save_fields(tmp_path / "new.npz", rho, u, time=7))
        assert old.keys() == new.keys()
        assert all(np.array_equal(old[k], new[k]) for k in old)

        solver = build_single("periodic", "ST", "D2Q9", (6, 5), tau=0.8,
                              rho0=1 + 0.01 * rho).run(3)
        save(solver, tmp_path)
        rank_file = tmp_path / "step-00000003" / "rank0000.npz"
        with np.load(rank_file) as data:
            arrays = dict(data)
        np.savez_compressed(rank_file, **arrays)
        fresh = restore(tmp_path, build_single("periodic", "ST", "D2Q9",
                                               (6, 5), tau=0.8))
        assert fresh.time == 3 and np.array_equal(fresh.f, solver.f)
