"""A rank's state is built once, by the process that steps it: the parent
holds the shell, every refusal fires while the shell is built, and a
resume reads only the checkpoint planes a rank owns."""

import multiprocessing as mp
import queue
import threading
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from repro.boundary import HalfwayBounceBack
from repro.geometry import channel_2d
from repro.io import read_slab, save_rank_slab
from repro.io.checkpoint import checkpoint_step_dir
from repro.lattice import get_lattice
from repro.parallel import (DistributedSolver, ProcessRuntime, RunSpec,
                            SlabDecomposition)
from repro.parallel.runtime import _map_blocks
from repro.parallel.worker import worker_main
from repro.service.jobs import spec_from_dict
from repro.service.registry import build_distributed, build_single


def test_a_worker_builds_its_rank_only(built):
    """``worker_main`` with the parent's shell and blocks, in threads of
    this process so constructions count."""
    spec = RunSpec("channel", "MR-P", "D2Q9", (24, 10), 3)
    shell = ProcessRuntime(spec).solver
    blocks = _map_blocks(shell)
    barrier, errq, resq = threading.Barrier(3), queue.Queue(), queue.Queue()
    with ThreadPoolExecutor(3) as pool:
        list(pool.map(lambda r: worker_main(
            spec, shell, blocks, r, 4, barrier, errq, resq, 60.0), range(3)))
    assert errq.empty() and resq.qsize() == 3
    assert sorted(built.values()) == [1, 1, 1]
    assert np.array_equal(blocks.output[0],
                          spec.build().run(4).gather_macroscopic()[0])


def test_a_gather_holds_a_plane_not_a_slab(traced):
    dist = build_distributed("periodic", "MR-P", "D2Q9", (96, 512), 2)
    out, _ = np.empty((3, 96, 512)), dist.rank(0)
    peak = traced(lambda: dist.gather_rank(0, out))[2]
    assert peak <= 4 * out[:, 0].nbytes     # a slab's u is 50 planes of 2/3


@pytest.mark.parametrize("name, value, says", [
    ("u0", np.zeros((2, 8, 16)), r"u0 must have shape \(2, 16, 8\), got "
     r"\(2, 8, 16\)"),
    ("force", np.zeros((2, 8, 16)), r"force must have shape \(2,\) or "
     r"\(2, 16, 8\), got \(2, 8, 16\)"),
    ("rho0", np.ones((8, 16)), r"rho0 must be a scalar or broadcast to "
     r"\(16, 8\), got shape \(8, 16\)")])
def test_a_field_of_the_wrong_shape_fails_in_the_parent(name, value, says):
    """In the solvers' own words, at every door, before any rank is cut."""
    args = ("periodic", "MR-P", "D2Q9", (16, 8))
    payload = dict(zip(("kind", "scheme", "lattice", "shape"), args),
                   n_ranks=2, steps=1, options={name: value.tolist()})
    for door in (lambda: build_single(*args, **{name: value}),
                 lambda: build_distributed(*args, 2, **{name: value}),
                 lambda: RunSpec(*args, 2, options={name: value}),
                 lambda: spec_from_dict(payload)):
        with pytest.raises(ValueError, match=says):
            door()
    # a spec that skipped its checks (unpickled) fails at the shell build
    spec = RunSpec(*args, 2)
    object.__setattr__(spec, "options", {name: value})
    with pytest.raises(ValueError, match=says):
        ProcessRuntime(spec)
    assert mp.active_children() == []


def test_a_boundary_a_rank_would_refuse_fails_in_the_shell(built):
    """A wall velocity sized for the whole grid fits no slab: its ``bind``
    refuses while the shell is built, before any rank is."""
    walls = [HalfwayBounceBack(wall_velocity=np.zeros((2, 24, 10)))]
    with pytest.raises(ValueError, match=r"wall_velocity must have shape "
                       r"\(2, 13, 10\), got \(2, 24, 10\)"):
        DistributedSolver(get_lattice("D2Q9"), channel_2d(24, 10), 0.8, 2,
                          False, lambda rank, n_ranks: walls, scheme="MR-P")
    assert not built


@pytest.mark.parametrize("periodic", [True, False], ids=["wrap", "walled"])
@pytest.mark.parametrize("written, read", [(1, 2), (2, 3), (3, 1)])
def test_a_resume_reads_only_the_planes_a_rank_owns(tmp_path, rng, traced,
                                                    periodic, written, read):
    state = rng.standard_normal((6, 300, 200))
    step_dir = checkpoint_step_dir(tmp_path, 4)
    writer = SlabDecomposition(state.shape[1:], written, periodic)
    for r in range(written):
        start, stop = writer.bounds(r)
        save_rank_slab(step_dir, r, state[:, start:stop], start=start,
                       stop=stop, step=4, scheme="MR-P", lattice="D2Q9")
    (step_dir / "COMPLETE").touch()
    reader = SlabDecomposition(state.shape[1:], read, periodic)
    for r in range(read):
        want = state[:, reader.ghosted(r)]
        slab = np.empty(want.shape)
        planes = np.arange(state.shape[1])[reader.ghosted(r)]
        peak = traced(lambda: read_slab(step_dir, planes, slab,
                                        state.shape[1]))[2]
        assert np.array_equal(slab, want)
        # one rank file and the few 256 kB buffers it is read through
        rank_file = state.nbytes // written + state[:, 0].nbytes
        assert peak <= rank_file + 4 * np.lib.format.BUFFER_SIZE
