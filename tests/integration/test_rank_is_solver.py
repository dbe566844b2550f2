"""A rank is a solver: the distributed form steps the single-domain solver.

* ``dist.ranks[r]`` is an instance of the very class ``build_single``
  returns, built on the rank's ghosted slab — so there is one
  implementation of each scheme and every construction-time check of
  ``Solver`` holds per rank;
* the distributed class holds no physics (no reference step, no
  macroscopic evaluation, no state initialisation of its own);
* a boundary-free ``aa`` ST rank — the one configuration whose core
  may leave a pre-streamed lattice between steps — takes the natural
  step because its halo exchange looks every step, emulated and
  process, and is un-streamed at most once.

What the distributed form refuses at construction (multi-speed
lattices, ``tau <= 1/2``) is pinned in ``tests/unit/test_error_paths.py``
(registry and ``RunSpec``), ``tests/unit/test_cli_validate.py`` (CLI) and
``tests/integration/test_service_server.py`` (HTTP 400).
"""

import inspect

import numpy as np
import pytest

from repro.obs import Telemetry
from repro.parallel import DistributedSolver, ProcessRuntime, RunSpec
from repro.service.registry import (build_distributed, build_single,
                                    get_problem, problem_kinds)

DISTRIBUTED_KINDS = [k for k in problem_kinds()
                     if get_problem(k).distributed]
SHAPE = (24, 12)


@pytest.mark.parametrize("n_ranks", [1, 3])
@pytest.mark.parametrize("scheme", ["ST", "MR-P", "MR-R"])
@pytest.mark.parametrize("kind", DISTRIBUTED_KINDS)
def test_rank_is_the_single_domain_solver(kind, scheme, n_ranks):
    single = build_single(kind, scheme, "D2Q9", SHAPE)
    dist = build_distributed(kind, scheme, "D2Q9", SHAPE, n_ranks)
    assert len(dist.ranks) == n_ranks
    for r, rank in enumerate(dist.ranks):
        assert type(rank) is type(single)
        start, stop = dist.decomp.bounds(r)
        ghosts = dist.decomp.has_left(r) + dist.decomp.has_right(r)
        assert rank.domain.shape == (stop - start + ghosts, *SHAPE[1:])
        assert dist.field(rank).shape[1:] == rank.domain.shape
        assert rank.tau == single.tau and rank.backend == dist.accel
        assert (rank.force is None) == (single.force is None)


@pytest.mark.parametrize("scheme", ["ST", "MR-P"],
                         ids=["DistributedST", "DistributedMR"])
def test_distributed_classes_hold_no_physics(scheme):
    # ST and MR runs share one distributed class; it holds no physics.
    cls = type(build_distributed("periodic", scheme, "D2Q9", SHAPE, 2))
    assert cls is DistributedSolver
    own = [name for name, member in vars(cls).items()
           if inspect.isfunction(member) and not name.startswith("gather")]
    for name in own:
        assert "step_reference" not in name
        assert "macroscopic" not in name
        assert "init" not in name or name == "__init__"


class TestClocklessAARank:
    """A rank's halo exchange looks at its state every step, so an
    ``aa`` rank steps natural lattices without being told to."""

    def single_slabs(self, dist, steps):
        single = build_single("periodic", "ST", "D2Q9", SHAPE, backend="aa",
                              u0=self.u0())
        single.run(steps)
        assert single.accel_path == "lean"
        rho, u = single.macroscopic()
        owned = [slice(*dist.decomp.bounds(r))
                 for r in range(dist.decomp.n_ranks)]
        return [(rho[gsl], u[:, gsl]) for gsl in owned]

    @staticmethod
    def u0():
        return 0.03 * np.random.default_rng(3).standard_normal((2, *SHAPE))

    @pytest.mark.parametrize("steps", [7, 8])
    def test_emulated_rank_is_natural_at_any_parity(self, steps):
        dist = build_distributed("periodic", "ST", "D2Q9", SHAPE, 3,
                                 accel="aa", u0=self.u0())
        assert not any(rank.boundaries for rank in dist.ranks)
        tels = [Telemetry() for _ in dist.ranks]
        for rank, tel in zip(dist.ranks, tels):
            rank.attach_telemetry(tel)
        dist.run(steps)
        for r, (rank, (rho_s, u_s)) in enumerate(
                zip(dist.ranks, self.single_slabs(dist, steps))):
            assert rank.accel_path == "bounded"
            # only the first step, taken before anybody had looked,
            # left a pre-streamed lattice to put right
            assert tels[r].counters["syncs"] == 1
            rho, u = rank.macroscopic()
            isl = dist.interior(r)
            assert np.array_equal(rho[isl], rho_s)
            assert np.array_equal(u[:, isl], u_s)

    @pytest.mark.parametrize("steps", [7, 8])
    def test_process_rank_is_natural_at_any_parity(self, steps,
                                                   leaked_segments):
        runtime = ProcessRuntime(RunSpec(
            "periodic", "ST", "D2Q9", SHAPE, 2, accel="aa",
            options={"u0": self.u0()}))
        result = runtime.run(steps)
        # The ranks gather their owned planes; the parent's shell builds
        # no rank.
        dist = runtime.solver
        for r, (rho_s, u_s) in enumerate(self.single_slabs(dist, steps)):
            gsl = slice(*dist.decomp.bounds(r))
            assert np.array_equal(result.rho[gsl], rho_s)
            assert np.array_equal(result.u[:, gsl], u_s)
        assert leaked_segments() == []
