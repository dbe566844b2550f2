"""What the sparse fluid-node-list backend (repro.accel.sparse) alone has.

Its parity on the registered kinds is the conformance matrix's
(``tests/property/test_conformance.py``): the ids below that name a kind
run the matrix's check on the matrix's own cell. The matrix cannot state
what belongs to this layout: which lists fold into the compact gather
table, that every other list steps the ``fused`` core itself (its class,
path and lattices, not only its answer), the folded moving-wall
momentum and the phases a compact step times.
"""

import itertools

import numpy as np
import pytest

from repro.accel import (BACKENDS, FusedMRCore, FusedSTCore, SparseMRCore,
                         SparseSTCore, make_core, solver_caps)
from repro.accel.sparse import boundaries_fold
from repro.boundary import FullwayBounceBack, HalfwayBounceBack
from repro.geometry import Domain, lid_driven_cavity
from repro.lattice import get_lattice
from repro.obs import Telemetry
from repro.service.registry import build_single
from repro.solver import STSolver, make_solver

from test_conformance import (MODES, Cell, assert_agree, check_backends_agree,
                              fields, run, state_of)


def masked_domain(shape, fraction=0.4, seed=3):
    rng = np.random.default_rng(seed)
    nt = np.zeros(shape, dtype=np.int8)
    nt[rng.random(shape) < fraction] = 1
    nt.flat[0] = 0
    return Domain(nt)


def assert_is_the_fused_cell(build, steps=5):
    """``build(backend)`` -> solvers; on ``sparse`` each is the ``fused``
    one: same core class, path, lattices, state and ``last_force``."""
    sparse, fused = (build(backend) for backend in ("sparse", "fused"))
    for a, b in zip(sparse, fused, strict=True):
        a.run(steps)
        b.run(steps)
        assert type(a._stepper.core) is type(b._stepper.core)
        assert a.accel_path == b.accel_path
        assert (a._stepper.core.state_lattices
                == b._stepper.core.state_lattices)
        assert np.array_equal(state_of(a), state_of(b))
        for ba, bb in zip(a.boundaries, b.boundaries, strict=True):
            if getattr(ba, "last_force", None) is not None:
                assert np.array_equal(ba.last_force, bb.last_force)


class TestRegistration:
    def test_backend_listed(self):
        assert "sparse" in BACKENDS

    @pytest.mark.parametrize("scheme", ["ST", "MR-P", "MR-R"])
    def test_solvers_advertise_support(self, scheme):
        lat = get_lattice("D2Q9")
        s = make_solver(scheme, lat, masked_domain((8, 6)), 0.8,
                        boundaries=[HalfwayBounceBack()], backend="sparse")
        assert solver_caps(s) is not None
        assert s.backend == "sparse"

    def test_state_values_per_node_counts_single_lattice(self):
        lat = get_lattice("D2Q9")
        s = STSolver(lat, masked_domain((8, 6)), 0.8,
                     boundaries=[HalfwayBounceBack()], backend="sparse")
        assert s.state_values_per_node == lat.q

    def test_fullway_steps_the_fused_bounded_core(self):
        lat = get_lattice("D2Q9")

        def build(backend):
            return [make_solver(scheme, lat, masked_domain((8, 6)), 0.8,
                                boundaries=[FullwayBounceBack()],
                                backend=backend)
                    for scheme in ("ST", "MR-P")]

        assert_is_the_fused_cell(build)
        # a sparse solver builds its core with itself
        assert {s.accel_path for s in build("sparse")} == {"bounded"}
        assert [s.run(1).accel_path for s in build("sparse")] == [
            "bounded", "bounded"]

    def test_boundaries_fold_predicate(self):
        assert boundaries_fold([])
        assert boundaries_fold([HalfwayBounceBack()])
        assert not boundaries_fold([HalfwayBounceBack(),
                                    HalfwayBounceBack()])
        assert not boundaries_fold([FullwayBounceBack()])


class TestLeanPathParity:
    @pytest.mark.parametrize("scheme", ["ST", "MR-P", "MR-R"])
    def test_porous_bounceback(self, scheme):
        """Folded bounce-back gather matches the dense step."""
        check_backends_agree(Cell("porous", scheme, "D2Q9", "sparse"))

    def test_d3q19_cylinder_mask(self):
        check_backends_agree(Cell("cylinder", "MR-P", "D3Q19", "sparse"))

    def test_moving_wall_momentum_folds(self):
        """The lid-driven cavity's moving-wall momentum terms fold into
        the gather at parity with the dense hook: computed on the table's
        solid links, the hook's values bit for bit, and no link list is
        built."""
        lat = get_lattice("D2Q9")
        lid = np.zeros((2, 12, 12))
        lid[0, :, -1] = 0.08
        walls = [HalfwayBounceBack(wall_velocity=lid) for _ in range(2)]
        sparse, fused = (make_solver(
            "MR-R", lat, lid_driven_cavity(12), 0.8, boundaries=[wall],
            backend=backend).run(8)
            for wall, backend in zip(walls, ("sparse", "fused")))
        assert_agree(fields(*sparse.macroscopic()),
                     fields(*fused.macroscopic()), exact=False, steps=8)
        assert walls[0]._links is None
        targets, momentum = walls[1]._targets_momentum()
        core = sparse._stepper.core     # one chunk at this size
        folded = {q: (tgt, mom) for q, tgt, mom in core._fix[0]}
        assert sorted(folded) == [q for q, m in enumerate(momentum)
                                  if m is not None]
        for q, (tgt, mom) in folded.items():
            assert np.array_equal(
                sparse._table.fluid_flat[tgt],
                np.ravel_multi_index(targets[q], lid.shape[1:]))
            assert np.array_equal(mom, momentum[q])

    def test_guo_forcing(self):
        check_backends_agree(Cell("forced-channel", "MR-P", "D2Q9", "sparse"))

    def test_mr_step_records_its_phases(self):
        """The chunk-by-chunk MR step still times its three phases."""
        solver = build_single("porous", "MR-P", "D2Q9", (16, 14),
                              backend="sparse").attach_telemetry(Telemetry())
        solver.run(1)
        assert {"step/collide", "step/stream", "step/macroscopic"} <= set(
            solver.telemetry.phases)

    def test_variable_tau_power_law(self):
        check_backends_agree(Cell("power-law", "MR-P", "D2Q9", "sparse"))


class TestDenseFallbackParity:
    """A boundary list the gather table cannot fold steps the fused core:
    on ``sparse`` such a problem *is* its ``fused`` cell, bit for bit (the
    matrix's rule: the same layout cut the same way)."""

    @pytest.mark.parametrize("scheme", ["ST", "MR-P", "MR-R"])
    def test_channel_with_inlet_outlet(self, scheme):
        for bc, mode in itertools.product(("regularized-fd", "nebb"),
                                          MODES[:4]):
            check_backends_agree(Cell("channel", scheme, "D2Q9", "sparse",
                                      mode, extra=(("bc_method", bc),)))
        # three ranks: the interior one's plain walls fold, so its compact
        # step feeds the others' halos (machine precision)
        three = Cell("channel", scheme, "D2Q9", "sparse", "emulated-3")
        assert [isinstance(c[0], int) for c in run(three).cuts] == [
            False, True, False]

    def test_fallback_flag_matches_boundaries(self):
        """The sparse cores carry what folds and refuse the rest, which
        ``make_core`` hands to the family's fused core."""
        lat = get_lattice("D2Q9")
        solid = np.zeros((10, 8), bool)
        solid[:, 0] = solid[:, -1] = True
        two = [HalfwayBounceBack(), HalfwayBounceBack()]
        assert SparseSTCore(lat, solid, 0.8,
                            boundaries=[HalfwayBounceBack()]).path == "lean"
        with pytest.raises(ValueError, match="fused core"):
            SparseMRCore(lat, solid, 0.8, scheme="MR-P", boundaries=two)
        domain = Domain(solid.astype(np.int8))
        for caps, cls in (({"family": "st"}, FusedSTCore),
                          ({"family": "mr", "scheme": "MR-P"}, FusedMRCore)):
            core = make_core("sparse", caps, lat, domain, 0.8, two)
            assert type(core) is cls


class TestDistributedSparse:
    def test_emulated_forced_channel_matches_reference(self):
        check_backends_agree(Cell("forced-channel", "MR-P", "D2Q9", "sparse",
                                  "emulated-2", shape=(32, 18)))

    def test_post_collide_steps_the_fused_core(self):
        from repro.geometry import channel_2d
        from repro.parallel.decomposition import DistributedSolver

        lat = get_lattice("D2Q9")

        def build(backend):
            return DistributedSolver(
                lat, channel_2d(16, 10, with_io=False), 0.8, 2,
                periodic_axis0=True,
                boundary_factory=lambda r, n: [FullwayBounceBack()],
                accel=backend).ranks

        assert_is_the_fused_cell(build)
        assert [r.run(1).accel_path for r in build("sparse")] == [
            "bounded", "bounded"]
