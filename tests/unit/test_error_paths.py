"""Error-path coverage across packages: every public entry point should
fail loudly and informatively on bad input."""

import numpy as np
import pytest

from repro.geometry import periodic_box
from repro.gpu import KernelProblem, LaunchConfig, V100
from repro.lattice import get_lattice


class TestParallelErrors:
    def test_unknown_scheme(self):
        from repro.service.registry import build_distributed

        with pytest.raises(ValueError, match="unknown scheme"):
            build_distributed("periodic", "MRT", "D2Q9", (12, 8), 2)

    def test_shape_mismatch(self):
        from repro.service.registry import build_distributed

        with pytest.raises(ValueError, match="shape"):
            build_distributed("channel", "ST", "D3Q19", (12, 8), 2)

    def test_bad_exchange_mode(self):
        """ST always ships the crossing populations: there is no
        exchange mode to pick, and the name is an unknown option."""
        from repro.parallel import RunSpec
        from repro.service.registry import build_distributed

        said = ("problem kind 'periodic' has no option 'st_exchange'; "
                "accepted options: rho0, u0, force")
        with pytest.raises(ValueError, match=f"^{said}$"):
            build_distributed("periodic", "ST", "D2Q9", (12, 8), 2,
                              st_exchange="full")
        with pytest.raises(ValueError, match=f"^{said}$"):
            RunSpec("periodic", "ST", "D2Q9", (12, 8), 2,
                    options={"st_exchange": "full"})


class TestDistributedFailsClosed:
    """What the distributed form cannot run is refused when it is written
    down — at ``RunSpec(...)`` and at ``build_distributed(...)`` — never
    after a wrong field (or a traceback in a worker) has been produced."""

    SPEC = {"kind": "forced-channel", "scheme": "MR-P", "lattice": "D2Q9",
            "shape": (24, 12), "n_ranks": 2}

    @pytest.mark.parametrize("n_ranks", [1, 2])
    @pytest.mark.parametrize("scheme", ["ST", "MR-P"])
    def test_multispeed_lattice_exceeds_the_halo(self, scheme, n_ranks):
        """One ghost plane cannot carry |c_x| = 3 (periodic D3Q39 used to
        run and return a field 1e-3 off the single-domain one)."""
        from repro.service.registry import build_distributed, build_single

        with pytest.raises(ValueError, match="D3Q39.*halo 1 node wide"):
            build_distributed("periodic", scheme, "D3Q39", (12, 8, 8),
                              n_ranks)
        # the single-domain periodic form is unaffected
        build_single("periodic", scheme, "D3Q39", (12, 8, 8)).run(1)

    @pytest.mark.parametrize("fields,text", [
        ({"kind": "periodic", "lattice": "D3Q39", "shape": (12, 8, 8)},
         "D3Q39.*halo 1 node wide"),
        ({"tau": 0.4}, "tau must exceed 1/2, got 0.4"),
        ({"tau": 0.5}, "tau must exceed 1/2"),
        ({"tau": float("nan")}, "tau must exceed 1/2"),
        ({"lattice": "D7Q7"}, "unknown lattice 'D7Q7'"),
        ({"shape": (24, 12, 8)}, "does not match lattice dimension 2"),
    ])
    def test_runspec_checks_scalars_without_building(self, fields, text):
        from repro.parallel import RunSpec

        with pytest.raises(ValueError, match=text):
            RunSpec(**{**self.SPEC, **fields})

    def test_runspec_and_solver_word_tau_alike(self):
        from repro.parallel import RunSpec
        from repro.service.registry import build_single

        with pytest.raises(ValueError) as spec:
            RunSpec(**{**self.SPEC, "tau": 0.4})
        with pytest.raises(ValueError) as solver:
            build_single("forced-channel", "MR-P", "D2Q9", (24, 12), tau=0.4)
        assert str(spec.value) == str(solver.value)

    @pytest.mark.parametrize("fields,text,single", [
        ({"scheme": "XX"}, "unknown scheme 'XX'; expected one of "
         "['MR-P', 'MR-R', 'ST']", True),
        ({"accel": "bogus"}, "unknown backend 'bogus'; expected one of "
         "('reference', 'fused', 'aa', 'sparse')", True),
        ({"n_ranks": 0}, "need at least one rank", False),
        ({"n_ranks": 9}, "9 slabs need a global extent of at least 27 "
         "along axis 0, got 24", False),
    ])
    def test_runspec_refuses_names_and_rank_counts_in_the_builders_words(
            self, fields, text, single):
        """``RunSpec("channel", "XX", ..., accel="bogus")`` used to
        construct, and became a 202 + job directory + failed job."""
        from repro.parallel import RunSpec
        from repro.service.registry import build_distributed, build_single

        spec = {**self.SPEC, "accel": "reference", **fields}
        with pytest.raises(ValueError) as from_spec:
            RunSpec(**spec)
        with pytest.raises(ValueError) as from_ranks:
            build_distributed(spec["kind"], spec["scheme"], spec["lattice"],
                              spec["shape"], spec["n_ranks"],
                              accel=spec["accel"])
        assert str(from_spec.value) == str(from_ranks.value) == text
        if single:      # a rank count is nothing a single domain has
            with pytest.raises(ValueError) as from_single:
                build_single(spec["kind"], spec["scheme"], spec["lattice"],
                             spec["shape"], backend=spec["accel"])
            assert str(from_single.value) == text

    @pytest.mark.parametrize("accel", ["reference", "fused"])
    def test_every_rank_checks_what_the_solver_checks(self, accel):
        """The constructor is guarded too, not only the spec: a rank is a
        ``Solver`` and refuses ``tau <= 1/2`` like one."""
        from repro.service.registry import build_distributed

        with pytest.raises(ValueError, match="tau must exceed 1/2"):
            build_distributed("forced-channel", "ST", "D2Q9", (24, 12), 2,
                              tau=0.4, accel=accel)

    def test_unpickling_skips_the_checks(self):
        import pickle

        from repro.parallel import RunSpec

        spec = RunSpec(**self.SPEC)
        assert pickle.loads(pickle.dumps(spec)) == spec


class TestMemoryErrors:
    def test_bad_itemsize(self):
        from repro.gpu.memory import GlobalArray, MemoryTracker

        with pytest.raises(ValueError, match="itemsize"):
            GlobalArray("x", 8, MemoryTracker(), itemsize=0)

    def test_unknown_access_kind(self):
        from repro.gpu.memory import MemoryTracker

        with pytest.raises(ValueError, match="kind"):
            MemoryTracker().record(np.array([0]), "modify")


class TestKernelErrors:
    def test_mr_kernel_tile_dim_mismatch(self, d2q9):
        from repro.gpu import MRKernel

        prob = KernelProblem(d2q9, (16, 16), 0.8)
        with pytest.raises(ValueError, match="tile_cross"):
            MRKernel(prob, V100, tile_cross=(4, 4))

    def test_indirect_kernel_all_solid(self, d2q9):
        from repro.gpu import STIndirectKernel

        prob = KernelProblem(d2q9, (8, 8), 0.8, mode="masked",
                             solid_mask=np.ones((8, 8), bool))
        with pytest.raises(ValueError, match="no fluid"):
            STIndirectKernel(prob, V100)

    def test_launch_thread_limit(self):
        from repro.gpu import validate_launch

        with pytest.raises(ValueError, match="threads"):
            validate_launch(V100, LaunchConfig(1, 4096))


class TestSolverErrors:
    def test_monitor_requires_solid_body(self, d2q9):
        from repro.analysis import MomentumExchangeForce
        from repro.solver import make_solver

        s = make_solver("ST", d2q9, periodic_box((6, 6)), 0.8)
        with pytest.raises(ValueError):
            MomentumExchangeForce(s)

    def test_force_monitor_bad_wall_velocity(self, d2q9):
        from repro.analysis import MomentumExchangeForce
        from repro.boundary import HalfwayBounceBack
        from repro.geometry import lid_driven_cavity
        from repro.solver import make_solver

        s = make_solver("ST", d2q9, lid_driven_cavity(8), 0.8,
                        boundaries=[HalfwayBounceBack()])
        with pytest.raises(ValueError, match="wall_velocity"):
            MomentumExchangeForce(s, wall_velocity=np.zeros((2, 3, 3)))

    def test_refinement_bad_tau(self):
        from repro.refinement import RefinedSimulation2D

        with pytest.raises(ValueError, match="tau"):
            RefinedSimulation2D((24, 12), (8, 16), 0.5)


class TestBenchErrors:
    def test_figure_data_unknown_lattice(self):
        from repro.bench import figure_data

        with pytest.raises(ValueError, match="unknown lattice"):
            figure_data("D4Q42", [(64, 64)])

    def test_best_tile_no_legal_config(self):
        from repro.perf import best_tile

        lat = get_lattice("D3Q19")
        # Prime cross extents above the divisor search bound: nothing to
        # tile with, so the tuner must refuse rather than guess.
        with pytest.raises(ValueError, match="no legal"):
            best_tile(lat, (67, 67, 64), V100, w_t_options=(3,))


class TestIOErrors:
    def test_restore_into_wrong_time_type(self, tmp_path, d2q9):
        from repro.solver import make_solver
        from test_conformance import restore, save

        save(make_solver("MR-P", d2q9, periodic_box((6, 6)), 0.8), tmp_path)
        b = make_solver("MR-R", d2q9, periodic_box((6, 6)), 0.8)
        with pytest.raises(ValueError, match="scheme"):
            restore(tmp_path, b)
