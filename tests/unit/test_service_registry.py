"""The shared problem registry: one kind table for CLI/runtime/sweep/server."""

import numpy as np
import pytest

from repro.parallel import RunSpec
from repro.service.registry import (ProblemKind, ProblemSetup,
                                    build_distributed, build_single,
                                    get_problem, problem_kinds,
                                    register_problem, sweep_kinds)

from test_conformance import GRIDS, assert_agree, fields

SHAPE = (24, 14)


def assert_same_fields(dist, single):
    """A ``reference`` decomposition is its single-domain run, bit for bit
    (the conformance matrix's tolerance rule)."""
    assert_agree(fields(*dist.gather_macroscopic()),
                 fields(*single.macroscopic()), exact=True)


class TestRegistryContents:
    """The default kind table."""

    def test_default_kinds_registered(self):
        kinds = problem_kinds()
        for name in ("channel", "forced-channel", "periodic", "taylor-green",
                     "cylinder", "porous", "power-law", "schafer-turek"):
            assert name in kinds

    def test_kinds_sorted(self):
        assert list(problem_kinds()) == sorted(problem_kinds())

    def test_sweep_kinds_subset(self):
        assert list(sweep_kinds()) == ["channel", "forced-channel",
                                       "taylor-green"]
        assert set(sweep_kinds()) <= set(problem_kinds())

    def test_unknown_kind_message_lists_registered(self):
        with pytest.raises(ValueError, match="unknown problem kind"):
            get_problem("no-such-problem")

    def test_descriptions_present(self):
        for name in problem_kinds():
            assert get_problem(name).description

    def test_custom_registration(self):
        """One ``setup=`` function makes a kind buildable in both forms."""
        def setup(lat, shape, tau, amplitude=0.01):
            from repro.geometry import periodic_box

            u0 = np.full((lat.d, *shape), float(amplitude))
            return ProblemSetup(periodic_box(shape), True,
                                lambda rank, n_ranks: [], u0=u0)

        kind = register_problem(ProblemKind(
            name="test-custom", description="a test kind", setup=setup))
        try:
            assert get_problem("test-custom") is kind
            assert "test-custom" in problem_kinds()
            assert "test-custom" not in sweep_kinds()
            assert kind.options == ("amplitude",)
            single = build_single("test-custom", "ST", "D2Q9", SHAPE,
                                  amplitude=0.02).run(3)
            spec = RunSpec("test-custom", "ST", "D2Q9", SHAPE, 2,
                           options={"amplitude": 0.02})
            assert_same_fields(spec.build().run(3), single)
            with pytest.raises(ValueError, match="amplitude"):
                RunSpec("test-custom", "ST", "D2Q9", SHAPE, 2,
                        options={"u_max": 0.02})
        finally:
            from repro.service import registry

            registry._REGISTRY.pop("test-custom", None)


class TestRunSpecValidation:
    """RunSpec construction validates kind and option names."""

    def test_unknown_kind_rejected_at_construction(self):
        with pytest.raises(ValueError, match="unknown problem kind"):
            RunSpec("no-such-problem", "MR-P", "D2Q9", (16, 16), 2)

    def test_known_kind_accepted(self):
        spec = RunSpec("cylinder", "ST", "D2Q9", (32, 16), 2)
        assert spec.kind == "cylinder"

    def test_unknown_option_rejected_at_construction(self):
        """The shown defect: porous takes no ``u_max``; it used to die as
        a ``TypeError`` inside ``build()``, i.e. in a server worker."""
        with pytest.raises(ValueError, match="accepted options: "
                           "solid_fraction, seed, force_x"):
            RunSpec("porous", "ST", "D2Q9", (16, 16), 2,
                    options={"u_max": 0.05})
        with pytest.raises(ValueError, match="'u_max'"):
            build_single("porous", "ST", "D2Q9", (16, 16), u_max=0.05)

    def test_single_only_kind_rejected_at_construction(self):
        """Cut or supervised; one rank in place is its single domain."""
        for ranks, restarts in ((2, 0), (1, 1)):
            with pytest.raises(ValueError, match="no distributed form"):
                RunSpec("power-law", "MR-P", "D2Q9", (16, 16), ranks,
                        max_restarts=restarts)
        assert RunSpec("power-law", "MR-P", "D2Q9", (16, 16), 1).single_domain


class TestBuilders:
    """Both forms of every registered kind, derived from one setup."""

    def test_build_single_every_kind(self):
        for name in problem_kinds():
            solver = build_single(name, "MR-P", "D2Q9",
                                  GRIDS.get(name, SHAPE), tau=0.8)
            solver.run(5)
            rho, u = solver.macroscopic()
            assert np.all(np.isfinite(rho)) and np.all(np.isfinite(u))

    def test_schafer_turek_refusals_are_one_sentence(self):
        """Its lattice and its one grid per diameter, by the spec and the
        builder alike (its one domain: ``test_both_forms_are_one_problem``)."""
        for lattice, shape, said in (
                ("D3Q19", (88, 18, 4), r".* on D2Q9 \(got D3Q19\)$"),
                ("D2Q9", (88, 20), r".* shape \(88, 18\), not \(88, 20\)$")):
            for build in (build_single, lambda *a: RunSpec(*a, n_ranks=1)):
                with pytest.raises(ValueError, match="^the schafer-turek "
                                   + said):
                    build("schafer-turek", "ST", lattice, shape)

    def test_taylor_green_needs_2d(self):
        with pytest.raises(ValueError, match="2D"):
            build_single("taylor-green", "MR-P", "D3Q19", (8, 8, 8))

    def test_cylinder_masks_solid_nodes(self):
        solver = build_single("cylinder", "ST", "D2Q9", (48, 24))
        full = 48 * 24 - 2 * 48          # channel minus the two walls
        assert solver.domain.n_fluid < full

    @pytest.mark.parametrize("scheme", ["ST", "MR-P", "MR-R"])
    @pytest.mark.parametrize("name", problem_kinds())
    def test_both_forms_are_one_problem(self, name, scheme):
        """With no options the two forms are one problem: a kind has one
        set of defaults.

        Driven by the table, so a kind is covered by being registered;
        a single-only kind must refuse its distributed form at
        construction instead.
        """
        if not get_problem(name).distributed:
            with pytest.raises(ValueError, match="no distributed form"):
                build_distributed(name, scheme, "D2Q9",
                                  GRIDS.get(name, SHAPE), 2)
            return
        single = build_single(name, scheme, "D2Q9", SHAPE, tau=0.8).run(10)
        for n_ranks in (1, 2):
            dist = build_distributed(name, scheme, "D2Q9", SHAPE, n_ranks,
                                     tau=0.8).run(10)
            assert_same_fields(dist, single)

    def test_distributed_matches_single_domain(self):
        """Same, at a non-default option value and over more steps."""
        single = build_single("forced-channel", "MR-P", "D2Q9", SHAPE,
                              tau=0.8, u_max=0.03).run(20)
        dist = build_distributed("forced-channel", "MR-P", "D2Q9", SHAPE, 2,
                                 tau=0.8, u_max=0.03).run(20)
        assert_same_fields(dist, single)

    def test_one_spec_names_one_problem(self):
        """The sweep member and the process run of one channel spec step
        one problem: the FD faces the kind defaults to."""
        from repro.loop import launch
        from repro.parallel import ProcessRuntime

        spec = RunSpec("channel", "MR-P", "D2Q9", (32, 14), 1,
                       options={"u_max": 0.05})
        member = build_single("channel", "MR-P", "D2Q9", (32, 14), u_max=0.05)
        rho, u, *_ = launch(member, spec.record("single"), 20)
        result = ProcessRuntime(spec).run(20)
        assert_agree(fields(result.rho, result.u), fields(rho, u), exact=True)

    def test_channel_per_form_defaults(self):
        """There are none: the distributed channel with no options is the
        single-domain channel with no options (the paper's FD faces)."""
        assert get_problem("channel").distributed is True
        single = build_single("channel", "MR-P", "D2Q9", SHAPE).run(10)
        for n_ranks in (1, 2):
            dist = build_distributed("channel", "MR-P", "D2Q9", SHAPE,
                                     n_ranks).run(10)
            assert_same_fields(dist, single)
