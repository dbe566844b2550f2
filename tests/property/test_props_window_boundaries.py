"""The window carries the walls: slab-local boundary hooks against whole ones.

A ``fused`` core whose boundaries all have a row extent
(:meth:`repro.boundary.Boundary.slab_hooks`) slides over leading-axis
slabs and runs each slab's hooks on the slab buffer. That the sliding
step is the one-slab step of the same cell, by the tolerance rule, is
the conformance matrix's window column (``check_window``,
``tests/property/test_conformance.py``); the ids below run it on the
walled kinds' option sets and on a 48-row grid that the window cuts into
three slabs of 16 rows. The matrix cannot state what is the window's
alone: the hooks' order on a slab, the depth a boundary's stencil forces
on the edge slabs, and which lists (no row extent) stay ``bounded``.
"""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.boundary import (FullwayBounceBack, HalfwayBounceBack, Plane,
                            PressureOutlet, VelocityInlet)
from repro.geometry import channel_2d
from repro.lattice import get_lattice
from repro.service.registry import get_problem, problem_kinds, setup_problem
from repro.solver import make_solver

from test_conformance import (Cell, check_backends_agree,
                              check_looking_changes_nothing,
                              check_rank_counts_agree, check_resume,
                              check_window, run, state_of, window)

#: planes of 16 nodes, one chunk to a slab: slabs of 16 rows, three a grid
CHUNK, TAU, STEPS = 256, 0.8, 5
SCHEMES = ("ST", "MR-P", "MR-R")
SHAPES = {"D2Q9": (48, 16), "D3Q19": (48, 4, 4), "D3Q27": (48, 4, 4)}
#: kind -> option sets; every registered kind that has boundaries
WALLED = {
    "channel": [{"bc_method": "regularized-fd"},
                {"bc_method": "nebb"},
                {"bc_method": "nebb", "outlet_tangential": "zero"}],
    "forced-channel": [{}], "cylinder": [{}], "power-law": [{}],
    "porous": [{"solid_fraction": 0.3, "seed": 5, "force_x": 1e-5}],
}


def stepped(build, chunk=CHUNK, steps=STEPS):
    """``build()`` stepped under the window chunk ``chunk`` (``None``: the
    shipped one; the core is built, and cuts its slabs, on the first step)."""
    with window(chunk):
        return build().run(steps)


def n_slabs(solver):
    return len(solver._stepper.core._window()[0])


def lean(scheme, ranks=1):
    """The path column of ``ranks`` lean dense cores of ``scheme``."""
    return (f"`lean` {int(scheme == 'ST')}",) * ranks


def moving_wall(scheme, lattice, shape, backend="fused"):
    """Forced channel whose top wall moves: per-link momentum terms."""
    lat, setup = setup_problem("forced-channel", lattice, shape, TAU,
                               u_max=0.03)
    wall = np.zeros((lat.d, *shape))
    wall[0][:, -1] = 0.04
    return make_solver(scheme, lat, setup.domain, TAU,
                       boundaries=[HalfwayBounceBack(wall_velocity=wall)],
                       force=setup.force, backend=backend)


def test_every_kind_with_boundaries_is_covered():
    """``WALLED`` is the registry's kinds minus the boundary-free ones."""
    lat = get_lattice("D2Q9")
    with_boundaries = {      # schafer-turek has one grid per diameter
        kind for kind in set(problem_kinds()) - {"schafer-turek"}
        if get_problem(kind).setup(lat, (16, 12), TAU).boundaries(0, 1)}
    assert with_boundaries == set(WALLED)


def walled_cases():
    for kind, option_sets in WALLED.items():
        for options in option_sets:
            for lattice in SHAPES:
                for scheme in SCHEMES:
                    if kind == "power-law" and scheme != "MR-P":
                        continue        # the kind steps one solver
                    yield pytest.param(
                        kind, options, lattice, scheme,
                        id="-".join([kind, *map(str, options.values()),
                                     lattice, scheme]))


class TestSlidingEqualsOneSlab:
    @pytest.mark.parametrize("kind,options,lattice,scheme", walled_cases())
    def test_registered_kinds(self, kind, options, lattice, scheme):
        cell = Cell(kind, scheme, lattice, "fused", shape=SHAPES[lattice],
                    extra=tuple(options.items()))
        check_window(cell, CHUNK)
        slid = run(replace(cell, chunk=CHUNK))
        assert slid.paths == lean(scheme) and len(slid.cuts[0]) == 3

    @pytest.mark.parametrize("scheme", SCHEMES)
    @pytest.mark.parametrize("lattice", SHAPES)
    def test_moving_wall(self, lattice, scheme):
        def build():
            return moving_wall(scheme, lattice, SHAPES[lattice])

        slid, whole = stepped(build), stepped(build, None)
        assert n_slabs(slid) == 3
        assert np.array_equal(state_of(slid), state_of(whole))
        # the wall really drags the fluid: the momentum terms are not zero
        assert np.abs(slid.macroscopic()[1][0][:, -2]).max() > 1e-4

    @pytest.mark.parametrize("scheme", SCHEMES)
    def test_planes_wider_than_a_chunk_coarsen_to_the_stencil(self, scheme):
        """A 40-node plane is a slab by itself under a 32-node chunk; the
        finite-difference inlet reads three, so the slabs double until it
        fits (4 rows); nebb + extrapolate reads two: 2-row slabs."""
        for method, slabs in (("regularized-fd", 8), ("nebb", 16)):
            cell = Cell("channel", scheme, "D2Q9", "fused", shape=(32, 40),
                        extra=(("bc_method", method),))
            check_window(cell, 32)
            assert len(run(replace(cell, chunk=32)).cuts[0]) == slabs

    @given(n0=st.sampled_from([3, 4, 5, 6, 7, 11, 13, 17, 23, 29, 37, 64]),
           tail=st.sampled_from([(3,), (5,), (8,), (13,), (16,), (40,),
                                 (3, 3), (4, 4), (5, 3), (4, 8)]),
           scheme=st.sampled_from(SCHEMES),
           method=st.sampled_from(["regularized-fd", "nebb"]),
           tangential=st.sampled_from(["extrapolate", "zero"]),
           chunk=st.sampled_from([32, 256]))
    @settings(max_examples=80, deadline=None)
    def test_thin_and_prime_extents(self, n0, tail, scheme, method,
                                    tangential, chunk):
        """Any extents: an edge slab is never thinner than the stencil of
        the boundary on it (the grid steps one slab instead), and the
        sliding step is the one-slab step by the rule."""
        cell = Cell("channel", scheme, "D2Q9" if len(tail) == 1 else "D3Q19",
                    "fused", shape=(n0, *tail),
                    extra=(("bc_method", method),
                           ("outlet_tangential", tangential)))
        check_window(cell, chunk)
        slid = run(replace(cell, chunk=chunk))
        slabs = slid.cuts[0]
        depth = 3 if method == "regularized-fd" else 1
        outlet = max(depth, 2 if tangential == "extrapolate" else 1)
        if len(slabs) > 1:
            assert slabs[0][1] - slabs[0][0] >= depth
            assert slabs[-1][1] - slabs[-1][0] >= outlet
        assert slid.paths == lean(scheme)


class TestHookOrder:
    def test_hooks_run_in_list_order_on_every_slab(self):
        """Two recording boundaries with a row extent: on each slab the
        first of the list runs first."""
        from repro.boundary import Boundary

        calls = []

        class Recording(Boundary):
            def __init__(self, name):
                self.name = name

            def bind(self, lat, domain, tau):
                return self

            def slab_hooks(self, lat, slabs):
                return [lambda f_new, f_src, s=s: calls.append((s, self.name))
                        for s in range(len(slabs))]

        stepped(lambda: make_solver(
            "MR-P", get_lattice("D2Q9"), channel_2d(48, 16, with_io=False),
            TAU, boundaries=[Recording("a"), Recording("b")],
            backend="fused"), steps=1)
        assert calls == [(s, name) for s in range(3) for name in "ab"]

    @pytest.mark.parametrize("scheme", SCHEMES)
    def test_inlet_sees_the_reflected_wall_links_on_slab_0(self, scheme):
        """The channel lists bounce-back before the inlet, whose
        finite-difference stencil reads wall-adjacent nodes of planes 1
        and 2. Swapping the two is another trajectory — on one slab and
        on three alike, so a window that ran the inlet first would fail
        the first assertion."""
        lat, setup = setup_problem("channel", "D2Q9", (48, 16), TAU)

        def build(swapped):
            wall, inlet, outlet = setup.boundaries(0, 1)
            order = [inlet, wall, outlet] if swapped else [wall, inlet,
                                                           outlet]
            return make_solver(scheme, lat, setup.domain, TAU,
                               boundaries=order, u0=setup.u0,
                               backend="fused")

        runs = {(chunk, swapped): state_of(stepped(
                    lambda: build(swapped), chunk))
                for chunk in (CHUNK, None) for swapped in (False, True)}
        for swapped in (False, True):
            assert np.array_equal(runs[CHUNK, swapped], runs[None, swapped])
        assert not np.array_equal(runs[CHUNK, False], runs[CHUNK, True])


class TestWhoStaysBounded:
    """No row extent: the whole-lattice step, results untouched."""

    def test_interpolated_bounce_back(self):
        """``last_force`` is one float reduction over all links; per-slab
        partial sums would move its last bits, so the curved Schäfer–Turek
        wall keeps whole lattices under any chunk; its fields and drag
        agree with every backend by the matrix's rule."""
        cell = Cell("schafer-turek", "MR-P", "D2Q9", "fused", shape=(88, 18),
                    chunk=CHUNK)
        check_backends_agree(cell)
        assert run(cell).paths == ("`bounded` 2",)
        assert len(run(cell).cuts[0]) == 1

    @pytest.mark.parametrize("method", ["regularized-fd", "nebb"])
    def test_a_face_of_another_axis(self, method):
        """Its tangential differences run along axis 0, over slab edges."""
        lat = get_lattice("D2Q9")
        domain = channel_2d(16, 48, with_io=False)
        node_type = np.array(domain.node_type).T.copy()  # walls on axis 0

        def build():
            from repro.geometry import Domain

            return make_solver(
                "MR-P", lat, Domain(node_type), TAU, backend="fused",
                boundaries=[HalfwayBounceBack(),
                            VelocityInlet(Plane(axis=1, side=0),
                                          [0.0, 0.02], method=method),
                            PressureOutlet(Plane(axis=1, side=-1),
                                           method=method)])

        solver = stepped(build, steps=2)
        assert solver.accel_path == "bounded" and n_slabs(solver) == 1

    @pytest.mark.parametrize("scheme", ["ST", "MR-P"])
    def test_post_collide_hooks_and_the_aa_scatter(self, scheme):
        lat = get_lattice("D2Q9")

        def build(backend, boundary):
            return make_solver(scheme, lat, channel_2d(48, 16, with_io=False),
                               TAU, boundaries=[boundary], backend=backend,
                               force=np.array([1e-5, 0.0]))

        full = stepped(lambda: build("fused", FullwayBounceBack()), steps=2)
        assert full.accel_path == "bounded" and n_slabs(full) == 1
        aa = stepped(lambda: build("aa", HalfwayBounceBack()), steps=2)
        # walls ride the window on "aa" too: its own scatter, which wants
        # the whole relaxed lattice, steps boundary-free ST problems only
        assert aa.accel_path == "lean" and n_slabs(aa) > 1

    def test_a_subclass_that_changes_post_stream_is_not_cut(self):
        class Leaky(HalfwayBounceBack):
            def post_stream(self, lat, f_new, f_source):
                super().post_stream(lat, f_new, f_source)
                f_new *= 0.999

        solver = stepped(lambda: make_solver(
            "MR-P", get_lattice("D2Q9"), channel_2d(48, 16, with_io=False),
            TAU, boundaries=[Leaky()], backend="fused"), steps=1)
        assert solver.accel_path == "bounded"


class TestRanksSlideToo:
    """A rank is a solver: its ghosted slab slides like any grid, and the
    cut ranks are the single domain bit for bit (planes of 16 nodes)."""

    @pytest.mark.parametrize("ranks", [1, 2, 3])
    @pytest.mark.parametrize("scheme", SCHEMES)
    @pytest.mark.parametrize("kind", ["channel", "forced-channel"])
    def test_emulated_ranks_equal_single(self, kind, scheme, ranks):
        cell = Cell(kind, scheme, "D2Q9", "fused", f"emulated-{ranks}",
                    (96, 16), CHUNK, extra=(("u_max", 0.03),))
        check_rank_counts_agree(cell)
        assert run(cell).paths == lean(scheme, ranks)
        assert all(len(slabs) >= 2 for slabs in run(cell).cuts)

    @pytest.mark.parametrize("ranks", [1, 2, 3])
    @pytest.mark.parametrize("scheme", ["ST", "MR-P"])
    def test_process_ranks_equal_single(self, scheme, ranks):
        """Forked ranks inherit the window's chunk."""
        check_rank_counts_agree(Cell(
            "channel", scheme, "D2Q9", "fused", f"process-{ranks}", (96, 16),
            CHUNK, extra=(("u_max", 0.03),)))


class TestLookingAndResuming:
    @pytest.mark.parametrize("scheme", SCHEMES)
    def test_reading_the_state_every_step_changes_nothing(self, scheme):
        cell = Cell("channel", scheme, "D3Q19", "fused", shape=SHAPES["D3Q19"],
                    chunk=CHUNK)
        check_looking_changes_nothing(cell)
        assert len(run(cell).cuts[0]) == 3

    @pytest.mark.parametrize("at", [3, 4], ids=["odd", "even"])
    @pytest.mark.parametrize("backend", ["fused", "aa"])
    @pytest.mark.parametrize("scheme", SCHEMES)
    def test_checkpoint_resume(self, scheme, backend, at):
        cell = Cell("channel", scheme, "D2Q9", backend, shape=SHAPES["D2Q9"],
                    chunk=CHUNK)
        check_resume(cell, at, backend)
        assert run(cell).paths == lean(scheme) and len(run(cell).cuts[0]) == 3
