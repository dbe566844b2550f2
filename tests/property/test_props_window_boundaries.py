"""The window carries the walls: slab-local boundary hooks against whole ones.

A ``fused`` core whose boundaries all have a row extent
(:meth:`repro.boundary.Boundary.slab_hooks`) slides over leading-axis
slabs and runs each slab's hooks on the slab buffer. The oracle is the
*same core* built under a ``_CHUNK`` above ``N``: one slab that is the
whole grid, one chunk — the step every walled problem took before. The
sliding run lowers the constant to 32 so grids of a few hundred nodes
slide over several slabs, with ``_SLAB_CHUNKS`` as shipped.

Equality is ``np.array_equal`` wherever planes and chunk are multiples
of eight nodes; elsewhere BLAS rounds the last ``n mod 8`` columns of a
product by another kernel, so cutting a field there moves which nodes
see that rounding (``tests/unit/test_accel_blocked.py``) — the
conformance matrix's tolerance rule, ``tests/property/test_conformance
.py``, which this module applies.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import repro.accel.fused as fused
from repro.boundary import (FullwayBounceBack, HalfwayBounceBack,
                            InterpolatedBounceBack, Plane, PressureOutlet,
                            VelocityInlet, circle_sdf)
from repro.geometry import channel_2d, cylinder_in_channel
from repro.lattice import get_lattice
from repro.parallel import ProcessRuntime, RunSpec
from repro.service.registry import (build_distributed, build_single,
                                    get_problem, problem_kinds,
                                    setup_problem)
from repro.solver import make_solver

from test_conformance import assert_agree, restore, save, state_of

CHUNK, WHOLE, TAU, STEPS = 32, 10 ** 9, 0.8, 5
SCHEMES = ("ST", "MR-P", "MR-R")
#: planes of 16 nodes: slabs of ``8 x 32 / 16`` = 16 rows, three per grid
SHAPES = {"D2Q9": (48, 16), "D3Q19": (48, 4, 4), "D3Q27": (48, 4, 4)}
#: kind -> option sets; every registered kind that has boundaries
WALLED = {
    "channel": [{"bc_method": "regularized-fd"},
                {"bc_method": "nebb"},
                {"bc_method": "nebb", "outlet_tangential": "zero"}],
    "forced-channel": [{}], "cylinder": [{}], "power-law": [{}],
    "porous": [{"solid_fraction": 0.3, "seed": 5, "force_x": 1e-5}],
}


def stepped(monkeypatch, chunk, build, steps=STEPS, look=False):
    """``build()`` stepped under ``_CHUNK = chunk`` (the core is built, and
    cuts its slabs, on the first step)."""
    monkeypatch.setattr(fused, "_CHUNK", chunk)
    solver = build()
    for _ in range(steps):
        solver.run(1)
        if look:
            state_of(solver), solver.macroscopic()
    return solver


def n_slabs(solver):
    return len(solver._stepper.core._window()[0])


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
    def test_registered_kinds(self, monkeypatch, kind, options, lattice,
                              scheme):
        def build():
            return build_single(kind, scheme, lattice, SHAPES[lattice],
                                tau=TAU, backend="fused", **options)

        slid = stepped(monkeypatch, CHUNK, build)
        whole = stepped(monkeypatch, WHOLE, build)
        assert slid.accel_path == whole.accel_path == "lean"
        assert n_slabs(slid) == 3 and n_slabs(whole) == 1
        assert slid._stepper.core.state_lattices == (scheme == "ST")
        assert np.isfinite(state_of(slid)).all()
        assert np.array_equal(state_of(slid), state_of(whole))

    @pytest.mark.parametrize("scheme", SCHEMES)
    @pytest.mark.parametrize("lattice", SHAPES)
    def test_moving_wall(self, monkeypatch, lattice, scheme):
        def build():
            return moving_wall(scheme, lattice, SHAPES[lattice])

        slid = stepped(monkeypatch, CHUNK, build)
        whole = stepped(monkeypatch, WHOLE, build)
        assert n_slabs(slid) == 3
        assert np.array_equal(state_of(slid), state_of(whole))
        # the wall really drags the fluid: the momentum terms are not zero
        assert np.abs(slid.macroscopic()[1][0][:, -2]).max() > 1e-4

    @pytest.mark.parametrize("scheme", SCHEMES)
    def test_planes_wider_than_a_chunk_coarsen_to_the_stencil(
            self, monkeypatch, scheme):
        """A 40-node plane is a slab by itself; the finite-difference
        inlet reads three, so the slabs double until it fits (4 rows)."""
        def build(method="regularized-fd"):
            return build_single("channel", scheme, "D2Q9", (32, 40), tau=TAU,
                                backend="fused", bc_method=method)

        slid = stepped(monkeypatch, CHUNK, build)
        whole = stepped(monkeypatch, WHOLE, build)
        assert n_slabs(slid) == 8
        assert np.array_equal(state_of(slid), state_of(whole))
        # nebb + extrapolate reads two planes: 2-row slabs
        assert n_slabs(stepped(monkeypatch, CHUNK,
                               lambda: build("nebb"), steps=1)) == 16

    @given(n0=st.sampled_from([3, 4, 5, 6, 7, 11, 13, 17, 23, 29, 37, 64]),
           tail=st.sampled_from([(3,), (5,), (8,), (13,), (16,), (40,),
                                 (3, 3), (4, 4), (5, 3), (4, 8)]),
           scheme=st.sampled_from(SCHEMES),
           method=st.sampled_from(["regularized-fd", "nebb"]),
           tangential=st.sampled_from(["extrapolate", "zero"]),
           group=st.sampled_from([1, 8]))
    @settings(max_examples=80, deadline=None)
    def test_thin_and_prime_extents(self, n0, tail, scheme, method,
                                    tangential, group):
        """Any extents: an edge slab is never thinner than the stencil of
        the boundary on it (the grid steps one slab instead), and the
        sliding step is the one-slab step to BLAS-tail rounding — bit
        for bit when planes are multiples of eight nodes."""
        lattice = "D2Q9" if len(tail) == 1 else "D3Q19"
        shape = (n0, *tail)

        def build():
            return build_single("channel", scheme, lattice, shape, tau=TAU,
                                backend="fused", bc_method=method,
                                outlet_tangential=tangential)

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(fused, "_SLAB_CHUNKS", group)
            slid = stepped(patch, CHUNK, build, steps=3)
            whole = stepped(patch, WHOLE, build, steps=3)
        slabs = slid._stepper.core._window()[0]
        depth = 3 if method == "regularized-fd" else 1
        outlet = max(depth, 2 if tangential == "extrapolate" else 1)
        if len(slabs) > 1:
            assert slabs[0][1] - slabs[0][0] >= depth
            assert slabs[-1][1] - slabs[-1][0] >= outlet
        assert slid.accel_path == "lean"
        assert_agree(state_of(slid), state_of(whole),
                     exact=int(np.prod(tail)) % 8 == 0, steps=3)


class TestHookOrder:
    def test_hooks_run_in_list_order_on_every_slab(self, monkeypatch):
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

        def build():
            return make_solver("MR-P", get_lattice("D2Q9"),
                               channel_2d(48, 16, with_io=False), TAU,
                               boundaries=[Recording("a"), Recording("b")],
                               backend="fused")

        stepped(monkeypatch, CHUNK, build, steps=1)
        assert calls == [(s, name) for s in range(3) for name in "ab"]

    @pytest.mark.parametrize("scheme", SCHEMES)
    def test_inlet_sees_the_reflected_wall_links_on_slab_0(self, monkeypatch,
                                                           scheme):
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
                    monkeypatch, chunk, lambda: build(swapped)))
                for chunk in (CHUNK, WHOLE) for swapped in (False, True)}
        for swapped in (False, True):
            assert np.array_equal(runs[CHUNK, swapped], runs[WHOLE, swapped])
        assert not np.array_equal(runs[CHUNK, False], runs[CHUNK, True])


class TestWhoStaysBounded:
    """No row extent: the whole-lattice step, results untouched."""

    def test_interpolated_bounce_back(self, monkeypatch):
        """``last_force`` is one float reduction over all links; per-slab
        partial sums would move its last bits, so the curved wall keeps
        whole lattices and the force is the reference's, bit for bit."""
        lat = get_lattice("D2Q9")
        domain = cylinder_in_channel(48, 16, 12.0, 7.5, 3.0, with_io=False)

        def build(backend):
            body = domain.solid_mask.copy()
            body[:, [0, -1]] = False
            return make_solver(
                "MR-P", lat, domain, TAU, backend=backend,
                boundaries=[HalfwayBounceBack(),
                            InterpolatedBounceBack(
                                circle_sdf(12.0, 7.5, 3.0), body_mask=body)],
                force=np.array([1e-5, 0.0]))

        fast = stepped(monkeypatch, CHUNK, lambda: build("fused"), steps=4)
        assert fast.accel_path == "bounded" and n_slabs(fast) == 1
        assert fast._stepper.core.state_lattices == 2
        slow = build("reference").run(4)
        assert_agree(fast.boundaries[1].last_force,
                     slow.boundaries[1].last_force, exact=False, steps=4)
        assert_agree(fast.m, slow.m, exact=False, steps=4)

    @pytest.mark.parametrize("method", ["regularized-fd", "nebb"])
    def test_a_face_of_another_axis(self, monkeypatch, method):
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

        solver = stepped(monkeypatch, CHUNK, build, steps=2)
        assert solver.accel_path == "bounded" and n_slabs(solver) == 1

    @pytest.mark.parametrize("scheme", ["ST", "MR-P"])
    def test_post_collide_hooks_and_the_aa_scatter(self, monkeypatch, scheme):
        lat = get_lattice("D2Q9")

        def build(backend, boundary):
            return make_solver(scheme, lat, channel_2d(48, 16, with_io=False),
                               TAU, boundaries=[boundary], backend=backend,
                               force=np.array([1e-5, 0.0]))

        full = stepped(monkeypatch, CHUNK,
                       lambda: build("fused", FullwayBounceBack()), steps=2)
        assert full.accel_path == "bounded" and n_slabs(full) == 1
        aa = stepped(monkeypatch, CHUNK,
                     lambda: build("aa", HalfwayBounceBack()), steps=2)
        # walls ride the window on "aa" too: its own scatter, which wants
        # the whole relaxed lattice, steps boundary-free ST problems only
        assert aa.accel_path == "lean" and n_slabs(aa) > 1

    def test_a_subclass_that_changes_post_stream_is_not_cut(self,
                                                            monkeypatch):
        class Leaky(HalfwayBounceBack):
            def post_stream(self, lat, f_new, f_source):
                super().post_stream(lat, f_new, f_source)
                f_new *= 0.999

        solver = stepped(monkeypatch, CHUNK, lambda: make_solver(
            "MR-P", get_lattice("D2Q9"), channel_2d(48, 16, with_io=False),
            TAU, boundaries=[Leaky()], backend="fused"), steps=1)
        assert solver.accel_path == "bounded"


class TestRanksSlideToo:
    """A rank is a solver: its ghosted slab slides like any grid."""

    OPTIONS = {"channel": {"u_max": 0.03}, "forced-channel": {"u_max": 0.03}}

    def single(self, monkeypatch, kind, scheme):
        solver = stepped(monkeypatch, CHUNK, lambda: build_single(
            kind, scheme, "D2Q9", (96, 16), tau=TAU, backend="fused",
            **self.OPTIONS[kind]), steps=7)
        return solver.macroscopic()

    @pytest.mark.parametrize("ranks", [1, 2, 3])
    @pytest.mark.parametrize("scheme", SCHEMES)
    @pytest.mark.parametrize("kind", ["channel", "forced-channel"])
    def test_emulated_ranks_equal_single(self, monkeypatch, kind, scheme,
                                         ranks):
        rho, u = self.single(monkeypatch, kind, scheme)
        dist = build_distributed(kind, scheme, "D2Q9", (96, 16), ranks,
                                 tau=TAU, accel="fused", **self.OPTIONS[kind])
        dist.run(7)
        assert [r.accel_path for r in dist.ranks] == ["lean"] * ranks
        assert all(n_slabs(r) >= 2 for r in dist.ranks)
        assert all(r._stepper.core.state_lattices == (scheme == "ST")
                   for r in dist.ranks)
        got_rho, got_u = dist.gather_macroscopic()
        assert np.array_equal(got_rho, rho) and np.array_equal(got_u, u)

    @pytest.mark.parametrize("ranks", [1, 2, 3])
    @pytest.mark.parametrize("scheme", ["ST", "MR-P"])
    def test_process_ranks_equal_single(self, monkeypatch, scheme, ranks,
                                        leaked_segments):
        rho, u = self.single(monkeypatch, "channel", scheme)
        spec = RunSpec("channel", scheme, "D2Q9", (96, 16), ranks, tau=TAU,
                       accel="fused", options=self.OPTIONS["channel"])
        result = ProcessRuntime(spec).run(7)    # forked ranks inherit _CHUNK
        assert np.array_equal(result.rho, rho)
        assert np.array_equal(result.u, u)
        assert leaked_segments() == []


class TestLookingAndResuming:
    @pytest.mark.parametrize("scheme", SCHEMES)
    def test_reading_the_state_every_step_changes_nothing(self, monkeypatch,
                                                          scheme):
        def build():
            return build_single("channel", scheme, "D3Q19", (48, 4, 4),
                                tau=TAU, backend="fused")

        blind = stepped(monkeypatch, CHUNK, build)
        seen = stepped(monkeypatch, CHUNK, build, look=True)
        assert n_slabs(seen) == 3
        assert np.array_equal(state_of(blind), state_of(seen))

    @pytest.mark.parametrize("at", [3, 4], ids=["odd", "even"])
    @pytest.mark.parametrize("backend", ["fused", "aa"])
    @pytest.mark.parametrize("scheme", SCHEMES)
    def test_checkpoint_resume(self, monkeypatch, tmp_path, scheme, backend,
                               at):
        def build():
            return build_single("channel", scheme, "D2Q9", (48, 16), tau=TAU,
                                backend=backend)

        straight = stepped(monkeypatch, CHUNK, build, steps=7)
        save(stepped(monkeypatch, CHUNK, build, steps=at), tmp_path)
        resumed = restore(tmp_path, build(), stop=7).run(7 - at)
        assert resumed.time == 7
        if not (backend == "aa" and scheme == "ST"):
            assert resumed.accel_path == "lean" and n_slabs(resumed) == 3
        assert np.array_equal(state_of(resumed), state_of(straight))
