"""Property-based tests (hypothesis): looking must not change the trajectory.

``solver.f`` / ``solver.m`` is the one door to the state: ``sparse``
holds it compact and makes the dense array on a look, kept until the
next step (:mod:`repro.accel.sparse`); boundary-free ``aa`` un-streams a
pre-streamed odd lattice when it is read (:mod:`repro.accel.inplace`).
That a look after every step changes nothing, and that a checkpoint
resumes on another backend, are conformance-matrix columns
(``tests/property/test_conformance.py``); the ids below that name them
run the matrix's checks. What the matrix cannot state is this door's
own: a random sequence of public operations — looks, pokes through the
door, ``set_force``, checkpoints, telemetry — applied to a solver that
looks only where the sequence does, to a twin that looks after **every**
step, and to a ``reference`` third (the first two ``np.array_equal``,
the third by the matrix's tolerance rule); a write through the door
being what steps next; and what a look costs (which dense passes a step
makes).
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.accel import BACKENDS, MaskedNeighborTable
from repro.lattice import get_lattice
from repro.obs import Telemetry
from repro.service.registry import build_distributed, build_single

from test_conformance import (Cell, assert_agree, check_rank_counts_agree,
                              check_resume, fields, restore, save, state_of)
from test_props_window_boundaries import moving_wall

TAU = 0.8
SCHEMES = ["ST", "MR-P", "MR-R"]
#: thin and prime extents on purpose: chunk tails, one-plane interiors
SHAPES = {"D2Q9": [(7, 5), (11, 6), (5, 13)],
          "D3Q19": [(5, 5, 4), (7, 4, 5)]}


def _porous(scheme, lattice, shape, backend, seed):
    return build_single("porous", scheme, lattice, shape, tau=TAU,
                        backend=backend, solid_fraction=0.45, seed=seed,
                        force_x=2e-5)


def _channel(scheme, lattice, shape, backend, seed):
    return build_single("channel", scheme, lattice, shape, tau=TAU,
                        backend=backend, u_max=0.03, bc_method="nebb")


def _periodic(scheme, lattice, shape, backend, seed):
    """No boundaries: the one problem ``aa`` steps with its own ST core."""
    lat = get_lattice(lattice)
    u0 = 0.03 * np.random.default_rng(seed).standard_normal((lat.d, *shape))
    return build_single("periodic", scheme, lat, shape, tau=TAU,
                        backend=backend, u0=u0)


#: problem -> builder (a sparse solver of each steps ``lean``: inlet and
#: outlet do not fold, so ``channel`` steps the fused window)
PROBLEMS = {"porous": _porous,
            "moving-wall": lambda *args: moving_wall(*args[:4]),
            "channel": _channel,
            "periodic": _periodic}


# One operation of a sequence: (name, argument).
OPS = st.one_of(
    st.tuples(st.just("run"), st.integers(1, 3)),
    st.tuples(st.just("macroscopic"), st.none()),
    st.tuples(st.just("read"), st.none()),
    st.tuples(st.just("poke"), st.integers(0, 2**16)),
    st.tuples(st.just("set_force"), st.floats(0.5, 2.0)),
    st.tuples(st.just("checkpoint"), st.integers(1, 2)),
    st.tuples(st.just("telemetry"), st.booleans()),
)


def apply(solver, ops, tmp, every_step=False):
    """Apply ``ops`` to ``solver``; returns everything that was observed."""
    seen = []
    fluid = np.argwhere(solver.domain.fluid_mask)

    def run(k):
        if not every_step:
            solver.run(k)
            return
        for _ in range(k):
            solver.run(1)
            state_of(solver)            # a look: made now, gathered next

    for n, (op, arg) in enumerate(ops):
        if op == "run":
            run(arg)
        elif op == "macroscopic":
            seen.append(fields(*solver.macroscopic()))
        elif op == "read":
            seen.append(state_of(solver).copy())
        elif op == "poke":
            node = tuple(fluid[arg % len(fluid)])
            state_of(solver)[(0, *node)] += 1e-3
        elif op == "set_force":
            if solver.force is not None:
                solver.set_force(arg * solver.force)
        elif op == "checkpoint":
            save(solver, tmp / f"{id(solver)}-{n}")
            run(arg)
            restore(tmp / f"{id(solver)}-{n}", solver, solver.time)
        elif op == "telemetry":
            solver.attach_telemetry(Telemetry() if arg else None)
    run(1)
    seen.append(fields(*solver.macroscopic()))
    seen.append(state_of(solver).copy())
    return seen


def assert_same_story(lazy, eager, dense, fluid, steps):
    assert len(lazy) == len(eager) == len(dense)
    for a, b, c in zip(lazy, eager, dense):
        assert np.array_equal(a, b)
        assert_agree(a[:, fluid], c[:, fluid], exact=False, steps=steps)


class TestLookingDoesNotChangeTheTrajectory:
    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("lattice", ["D2Q9", "D3Q19"])
    @pytest.mark.parametrize("scheme", SCHEMES)
    @pytest.mark.parametrize("problem", sorted(PROBLEMS))
    @given(data=st.data())
    @settings(max_examples=6, deadline=None)
    def test_random_operation_sequences(self, tmp_path_factory, problem,
                                        scheme, lattice, backend, data):
        build = PROBLEMS[problem]
        shape = data.draw(st.sampled_from(SHAPES[lattice]))
        seed = data.draw(st.integers(0, 2**16))
        ops = data.draw(st.lists(OPS, min_size=2, max_size=8))
        tmp = tmp_path_factory.mktemp("ckpt")
        lazy, eager, ref = (build(scheme, lattice, shape, b, seed)
                            for b in (backend, backend, "reference"))
        seen = [apply(lazy, ops, tmp), apply(eager, ops, tmp, every_step=True),
                apply(ref, ops, tmp)]
        if backend == "sparse":
            assert lazy.accel_path == eager.accel_path == "lean"
        assert_same_story(*seen, lazy.domain.fluid_mask, lazy.time)

    @given(ops=st.lists(OPS, min_size=2, max_size=6))
    @settings(max_examples=10, deadline=None)
    def test_power_law_variable_tau(self, tmp_path_factory, ops):
        """``_update_relaxation`` reads ``m`` every step by itself."""
        tmp = tmp_path_factory.mktemp("ckpt")
        lazy, eager, dense = (
            build_single("power-law", "MR-P", "D2Q9", (9, 7), tau=TAU,
                         backend=backend, u_max=0.03)
            for backend in ("sparse", "sparse", "fused"))
        seen = [apply(lazy, ops, tmp), apply(eager, ops, tmp, every_step=True),
                apply(dense, ops, tmp)]
        assert_same_story(*seen, lazy.domain.fluid_mask, lazy.time)

    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("scheme", SCHEMES)
    def test_womersley_set_force_every_step(self, scheme, backend):
        """A pulsatile force is seen by the very next step, read or not."""
        solvers = [build_single("forced-channel", scheme, "D2Q9", (12, 9),
                                tau=TAU, backend=backend, u_max=0.03)
                   for _ in range(2)]
        amplitude = solvers[0].force[0].max()
        for step in range(12):
            drive = [amplitude * np.cos(0.4 * step), 0.0]
            for solver in solvers:
                solver.set_force(drive)
                solver.run(1)
            state_of(solvers[1])
        assert np.array_equal(state_of(solvers[0]), state_of(solvers[1]))
        assert np.array_equal(*(fields(*s.macroscopic()) for s in solvers))

    def test_force_is_read_only_outside_set_force(self):
        solver = build_single("forced-channel", "ST", "D2Q9", (8, 7),
                              tau=TAU, backend="sparse")
        with pytest.raises(ValueError, match="read-only"):
            solver.force[0] += 1e-6
        held = solver.force
        solver.set_force([1e-6, 0.0])
        assert solver.force is held and not held.flags.writeable


class TestOneDoor:
    """``solver.f`` / ``solver.m`` is the reference's natural state on every
    backend at every step; what is written through it steps next."""

    @staticmethod
    def build(problem, scheme, backend):
        lattice, shape = (("D3Q19", (5, 5, 4)) if problem.endswith("3d")
                          else ("D2Q9", (11, 6)))
        return PROBLEMS[problem.removesuffix("3d")](
            scheme, lattice, shape, backend, 3)

    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("scheme", SCHEMES)
    @pytest.mark.parametrize("problem", ["periodic", "periodic3d", "channel"])
    def test_natural_at_every_step(self, problem, scheme, backend):
        """Nobody looks before the end, so ``aa`` is caught mid-pair."""
        ref = self.build(problem, scheme, "reference")
        fluid = ref.domain.fluid_mask
        for steps in range(1, 6):
            ref.run(1)
            fast = self.build(problem, scheme, backend).run(steps)
            assert_agree(state_of(fast)[:, fluid], state_of(ref)[:, fluid],
                         exact=False, steps=steps)
            assert_agree(*(fields(*s.macroscopic())[:, fluid]
                           for s in (fast, ref)), exact=False, steps=steps)

    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("scheme", SCHEMES)
    @pytest.mark.parametrize("steps", [1, 2])
    def test_write_is_what_steps_next(self, steps, scheme, backend):
        a, twin, donor = (self.build("periodic", scheme, b)
                          for b in (backend, backend, "reference"))
        for solver in (a, twin, donor):
            solver.run(steps)
        held = state_of(twin)
        held[...] = held.copy()         # rewriting it in place: nothing
        state_of(a)[...] = state_of(donor.run(2))   # another state: adopted
        assert_agree(state_of(a.run(3)), state_of(donor.run(3)), exact=False,
                     steps=3)
        untouched = self.build("periodic", scheme, backend).run(steps + 2)
        assert np.array_equal(state_of(twin.run(2)), state_of(untouched))

    @pytest.mark.parametrize("steps", [3, 4])
    @pytest.mark.parametrize("target", BACKENDS)
    @pytest.mark.parametrize("source", BACKENDS)
    @pytest.mark.parametrize("scheme", SCHEMES)
    def test_checkpoint_across_backends(self, scheme, source, target, steps):
        check_resume(Cell("periodic", scheme, "D2Q9", source, shape=(11, 6)),
                     at=steps, target=target)


class TestRanksOnSparse:
    """A rank looks every step (halo pack and unpack): the reload path."""

    @pytest.mark.parametrize("ranks", [1, 2, 3])
    @pytest.mark.parametrize("scheme", SCHEMES)
    @pytest.mark.parametrize("kind", ["forced-channel", "channel"])
    def test_emulated_ranks_match_single_domain(self, kind, scheme, ranks):
        check_rank_counts_agree(Cell(kind, scheme, "D2Q9", "sparse",
                                     f"emulated-{ranks}"))

    @pytest.mark.parametrize("ranks", [1, 2, 3])
    @pytest.mark.parametrize("scheme", ["ST", "MR-P"])
    def test_process_ranks_match_emulated(self, scheme, ranks):
        check_rank_counts_agree(Cell("forced-channel", scheme, "D2Q9",
                                     "sparse", f"process-{ranks}"))


class TestTheMechanism:
    """Not just the result: which dense-state passes a step makes."""

    @pytest.mark.parametrize("scheme", SCHEMES)
    def test_a_run_touches_no_dense_state(self, monkeypatch, scheme):
        solver = build_single("porous", scheme, "D2Q9", (16, 12), tau=TAU,
                              backend="sparse", solid_fraction=0.4, seed=1)
        solver.run(1)                   # builds the core, loads the state
        calls = {"scatter": 0, "compact": 0}
        for name in calls:
            def counted(self, *args, _name=name,
                        _inner=getattr(MaskedNeighborTable, name)):
                calls[_name] += 1
                return _inner(self, *args)
            monkeypatch.setattr(MaskedNeighborTable, name, counted)
        tel = Telemetry()
        solver.attach_telemetry(tel).run(10)
        assert calls == {"scatter": 0, "compact": 0}
        assert "syncs" not in tel.counters
        first = solver.macroscopic()    # makes the dense state and force
        assert calls == {"scatter": 2, "compact": 0}
        assert tel.counters["syncs"] == 2 and tel.phases["sync"].calls == 2
        again = solver.macroscopic()    # nothing pending: no second scatter
        assert calls == {"scatter": 2, "compact": 0}
        assert all(np.array_equal(a, b) for a, b in zip(first, again))
        assert state_of(solver) is state_of(solver)

    def test_aa_unstreams_once_per_odd_look(self):
        solver = _periodic("ST", "D2Q9", (16, 12), "aa", 1)
        tel = Telemetry()
        solver.attach_telemetry(tel).run(5)
        assert solver.accel_path == "lean" and "syncs" not in tel.counters
        assert solver.f is solver.f     # one un-stream, however many looks
        assert tel.counters["syncs"] == 1 and tel.phases["sync"].calls == 1
        assert solver.run(1).accel_path == "bounded"    # looked: natural step
        assert solver.run(2).accel_path == "lean"       # unobserved: AA pair
        solver.macroscopic()            # even step: nothing to put right
        assert tel.counters["syncs"] == 1
        assert solver.state_values_per_node == solver.lat.q

    def test_rebinding_the_state_is_seen_by_the_next_step(self):
        """The dense array lives from a look to the next step: a write
        through it and a rebind are both what that step starts from."""
        for scheme, name in (("ST", "f"), ("MR-P", "m")):
            a, b, c = (_porous(scheme, "D2Q9", (10, 9), "sparse", 2).run(3)
                       for _ in range(3))
            look = getattr(a, name)
            assert getattr(a, name) is look     # one array in the window
            node = (slice(None), *np.argwhere(a.domain.fluid_mask)[5])
            look[node] *= 1.01
            poked = getattr(b, name).copy()
            poked[node] *= 1.01
            setattr(b, name, poked)
            a.run(2), b.run(2), c.run(2)
            assert getattr(a, name) is not look     # the step dropped it
            assert np.array_equal(getattr(a, name), getattr(b, name))
            assert not np.array_equal(getattr(a, name), getattr(c, name))

    @pytest.mark.parametrize("scheme", ["ST", "MR-P"])
    def test_a_sparse_rank_ships_planes_not_lattices(self, scheme):
        """Packing and unpacking read and write the compact state: ten
        emulated steps of two ranks make no dense array, bit-identical
        to the single domain."""
        options = dict(tau=TAU, solid_fraction=0.45, seed=3, force_x=2e-5)
        dist = build_distributed("porous", scheme, "D2Q9", (24, 14), 2,
                                 accel="sparse", **options)
        tels = [Telemetry() for _ in dist.ranks]
        for rank, tel in zip(dist.ranks, tels):
            rank.attach_telemetry(tel)
        dist.run(10)
        assert [tel.counters.get("syncs", 0) for tel in tels] == [0, 0]
        single = build_single("porous", scheme, "D2Q9", (24, 14),
                              backend="sparse", **options).run(10)
        for got, want in zip(dist.gather_macroscopic(), single.macroscopic()):
            assert np.array_equal(got, want)
