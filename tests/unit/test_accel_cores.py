"""Contracts of the one core protocol behind every fast backend.

Which path each registered kind takes on each backend is the
conformance matrix's table column (``test_path_is_documented``,
``tests/property/test_conformance.py``). The matrix compares what runs
compute; it cannot state what a run *holds*, when a core is built, what
a manifest or a profile header says, or what construction refuses:

* the buffer inventory — persistent state plus everything a core owns —
  equals the documented footprint (docs/PERFORMANCE.md "state" column and
  the realized-allocation table of docs/ALGORITHMS.md); this is the guard
  behind ``peak_rss_mb``: one stray D3Q19 64^3 lattice is 40 MB;
* every core names the step variant it runs in ``path``, and the run
  manifest and ``mrlbm profile`` header record it;
* a solver is not a reference cycle: dropping the last reference frees
  it (and its core) without the cycle collector;
* single-domain and distributed constructors share one support matrix.
"""

import gc
import weakref

import numpy as np
import pytest

from repro.accel import BACKENDS
from repro.boundary import FullwayBounceBack
from repro.lattice import get_lattice
from repro.service.registry import (build_distributed, build_single,
                                    get_problem, problem_kinds)
from repro.solver import make_solver

FAST = ("fused", "aa", "sparse")
SHAPE = (16, 12)


def build(problem, scheme, backend):
    if problem == "periodic":
        return build_single("periodic", scheme, "D2Q9", SHAPE, tau=0.8,
                            backend=backend)
    if problem == "walled":
        return build_single("forced-channel", scheme, "D2Q9", SHAPE, tau=0.8,
                            u_max=0.04, backend=backend)
    return build_single("channel", scheme, "D2Q9", SHAPE, tau=0.8, u_max=0.04,
                        backend=backend)


def expected_doubles(backend, scheme, problem, lat, n, nf):
    """Documented footprint in doubles (see the module docstring).

    ``state`` is the backend matrix's state column; ``scratch`` the
    collide intermediates per *chunk* column — at most ``_CHUNK`` columns
    wide, so the whole (dense or compact) field at this size.
    """
    q, m, d, p = lat.q, lat.n_moments, lat.d, lat.n_pairs
    forced = problem == "walled"
    if scheme == "ST":
        # G (the moments, then the equilibrium and source moments: M +
        # D + D D rows, chunk-wide, so always there), u and R g
        scratch = (m + d + d * d) + d + q
        lattices, persistent = 2 * q, q
    else:
        # MR-R: G grows by the 2 + 1 supported recursion columns of D2Q9
        # and the recursion keeps 3 prefix products and 3 term rows; G
        # ends with the D D source products
        g = (m if scheme == "MR-P" else m + 3 + 6) + d * d
        scratch = g + d + 3 * p + 2 + d   # + per-node tau rows, pref F
        lattices, persistent = m + 2 * q, m
    if backend == "sparse" and problem != "inlet-outlet":
        # dense field + compact columns (+ compact force) over n_fluid —
        # MR: f* and one streamed chunk, here all n_fluid columns wide;
        # inlet and outlet do not fold: that list steps the fused core
        compact = (lattices - persistent) + persistent + scratch
        return n * persistent + nf * (compact + (d if forced else 0))
    # One slab at this size, so every dense step holds whole lattices:
    # ST is f + the streamed slab (2Q), MR is m + the f* ring + the
    # streamed slab (M + 2Q), on the lean and the bounded path alike. A
    # grid of several slabs keeps only a window (test_accel_blocked.py).
    return n * (lattices + scratch)


class TestBufferInventory:
    @pytest.mark.parametrize("problem", ["periodic", "walled",
                                         "inlet-outlet"])
    @pytest.mark.parametrize("scheme", ["ST", "MR-P", "MR-R"])
    @pytest.mark.parametrize("backend", FAST)
    def test_state_plus_core_matches_documented_footprint(
            self, backend, scheme, problem, field_doubles):
        solver = build(problem, scheme, backend)
        # an odd count: reading the state below makes the boundary-free
        # ``aa`` core un-stream, through the scratch it already owns
        solver.run(3)
        n, nf = solver.domain.n_nodes, solver.domain.n_fluid
        state = solver.f if scheme == "ST" else solver.m
        # a fast backend's solver owns nothing but its persistent state
        assert getattr(solver, "_f_streamed", None) is None
        assert getattr(solver, "_f_scratch", None) is None
        # the state as held: compact on sparse, with the compact force
        held = field_doubles(
            state, getattr(solver, solver._slot), solver._stepper,
            solver._force if solver._table is not None else None,
            min_size=min(n, nf))
        assert held == expected_doubles(backend, scheme, problem,
                                        solver.lat, n, nf)

    def test_reference_solver_owns_its_scratch(self):
        st = build("periodic", "ST", "reference")
        mr = build("periodic", "MR-P", "reference")
        assert st._f_streamed.shape == st.f.shape
        assert mr._f_scratch.shape == (mr.lat.q, *SHAPE)

    @pytest.mark.parametrize("backend,lattices", [
        ("reference", 2), ("fused", 1), ("aa", 1), ("sparse", 1)])
    def test_st_state_values_per_node_comes_from_the_core(self, backend,
                                                          lattices):
        solver = build("periodic", "ST", backend)
        assert solver.state_values_per_node == lattices * solver.lat.q
        # the window carries the walls: row-local hooks cost no lattice
        walled = build("walled", "ST", backend)
        assert walled.state_values_per_node == lattices * walled.lat.q

    def test_post_collide_hooks_keep_the_streamed_lattice_whole(self):
        """Full-way bounce-back reads the pre-collision lattice after the
        collision: the bounded fused step keeps two."""
        solver = fullway("ST")
        assert solver.state_values_per_node == 2 * solver.lat.q
        assert solver.accel_path == "bounded"


def fullway(scheme):
    """A channel of full-way walls: a post-collide hook, no row extent."""
    from repro.geometry import channel_2d

    return make_solver(scheme, get_lattice("D2Q9"),
                       channel_2d(*SHAPE, with_io=False), 0.8,
                       boundaries=[FullwayBounceBack()], backend="fused")


def path_of(problem, scheme, backend):
    """``accel_path`` of a solver once its first step has built the core
    (a sparse solver's is built with it)."""
    solver = build(problem, scheme, backend)
    before = solver.accel_path
    path = solver.run(1).accel_path
    assert before == (path if backend == "sparse" else None)
    return path


class TestPath:
    """One test per ``path`` value, through the public seam: a core is
    built by the first step (a sparse one with its solver)."""

    def test_fused_is_lean_or_bounded(self):
        # walls, inlet and outlet have a row extent: the window carries
        # them
        for scheme in ("ST", "MR-P"):
            for problem in ("periodic", "walled", "inlet-outlet"):
                assert path_of(problem, scheme, "fused") == "lean"

    def test_lean(self):
        assert path_of("periodic", "ST", "aa") == "lean"
        assert path_of("periodic", "MR-R", "aa") == "lean"
        # plain half-way walls fold into the sparse gather table
        assert path_of("walled", "MR-P", "sparse") == "lean"

    def test_bounded(self):
        # walled problems step the fused cores on "aa": lean, walls and
        # all; a post-collide hook has no row extent
        assert path_of("walled", "ST", "aa") == "lean"
        assert path_of("inlet-outlet", "MR-P", "aa") == "lean"
        for scheme in ("ST", "MR-P"):
            assert fullway(scheme).run(1).accel_path == "bounded"

    def test_unfolded_list_steps_the_fused_core(self):
        # inlet and outlet do not fold into the sparse gather table: the
        # fused window carries them, as on "fused"
        for scheme in ("ST", "MR-P"):
            assert path_of("inlet-outlet", scheme, "sparse") == "lean"

    def test_reference_has_no_path(self):
        assert path_of("periodic", "ST", "reference") is None

    def test_path_is_read_only_on_the_solver(self):
        with pytest.raises(AttributeError):
            build("periodic", "ST", "fused").accel_path = "lean"

    def test_manifest_records_path(self):
        from repro.obs.manifest import RunManifest

        record = {"scheme": "MR-P", "lattice": "D2Q9", "shape": (8, 8),
                  "tau": 0.8}
        solver = build("inlet-outlet", "MR-P", "sparse")
        solver.run(1)
        manifest = RunManifest.from_identity(record, 1,
                                             accel_path=solver.accel_path)
        assert manifest.extra["accel_path"] == "lean"
        reference = RunManifest.from_identity(record, 1, accel_path=build(
            "periodic", "ST", "reference").accel_path)
        assert "accel_path" not in reference.extra

    def test_profile_header_names_path(self):
        from repro.obs import format_profile, profile_scheme

        result = profile_scheme("MR-P", "D2Q9", shape=(16, 10), steps=2,
                                measure_traffic=False, accel="aa")
        assert result["path"] == "lean"
        assert ("backend = aa (lean path), 0 state syncs"
                in format_profile(result))
        reference = profile_scheme("MR-P", "D2Q9", shape=(16, 10), steps=2,
                                   measure_traffic=False)
        assert reference["path"] is reference["syncs"] is None
        assert "syncs" not in format_profile(reference)

    def test_profile_header_counts_sparse_syncs(self):
        """Nobody reads the state of a profiled run: 0 of 3 steps synced,
        whichever backend steps it."""
        from repro.obs import format_profile, profile_scheme

        for accel in ("fused", "aa", "sparse"):
            result = profile_scheme("ST", "D2Q9", shape=(16, 10), steps=3,
                                    measure_traffic=False, accel=accel)
            assert result["syncs"] == 0
            assert (f"backend = {accel} (lean path), 0 state syncs"
                    in format_profile(result))

    def test_rank_cores_carry_path(self):
        dist = build_distributed("channel", "MR-P", "D2Q9", (24, 12), 3,
                                 accel="sparse", u_max=0.04)
        dist.run(1)
        # inlet and outlet ranks step the fused window, the interior
        # rank's plain walls fold into its compact gather
        assert [(rank.accel_path, rank._stepper.core.state_lattices)
                for rank in dist.ranks] == [("lean", 0), ("lean", 1),
                                            ("lean", 0)]


class TestSolverIsNotAReferenceCycle:
    @pytest.mark.parametrize("steps", [0, 2])
    @pytest.mark.parametrize("scheme", ["ST", "MR-P"])
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_del_frees_solver_without_the_collector(self, backend, scheme,
                                                    steps):
        gc.collect()
        gc.disable()
        try:
            solver = build("walled", scheme, backend)
            solver.run(steps)
            assert np.isfinite(solver.diagnostics.mass())
            ref = weakref.ref(solver)
            del solver
            assert ref() is None
        finally:
            gc.enable()


def _constructs(builder):
    try:
        builder()
    except ValueError as err:
        return str(err)
    return None


class TestOneSupportMatrix:
    @pytest.mark.parametrize("backend", BACKENDS + ("numba", "cuda"))
    @pytest.mark.parametrize("scheme", ["ST", "MR-P", "MR-R"])
    @pytest.mark.parametrize("kind", [
        k for k in problem_kinds()
        if get_problem(k).distributed])
    def test_single_and_distributed_constructors_agree(self, kind, scheme,
                                                       backend):
        shape = (24, 12)
        single = _constructs(lambda: build_single(
            kind, scheme, "D2Q9", shape, backend=backend))
        ranks = _constructs(lambda: build_distributed(
            kind, scheme, "D2Q9", shape, 2, accel=backend))
        assert (single is None) == (ranks is None)
        if single is not None:
            assert "backend" in single and "backend" in ranks

    def test_same_rejection_text(self, monkeypatch):
        """A TRT ST solver under ``sparse``: one message — the rank that
        refuses is the single-domain solver itself."""
        from functools import partial

        from repro.core.collision import TRTCollision
        from repro.geometry import channel_2d
        from repro.parallel.decomposition import DistributedSolver
        from repro.solver import SCHEMES, STSolver

        lat = get_lattice("D2Q9")
        domain = channel_2d(16, 10, with_io=False)
        trt = TRTCollision(0.8)
        with pytest.raises(ValueError, match="plain BGK") as single:
            make_solver("ST", lat, domain, 0.8, collision=trt,
                        backend="sparse")
        # every rank is built as SCHEMES["ST"]: make that the TRT solver
        monkeypatch.setitem(SCHEMES, "ST", partial(STSolver, collision=trt))
        with pytest.raises(ValueError) as ranks:
            DistributedSolver(lat, domain, 0.8, 2, periodic_axis0=True,
                              boundary_factory=lambda r, n: [],
                              accel="sparse")
        assert str(single.value) == str(ranks.value)
