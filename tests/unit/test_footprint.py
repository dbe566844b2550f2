"""What a run holds: the *Realized allocations* table, executable.

docs/ALGORITHMS.md states, per backend and scheme, how many doubles per
node a run allocates. ``tracemalloc`` counts NumPy's data allocations, so
those figures — and the peak a *build* reaches on its way to them — are
deterministic and checked here exactly as the table writes them:

* every backend x scheme holds, after a build and two steps, what the
  table says plus a fixed slack for the chunk-wide buffers, and building
  it peaks at what the build keeps plus its ``(1 + D, N)`` inputs — not
  the five lattices a one-expression equilibrium pushes through
  temporaries;
* the figures the ``porous2d`` and ``box3d`` benchmark problems are
  pinned at, and the dense neighbour-table cache a sparse run leaves
  empty;
* the two rewrites that pay for it change no bit: the masked table built
  from the fluid rows against an oracle cut out of a dense
  :class:`NeighborTable`, and the blocked equilibria against one block.
"""

import gc
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.accel import MaskedNeighborTable, NeighborTable
from repro.boundary import FullwayBounceBack
from repro.core import blocking, equilibrium, equilibrium_moments
from repro.lattice import get_lattice
from repro.service.registry import setup_problem
from repro.solver.presets import make_solver

MB = 1e6
SCHEMES = ("ST", "MR-P", "MR-R")


def traced_build(kind, scheme, lattice, shape, backend, steps,
                 boundaries=None, **options):
    """Build and step one problem under ``tracemalloc``.

    ``boundaries`` replaces the kind's own (unbound) boundary list.

    The problem's own arrays (geometry, masks, unbound boundary objects,
    the caller's ``u0``) exist before tracing starts; what is counted is
    what the *solver* allocates. Returns ``(solver, build_live,
    build_peak, live)`` in bytes: held when the constructor returns, the
    peak inside it, and held after ``steps`` steps.
    """
    lat, setup = setup_problem(kind, lattice, shape, 0.8, **options)
    setup.domain.solid_mask, setup.domain.fluid_mask       # cached masks
    if boundaries is None:
        boundaries = setup.boundaries(0, 1)
    gc.collect()
    tracemalloc.start()
    try:
        base, _ = tracemalloc.get_traced_memory()
        solver = make_solver(scheme, lat, setup.domain, 0.8,
                             boundaries=boundaries, rho0=setup.rho0,
                             u0=setup.u0, force=setup.force, backend=backend)
        build_live, build_peak = tracemalloc.get_traced_memory()
        solver.run(steps)
        gc.collect()
        live, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return solver, build_live - base, build_peak - base, live - base


def problem_bytes(solver) -> int:
    """Grid-scale arrays the problem, not the backend, makes a run hold:
    the dense body force and the link lists a dense bounce-back hook
    built (a sparse run holds its force compact and builds no links)."""
    held = (0 if solver._force is None or solver._table is not None
            else solver._force.nbytes)  # a compact force is the row's
    for b in solver.boundaries:
        targets = (getattr(b, "_links", None) or ([], []))[0]
        held += sum(a.nbytes for idx in targets for a in idx or ())
    return held


# -- the table ---------------------------------------------------------------

#: 66 chunks of D2Q9: a lattice is 66 x the chunk-wide buffers' unit.
SHAPE = (768, 352)
_U0 = 0.02 * np.random.default_rng(0).standard_normal((2, *SHAPE)).clip(-1, 1)
#: row of the table -> (backend, problem kind, its options, expected path)
ROWS = {
    "fused-lean": ("fused", "periodic", {"u0": _U0}, "lean"),
    # walls, inlet and outlet ride in the window ...
    "fused-walled": ("fused", "channel", {}, "lean"),
    # ... a post-collide hook (full-way bounce-back) needs whole lattices
    "fused-bounded": ("fused", "forced-channel",
                      {"boundaries": [FullwayBounceBack()]}, "bounded"),
    "aa": ("aa", "periodic", {"u0": _U0}, "lean"),
    "sparse-lean": ("sparse", "porous",
                    {"solid_fraction": 0.7, "seed": 3}, "lean"),
}


def table_doubles_per_node(row: str, st_family: bool, q: int, m: int, d: int,
                           phi: float, links: float) -> float:
    """docs/ALGORITHMS.md, *Realized allocations*, as arithmetic.

    ``phi`` is the fluid fraction, ``links`` the solid-source links per
    dense node (``<= (Q - 1) phi``), ``d`` the force rows (0 unforced).
    """
    if row in ("fused-lean", "fused-walled"):
        return q if st_family else m
    if row == "fused-bounded":
        return 2 * q if st_family else m + 2 * q
    if row == "aa":
        return 2 * q if st_family else m
    # sparse: compact fields (MR streams a chunk at a time: no streamed
    # field) and force, the folded gather; the node list, its inverse,
    # the solid-link lists
    compact = 2 * q + d if st_family else q + m + d
    return (compact + q) * phi + phi + 1 + links


@pytest.mark.parametrize("scheme", SCHEMES)
@pytest.mark.parametrize("row", ROWS)
def test_a_run_holds_what_the_table_says(row, scheme):
    backend, kind, options, path = ROWS[row]
    solver, build_live, build_peak, live = traced_build(
        kind, scheme, "D2Q9", SHAPE, backend, steps=2, **options)
    assert solver.accel_path == path
    lat, n = solver.lat, solver.domain.n_nodes
    q, m = lat.q, lat.n_moments
    node = 8 * n                                # one double per node
    table = getattr(solver._stepper.core, "table", None)
    links = (0 if table is None
             else sum(x.size for x in table.solid_links) / n)
    figure = table_doubles_per_node(
        row, scheme == "ST", q, m, 0 if solver.force is None else lat.d,
        solver.domain.n_fluid / n, links)
    # Fixed slack, in (Q, _CHUNK) blocks whatever the grid: the chunk-wide
    # collide buffers (under 8) and the sliding window — at most three
    # slabs of _SLAB_CHUNKS chunks, these planes being smaller than one.
    # Half a lattice here, so a figure off by one lattice fails either way.
    slack = (8 + 3 * blocking._SLAB_CHUNKS) * q * blocking._CHUNK * 8
    held = live - problem_bytes(solver)
    assert held <= figure * node + slack
    # ... and the table is not padded: what it lists is really there.
    assert held >= figure * node
    # A build peaks at what it keeps plus its (1 + D, N) inputs — on
    # sparse the fluid nodes' alone: the initial state is written block
    # by block, so no further lattice ever exists beside it.
    inputs = (1 + lat.d) * (solver.domain.n_fluid if table else n) * 8
    assert build_peak <= build_live + inputs + slack


# -- the benchmark problems ----------------------------------------------------

class TestBenchmarkProblems:
    """The figures ISSUE 20 measured on perfbench's own problems."""

    @pytest.mark.parametrize("scheme,live_mb,peak_mb", [
        ("ST", 35, 39), ("MR-P", 38, 41)])
    def test_porous2d(self, scheme, live_mb, peak_mb):
        """D2Q9 768^2, 88,714 fluid nodes: live after the first step was
        202 MB (ST) / 188 (MR-P), 85 MB of it a cached dense table, then
        102 / 89 with a dense state, force and link lists beside the
        compact ones (measured 33.7 / 31.0 now: MR streams no field); the
        ST build peaked at 215, then 78 MB (now 37.2)."""
        solver, _, build_peak, live = traced_build(
            "porous", scheme, "D2Q9", (768, 768), "sparse", steps=1,
            solid_fraction=0.85, seed=1, force_x=1e-6)
        assert solver.accel_path == "lean"
        assert live <= live_mb * MB
        assert build_peak <= peak_mb * MB
        assert problem_bytes(solver) == 0
        # No dense-node-sized float array, not even for a moment: the
        # build peaks at its table row, the compact inputs (and the D
        # coordinate rows they are gathered at) and the chunk-wide
        # buffers — less than one (N,) row of doubles more.
        lat, n = solver.lat, solver.domain.n_nodes
        phi = solver.domain.n_fluid / n
        links = sum(x.size for x in solver._table.solid_links) / n
        figure = table_doubles_per_node("sparse-lean", scheme == "ST", lat.q,
                                        lat.n_moments, lat.d, phi, links)
        chunks = 8 * lat.q * blocking._CHUNK * 8
        assert chunks < 8 * n
        assert build_peak <= (figure + (1 + 2 * lat.d) * phi) * 8 * n + chunks

    def test_box3d_st_build(self):
        """D3Q19 64^3 ST: a 40 MB lattice used to peak at 172 MB."""
        u0 = 0.02 * np.random.default_rng(0).standard_normal(
            (3, 64, 64, 64)).clip(-1, 1)
        _, build_live, build_peak, _ = traced_build(
            "periodic", "ST", "D3Q19", (64, 64, 64), "fused", steps=0, u0=u0)
        assert build_live >= 19 * 64 ** 3 * 8
        assert build_peak <= 60 * MB


# -- the masked table, built from the fluid rows -------------------------------

def oracle_table(lat, solid):
    """``(src, src_comp, flat_compact, solid_links)`` cut out of a dense
    :class:`NeighborTable` — how the masked table was built before."""
    fluid_flat = np.flatnonzero(~solid.ravel())
    n = fluid_flat.size
    dense_to_compact = np.full(solid.size, -1, dtype=np.intp)
    dense_to_compact[fluid_flat] = np.arange(n)
    src_dense = NeighborTable(lat, solid.shape).src[:, fluid_flat]
    src = dense_to_compact[src_dense]
    src_comp = np.repeat(np.arange(lat.q), n).reshape(lat.q, n)
    links = [np.flatnonzero(solid.ravel()[src_dense[q]])
             for q in range(lat.q)]
    for q in range(lat.q):
        src[q, links[q]] = links[q]
        src_comp[q, links[q]] = lat.opposite[q]
    return src, src_comp, (src_comp * n + src).ravel(), links


EXTENTS = st.sampled_from([1, 2, 3, 4, 5, 7, 11, 13])


@st.composite
def lattice_and_mask(draw):
    """A lattice, a grid with thin / prime / extent-1 / extent-2 axes, and
    an all-fluid, one-fluid-node, checkerboard or seeded random mask."""
    lat = get_lattice(draw(st.sampled_from(
        ["D2Q9", "D3Q19", "D3Q27", "D3Q39"])))
    shape = tuple(draw(EXTENTS) for _ in range(lat.d))
    kind = draw(st.sampled_from(["all-fluid", "one-fluid", "checker",
                                 "random"]))
    if kind == "all-fluid":
        solid = np.zeros(shape, dtype=bool)
    elif kind == "one-fluid":
        solid = np.ones(shape, dtype=bool)
        solid.flat[draw(st.integers(0, solid.size - 1))] = False
    elif kind == "checker":
        solid = np.indices(shape).sum(axis=0) % 2 == draw(st.integers(0, 1))
    else:
        rng = np.random.default_rng(draw(st.integers(0, 2 ** 31 - 1)))
        solid = rng.random(shape) < draw(st.floats(0.0, 0.95))
    if solid.all():
        solid.flat[0] = False
    return lat, solid


class TestMaskedTableFromFluidRows:
    @given(lattice_and_mask())
    @settings(max_examples=150, deadline=None)
    def test_equals_the_dense_table_oracle(self, lm):
        lat, solid = lm
        table = MaskedNeighborTable(lat, solid)
        src, src_comp, flat_compact, links = oracle_table(lat, solid)
        for got, want in ((table.src, src), (table.src_comp, src_comp),
                          (table.flat_compact, flat_compact)):
            assert got.dtype == np.intp and got.shape == want.shape
            assert np.array_equal(got, want)
        assert len(table.solid_links) == lat.q
        for got, want in zip(table.solid_links, links):
            assert got.dtype == np.intp and np.array_equal(got, want)

    def test_builds_no_dense_table(self, monkeypatch):
        """Neither through the cache nor beside it."""
        def refuse(*args, **kwargs):
            raise AssertionError("a masked table built a dense one")
        monkeypatch.setattr(NeighborTable, "__init__", refuse)
        solid = np.random.default_rng(4).random((9, 7)) < 0.5
        MaskedNeighborTable(get_lattice("D2Q9"), solid)


# -- blocked initial states ------------------------------------------------------

@pytest.mark.parametrize("fn", [equilibrium, equilibrium_moments],
                         ids=lambda fn: fn.__name__)
@pytest.mark.parametrize("lattice_name,shape", [
    ("D2Q9", (13, 9)), ("D2Q9", (37, 23)), ("D3Q19", (7, 6, 5)),
    ("D3Q27", (5, 3, 7)), ("D3Q39", (4, 5, 3)), ("D2Q9", (1, 65)),
])
def test_blocked_equals_one_block(monkeypatch, fn, lattice_name, shape):
    """Cut into blocks of 8, 32 (neither divides ``N``) or ``N`` nodes,
    the expressions are the whole-field ones, bit for bit."""
    lat = get_lattice(lattice_name)
    rng = np.random.default_rng(7)
    rho = 1.0 + 0.1 * rng.standard_normal(shape)
    u = 0.05 * rng.standard_normal((lat.d, *shape))
    n = rho.size
    monkeypatch.setattr(blocking, "_CHUNK", n)
    whole = fn(lat, rho, u)
    for chunk in (8, 32, n - 1):
        assert n % chunk
        monkeypatch.setattr(blocking, "_CHUNK", chunk)
        assert np.array_equal(fn(lat, rho, u), whole)


def test_the_solvers_start_from_the_blocked_state(monkeypatch):
    """``_initialize`` is those two calls: blocked and one-block builds of
    the same problem start bit-identical."""
    u0 = 0.03 * np.random.default_rng(2).standard_normal((2, 21, 19))
    states = {}
    for chunk in (16, 10 ** 9):
        monkeypatch.setattr(blocking, "_CHUNK", chunk)
        for scheme in SCHEMES:
            lat, setup = setup_problem("periodic", "D2Q9", (21, 19), 0.8,
                                       u0=u0, rho0=1.0)
            solver = make_solver(scheme, lat, setup.domain, 0.8,
                                 rho0=setup.rho0, u0=setup.u0)
            states[chunk, scheme] = (solver.f if scheme == "ST"
                                     else solver.m)
    for scheme in SCHEMES:
        assert np.array_equal(states[16, scheme], states[10 ** 9, scheme])
