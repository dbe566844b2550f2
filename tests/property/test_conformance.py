"""The conformance matrix: every backend against one oracle, by one rule.

The cells are generated, never listed: every registered problem kind
(:func:`~repro.service.registry.problem_kinds`) × scheme × lattice ×
backend (:data:`repro.accel.BACKENDS`) × mode — single-domain, 1, 2 or
3 emulated ranks, or 2 ranks on the process runtime — on the lattice's
grid of :data:`SHAPES`, and a kind whose grid rule refuses those on its
own grid of :data:`GRIDS` as well (``schafer-turek``: d = 4 on D2Q9). A
kind registered later, or a backend added to or dropped from
``BACKENDS``, changes the cells without an edit here; every kind is
stepped somewhere. A cell is *refused* where the registry says so (a
kind without a distributed form, a setup that rejects the lattice or
the grid), and must then fail with one ``ValueError`` text at every
door that builds it: ``build_single`` / ``build_distributed``,
``RunSpec``, ``mrlbm run`` and the job server's ``spec_from_dict``.

Every admitted cell is stepped ``STEPS`` times from the kind's own
initial state (an option named ``rho0``, ``u0`` or ``force`` gets a
seeded field, so periodic boxes move and are forced), and

* agrees with the same cell on every other backend — its fields and its
  kind's run results (the Schäfer–Turek drag and lift) — and, every rank
  count, with the single-domain run of the same options (a decomposed
  kind is its single-domain problem cut into slabs), by the tolerance
  rule below;
* on a fast backend, single-domain and on two ranks: steps the same
  with the window's chunk lowered to ``CHUNK`` nodes, so that it slides
  over several slabs, as in one slab (a slab cut is a column cut);
* conserves mass on a domain closed along axis 0 and gains exactly
  ``N F`` of momentum per step where no boundary acts;
* single-domain: resumes from a checkpoint taken at an even and at an
  odd step, on its own backend and on the next one, and steps the same
  when its state is read after every step; on the process runtime:
  resumes a cohort's checkpoint on 3 ranks, a single domain's on 3
  ranks and a cohort's on a single domain (one checkpoint format);
* on a periodic box: stepping the state shifted by whole nodes (a
  translation of the Galilean group) is the stepped state shifted;
* reports the ``accel_path`` and ``state_lattices`` of the table in
  docs/PERFORMANCE.md (*Which path a problem takes*), single-domain and
  on each rank of two.

Two checks need no oracle: the lattice's mirror and rotation symmetry,
and the idempotence of the regularisation every MR backend steps with
(Latt & Chopard). A hypothesis test re-runs random cells on thin, prime,
slab ± 1 extents whose cross-section is not a multiple of eight, with
the window's chunk lowered so that small grids slide.

The ``check_*`` functions are the columns; suites that pin a case of
their own (another grid, a kind option the matrix does not seed — a
cell's ``extra``) call them on cells of their own. Added when the
per-backend parity suites were folded in: the window column
(:func:`check_window`, ``test_window_slides_alike``, and in the random
extents), the run-results agreement of :func:`check_backends_agree`,
the :data:`GRIDS` cells, the ``extra`` options axis and
``test_every_kind_is_stepped``.

The tolerance rule
------------------
Two runs of one cell agree **bit for bit** when they cut every BLAS
product into the same columns; otherwise to ``ULPS`` machine epsilons
per step of the compared values' magnitude (a sum over nodes: of the
summed values'). Same columns means:

* ``reference`` against ``reference``, in any decomposition: its
  ``einsum`` contractions cut nothing;
* the same layout cut into the same pieces: dense cores stepping the
  same slabs of the same ranks (two dense backends, or a run and its
  process-runtime twin), compact cores the same fluid columns in the
  same chunks;
* dense layouts cut anywhere, when the leading-axis plane is a multiple
  of eight nodes. Elsewhere BLAS rounds the last ``n mod 8`` columns of
  a product by another kernel, and a slab or rank cut moves which nodes
  those are.

A compact core (fluid columns over a ``MaskedNeighborTable``) cuts its
products over ``n_fluid`` columns and ``reference`` contracts with
``einsum``: against any other layout they are held to the tolerance.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import os
import re
import tempfile
from dataclasses import dataclass, replace
from functools import cache
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

import repro.accel.fused as fused
from repro.accel import BACKENDS, MaskedNeighborTable
from repro.boundary import HalfwayBounceBack
from repro.cli import main as cli_main
from repro.core.equilibrium import equilibrium
from repro.core.moments import f_from_moments, macroscopic, moments_from_f
from repro.core.regularization import (
    hermite_delta_higher_order, hermite_delta_second_order, pi_neq_cols_from_f,
    recursive_a3_neq_cols, recursive_a4_neq_cols, regularize_projective)
from repro.geometry import Domain
from repro.io import load_slabs, resolve_resume, save_slabs, seal_checkpoint
from repro.lattice import get_lattice
from repro.parallel import ProcessRuntime, RunSpec
from repro.parallel.runtime import problem_identity
from repro.service.jobs import spec_from_dict
from repro.service.registry import (ProblemKind, build_distributed,
                                    build_single, get_problem, problem_kinds,
                                    register_problem, setup_problem)
from repro.solver import SCHEMES as SOLVERS
from repro.solver import make_solver

SCHEMES = tuple(SOLVERS)
#: one cross-section a multiple of eight nodes, one not
SHAPES = {"D2Q9": (13, 8), "D3Q19": (9, 5, 4)}
#: kinds whose grid rule refuses ``SHAPES``: the grid they are stepped on
#: too, and the path table's (``schafer-turek``: d = 4 on D2Q9)
GRIDS = {"schafer-turek": (88, 18)}
MODES = ("single", "emulated-1", "emulated-2", "emulated-3", "process-2")
TAU, STEPS = 0.8, 5
#: the window's chunk where a cell slides (one chunk to a slab)
CHUNK = 16

# -- the tolerance rule (module docstring) ------------------------------------

ULPS = 64
EPS = float(np.finfo(np.float64).eps)


def tolerance(steps: int = STEPS, scale: float = 1.0) -> float:
    """What two runs that may round differently may differ by: ``ULPS``
    epsilons per step of the magnitude ``scale`` (at least 1)."""
    return ULPS * EPS * steps * max(scale, 1.0)


def assert_agree(a, b, exact: bool, steps: int = STEPS, scale=None):
    """``a`` agrees with ``b`` bit for bit, or to :func:`tolerance` of
    ``scale`` (default: the largest magnitude in ``b``)."""
    a, b = np.asarray(a), np.asarray(b)
    worst = float(np.abs(a - b).max()) if a.shape == b.shape else np.inf
    if exact:
        assert np.array_equal(a, b), f"not bit for bit: {worst:.2e}"
    else:
        bound = tolerance(steps, np.abs(b).max() if scale is None else scale)
        assert worst <= bound, f"{worst:.2e} > {bound:.2e}"


@dataclass
class Run:
    """What one stepped cell leaves behind."""

    before: np.ndarray          # (rho, u) stacked, before the first step
    after: np.ndarray           # ... after the last
    layout: str                 # "reference", "dense" or "compact"
    cuts: tuple                 # per rank: its core's slabs or fluid columns
    plane: int                  # nodes per leading-axis plane
    paths: tuple = ()           # "`accel_path` state_lattices" per rank
    state: np.ndarray | None = None     # solver.f / solver.m, single-domain
    results: dict | None = None         # the kind's run results, single


def bit_exact(a: Run, b: Run) -> bool:
    """The rule: whether two runs of one cell cut the same columns."""
    if a.layout != b.layout:
        return False
    if a.layout == "reference" or a.cuts == b.cuts:
        return True
    return a.layout == "dense" and a.plane % 8 == 0


# -- cells --------------------------------------------------------------------

@dataclass(frozen=True)
class Cell:
    """One point of the matrix; ``shape`` and ``chunk`` default to the
    lattice's :data:`SHAPES` and the shipped window constant."""

    kind: str
    scheme: str
    lattice: str
    backend: str
    mode: str = "single"
    shape: tuple | None = None
    chunk: int | None = None
    shift: tuple | None = None      # nodes the seeded fields are rolled by
    extra: tuple = ()               # (name, value) kind options, unseeded

    def __post_init__(self):
        if self.shape == SHAPES.get(self.lattice):     # the matrix's own cell
            object.__setattr__(self, "shape", None)

    @property
    def ranks(self) -> int:
        return 0 if self.mode == "single" else int(self.mode.split("-")[1])

    @property
    def grid(self) -> tuple:
        return self.shape or SHAPES[self.lattice]

    def __str__(self) -> str:
        extents = "x".join(map(str, self.grid))
        return "-".join([self.kind, self.scheme, self.lattice, extents,
                         self.backend, self.mode])


def cells() -> list[Cell]:
    """Every cell the registry, the schemes and ``BACKENDS`` span; a kind
    of :data:`GRIDS` on its own grid too, where it has the lattice's rank."""
    found = []
    for axes in itertools.product(problem_kinds(), SCHEMES, SHAPES,
                                  BACKENDS, MODES):
        found.append(Cell(*axes))
        grid = GRIDS.get(axes[0])
        if grid and len(grid) == len(SHAPES[axes[2]]):
            found.append(Cell(*axes, shape=grid))
    return found


def options(cell: Cell) -> dict:
    """The cell's kind options: seeded fields for the ones named below."""
    kind = get_problem(cell.kind)
    d, grid = get_lattice(cell.lattice).d, cell.grid
    rng = np.random.default_rng(7)
    seeded = {"rho0": lambda: 1 + 0.02 * rng.standard_normal(grid),
              "u0": lambda: 0.03 * rng.standard_normal((d, *grid)),
              "force": lambda: np.r_[1.2e-5, np.zeros(d - 1)]}
    made = {name: make() for name, make in seeded.items()
            if name in kind.options}
    for name, vector in (("rho0", 0), ("u0", 1)):
        if cell.shift and name in made:
            made[name] = np.roll(made[name], cell.shift,
                                 axis=(vector, vector + 1))
    return {**made, **dict(cell.extra)}


def refused(cell: Cell) -> bool:
    """Whether the registry refuses the cell (nothing is stepped)."""
    if cell.ranks and not get_problem(cell.kind).distributed:
        return True
    try:
        setup_problem(cell.kind, cell.lattice, cell.grid, TAU,
                      **options(cell))
    except ValueError:
        return True
    return False


def split(all_cells: list[Cell]) -> tuple[list[Cell], list[Cell]]:
    """``(admitted, refused)``."""
    verdicts = [refused(c) for c in all_cells]
    return ([c for c, no in zip(all_cells, verdicts) if not no],
            [c for c, no in zip(all_cells, verdicts) if no])


ADMITTED, REFUSED = split(cells())
SINGLE = [c for c in ADMITTED if c.mode == "single"]


def ids(cell_list):
    return pytest.mark.parametrize("cell", cell_list, ids=str)


# -- running a cell -----------------------------------------------------------

@contextlib.contextmanager
def window(chunk: int | None):
    """Step under a lowered window chunk (one chunk to a slab)."""
    saved = fused._CHUNK, fused._SLAB_CHUNKS
    if chunk:
        fused._CHUNK, fused._SLAB_CHUNKS = chunk, 1
    try:
        yield
    finally:
        fused._CHUNK, fused._SLAB_CHUNKS = saved


def columns(solvers) -> tuple[str, tuple]:
    """``(layout, cuts)`` of the cores that step ``solvers`` (the ranks)."""
    cores = [s._stepper.core for s in solvers if s._stepper is not None]
    if not cores:
        return "reference", ()
    tables = [getattr(c, "table", None) for c in cores]
    cuts = tuple((t.n_fluid, getattr(c, "_width", None))
                 if isinstance(t, MaskedNeighborTable)
                 else tuple(c._slabs) for c, t in zip(cores, tables))
    compact = any(isinstance(t, MaskedNeighborTable) for t in tables)
    return "compact" if compact else "dense", cuts


def fields(rho, u) -> np.ndarray:
    return np.concatenate([rho[None], u])


def assert_same_fields(run, clean) -> None:
    """A ``reference`` process run gathered ``clean``'s fields, bit for bit."""
    assert_agree(fields(run.rho, run.u), fields(clean.rho, clean.u),
                 exact=True)


def state_of(solver) -> np.ndarray:
    return solver.f if solver.name == "ST" else solver.m


def path_of(solver) -> str:
    return f"`{solver.accel_path}` {solver._stepper.core.state_lattices}"


def build(cell: Cell):
    """The cell's solver; a distributed cell's emulated solver."""
    if cell.ranks:
        return build_distributed(cell.kind, cell.scheme, cell.lattice,
                                 cell.grid, cell.ranks, tau=TAU,
                                 accel=cell.backend, **options(cell))
    return build_single(cell.kind, cell.scheme, cell.lattice, cell.grid,
                        tau=TAU, backend=cell.backend, **options(cell))


@cache
def run(cell: Cell) -> Run:
    """Step one cell ``STEPS`` times (cached: runs are deterministic)."""
    plane = int(np.prod(cell.grid[1:]))
    if cell.mode.startswith("process"):
        twin = run(replace(cell, mode=f"emulated-{cell.ranks}"))
        with window(cell.chunk):
            result = ProcessRuntime(spec(cell)).run(STEPS)
        assert not [n for n in os.listdir("/dev/shm")
                    if n.startswith("mrlbm")], "leaked shared memory"
        after = fields(result.rho, result.u)
        after.setflags(write=False)
        return replace(twin, after=after, paths=())
    with window(cell.chunk):
        solver = build(cell)
        if cell.ranks:
            before = fields(*solver.gather_macroscopic())
            solver.run(STEPS)
            ranks = solver.ranks
            after = fields(*solver.gather_macroscopic())
        else:
            before = fields(*solver.macroscopic())
            ranks = [solver.run(STEPS)]
            after = fields(*solver.macroscopic())
    paths = tuple(path_of(r) for r in ranks if r._stepper is not None)
    state = None if cell.ranks else state_of(solver).copy()
    for array in (before, after, state):     # one result for every caller
        if array is not None:
            array.setflags(write=False)
    return Run(before, after, *columns(ranks), plane, paths, state,
               None if cell.ranks else solver.results())


def spec(cell: Cell) -> RunSpec:
    return RunSpec(cell.kind, cell.scheme, cell.lattice, cell.grid,
                   cell.ranks, tau=TAU, accel=cell.backend,
                   options=options(cell))


# -- the checks (the columns; other suites call them on cells of their own) ---

def check_backends_agree(cell: Cell) -> None:
    """The cell agrees with itself on every backend, by the rule: its
    fields and its kind's run results (``schafer-turek``: the drag)."""
    mine = run(cell)
    for backend in BACKENDS:
        other = run(replace(cell, backend=backend))
        assert_agree(mine.after, other.after, bit_exact(mine, other))
        if mine.results:
            assert_agree(list(mine.results.values()),
                         list(other.results.values()), bit_exact(mine, other))


def check_window(cell: Cell, chunk: int = CHUNK) -> None:
    """The window sliding over slabs of ``chunk`` nodes is the cell's
    one-slab step, by the rule (a slab cut is a column cut), fields and
    state."""
    slid, whole = (run(replace(cell, chunk=c)) for c in (chunk, None))
    if whole.layout == "dense":
        assert all(len(slabs) == 1 for slabs in whole.cuts)
    exact = bit_exact(slid, whole)
    assert_agree(slid.after, whole.after, exact)
    if whole.state is not None:
        assert_agree(slid.state, whole.state, exact)


def check_rank_counts_agree(cell: Cell) -> None:
    """A decomposed cell is its single-domain run, by the rule."""
    mine = run(cell)
    single = run(replace(cell, mode="single"))
    assert_agree(mine.after, single.after, bit_exact(mine, single))
    if cell.mode.startswith("process"):
        twin = run(replace(cell, mode=f"emulated-{cell.ranks}"))
        assert np.array_equal(mine.after, twin.after)


def check_conservation(cell: Cell) -> None:
    """Mass on a domain closed along axis 0; ``N F`` of momentum per step
    where no boundary acts."""
    lat, setup = setup_problem(cell.kind, cell.lattice, cell.grid, TAU,
                               **options(cell))
    mine = run(cell)
    nodes = int(np.prod(cell.grid))
    if setup.periodic_axis0:
        assert_agree(mine.after[0].sum(), mine.before[0].sum(), False)
    if setup.periodic_axis0 and not setup.boundaries(0, 1):
        axes = tuple(range(1, lat.d + 1))
        momenta = [f[0] * f[1:] for f in (mine.after, mine.before)]
        gained = momenta[0].sum(axis=axes) - momenta[1].sum(axis=axes)
        force = np.zeros(lat.d) if setup.force is None else setup.force
        per_node = np.reshape(force, (lat.d, -1)).mean(axis=1)
        assert_agree(gained, STEPS * nodes * per_node, False,
                     scale=np.abs(momenta[1]).sum())


def identity(solver) -> dict:
    """A single domain's problem: its scheme, lattice, shape and tau."""
    return problem_identity("", solver.name, solver.lat.name,
                            solver.domain.shape, solver.tau, {})


def save(solver, root, ident=None) -> Path:
    """Checkpoint a single domain after its ``time`` steps: one slab."""
    save_slabs(root, solver.time, solver)
    return seal_checkpoint(root, solver.time, ident or identity(solver))


def restore(root, solver, stop: int = STEPS, ident=None):
    """``solver`` resumed from the checkpoint under ``root`` for a run of
    ``stop`` steps in all; refused as a process resume would be."""
    found, solver.time = resolve_resume(root, stop, ident or identity(solver))
    load_slabs(found, solver)
    return solver


def check_resume(cell: Cell, at: int, target: str) -> None:
    """Save at step ``at`` on the cell's backend, restore (``tau_field``
    too) on ``target``, finish: it is the straight run, by the rule."""
    with window(cell.chunk), tempfile.TemporaryDirectory() as tmp:
        save(first := build(cell).run(at), tmp)
        resumed = restore(tmp, build(replace(cell, backend=target)))
        assert resumed.time == at
        assert np.array_equal(state_of(resumed), state_of(first))
        assert np.array_equal(getattr(resumed, "tau_field", 0),
                              getattr(first, "tau_field", 0))
        resumed.run(STEPS - at)
    straight = run(replace(cell, backend=target))
    assert_agree(state_of(resumed), straight.state,
                 bit_exact(run(cell), straight))


def check_process_resume(cell: Cell, ranks: int, at: int = 3,
                         every: int | None = None) -> None:
    """A process cohort checkpointed at step ``at`` (every ``every``)
    and resumed on ``ranks`` processes is the straight run, by the rule."""
    with window(cell.chunk), tempfile.TemporaryDirectory() as tmp:
        ProcessRuntime(replace(spec(cell), checkpoint_dir=tmp,
                               checkpoint_every=every or at)).run(at + 1)
        result = ProcessRuntime(replace(spec(cell), n_ranks=ranks,
                                        resume_from=tmp)).run(STEPS)
    assert result.start_step == at - at % (every or at)
    read = run(replace(cell, mode=f"emulated-{ranks}"))
    assert_agree(fields(result.rho, result.u), run(cell).after,
                 bit_exact(run(cell), read))


def check_resume_across_paths(cell: Cell, at: int = 3) -> None:
    """A single domain's checkpoint resumed on 3 process ranks, a 2-rank
    cohort's on a single domain: the straight single run, by the rule."""
    single, ident = replace(cell, mode="single"), spec(cell).record("single")
    with window(cell.chunk), tempfile.TemporaryDirectory() as one, \
            tempfile.TemporaryDirectory() as two:
        save(build(single).run(at), one, ident)
        three = ProcessRuntime(replace(spec(cell), n_ranks=3,
                                       resume_from=one)).run(STEPS)
        ProcessRuntime(replace(spec(cell), checkpoint_dir=two,
                               checkpoint_every=at)).run(at + 1)
        back = restore(two, build(single), ident=ident).run(STEPS - at)
    assert_agree(fields(three.rho, three.u), run(single).after, bit_exact(
        run(single), run(replace(cell, mode="emulated-3"))))
    assert_agree(state_of(back), run(single).state,
                 bit_exact(run(cell), run(single)))


def check_shift(cell: Cell, shift=(5, 3)) -> None:
    """A periodic box stepped from its fields rolled by whole nodes is
    its stepped fields rolled alike; bit for bit on ``reference``."""
    moved = run(replace(cell, shift=shift)).after
    assert_agree(moved, np.roll(run(cell).after, shift, axis=(1, 2)),
                 cell.backend == BACKENDS[0])


def check_looking_changes_nothing(cell: Cell) -> None:
    """Reading the state after every step is the blind run, bit for bit."""
    with window(cell.chunk):
        solver = build(cell)
        for _ in range(STEPS):
            solver.run(1)
            state_of(solver)
            solver.macroscopic()
    assert np.array_equal(state_of(solver), run(cell).state)


# -- the path table -----------------------------------------------------------

FAST = BACKENDS[1:]
#: table column of (scheme is ST, mode)
COLUMN = {(True, "single"): 0, (False, "single"): 1,
          (True, "rank of 2"): 2, (False, "rank of 2"): 3}


def documented() -> dict:
    """``{(kind, backend): [cell, cell, cell, cell]}`` of the doc table."""
    text = (Path(__file__).parents[2] / "docs" / "PERFORMANCE.md").read_text(
        encoding="utf-8")
    table = text.split("<!-- accel_path table -->")[1].split("\n\n")[0]
    rows = re.findall(r"^\| `?([^|`]+)`? \| `(\w+)` \|(.*)\|$", table, re.M)
    return {(kind, backend): [c.strip() for c in cells.split("|")]
            for kind, backend, cells in rows}


TABLE = documented()


def check_table_covers_every_kind() -> None:
    assert sorted(TABLE) == sorted((k, b) for k in problem_kinds()
                                   for b in FAST)


def documented_path(kind: str, scheme: str, backend: str, mode: str) -> str:
    """The table cell of ``kind`` × ``backend`` (``mode``: "single" or
    "rank of 2")."""
    return TABLE[kind, backend][COLUMN[scheme == "ST", mode]]


def check_path(kind: str, scheme: str, backend: str, mode: str) -> None:
    """The documented path is what the solvers report after two steps, on
    the 48×16 D2Q9 grid the table was written for (a kind of
    :data:`GRIDS`: its own grid)."""
    expected = documented_path(kind, scheme, backend, mode)
    shape = GRIDS.get(kind, (48, 16))
    if expected == "refused":
        with pytest.raises(ValueError, match="no distributed form"):
            build_distributed(kind, scheme, "D2Q9", shape, 2,
                              accel=backend)
        return
    elif mode == "single":
        solvers = [build_single(kind, scheme, "D2Q9", shape,
                                backend=backend).run(2)]
    else:
        solvers = build_distributed(kind, scheme, "D2Q9", (48, 16), 2,
                                    accel=backend).run(2).ranks
    assert [path_of(s) for s in solvers] == [expected] * len(solvers)


# -- refusals -----------------------------------------------------------------

def refusals(cell: Cell) -> dict:
    """The message every door that builds ``cell`` fails with."""
    said = {}

    def door(name, attempt):
        try:
            attempt()
        except ValueError as err:
            said[name] = str(err)
        else:
            said[name] = None

    def cli():
        argv = ["run", "--problem", cell.kind, "--scheme", cell.scheme,
                "--lattice", cell.lattice, "--shape",
                ",".join(map(str, cell.grid)), "--steps", "1",
                "--accel", cell.backend]
        if cell.ranks:
            argv += ["--ranks", str(cell.ranks),
                     "--backend", cell.mode.split("-")[0]]
        err = io.StringIO()
        with contextlib.redirect_stderr(err), \
                contextlib.redirect_stdout(io.StringIO()):
            assert cli_main(argv) == 2
        line = err.getvalue()
        assert line.startswith("ERROR: ") and line.count("\n") == 1, line
        raise ValueError(line[len("ERROR: "):-1])

    door("builder", lambda: build(cell))
    door("cli", cli)
    if cell.ranks:
        door("RunSpec", lambda: spec(cell).build())
        door("spec_from_dict", lambda: spec_from_dict({
            "kind": cell.kind, "scheme": cell.scheme,
            "lattice": cell.lattice, "shape": list(cell.grid),
            "n_ranks": cell.ranks, "accel": cell.backend, "steps": 1,
        })[0].build())
    return said


# -- the matrix ---------------------------------------------------------------

@ids(ADMITTED)
def test_backends_agree(cell):
    check_backends_agree(cell)


@ids([c for c in ADMITTED if c.ranks])
def test_rank_counts_agree(cell):
    check_rank_counts_agree(cell)


@ids([c for c in ADMITTED if not c.mode.startswith("process")])
def test_conservation(cell):
    check_conservation(cell)


@pytest.mark.parametrize("at", [2, 3], ids=["even", "odd"])
@ids(SINGLE)
def test_resume(cell, at):
    nxt = BACKENDS[(BACKENDS.index(cell.backend) + 1) % len(BACKENDS)]
    for target in (cell.backend, nxt):
        check_resume(cell, at, target)


@ids([c for c in ADMITTED if c.mode == "process-2" and c.lattice == "D2Q9"
      and c.backend == BACKENDS[0]])
def test_process_resume_on_another_rank_count(cell):
    check_process_resume(cell, 3)
    check_resume_across_paths(cell)


@ids([c for c in ADMITTED if not c.mode.startswith("process")
      and {"rho0", "u0"} <= set(get_problem(c.kind).options)])
def test_shifted_periodic_box(cell):
    check_shift(cell)


@ids(SINGLE)
def test_looking_changes_nothing(cell):
    check_looking_changes_nothing(cell)


@ids([c for c in ADMITTED if c.backend != BACKENDS[0]
      and c.mode in ("single", "emulated-2")])
def test_window_slides_alike(cell):
    check_window(cell)


def test_every_kind_is_stepped():
    """A kind no cell admits would be checked by refusals alone."""
    assert {c.kind for c in ADMITTED} == set(problem_kinds())


@ids([c for c in ADMITTED if c.backend != BACKENDS[0]
      and c.mode in ("single", "emulated-2")])
def test_path_is_documented(cell):
    mode = "single" if cell.mode == "single" else "rank of 2"
    expected = documented_path(cell.kind, cell.scheme, cell.backend, mode)
    assert run(cell).paths == (expected,) * max(cell.ranks, 1)


@ids(REFUSED)
def test_refused_alike_at_every_door(cell):
    said = refusals(cell)
    assert None not in said.values(), said
    assert len(set(said.values())) == 1, said


@pytest.mark.xfail(strict=True, reason="the schafer-turek grid rule admits "
                   "(17, 5), whose cylinder cuts no link (CHANGES.md FOUND)")
def test_a_small_cylinder_is_refused_alike_at_every_door():
    """``RunSpec`` (a job's submit check) too; until then the random
    extents draw no :data:`GRIDS` kind."""
    cell = Cell("schafer-turek", "ST", "D2Q9", BACKENDS[0], shape=(17, 5))
    said = {**refusals(cell), "RunSpec": None}
    try:
        RunSpec(cell.kind, cell.scheme, cell.lattice, cell.grid, 1, tau=TAU)
    except ValueError as err:
        said["RunSpec"] = str(err)
    assert len(set(said.values())) == 1, said


def test_a_registered_kind_joins_the_matrix():
    """No edit here: a kind the registry learns is checked like the rest."""
    periodic = get_problem("periodic")
    name = "conformance-probe"
    register_problem(ProblemKind(name, "a throwaway kind", periodic.setup,
                                 distributed=False))
    try:
        admitted, refused = split([c for c in cells() if c.kind == name])
        assert {c.mode for c in admitted} == {"single"}
        assert len(admitted) == len(SCHEMES) * len(SHAPES) * len(BACKENDS)
        assert {c.mode for c in refused} == set(MODES) - {"single"}
        check_backends_agree(replace(admitted[0], backend=BACKENDS[-1]))
        assert len(set(refusals(refused[0]).values())) == 1
    finally:
        from repro.service import registry

        del registry._REGISTRY[name]


# -- oracle-free checks -------------------------------------------------------

def regularize(lat, scheme: str, f: np.ndarray) -> np.ndarray:
    """The scheme's regularisation: projective (MR-P) or recursive (MR-R)."""
    if scheme == "MR-P":
        return regularize_projective(lat, f)
    rho, u = macroscopic(lat, f)
    pi_neq = pi_neq_cols_from_f(lat, f, rho, u)
    return (equilibrium(lat, rho, u) + hermite_delta_second_order(lat, pi_neq)
            + hermite_delta_higher_order(lat, recursive_a3_neq_cols(
                lat, u, pi_neq), recursive_a4_neq_cols(lat, u, pi_neq)))


@ids([c for c in SINGLE if c.scheme != "ST"])
def test_regularisation_is_idempotent(cell):
    """The moments a backend keeps lie in the regularised subspace: the
    scheme's regularisation of their reconstruction is a projection that
    returns the same moments, and applied twice is applied once."""
    lat = get_lattice(cell.lattice)
    m = run(cell).state
    once = regularize(lat, cell.scheme, f_from_moments(lat, m))
    assert_agree(moments_from_f(lat, once), m, False, steps=1)
    assert_agree(regularize(lat, cell.scheme, once), once, False, steps=1)


def mirrored(x: np.ndarray, axis: int, vector: bool) -> np.ndarray:
    """Reflect a scalar or ``(D, *grid)`` vector field across ``axis``."""
    y = np.flip(x, axis=axis + vector).copy()
    if vector:
        y[axis] *= -1
    return y


def swapped(x: np.ndarray, vector: bool) -> np.ndarray:
    """Exchange grid axes 0 and 1 (and the two velocity components)."""
    y = np.swapaxes(x, vector, vector + 1).copy()
    if vector:
        y[[0, 1]] = y[[1, 0]]
    return y


def rotated(x: np.ndarray, vector: bool) -> np.ndarray:
    """A quarter turn in the plane of axes 0 and 1."""
    return mirrored(swapped(x, vector), 0, vector)


def symmetries(d: int) -> dict:
    """The reflections across each axis and a quarter turn."""
    return {**{f"mirror-{a}": (lambda x, v, a=a: mirrored(x, a, v))
               for a in range(d)}, "rotate": rotated}


@pytest.mark.parametrize("lattice,symmetry", [
    (lattice, move) for lattice in SHAPES
    for move in symmetries(get_lattice(lattice).d)])
@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("scheme", SCHEMES)
def test_lattice_symmetry(scheme, backend, lattice, symmetry):
    """Stepping a reflected (rotated) forced state among random
    bounce-back obstacles is the reflection (rotation) of stepping it."""
    lat, grid = get_lattice(lattice), SHAPES[lattice]
    g = symmetries(lat.d)[symmetry]
    rng = np.random.default_rng(5)
    solid = rng.random(grid) < 0.15
    rho0 = 1 + 0.02 * rng.standard_normal(grid)
    u0 = 0.03 * rng.standard_normal((lat.d, *grid))
    force = np.broadcast_to(np.r_[1e-5, 2e-6, np.zeros(lat.d - 2)][
        (slice(None),) + (None,) * lat.d], (lat.d, *grid))

    def stepped(solid, rho0, u0, force):
        return make_solver(scheme, lat, Domain(solid.astype(np.int8)), TAU,
                           boundaries=[HalfwayBounceBack()],
                           rho0=rho0, u0=u0, force=force,
                           backend=backend).run(STEPS).macroscopic()

    rho, u = stepped(solid, rho0, u0, force)
    rho_g, u_g = stepped(g(solid, False), g(rho0, False), g(u0, True),
                         g(force, True))
    assert_agree(fields(rho_g, u_g), fields(g(rho, False), g(u, True)), False)


# -- random extents -----------------------------------------------------------

#: cross-sections, none a multiple of eight nodes
TAILS = {"D2Q9": [(5,), (6,), (7,), (9,), (11,), (13,)],
         "D3Q19": [(4, 5), (5, 5), (5, 6), (4, 7)]}


@given(data=st.data())
@settings(max_examples=40, deadline=None)
def test_random_extents(data):
    """A random cell on a thin, prime or slab ± 1 leading extent, the
    window sliding over one ``CHUNK`` to a slab: it agrees with every
    backend and its rank counts, slides as it steps in one slab, and
    reading it changes nothing."""
    lattice = data.draw(st.sampled_from(list(TAILS)))
    tail = data.draw(st.sampled_from(TAILS[lattice]))
    slab = max(1, CHUNK // int(np.prod(tail)))
    n0 = data.draw(st.one_of(
        st.sampled_from([3, 4, 5, 7, 11, 13, 17, 19, 23]),
        st.builds(lambda k, off: k * slab + off, st.integers(2, 6),
                  st.sampled_from([-1, 1]))))
    kinds = [k for k in problem_kinds() if k not in GRIDS]  # their one grid
    cell = Cell(data.draw(st.sampled_from(kinds)),
                data.draw(st.sampled_from(SCHEMES)), lattice,
                data.draw(st.sampled_from(BACKENDS)),
                data.draw(st.sampled_from(MODES[:4])), (n0, *tail), CHUNK)
    assume(cell.ranks * 3 <= n0 and not refused(cell))
    _, setup = setup_problem(cell.kind, lattice, cell.grid, TAU,
                             **options(cell))
    assume(setup.domain.n_fluid > 0)
    check_backends_agree(cell)
    if cell.backend != BACKENDS[0]:
        check_window(cell)
    if cell.ranks:
        check_rank_counts_agree(cell)
    else:
        check_looking_changes_nothing(cell)
