"""The cache-blocked, sliding-window step against its own unblocked form.

``repro.accel.fused`` steps dense lattices in column chunks and
leading-axis slabs of ``_CHUNK`` nodes. A chunk at least as large as the
grid is the unblocked arithmetic (one slab that is the whole lattice, one
chunk), so the oracle for every blocked run here is *the same core* with
the constant raised above ``N``; the blocked run lowers it to 32 so that
grids of a few hundred nodes slide over several slabs.

Equality is ``np.array_equal`` wherever every dgemm of the blocked run
covers a multiple of eight columns (slab width ``rows x tail`` and chunk
both multiples of eight — the benchmark shapes are): BLAS computes the
last ``n mod 8`` columns of a product with a different kernel, so cutting
a field at any other column changes *which* nodes are rounded by it. On
such shapes blocked and unblocked agree by the conformance matrix's
tolerance rule (``test_unaligned_*``; ``tests/property/test_conformance
.py``); everything else — gather, wrap, ring, delayed write-back — is
exact permutation and is pinned bit for bit.

The matrix's window column (``check_window``) states the same rule for
every kind × backend on the matrix's grids. The matrix builds problems;
this file steps the core alone, so it reaches what no registered kind
has: D3Q27 and D3Q39, one- and two-plane grids, a per-node or a bulk
relaxation time, and the window's own allocation.
"""

from dataclasses import replace

import numpy as np
import pytest

import repro.accel.fused as fused
from repro.accel import make_core
from repro.geometry import SOLID, Domain
from repro.lattice import get_lattice

from test_conformance import Cell, assert_agree, check_resume, run

CHUNK = 32
STEPS = 4

#: lattice -> shapes whose slab widths are multiples of eight. Leading
#: extents are thin (1, 2, 3), one off a slab multiple, and prime; the
#: last shapes of each row have a tail wider than the chunk (slabs of
#: ``reach`` planes, several chunks each, chunk not dividing the slab).
ALIGNED = {
    "D2Q9": [(1, 8), (2, 8), (3, 8), (7, 8), (9, 8), (13, 8), (23, 8),
             (5, 16), (11, 16), (5, 40)],
    "D3Q19": [(1, 2, 4), (2, 2, 4), (3, 2, 4), (7, 2, 4), (9, 2, 4),
              (13, 2, 4), (5, 3, 8), (4, 5, 8)],
    "D3Q27": [(2, 2, 4), (9, 2, 4), (13, 4, 2), (5, 3, 8)],
    # reach 3: slabs are never thinner than three planes
    "D3Q39": [(1, 2, 4), (2, 2, 4), (3, 2, 4), (7, 2, 4), (9, 2, 4),
              (13, 2, 4), (7, 3, 8), (10, 3, 8)],
}
UNALIGNED = {"D2Q9": [(13, 7)], "D3Q19": [(11, 3, 5)], "D3Q27": [(7, 3, 3)],
             "D3Q39": [(10, 3, 5)]}
SCHEMES = ("ST", "MR-P", "MR-R")
VARIANTS = ("plain", "force", "solid", "tau_field", "tau_bulk", "batch")


def cases(table):
    for lattice, shapes in table.items():
        for shape in shapes:
            for scheme in SCHEMES:
                for variant in VARIANTS:
                    if variant == "tau_field" and scheme != "MR-P":
                        continue        # per-node tau is an MR-P feature
                    if variant == "tau_bulk" and scheme == "ST":
                        continue
                    yield pytest.param(
                        lattice, shape, scheme, variant,
                        id=f"{lattice}-{'x'.join(map(str, shape))}-"
                           f"{scheme}-{variant}")


def run_core(monkeypatch, chunk, lattice, shape, scheme, variant,
             steps=STEPS, group=1):
    """Step a core built and run under ``_CHUNK = chunk``; ``(state, core)``.

    ``group`` is ``_SLAB_CHUNKS``, the chunks per slab of sub-chunk
    planes: 1 keeps one-chunk slabs, so thin test grids hold several.
    ``batch`` is a sweep's members: three forced runs of their own tau,
    each its own core, their states stacked.
    """
    monkeypatch.setattr(fused, "_CHUNK", chunk)
    monkeypatch.setattr(fused, "_SLAB_CHUNKS", group)
    lat = get_lattice(lattice)
    rng = np.random.default_rng([int(lattice[3:]), *shape])
    node_type = np.zeros(shape, dtype=np.int8)
    if variant == "solid":
        node_type[rng.random(shape) < 0.2] = SOLID
    domain = Domain(node_type)
    solid = domain.solid_mask
    family = "st" if scheme == "ST" else "mr"
    states = []
    for tau in (0.7, 0.8, 0.95) if variant == "batch" else (0.8,):
        core = make_core("fused", {"family": family, "scheme": scheme}, lat,
                         domain, tau,
                         tau_bulk=0.9 if variant == "tau_bulk" else None)
        f = lat.w.reshape(-1, *(1,) * len(shape)) * (
            1.0 + 0.05 * rng.standard_normal((lat.q, *shape)))
        f[:, solid] = lat.w[:, None]
        state = f if family == "st" else np.einsum(
            "mq,qn->mn", lat.moment_matrix,
            f.reshape(lat.q, -1)).reshape(-1, *shape)
        force = tau_field = None
        if variant in ("force", "batch"):
            force = 1e-4 * rng.standard_normal((lat.d, *shape))
        if variant == "tau_field":
            tau_field = 0.6 + 0.4 * rng.random(shape)
        for _ in range(steps):
            core.step(state, (), None, force=force, tau_field=tau_field)
        states.append(state)
    return (np.stack(states) if len(states) > 1 else state), core


def n_slabs(core):
    return len(core._window()[0])


@pytest.mark.parametrize("lattice,shape,scheme,variant", cases(ALIGNED))
def test_blocked_equals_unblocked(monkeypatch, lattice, shape, scheme,
                                  variant):
    blocked, core = run_core(monkeypatch, CHUNK, lattice, shape, scheme,
                             variant)
    whole, oracle = run_core(monkeypatch, 10**9, lattice, shape, scheme,
                             variant)
    assert np.isfinite(blocked).all()
    assert np.array_equal(blocked, whole)
    assert n_slabs(oracle) == 1
    # the blocked run really slid wherever the grid holds two slabs
    lat = get_lattice(lattice)
    tail = int(np.prod(shape[1:]))
    rows = max(lat.reach, CHUNK // tail, 1)
    assert core.path == "lean"
    assert n_slabs(core) == max(shape[0] // rows, 1)


@pytest.mark.parametrize("lattice,shape,scheme,variant", cases(UNALIGNED))
def test_unaligned_slabs_agree_to_rounding(monkeypatch, lattice, shape,
                                           scheme, variant):
    """Odd slab widths move BLAS's tail columns: one rounding, no more."""
    blocked, core = run_core(monkeypatch, CHUNK, lattice, shape, scheme,
                             variant)
    whole, _ = run_core(monkeypatch, 10**9, lattice, shape, scheme, variant)
    assert n_slabs(core) > 1
    assert_agree(blocked, whole, exact=False, steps=STEPS)


def test_chunk_at_least_n_is_one_chunk_one_slab(monkeypatch):
    """At the shipped constant a small grid takes the unblocked step."""
    _, core = run_core(monkeypatch, fused._CHUNK, "D2Q9", (23, 8), "MR-R",
                       "plain", steps=1)
    assert core.path == "lean" and n_slabs(core) == 1
    assert core._g.shape[-1] == 23 * 8


@pytest.mark.parametrize("scheme", SCHEMES)
def test_window_is_all_a_lean_core_owns(monkeypatch, scheme, field_doubles):
    """Several slabs: the core holds planes, never a lattice."""
    shape = (256, 8)
    _, core = run_core(monkeypatch, CHUNK, "D2Q9", shape, scheme, "plain",
                       steps=1)
    q, n = core.lat.q, int(np.prod(shape))
    rows = CHUNK // shape[1]
    assert n_slabs(core) == shape[0] // rows
    # ST: two slabs in flight + the wrapped last one; MR: the f* ring
    # (a slab + reach planes either side), the streamed slab, the wrap
    planes = 3 * rows if scheme == "ST" else (rows + 2) + rows + 1
    chunk_rows = 64             # collide intermediates, CHUNK columns each
    held = field_doubles(core, min_size=CHUNK)
    assert planes * shape[1] * q <= held < (planes * shape[1] * q
                                            + chunk_rows * (CHUNK + 8))
    assert held < q * n // 4
    assert core.state_lattices == (1 if scheme == "ST" else 0)


@pytest.mark.parametrize("scheme", ["ST", "MR-P"])
def test_lean_core_refuses_boundaries_it_was_not_built_with(monkeypatch,
                                                             scheme):
    from repro.boundary import HalfwayBounceBack

    state, core = run_core(monkeypatch, CHUNK, "D2Q9", (9, 8), scheme,
                           "plain", steps=1)
    with pytest.raises(ValueError, match="boundary"):
        core.step(state, [HalfwayBounceBack()], None)


@pytest.mark.parametrize("backend", ["fused", "aa"])
@pytest.mark.parametrize("scheme", SCHEMES)
def test_checkpoint_resume_mid_run_on_the_lean_path(scheme, backend):
    cell = Cell("periodic", scheme, "D3Q19", backend, shape=(9, 2, 4),
                chunk=CHUNK)
    check_resume(cell, 3, backend)  # odd time: AA holds a shifted lattice
    assert run(cell).paths[0].startswith("`lean`")
    if not (backend == "aa" and scheme == "ST"):    # AA keeps its scratch
        assert len(run(cell).cuts[0]) == 2
    assert np.array_equal(run(replace(cell, chunk=None)).state,
                          run(cell).state)
