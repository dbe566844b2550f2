"""Property-based tests (hypothesis) for the sparse-geometry backend.

Three invariant families pin the compact-state machinery of
:mod:`repro.accel.sparse` on randomized solid masks:

* **compaction round trips** — dense -> compact -> dense is the identity
  on fluid columns and never touches solid columns;
* **table identities** — the masked neighbor table is a valid indexed
  permutation whose folded links realize half-way bounce-back exactly;
* **backend parity** — on random masks of the ``porous`` kind, the
  conformance matrix's backend agreement
  (``tests/property/test_conformance.py``).

The first two are the compact layout's own: no other backend has them.
"""

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.accel import MaskedNeighborTable
from repro.core.streaming import stream_push
from repro.lattice import get_lattice

from test_conformance import Cell, check_backends_agree

LATTICES = ["D2Q9", "D3Q19"]
GRIDS = {"D2Q9": (6, 5), "D3Q19": (4, 3, 3)}


@st.composite
def masked_lattice(draw, lattices=tuple(LATTICES)):
    """A lattice plus a seeded random solid mask with >=1 fluid node."""
    name = draw(st.sampled_from(list(lattices)))
    lat = get_lattice(name)
    grid = GRIDS[name]
    fraction = draw(st.floats(0.0, 0.8))
    seed = draw(st.integers(0, 2**31 - 1))
    solid = np.random.default_rng(seed).random(grid) < fraction
    if solid.all():
        solid.flat[0] = False
    return lat, solid


def random_field(lat, shape, seed, components=None):
    rng = np.random.default_rng(seed)
    return rng.standard_normal((components or lat.q, *shape))


class TestCompactionRoundTrip:
    @given(masked_lattice(), st.integers(0, 2**31 - 1))
    @settings(max_examples=40, deadline=None)
    def test_compact_is_fluid_column_slice(self, ml, seed):
        """``compact`` equals the C-order fluid-column slice of the field."""
        lat, solid = ml
        table = MaskedNeighborTable(lat, solid)
        f = random_field(lat, solid.shape, seed)
        fc = table.compact(f, np.empty((lat.q, table.n_fluid)))
        assert np.array_equal(fc, f.reshape(lat.q, -1)[:, table.fluid_flat])

    @given(masked_lattice(), st.integers(0, 2**31 - 1))
    @settings(max_examples=40, deadline=None)
    def test_scatter_restores_fluid_and_skips_solid(self, ml, seed):
        """scatter(compact(f)) is the identity on fluid columns and leaves
        the target's solid columns bit-untouched."""
        lat, solid = ml
        table = MaskedNeighborTable(lat, solid)
        f = random_field(lat, solid.shape, seed)
        fc = table.compact(f, np.empty((lat.q, table.n_fluid)))
        target = random_field(lat, solid.shape, seed + 1)
        before_solid = target[:, solid].copy()
        table.scatter(fc, target)
        assert np.array_equal(target[:, ~solid], f[:, ~solid])
        assert np.array_equal(target[:, solid], before_solid)

    @given(masked_lattice())
    @settings(max_examples=40, deadline=None)
    def test_dense_to_compact_is_inverse_of_fluid_flat(self, ml):
        """The compact index map is the (partial) inverse permutation of
        the fluid-node list, and -1 exactly on solid nodes."""
        lat, solid = ml
        table = MaskedNeighborTable(lat, solid)
        n = table.n_fluid
        assert n == int((~solid).sum())
        assert np.array_equal(table.dense_to_compact[table.fluid_flat],
                              np.arange(n))
        assert (table.dense_to_compact[solid.ravel()] == -1).all()


class TestTableIdentities:
    @given(masked_lattice(), st.integers(0, 2**31 - 1))
    @settings(max_examples=40, deadline=None)
    def test_gather_compact_matches_fancy_indexing(self, ml, seed):
        """The flat one-take gather equals naive (component, node) fancy
        indexing through the table."""
        lat, solid = ml
        table = MaskedNeighborTable(lat, solid)
        fc = random_field(lat, (table.n_fluid,), seed)
        out = table.gather_compact(fc, np.empty_like(fc))
        assert np.array_equal(out, fc[table.src_comp, table.src])

    @given(masked_lattice(), st.integers(0, 2**31 - 1))
    @settings(max_examples=40, deadline=None)
    def test_folded_links_realize_halfway_bounce_back(self, ml, seed):
        """``compact`` then ``gather_compact`` (the one reload path of
        the sparse cores) equals the dense pull everywhere a link's
        source is fluid, and equals the half-way reflection (opposite
        component, same node) everywhere the source is solid."""
        lat, solid = ml
        table = MaskedNeighborTable(lat, solid)
        f = random_field(lat, solid.shape, seed)
        fc = table.compact(f, np.empty((lat.q, table.n_fluid)))
        got = table.gather_compact(fc, np.empty_like(fc))
        pulled = table.compact(stream_push(lat, f),
                               np.empty((lat.q, table.n_fluid)))
        flat = f.reshape(lat.q, -1)
        for q in range(lat.q):
            links = table.solid_links[q]
            fluid_src = np.setdiff1d(np.arange(table.n_fluid), links,
                                     assume_unique=False)
            assert np.array_equal(got[q, fluid_src], pulled[q, fluid_src])
            if links.size:
                reflected = flat[lat.opposite[q], table.fluid_flat[links]]
                assert np.array_equal(got[q, links], reflected)

    @given(masked_lattice())
    @settings(max_examples=40, deadline=None)
    def test_sources_stay_in_range(self, ml):
        """Every table index addresses a valid (component, fluid node)."""
        lat, solid = ml
        table = MaskedNeighborTable(lat, solid)
        assert table.src.shape == (lat.q, table.n_fluid)
        assert (0 <= table.src).all() and (table.src < table.n_fluid).all()
        assert (0 <= table.src_comp).all() and (table.src_comp < lat.q).all()


class TestSparseFusedParity:
    @given(st.sampled_from(LATTICES), st.sampled_from(["ST", "MR-P", "MR-R"]),
           st.floats(0.0, 0.6), st.integers(0, 2**31 - 1))
    @settings(max_examples=25, deadline=None)
    def test_random_mask_trajectories_match(self, lattice, scheme, fraction,
                                            seed):
        """A random porous mask: the matrix's backend agreement."""
        check_backends_agree(Cell(
            "porous", scheme, lattice, "sparse", shape=GRIDS[lattice],
            extra=(("solid_fraction", fraction), ("seed", seed),
                   ("force_x", 1e-4))))
