"""Unit tests for the dense neighbor-index streaming table (the oracle).

The table is the streaming oracle of the cores' tests, not a backend, so
the conformance matrix does not reach it; no core holds one.
"""

import numpy as np
import pytest

from repro.accel import NeighborTable
from repro.core.streaming import stream_push
from repro.lattice import get_lattice

from test_props_sparse import random_field

D2Q9 = get_lattice("D2Q9")


def table_and_field(shape, seed):
    """A D2Q9 table for ``shape`` and a random field on it."""
    return NeighborTable(D2Q9, shape), random_field(D2Q9, shape, seed)


class TestGatherEquivalence:
    @pytest.mark.parametrize("lattice_name,shape", [
        ("D2Q9", (7, 5)),
        ("D2Q9", (1, 6)),
        ("D3Q19", (5, 4, 3)),
        ("D3Q27", (4, 3, 5)),
    ])
    def test_matches_stream_push(self, lattice_name, shape):
        """One np.take gather equals the Q-pass roll streaming, bit for bit."""
        lat = get_lattice(lattice_name)
        f = random_field(lat, shape, 0)
        assert np.array_equal(NeighborTable(lat, shape).gather(f),
                              stream_push(lat, f))

    def test_gather_into_preallocated_out(self):
        table, f = table_and_field((5, 5), seed=2)
        out = np.empty_like(f)
        assert table.gather(f, out=out) is out
        assert np.array_equal(out, stream_push(D2Q9, f))

    def test_gather_is_a_permutation(self):
        """Every (component, node) slot is read exactly once."""
        table = NeighborTable(D2Q9, (4, 3))
        assert sorted(table.flat.tolist()) == list(range(D2Q9.q * 12))


class TestAliasingGuard:
    def test_gather_rejects_out_is_f(self):
        table, f = table_and_field((4, 4), seed=0)
        with pytest.raises(ValueError, match="alias"):
            table.gather(f, out=f)

    def test_gather_rejects_overlapping_view(self):
        buf = np.zeros((2 * D2Q9.q, 4, 4))
        with pytest.raises(ValueError, match="alias"):
            NeighborTable(D2Q9, (4, 4)).gather(
                buf[:D2Q9.q], out=buf[D2Q9.q - 1:2 * D2Q9.q - 1])


class TestCacheAndValidation:
    def test_shape_dimension_mismatch_raises(self):
        with pytest.raises(ValueError, match="dimension"):
            NeighborTable(get_lattice("D3Q19"), (6, 6))

    def test_cache_keeps_no_table_alive(self):
        """Regression: a module cache once pinned ``2Q`` indices per node
        for every shape streamed, for the life of the process. Now no
        core holds a dense table at all."""
        from repro.accel import make_core
        from repro.geometry import periodic_box

        for backend in ("fused", "aa", "sparse"):
            for caps in ({"family": "st"},
                         {"family": "mr", "scheme": "MR-P"}):
                core = make_core(backend, caps, D2Q9, periodic_box((12, 10)),
                                 0.8)
                assert not any(isinstance(v, NeighborTable)
                               for v in vars(core).values())


class TestOwnedBufferReuse:
    """Regression: gather(out=None) must not allocate a fresh field per
    call — the table owns a two-deep per-dtype buffer ring."""

    def test_ping_pong_stabilizes_at_two_buffers(self):
        table, g = table_and_field((8, 6), seed=3)
        ids = set()
        for _ in range(13):
            g = table.gather(g)
            ids.add(id(g))
        assert len(ids) <= 2

    def test_reused_buffer_stays_correct(self):
        """Repeated owned-buffer gathers equal repeated stream_push."""
        table, f = table_and_field((7, 5), seed=4)
        expected, got = f, f
        for _ in range(5):
            expected = stream_push(D2Q9, expected)
            got = table.gather(got)
        assert np.array_equal(got, expected)

    def test_owned_buffer_never_aliases_input(self):
        table, f = table_and_field((6, 6), seed=5)
        g = table.gather(f)
        assert not np.shares_memory(g, f)
        assert not np.shares_memory(table.gather(g), g)

    def test_buffers_keyed_by_dtype(self):
        table, f64 = table_and_field((6, 4), seed=6)
        assert table.gather(f64).dtype == np.float64
        assert table.gather(f64.astype(np.float32)).dtype == np.float32

    def test_steady_state_gather_allocates_nothing(self, traced):
        """tracemalloc pin: warm ping-pong gathers allocate no fields."""
        table, g = table_and_field((48, 32), seed=7)
        g = table.gather(table.gather(g))       # warm both ring buffers

        def gathers():
            out = g
            for _ in range(10):
                out = table.gather(out)
        _, current, peak = traced(gathers)
        assert peak < g.nbytes // 4
        assert current < 16 * 1024
