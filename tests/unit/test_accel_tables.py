"""Unit tests for the precomputed neighbor-index streaming tables."""

import numpy as np
import pytest

from repro.accel import NeighborTable, clear_cache, neighbor_table
from repro.core.streaming import stream_push
from repro.lattice import get_lattice


@pytest.fixture(autouse=True)
def _fresh_cache():
    clear_cache()
    yield
    clear_cache()


def random_field(lat, shape, seed=0):
    rng = np.random.default_rng(seed)
    return rng.standard_normal((lat.q, *shape))


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
        f = random_field(lat, shape)
        expected = stream_push(lat, f)
        got = neighbor_table(lat, shape).gather(f)
        assert np.array_equal(got, expected)

    def test_gather_into_preallocated_out(self):
        lat = get_lattice("D2Q9")
        f = random_field(lat, (5, 5), seed=2)
        out = np.empty_like(f)
        result = neighbor_table(lat, (5, 5)).gather(f, out=out)
        assert result is out
        assert np.array_equal(out, stream_push(lat, f))

    def test_gather_is_a_permutation(self):
        """Every (component, node) slot is read exactly once."""
        lat = get_lattice("D2Q9")
        table = neighbor_table(lat, (4, 3))
        assert sorted(table.flat.tolist()) == list(range(lat.q * 12))


class TestAliasingGuard:
    def test_gather_rejects_out_is_f(self):
        lat = get_lattice("D2Q9")
        f = random_field(lat, (4, 4))
        with pytest.raises(ValueError, match="alias"):
            neighbor_table(lat, (4, 4)).gather(f, out=f)

    def test_gather_rejects_overlapping_view(self):
        lat = get_lattice("D2Q9")
        buf = np.zeros((2 * lat.q, 4, 4))
        f = buf[: lat.q]
        overlapping = buf[lat.q - 1: 2 * lat.q - 1]
        with pytest.raises(ValueError, match="alias"):
            neighbor_table(lat, (4, 4)).gather(f, out=overlapping)


class TestCacheAndValidation:
    def test_cache_returns_same_object(self):
        lat = get_lattice("D2Q9")
        assert neighbor_table(lat, (6, 6)) is neighbor_table(lat, (6, 6))

    def test_cache_keyed_by_lattice_and_shape(self):
        d2q9 = get_lattice("D2Q9")
        a = neighbor_table(d2q9, (6, 6))
        assert neighbor_table(d2q9, (6, 7)) is not a
        clear_cache()
        assert neighbor_table(d2q9, (6, 6)) is not a

    def test_shape_dimension_mismatch_raises(self):
        lat = get_lattice("D3Q19")
        with pytest.raises(ValueError, match="dimension"):
            NeighborTable(lat, (6, 6))

    def test_cache_keeps_no_table_alive(self):
        """Regression: the cache was a plain dict and pinned ``2Q`` indices
        per node for every shape a batched core ever streamed, for the
        life of the process. A table now lives as long as a core holds
        it; same-shape cores alive together still share one."""
        import gc

        from repro.accel import make_core, tables
        from repro.geometry import periodic_box

        lat, domain = get_lattice("D2Q9"), periodic_box((12, 10))
        st = make_core("fused", {"family": "st"}, lat, domain, [0.7, 0.9])
        mr = make_core("fused", {"family": "mr", "scheme": "MR-P"}, lat,
                       domain, [0.8, 0.6, 0.9])
        assert st._table is mr._table is neighbor_table(lat, (12, 10))
        assert len(tables._CACHE) == 1
        del st
        gc.collect()
        assert len(tables._CACHE) == 1         # mr still holds it
        del mr
        gc.collect()
        assert len(tables._CACHE) == 0


class TestOwnedBufferReuse:
    """Regression: gather(out=None) must not allocate a fresh field per
    call — the table owns a two-deep per-dtype buffer ring."""

    def test_ping_pong_stabilizes_at_two_buffers(self):
        lat = get_lattice("D2Q9")
        table = neighbor_table(lat, (8, 6))
        f = random_field(lat, (8, 6), seed=3)
        ids = set()
        g = table.gather(f)
        for _ in range(12):
            g = table.gather(g)
            ids.add(id(g))
        assert len(ids) <= 2

    def test_reused_buffer_stays_correct(self):
        """Repeated owned-buffer gathers equal repeated stream_push."""
        lat = get_lattice("D2Q9")
        table = neighbor_table(lat, (7, 5))
        f = random_field(lat, (7, 5), seed=4)
        expected, got = f, f
        for _ in range(5):
            expected = stream_push(lat, expected)
            got = table.gather(got)
        assert np.array_equal(got, expected)

    def test_owned_buffer_never_aliases_input(self):
        lat = get_lattice("D2Q9")
        table = neighbor_table(lat, (6, 6))
        f = random_field(lat, (6, 6), seed=5)
        g = table.gather(f)
        assert not np.shares_memory(g, f)
        h = table.gather(g)
        assert not np.shares_memory(h, g)

    def test_buffers_keyed_by_dtype(self):
        lat = get_lattice("D2Q9")
        table = neighbor_table(lat, (6, 4))
        f64 = random_field(lat, (6, 4), seed=6)
        f32 = f64.astype(np.float32)
        assert table.gather(f64).dtype == np.float64
        assert table.gather(f32).dtype == np.float32

    def test_steady_state_gather_allocates_nothing(self):
        """tracemalloc pin: warm ping-pong gathers allocate no fields."""
        import tracemalloc

        lat = get_lattice("D2Q9")
        shape = (48, 32)
        table = neighbor_table(lat, shape)
        g = table.gather(random_field(lat, shape, seed=7))
        g = table.gather(g)                 # warm both ring buffers
        tracemalloc.start()
        try:
            for _ in range(10):
                g = table.gather(g)
            current, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < g.nbytes // 4
        assert current < 16 * 1024
