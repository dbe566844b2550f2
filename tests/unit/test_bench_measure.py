"""Unit tests for the traffic-measurement harness and its disk cache."""

import json

import pytest

from repro.bench.measure import (TrafficMeasurement, measure_channel_traffic,
                                 measurement_shape)


@pytest.fixture
def isolated_cache(tmp_path, monkeypatch):
    """Point the measurement cache at a fresh directory and clear the
    in-process memo."""
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path))
    measure_channel_traffic.cache_clear()
    yield tmp_path
    measure_channel_traffic.cache_clear()


TINY_2D = (24, 10)


class TestMeasurement:
    def test_default_shapes(self):
        assert len(measurement_shape(2)) == 2
        assert len(measurement_shape(3)) == 3

    def test_tiny_measurement_st(self, isolated_cache):
        m = measure_channel_traffic("ST", "D2Q9", "V100", shape=TINY_2D,
                                    tile_cross=(8,))
        assert isinstance(m, TrafficMeasurement)
        assert m.n_nodes == 240
        # Small grid: wall fraction inflates/deflates, but stay in range.
        assert 100 < m.dram_bytes_per_node < 160
        assert m.logical_bytes_per_node > 0

    def test_tiny_measurement_mr(self, isolated_cache):
        m = measure_channel_traffic("MR-P", "D2Q9", "V100", shape=TINY_2D,
                                    tile_cross=(8,))
        assert m.scheme == "MR-P"
        assert 80 <= m.dram_bytes_per_node <= 110

    def test_disk_cache_roundtrip(self, isolated_cache):
        m1 = measure_channel_traffic("ST", "D2Q9", "V100", shape=TINY_2D)
        cache_file = isolated_cache / "repro-lbm" / "traffic-cache.json"
        assert cache_file.exists()
        payload = json.loads(cache_file.read_text())
        assert len(payload) == 1

        # A fresh process would hit the disk cache: simulate by clearing
        # the lru memo and checking we get identical numbers back.
        measure_channel_traffic.cache_clear()
        m2 = measure_channel_traffic("ST", "D2Q9", "V100", shape=TINY_2D)
        assert m2 == m1

    def test_distinct_keys(self, isolated_cache):
        measure_channel_traffic("ST", "D2Q9", "V100", shape=TINY_2D)
        measure_channel_traffic("ST", "D2Q9", "MI100", shape=TINY_2D)
        cache_file = isolated_cache / "repro-lbm" / "traffic-cache.json"
        assert len(json.loads(cache_file.read_text())) == 2

    def test_corrupt_cache_is_ignored(self, isolated_cache):
        cache_file = isolated_cache / "repro-lbm" / "traffic-cache.json"
        cache_file.parent.mkdir(parents=True)
        cache_file.write_text("{not json")
        m = measure_channel_traffic("ST", "D2Q9", "V100", shape=TINY_2D)
        assert m.n_nodes == 240
        # And the cache heals itself.
        assert json.loads(cache_file.read_text())

    def test_determinism(self, isolated_cache):
        a = measure_channel_traffic("MR-R", "D2Q9", "V100", shape=TINY_2D,
                                    tile_cross=(8,))
        measure_channel_traffic.cache_clear()
        (isolated_cache / "repro-lbm" / "traffic-cache.json").unlink()
        b = measure_channel_traffic("MR-R", "D2Q9", "V100", shape=TINY_2D,
                                    tile_cross=(8,))
        assert a.dram_bytes_per_node == b.dram_bytes_per_node
