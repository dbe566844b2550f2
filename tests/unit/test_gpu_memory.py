"""Unit tests for the global-memory model and traffic tracker."""

import numpy as np
import pytest

from repro.gpu.memory import (ITEM_BYTES, SECTOR_BYTES, GlobalArray,
                              MemoryTracker, TrafficReport)


class TestTrafficReport:
    def test_totals(self):
        r = TrafficReport(bytes_read=100, bytes_written=50,
                          read_transactions=4, write_transactions=2)
        assert r.total_bytes == 150
        assert r.sector_bytes_read == 128
        assert r.sector_bytes_written == 64
        assert r.sector_bytes_total == 192

    def test_add(self):
        a = TrafficReport(1, 2, 3, 4)
        b = TrafficReport(10, 20, 30, 40)
        c = a + b
        assert (c.bytes_read, c.bytes_written) == (11, 22)
        assert (c.read_transactions, c.write_transactions) == (33, 44)

    def test_per_node(self):
        r = TrafficReport(bytes_read=800, bytes_written=200,
                          read_transactions=25, write_transactions=7)
        pn = r.per_node(100)
        assert pn["bytes_read"] == 8.0
        assert pn["bytes_total"] == 10.0
        assert pn["sector_bytes_total"] == pytest.approx(32 * 32 / 100)


class TestGlobalArray:
    def test_read_write_roundtrip(self):
        tr = MemoryTracker()
        a = GlobalArray("x", 100, tr)
        idx = np.array([3, 7, 11])
        a.write(idx, np.array([1.0, 2.0, 3.0]))
        assert np.allclose(a.read(idx), [1, 2, 3])

    def test_base_offset_wraps(self):
        tr = MemoryTracker()
        a = GlobalArray("x", 10, tr, init=np.arange(10.0))
        assert np.allclose(a.read(np.array([8, 9]), base=3), [1.0, 2.0])

    def test_init_too_large(self):
        with pytest.raises(ValueError, match="larger"):
            GlobalArray("x", 3, MemoryTracker(), init=np.zeros(5))

    def test_write_count_mismatch(self):
        a = GlobalArray("x", 10, MemoryTracker())
        with pytest.raises(ValueError, match="count"):
            a.write(np.array([1, 2]), np.array([1.0]))

    def test_bytes_counted(self):
        tr = MemoryTracker()
        a = GlobalArray("x", 100, tr)
        a.read(np.arange(10))
        a.write(np.arange(4), np.zeros(4))
        assert tr.report.bytes_read == 10 * ITEM_BYTES
        assert tr.report.bytes_written == 4 * ITEM_BYTES

    def test_untracked_host_copy(self):
        tr = MemoryTracker()
        a = GlobalArray("x", 8, tr, init=np.arange(8.0))
        copy = a.read_untracked()
        assert np.allclose(copy, np.arange(8))
        assert tr.report.bytes_read == 0


class TestSectorCounting:
    def test_coalesced_access(self):
        """32 consecutive doubles = 8 sectors of 32 B."""
        tr = MemoryTracker()
        a = GlobalArray("x", 1000, tr)
        a.read(np.arange(32))
        assert tr.report.read_transactions == 8

    def test_strided_access_wastes_sectors(self):
        """Stride-4 doubles touch one sector per element."""
        tr = MemoryTracker()
        a = GlobalArray("x", 1000, tr)
        a.read(np.arange(0, 128, 4))
        assert tr.report.read_transactions == 32

    def test_misaligned_access(self):
        """A one-element shift touches one extra sector."""
        tr = MemoryTracker()
        a = GlobalArray("x", 1000, tr)
        a.read(np.arange(1, 33))
        assert tr.report.read_transactions == 9

    def test_duplicate_indices_one_sector(self):
        tr = MemoryTracker()
        a = GlobalArray("x", 100, tr)
        a.read(np.zeros(64, dtype=int))
        assert tr.report.read_transactions == 1
        assert tr.report.bytes_read == 64 * ITEM_BYTES

    def test_disabled_tracker(self):
        tr = MemoryTracker()
        tr.enabled = False
        a = GlobalArray("x", 100, tr)
        a.read(np.arange(10))
        assert tr.report.bytes_read == 0


class TestL2Cache:
    def test_repeat_read_hits(self):
        tr = MemoryTracker(l2_bytes=1024)
        a = GlobalArray("x", 100, tr)
        a.read(np.arange(32))
        a.read(np.arange(32))          # second read: all hits
        assert tr.report.read_transactions == 8

    def test_flush_forces_misses(self):
        tr = MemoryTracker(l2_bytes=1024)
        a = GlobalArray("x", 100, tr)
        a.read(np.arange(32))
        tr.flush_cache()
        a.read(np.arange(32))
        assert tr.report.read_transactions == 16

    def test_writes_allocate(self):
        """A read following a write to the same sectors hits in L2."""
        tr = MemoryTracker(l2_bytes=1024)
        a = GlobalArray("x", 100, tr)
        a.write(np.arange(8), np.zeros(8))
        a.read(np.arange(8))
        assert tr.report.write_transactions == 2
        assert tr.report.read_transactions == 0

    def test_capacity_eviction(self):
        """Working set larger than L2 gets evicted (LRU)."""
        cap_sectors = 4
        tr = MemoryTracker(l2_bytes=cap_sectors * SECTOR_BYTES)
        a = GlobalArray("x", 10000, tr)
        a.read(np.arange(0, 8 * 4, 4))     # 8 sectors > capacity 4
        tr.report = type(tr.report)()
        a.read(np.arange(0, 8 * 4, 4))     # early sectors were evicted
        assert tr.report.read_transactions == 8

    def test_distinct_arrays_do_not_collide(self):
        tr = MemoryTracker(l2_bytes=4096)
        a = GlobalArray("a", 100, tr)
        b = GlobalArray("b", 100, tr)
        a.read(np.arange(8))
        b.read(np.arange(8))               # same offsets, different space
        assert tr.report.read_transactions == 4
