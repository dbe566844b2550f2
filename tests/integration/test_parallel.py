"""Integration: distributed slab decomposition vs single-domain solvers.

That a decomposed run is its single-domain run is the conformance
matrix's rank-count column (``tests/property/test_conformance.py``): the
equivalence ids below check its ``reference`` cells on their own grids
and rank counts.
"""

import numpy as np
import pytest

from repro.parallel import SlabDecomposition
from repro.service.registry import build_distributed

from test_conformance import Cell, check_rank_counts_agree

SCHEMES = ["ST", "MR-P", "MR-R"]


class TestSlabDecomposition:
    def test_bounds_cover_domain(self):
        d = SlabDecomposition((17, 8), 4, periodic=True)
        covered = []
        for r in range(4):
            start, stop = d.bounds(r)
            covered.extend(range(start, stop))
        assert covered == list(range(17))

    def test_uneven_split(self):
        d = SlabDecomposition((10, 4), 3, periodic=False)
        widths = [d.bounds(r)[1] - d.bounds(r)[0] for r in range(3)]
        assert sorted(widths) == [3, 3, 4]

    def test_neighbour_topology(self):
        d = SlabDecomposition((12, 4), 3, periodic=False)
        assert not d.has_left(0) and d.has_right(0)
        assert d.has_left(2) and not d.has_right(2)
        dp = SlabDecomposition((12, 4), 3, periodic=True)
        assert dp.has_left(0) and dp.has_right(2)
        assert dp.left_of(0) == 2 and dp.right_of(2) == 0

    def test_too_many_ranks(self):
        with pytest.raises(ValueError, match="slabs"):
            SlabDecomposition((8, 4), 4, periodic=True)


class TestPeriodicEquivalence:
    @pytest.mark.parametrize("scheme", SCHEMES)
    @pytest.mark.parametrize("n_ranks", [1, 2, 3])
    def test_matches_reference_2d(self, scheme, n_ranks):
        check_rank_counts_agree(Cell("taylor-green", scheme, "D2Q9",
                                     "reference", f"emulated-{n_ranks}",
                                     shape=(30, 12)))

    @pytest.mark.parametrize("scheme", ["ST", "MR-P"])
    def test_matches_reference_3d(self, scheme):
        check_rank_counts_agree(Cell("periodic", scheme, "D3Q19", "reference",
                                     "emulated-3", shape=(12, 6, 5)))


class TestChannelEquivalence:
    @pytest.mark.parametrize("scheme", SCHEMES)
    @pytest.mark.parametrize("n_ranks", [2, 4])
    def test_matches_reference(self, scheme, n_ranks):
        check_rank_counts_agree(Cell("channel", scheme, "D2Q9", "reference",
                                     f"emulated-{n_ranks}", shape=(32, 14)))

    def test_forced_periodic_distributed(self):
        """Body forcing works across slabs: exact momentum budget."""
        fx = 1e-4
        dist = build_distributed("periodic", "MR-P", "D2Q9", (18, 12), 3,
                                 tau=0.9, force=np.array([fx, 0.0]))
        dist.run(5)
        _, u = dist.gather_macroscopic()
        px = u[0].sum()          # rho = 1: momentum = N fx (steps + 1/2)
        assert px == pytest.approx(18 * 12 * fx * 5.5, rel=1e-8)

    def test_forced_channel_distributed_matches_reference(self):
        check_rank_counts_agree(Cell("forced-channel", "ST", "D2Q9",
                                     "reference", "emulated-3",
                                     shape=(18, 12)))


class TestCommunicationVolume:
    def test_payload_sizes(self):
        """ST exchanges crossing populations; MR exchanges moments."""
        shape = (24, 10)
        st = build_distributed("periodic", "ST", "D2Q9", shape, 2)
        mr = build_distributed("periodic", "MR-P", "D2Q9", shape, 2)
        # Per face, both directions: 2 x q_cross / 2 x M values, against
        # the naive full exchange's analytic 2 x Q.
        assert st.communication_values_per_face() == 2 * 3 * 10
        assert mr.communication_values_per_face() == 2 * 6 * 10
        assert 2 * st.lat.q * st.decomp.face_nodes == 2 * 9 * 10

    def test_bytes_accounting(self):
        shape = (24, 10)
        d = build_distributed("periodic", "MR-P", "D2Q9", shape, 3)
        d.run(4)
        # 3 ranks x 2 faces each x 6 moments x 10 face nodes x 8 B x 4 steps.
        assert d.comm.bytes_sent == 3 * 2 * 6 * 10 * 8 * 4
        assert d.comm.steps == 4
        assert d.comm.bytes_per_step() == 3 * 2 * 6 * 10 * 8

    def test_mr_beats_naive_full_exchange_3d(self):
        """The compression argument on the wire: M=10 < Q=19."""
        shape = (12, 6, 5)
        mr = build_distributed("periodic", "MR-P", "D3Q19", shape, 2)
        crossing = build_distributed("periodic", "ST", "D3Q19", shape, 2)
        full = 2 * mr.lat.q * mr.decomp.face_nodes      # naive: all Q
        assert mr.communication_values_per_face() < full
        # ...but crossing-only ST is leaner still (5 < 10): MR trades
        # wire volume for recomputation only vs naive implementations.
        assert (crossing.communication_values_per_face()
                < mr.communication_values_per_face())
