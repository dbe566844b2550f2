"""Integration: AA-pattern virtual-GPU kernel vs the AA reference solver."""

from functools import partial

import numpy as np
import pytest

from repro.geometry import periodic_box
from repro.gpu import AAKernel, KernelProblem, MemoryTracker, STKernel, V100
from repro.lattice import get_lattice
from repro.solver import AASolver

from test_kernel_equivalence import periodic_setup

setup = partial(periodic_setup, seed=9)


class TestEquivalence:
    @pytest.mark.parametrize("lattice_name,shape", [
        ("D2Q9", (18, 14)),
        ("D3Q19", (8, 7, 6)),
    ])
    def test_matches_reference_both_parities(self, lattice_name, shape):
        lat, prob, rho0, u0 = setup(lattice_name, shape)
        kernel = AAKernel(prob, V100, rho0=rho0, u0=u0)
        ref = AASolver(lat, periodic_box(shape), 0.8, rho0=rho0, u0=u0)
        for _ in range(5):
            kernel.step()
            ref.run(1)
            assert np.abs(kernel.distribution()
                          - ref._gathered_state()).max() < 1e-13

    def test_channel_mode_rejected(self):
        lat = get_lattice("D2Q9")
        prob = KernelProblem(lat, (12, 10), 0.8, mode="channel")
        with pytest.raises(ValueError, match="periodic"):
            AAKernel(prob, V100)


class TestTrafficAndFootprint:
    def test_traffic_matches_st_but_half_the_state(self):
        lat, prob, rho0, u0 = setup("D2Q9", (128, 128))
        results = {}
        for name, cls in (("AA", AAKernel), ("ST", STKernel)):
            tr = MemoryTracker(l2_bytes=int(V100.l2_kb * 1024))
            k = cls(prob, V100, tracker=tr, rho0=rho0, u0=u0)
            k.step()
            stats = k.step()
            results[name] = (stats.traffic.sector_bytes_total / stats.n_nodes,
                             k.global_state_bytes)
        aa_traffic, aa_state = results["AA"]
        st_traffic, st_state = results["ST"]
        assert aa_traffic == pytest.approx(st_traffic, rel=0.02)   # ~2Q x 8
        assert aa_state * 2 == st_state                            # Q vs 2Q

    def test_even_and_odd_steps_both_move_2q(self):
        lat, prob, *_ = setup("D2Q9", (64, 64))
        tr = MemoryTracker(l2_bytes=int(V100.l2_kb * 1024))
        k = AAKernel(prob, V100, tracker=tr)
        even = k.step()
        odd = k.step()
        n = 64 * 64
        for stats in (even, odd):
            per_node = stats.traffic.sector_bytes_total / n
            assert per_node == pytest.approx(144, rel=0.03)
        assert even.kernel_name.startswith("AA-even")
        assert odd.kernel_name.startswith("AA-odd")

    def test_odd_step_write_misalignment(self):
        """The odd flavour's scattered writes touch more sectors than the
        even flavour's aligned ones — AA's known coalescing penalty."""
        lat, prob, *_ = setup("D2Q9", (128, 128))
        k = AAKernel(prob, V100)        # raw sector counting, no L2
        even = k.step()
        odd = k.step()
        assert (odd.traffic.write_transactions
                >= even.traffic.write_transactions)
