"""Unit tests for the performance models (roofline, footprint, flops, MFLUPS)."""


import pytest

from repro.gpu import MI100, V100
from repro.lattice import get_lattice
from repro.perf import (PerformanceModel, arithmetic_intensity,
                        bandwidth_efficiency, bytes_per_flup, flops_per_node,
                        fp64_efficiency, halo_factor, memory_reduction,
                        mrp_flops_per_node, mrr_flops_per_node,
                        roofline_mflups, st_flops_per_node, state_gib,
                        values_per_update)
from repro.perf.footprint import circular_shift_state_bytes, max_problem_size


class TestRoofline:
    def test_table2_values(self):
        """Paper Table 2: 144/96 for D2Q9, 304/160 for D3Q19."""
        d2, d3 = get_lattice("D2Q9"), get_lattice("D3Q19")
        assert bytes_per_flup(d2, "ST") == 144
        assert bytes_per_flup(d2, "MR") == 96
        assert bytes_per_flup(d3, "ST") == 304
        assert bytes_per_flup(d3, "MR") == 160

    def test_table3_values(self):
        """Paper Table 3 roofline MFLUPS (Eq. 15)."""
        d2, d3 = get_lattice("D2Q9"), get_lattice("D3Q19")
        assert roofline_mflups(V100, d2, "ST") == pytest.approx(6250)
        assert roofline_mflups(V100, d3, "ST") == pytest.approx(2960, rel=0.01)
        assert roofline_mflups(V100, d2, "MR") == pytest.approx(9375)
        assert roofline_mflups(V100, d3, "MR") == pytest.approx(5625)
        assert roofline_mflups(MI100, d2, "ST") == pytest.approx(8533, rel=0.01)
        assert roofline_mflups(MI100, d3, "ST") == pytest.approx(4042, rel=0.01)
        assert roofline_mflups(MI100, d2, "MR") == pytest.approx(12800, rel=0.01)
        assert roofline_mflups(MI100, d3, "MR") == pytest.approx(7680, rel=0.01)

    def test_scheme_aliases(self):
        d2 = get_lattice("D2Q9")
        assert values_per_update(d2, "MR-P") == values_per_update(d2, "MR-R") == 12
        assert values_per_update(d2, "BGK") == 18
        with pytest.raises(ValueError):
            bytes_per_flup(d2, "MRT")

    def test_d3q27_extension(self):
        """Future work (Section 5): the MR advantage grows with Q."""
        q27 = get_lattice("D3Q27")
        assert bytes_per_flup(q27, "ST") == 2 * 27 * 8
        assert bytes_per_flup(q27, "MR") == 160            # M = 10 still
        assert memory_reduction(q27) > memory_reduction(get_lattice("D3Q19"))


class TestFootprint:
    def test_paper_gib_values(self):
        """Section 4.1: ~2 / 1.3 GB (D2Q9) and 4.2 / 2.23 GB (D3Q19) at 15M."""
        d2, d3 = get_lattice("D2Q9"), get_lattice("D3Q19")
        n = 15_000_000
        assert state_gib(d2, "ST", n) == pytest.approx(2.0, abs=0.05)
        assert state_gib(d2, "MR", n) == pytest.approx(1.3, abs=0.05)
        assert state_gib(d3, "ST", n) == pytest.approx(4.25, abs=0.05)
        assert state_gib(d3, "MR", n) == pytest.approx(2.23, abs=0.01)

    def test_reductions(self):
        assert memory_reduction(get_lattice("D2Q9")) == pytest.approx(1 / 3)
        assert memory_reduction(get_lattice("D3Q19")) == pytest.approx(0.4737, abs=1e-3)

    def test_circular_shift_halves_footprint(self):
        d3 = get_lattice("D3Q19")
        n = 1_000_000
        single = circular_shift_state_bytes(d3, n, margin_nodes=2 * 128 * 128)
        from repro.perf import state_bytes

        assert single < 0.55 * state_bytes(d3, "MR", n)

    def test_max_problem_size(self):
        d3 = get_lattice("D3Q19")
        n_st = max_problem_size(d3, "ST", V100.memory_bytes())
        n_mr = max_problem_size(d3, "MR", V100.memory_bytes())
        assert n_mr / n_st == pytest.approx(19 / 10, rel=1e-6)


class TestFlops:
    def test_halo_factor(self):
        assert halo_factor((32,)) == pytest.approx(34 / 32)
        assert halo_factor((8, 8)) == pytest.approx(100 / 64)

    def test_ordering(self, paper_lattice):
        tile = (16,) if paper_lattice.d == 2 else (8, 8)
        st = st_flops_per_node(paper_lattice)
        p = mrp_flops_per_node(paper_lattice, tile)
        r = mrr_flops_per_node(paper_lattice, tile)
        assert st < p < r

    def test_paper_ai_claim_d2q9(self):
        """Section 4.2: MR-R arithmetic intensity ~60% above MR-P."""
        d2 = get_lattice("D2Q9")
        ratio = (arithmetic_intensity(d2, "MR-R", (16,))
                 / arithmetic_intensity(d2, "MR-P", (16,)))
        assert 1.3 < ratio < 1.8

    def test_3d_much_heavier_than_2d(self):
        """The flop growth that makes MR-R compute-bound only in 3D."""
        d2, d3 = get_lattice("D2Q9"), get_lattice("D3Q19")
        ratio = mrr_flops_per_node(d3, (8, 8)) / mrr_flops_per_node(d2, (16,))
        assert ratio > 3.0

    def test_dispatch(self):
        d2 = get_lattice("D2Q9")
        assert flops_per_node(d2, "ST") == st_flops_per_node(d2)
        assert flops_per_node(d2, "MR-P", (16,)) == mrp_flops_per_node(d2, (16,))
        with pytest.raises(ValueError):
            flops_per_node(d2, "MRT")

    def test_no_tile_means_no_halo(self):
        d2 = get_lattice("D2Q9")
        assert mrp_flops_per_node(d2) < mrp_flops_per_node(d2, (16,))


class TestCalibration:
    def test_efficiencies_in_range(self):
        for dev in (V100, MI100):
            for scheme in ("ST", "MR"):
                for nd in (2, 3):
                    e = bandwidth_efficiency(dev, scheme, nd)
                    assert 0.3 < e < 0.95
            assert 0.1 < fp64_efficiency(dev) < 0.7

    def test_st_beats_mr_in_efficiency(self):
        """The paper's core observation: ST sustains a larger fraction of
        peak bandwidth than MR, on both devices and both dimensions."""
        for dev in (V100, MI100):
            for nd in (2, 3):
                assert (bandwidth_efficiency(dev, "ST", nd)
                        > bandwidth_efficiency(dev, "MR", nd))

    def test_mi100_mr3d_is_the_outlier(self):
        """'Only 42% of expected performance' — the AMD 3D MR anomaly."""
        assert bandwidth_efficiency(MI100, "MR", 3) < 0.45

    def test_unknown_device(self):
        from dataclasses import replace

        ghost = replace(V100, name="H100")
        with pytest.raises(ValueError):
            bandwidth_efficiency(ghost, "ST", 2)
        with pytest.raises(ValueError):
            fp64_efficiency(ghost)

    def test_bad_ndim(self):
        with pytest.raises(ValueError):
            bandwidth_efficiency(V100, "ST", 1)


class TestPerformanceModel:
    def test_plateau_values_match_paper(self):
        """The 12 headline MFLUPS numbers (Sections 4.2-4.3), within 10%."""
        targets = {
            ("V100", "D2Q9", "ST"): 5300, ("V100", "D2Q9", "MR-P"): 7000,
            ("MI100", "D2Q9", "ST"): 6200, ("MI100", "D2Q9", "MR-P"): 8600,
            ("V100", "D3Q19", "ST"): 2600, ("V100", "D3Q19", "MR-P"): 3800,
            ("V100", "D3Q19", "MR-R"): 3000,
            ("MI100", "D3Q19", "ST"): 2800, ("MI100", "D3Q19", "MR-P"): 3200,
            ("MI100", "D3Q19", "MR-R"): 2500,
        }
        for (dev_name, lname, scheme), target in targets.items():
            dev = V100 if dev_name == "V100" else MI100
            lat = get_lattice(lname)
            shape = (4096, 4096) if lat.d == 2 else (256, 256, 256)
            tile = None if scheme == "ST" else ((16,) if lat.d == 2 else (8, 8))
            pred = PerformanceModel(dev).predict_shape(
                lat, scheme, shape, tile_cross=tile,
                w_t=8 if (tile and lat.d == 2) else 1,
            )
            assert pred.mflups == pytest.approx(target, rel=0.10), \
                (dev_name, lname, scheme)

    def test_mrr_compute_bound_only_in_3d(self):
        pm = PerformanceModel(V100)
        d2, d3 = get_lattice("D2Q9"), get_lattice("D3Q19")
        p2 = pm.predict_shape(d2, "MR-R", (4096, 4096), tile_cross=(16,), w_t=8)
        p3 = pm.predict_shape(d3, "MR-R", (256, 256, 256), tile_cross=(8, 8))
        assert p2.bound == "memory"
        assert p3.bound == "compute"

    def test_small_problems_underperform(self):
        pm = PerformanceModel(V100)
        d2 = get_lattice("D2Q9")
        small = pm.predict_shape(d2, "ST", (64, 64))
        large = pm.predict_shape(d2, "ST", (4096, 4096))
        assert small.mflups < 0.5 * large.mflups

    def test_effective_bandwidth_consistency(self):
        pm = PerformanceModel(V100)
        d2 = get_lattice("D2Q9")
        p = pm.predict_shape(d2, "ST", (4096, 4096))
        assert p.effective_bandwidth_gbs == pytest.approx(
            p.mflups * 1e6 * p.bytes_per_node / 1e9
        )

    def test_custom_bytes_per_node(self):
        pm = PerformanceModel(V100)
        d2 = get_lattice("D2Q9")
        a = pm.predict(d2, "ST", 10 ** 6, bytes_per_node=144)
        b = pm.predict(d2, "ST", 10 ** 6, bytes_per_node=288)
        # Near-exact 2x, up to the fixed launch overhead.
        assert a.mflups == pytest.approx(2 * b.mflups, rel=0.05)
