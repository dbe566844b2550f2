"""Unit tests for the kernel-side problem description."""

import numpy as np
import pytest

from repro.geometry import channel_2d, channel_3d
from repro.gpu import KernelProblem
from repro.lattice import get_lattice


class TestConstruction:
    def test_bad_mode(self, d2q9):
        with pytest.raises(ValueError, match="mode"):
            KernelProblem(d2q9, (8, 8), 0.8, mode="cavity")

    def test_shape_dimension_checked(self, d2q9):
        with pytest.raises(ValueError, match="shape"):
            KernelProblem(d2q9, (8, 8, 8), 0.8)

    def test_channel_default_inlet(self, d2q9):
        p = KernelProblem(d2q9, (8, 6), 0.8, mode="channel")
        assert p.u_inlet.shape == (2, 6)
        assert np.allclose(p.u_inlet, 0)

    def test_channel_inlet_shape_checked(self, d2q9):
        with pytest.raises(ValueError, match="u_inlet"):
            KernelProblem(d2q9, (8, 6), 0.8, mode="channel",
                          u_inlet=np.zeros((2, 5)))

    def test_bad_outlet_tangential(self, d2q9):
        with pytest.raises(ValueError, match="tangential"):
            KernelProblem(d2q9, (8, 6), 0.8, mode="channel",
                          outlet_tangential="extrapolate-linear")


class TestGeometryPredicates:
    def test_periodic_never_solid(self, d2q9):
        p = KernelProblem(d2q9, (8, 6), 0.8, mode="periodic")
        x = np.array([-1, 0, 5, 8])
        y = np.array([-1, 0, 5, 6])
        assert not p.is_solid((x, y)).any()
        assert p.axis_periodic(0) and p.axis_periodic(1)

    def test_channel_walls_2d(self, d2q9):
        p = KernelProblem(d2q9, (8, 6), 0.8, mode="channel")
        x = np.zeros(4, dtype=int)
        y = np.array([-1, 0, 5, 6])
        assert p.is_solid((x, y)).tolist() == [True, True, True, True]
        assert not p.is_solid((x, np.array([1, 2, 3, 4]))).any()
        assert not p.axis_periodic(0)

    def test_channel_walls_3d(self):
        lat = get_lattice("D3Q19")
        p = KernelProblem(lat, (8, 6, 5), 0.8, mode="channel")
        coords = (np.array([3]), np.array([2]), np.array([0]))
        assert p.is_solid(coords).all()
        coords = (np.array([3]), np.array([2]), np.array([2]))
        assert not p.is_solid(coords).any()

    def test_in_domain(self, d2q9):
        p = KernelProblem(d2q9, (8, 6), 0.8, mode="channel")
        x = np.array([-1, 0, 7, 8])
        y = np.array([2, 2, 2, 2])
        assert p.in_domain((x, y)).tolist() == [False, True, True, False]

    def test_node_type_grid_matches_geometry(self, d2q9):
        p = KernelProblem(d2q9, (8, 6), 0.8, mode="channel")
        assert np.array_equal(p.node_type_grid(), channel_2d(8, 6).node_type)

    def test_node_type_grid_3d(self):
        lat = get_lattice("D3Q19")
        p = KernelProblem(lat, (6, 5, 4), 0.8, mode="channel")
        assert np.array_equal(p.node_type_grid(), channel_3d(6, 5, 4).node_type)

    def test_node_type_grid_periodic(self, d2q9):
        p = KernelProblem(d2q9, (4, 4), 0.8)
        assert (p.node_type_grid() == 0).all()


class TestComponentSets:
    def test_inlet_outlet_components_partition(self, paper_lattice):
        p = KernelProblem(paper_lattice, (8,) * paper_lattice.d, 0.8)
        for getter in (p.inlet_components, p.outlet_components):
            unknown, tangential, known = getter()
            all_idx = np.sort(np.concatenate([unknown, tangential, known]))
            assert np.array_equal(all_idx, np.arange(paper_lattice.q))

    def test_inlet_unknowns_point_inward(self, paper_lattice):
        p = KernelProblem(paper_lattice, (8,) * paper_lattice.d, 0.8)
        unknown, _, _ = p.inlet_components()
        assert (paper_lattice.c[unknown, 0] > 0).all()

    def test_outlet_unknowns_point_inward(self, paper_lattice):
        p = KernelProblem(paper_lattice, (8,) * paper_lattice.d, 0.8)
        unknown, _, _ = p.outlet_components()
        assert (paper_lattice.c[unknown, 0] < 0).all()
