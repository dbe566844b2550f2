"""Unit tests for domains and standard geometries."""

import pytest

from repro.geometry import (FLUID, INLET, OUTLET, SOLID, channel_2d,
                            channel_3d, cylinder_in_channel, lid_driven_cavity,
                            periodic_box)


class TestDomain:
    def test_masks_cached_and_frozen(self):
        d = channel_2d(8, 6)
        m1 = d.solid_mask
        assert d.solid_mask is m1
        with pytest.raises(ValueError):
            m1[0, 0] = True

    def test_node_type_frozen(self):
        d = periodic_box((4, 4))
        with pytest.raises(ValueError):
            d.node_type[0, 0] = SOLID

    def test_counts(self):
        d = channel_2d(10, 8)
        assert d.n_nodes == 80
        assert d.n_fluid == 10 * 8 - 2 * 10     # two wall rows

    def test_shape_ndim(self):
        d = channel_3d(6, 5, 4)
        assert d.shape == (6, 5, 4)
        assert d.ndim == 3


class TestChannel2D:
    def test_wall_placement(self):
        d = channel_2d(8, 6)
        nt = d.node_type
        assert (nt[:, 0] == SOLID).all()
        assert (nt[:, -1] == SOLID).all()
        assert (nt[1:-1, 1:-1] == FLUID).all()

    def test_io_placement(self):
        nt = channel_2d(8, 6).node_type
        assert (nt[0, 1:-1] == INLET).all()
        assert (nt[-1, 1:-1] == OUTLET).all()
        # Corners stay solid.
        assert nt[0, 0] == SOLID and nt[-1, -1] == SOLID

    def test_without_io(self):
        nt = channel_2d(8, 6, with_io=False).node_type
        assert (nt[0, 1:-1] == FLUID).all()

    def test_too_small_raises(self):
        with pytest.raises(ValueError):
            channel_2d(2, 6)


class TestChannel3D:
    def test_wall_placement(self):
        d = channel_3d(6, 5, 4)
        nt = d.node_type
        assert (nt[:, 0, :] == SOLID).all()
        assert (nt[:, -1, :] == SOLID).all()
        assert (nt[:, :, 0] == SOLID).all()
        assert (nt[:, :, -1] == SOLID).all()
        assert (nt[1:-1, 1:-1, 1:-1] == FLUID).all()

    def test_io_on_interior_faces_only(self):
        nt = channel_3d(6, 5, 4).node_type
        assert (nt[0, 1:-1, 1:-1] == INLET).all()
        assert (nt[-1, 1:-1, 1:-1] == OUTLET).all()
        assert nt[0, 0, 0] == SOLID


class TestOtherGeometries:
    def test_periodic_box_all_fluid(self):
        d = periodic_box((5, 5, 5))
        assert d.n_fluid == 125
        assert not d.solid_mask.any()

    def test_cavity_2d(self):
        d = lid_driven_cavity(7)
        nt = d.node_type
        assert (nt[0] == SOLID).all() and (nt[-1] == SOLID).all()
        assert (nt[:, 0] == SOLID).all() and (nt[:, -1] == SOLID).all()
        assert (nt[1:-1, 1:-1] == FLUID).all()

    def test_cavity_3d(self):
        d = lid_driven_cavity(5, ndim=3)
        assert d.n_fluid == 3 ** 3

    def test_cavity_bad_ndim(self):
        with pytest.raises(ValueError):
            lid_driven_cavity(5, ndim=4)

    def test_cylinder(self):
        d = cylinder_in_channel(30, 20, 10, 10, 4)
        nt = d.node_type
        assert nt[10, 10] == SOLID              # centre
        assert nt[10, 14] == SOLID              # on the radius (r = 4)
        assert nt[10, 15] == FLUID              # just outside
        assert nt[0, 10] == INLET
        # Obstacle must not touch the inlet.
        assert (nt[0] != SOLID).sum() == 18
