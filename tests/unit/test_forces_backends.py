"""Momentum-exchange forces are backend-invariant, by the conformance
matrix's tolerance rule (``tests/property/test_conformance.py``)."""

import numpy as np
import pytest

from repro.accel import BACKENDS
from repro.analysis import MomentumExchangeForce
from repro.boundary import HalfwayBounceBack
from repro.geometry import Domain, lid_driven_cavity
from repro.lattice import get_lattice
from repro.service.registry import build_single
from repro.solver import make_solver

from test_conformance import assert_agree


def drag_series(scheme, backend, steps=12):
    """Force on the ``cylinder`` kind's staircase obstacle; its one
    half-way bounce-back list folds into ``sparse``'s compact state."""
    s = build_single("cylinder", scheme, "D2Q9", (26, 16), backend=backend)
    assert (s._table is not None) == (backend == "sparse")
    body = s.domain.solid_mask.copy()
    body[:, [0, -1]] = False            # the walls; the cylinder is left
    return MomentumExchangeForce(s.run(steps), body_mask=body).force()


class TestForceBackendParity:
    @pytest.mark.parametrize("scheme", ["ST", "MR-P", "MR-R"])
    def test_cylinder_drag_identical_across_backends(self, scheme):
        """Drag on a staircase cylinder agrees across every backend — the ST
        distribution read and the MR post-collision reconstruction both
        see backend-identical states."""
        ref = drag_series(scheme, "reference")
        assert np.abs(ref).max() > 0          # flow actually pushes
        for backend in BACKENDS[1:]:
            assert_agree(drag_series(scheme, backend), ref, exact=False,
                         steps=12)

    def test_moving_wall_force_with_wall_velocity(self):
        """The wall-velocity momentum correction survives every backend:
        the lid of a driven cavity feels a nonzero backend-invariant
        force through the moving-wall branch of the meter."""
        lat = get_lattice("D2Q9")
        n = 14
        domain = lid_driven_cavity(n)
        lid_mask = np.zeros((n, n), bool)
        lid_mask[:, -1] = True
        wall_u = np.zeros((2, n, n))
        wall_u[0, :, -1] = 0.08

        def lid_force(backend):
            s = make_solver("MR-R", lat, domain, 0.8,
                            boundaries=[HalfwayBounceBack(
                                wall_velocity=wall_u)],
                            backend=backend)
            meter = MomentumExchangeForce(s, body_mask=lid_mask,
                                          wall_velocity=wall_u)
            s.run(10)
            return meter.force()

        ref = lid_force("reference")
        assert abs(ref[0]) > 0                # lid drags the fluid
        for backend in BACKENDS[1:]:
            assert_agree(lid_force(backend), ref, exact=False, steps=10)

    def test_random_porous_mask_force_parity(self):
        """A multi-body random mask keeps parity (many disjoint surfaces)."""
        rng = np.random.default_rng(9)
        nt = np.zeros((18, 12), dtype=np.int8)
        nt[rng.random((18, 12)) < 0.3] = 1
        nt.flat[0] = 0
        domain = Domain(nt)
        lat = get_lattice("D2Q9")
        force = np.zeros(2)
        force[0] = 1e-5
        results = {}
        for backend in BACKENDS:
            s = make_solver("ST", lat, domain, 0.9,
                            boundaries=[HalfwayBounceBack()], force=force,
                            backend=backend)
            meter = MomentumExchangeForce(s, body_mask=domain.solid_mask)
            s.run(8)
            results[backend] = meter.force()
        ref = results["reference"]
        for backend in BACKENDS[1:]:
            assert_agree(results[backend], ref, exact=False, steps=8)
