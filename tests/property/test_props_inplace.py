"""Property-based tests for the single-lattice ``"aa"`` backend.

Two invariants that must hold for *any* periodic state and *any* stop
step — in particular at odd steps, where the persistent lattice is
stored in the component-shifted AA layout:

* a checkpoint/resume round trip is bit-exact (checkpoints are written
  in natural layout, so the parity of the stop step must not matter:
  the matrix's resume check on an ``aa`` cell, stopped at any step);
* the macroscopic fields agree with the reference in-place solver
  :class:`repro.solver.aa.AASolver` by the conformance matrix's
  tolerance rule — the array-level backend and the reference AA pattern
  are the same physics, step for step.
"""

from hypothesis import given, settings, strategies as st

from repro.geometry import periodic_box
from repro.lattice import get_lattice
from repro.solver import AASolver
from repro.service.registry import build_single

from test_conformance import Cell, assert_agree, check_resume, fields
from test_props_patterns import random_state


class TestInplaceProperties:
    @given(steps=st.integers(1, 4))
    @settings(max_examples=4, deadline=None)
    def test_checkpoint_round_trip_any_parity(self, steps):
        """Save/restore at any step (odd included) is bit-exact."""
        check_resume(Cell("periodic", "ST", "D2Q9", "aa", shape=(12, 10)),
                     steps, "aa")

    @given(seed=st.integers(0, 2 ** 31 - 1), steps=st.integers(1, 6))
    @settings(max_examples=10, deadline=None)
    def test_matches_reference_aa_solver(self, seed, steps):
        """aa-backend macroscopics == reference AASolver at any parity."""
        shape = (14, 12)
        lat = get_lattice("D2Q9")
        rho0, u0 = random_state(shape, seed)
        ref = AASolver(lat, periodic_box(shape), 0.8, rho0=rho0, u0=u0)
        fast = build_single("periodic", "ST", lat, shape, tau=0.8, rho0=rho0,
                            u0=u0, backend="aa")
        ref.run(steps)
        fast.run(steps)
        assert_agree(fields(*fast.macroscopic()), fields(*ref.macroscopic()),
                     exact=False, steps=steps)
