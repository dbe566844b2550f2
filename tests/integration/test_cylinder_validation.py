"""Cylinder-flow validation tier: Schäfer–Turek benchmarks + curved BC.

Three layers of evidence that the sparse backend + interpolated
(Bouzidi) curved boundary reproduce real bluff-body physics:

* **tier-1** — the Re=20 steady case lands its drag coefficient inside
  5% of the Schäfer–Turek reference band in ~20 s;
* **validation marker** — the Re=100 Kármán vortex street hits the
  reference Strouhal number within 5%, and a grid-refinement study shows
  the curved-boundary drag converging at second order while the
  staircase stalls (run with ``pytest -m validation``).
"""

import math

import numpy as np
import pytest

from repro.service.registry import build_single
from repro.validation import (SCHAFER_TUREK, schafer_turek_tau,
                              strouhal_number)


def case(re, d, u_max, curved=True):
    """The ``schafer-turek`` MR-R solver on ``sparse`` at Reynolds number
    ``re``, ``d`` cells per diameter and peak inlet speed ``u_max``."""
    return build_single("schafer-turek", "MR-R", "D2Q9",
                        (round(22 * d), round(4.1 * d) + 2),
                        tau=schafer_turek_tau(re, d, u_max), backend="sparse",
                        u_max=u_max, curved=curved)


class TestSchaferTurekRe20:
    def test_steady_drag_within_five_percent(self):
        """Re=20 drag lands within 5% of the benchmark band (tier-1)."""
        solver = case(20.0, 10.0, 0.05).run(12_000)
        c_d, c_l = (solver.results()[k] for k in ("c_d", "c_l"))
        lo, hi = SCHAFER_TUREK[20]["c_d"]
        ref = 0.5 * (lo + hi)
        assert abs(c_d - ref) / ref <= 0.05, (c_d, ref)
        # The steady case is near-symmetric: lift is a small fraction of
        # drag (the reference c_l ~= 0.0106 at converged resolution).
        assert abs(c_l) < 0.05 * c_d

    def test_case_construction_is_benchmark_shaped(self):
        """Geometry, Reynolds number and inlet normalization line up."""
        solver = case(20.0, 8.0, 0.1, curved=False)
        inlet = solver.boundaries[1].u_b       # the profile's mean is 2/3
        assert inlet[0, 1:-1].mean() == pytest.approx(2 * 0.1 / 3, rel=0.05)
        assert solver.results()["re"] == pytest.approx(20.0)
        cylinder = solver.domain.solid_mask.sum() - 2 * 176     # walls
        assert cylinder == pytest.approx(math.pi * 4.0 ** 2, rel=0.1)


@pytest.mark.validation
class TestSchaferTurekRe100:
    def test_strouhal_within_five_percent(self):
        """The Kármán street sheds at St within 5% of the 0.30 reference."""
        solver = case(100.0, 10.0, 0.15).run(8_000)     # shed transients
        lifts = []
        solver.run(8_192, callback=lambda s: lifts.append(
            s.results()["c_l"]), callback_interval=1)
        st = strouhal_number(np.asarray(lifts), 2 * 0.15 / 3, 10.0)
        lo, hi = SCHAFER_TUREK[100]["strouhal"]
        ref = 0.5 * (lo + hi)
        assert abs(st - ref) / ref <= 0.05, st
        # Lift amplitude near the reference c_l_max ~= 1.0 (drag at this
        # resolution over-predicts ~13%, so only St and lift are pinned).
        c_l_max = float(np.abs(lifts).max())
        assert 0.7 <= c_l_max <= 1.3, c_l_max


@pytest.mark.validation
class TestCurvedBoundaryConvergence:
    def test_drag_converges_second_order_vs_staircase(self):
        """Curved-BC drag converges at >= order 1.5 toward the fine-grid
        solution; the staircase error is larger and stalls."""

        def c_d(d, curved):
            solver = case(20.0, d, 0.05, curved).run(int(round(1200 * d)))
            return solver.results()["c_d"]

        ref = c_d(16.0, True)                       # fine-grid reference
        errs_curved = [abs(c_d(d, True) - ref) for d in (6.0, 9.0)]
        errs_stair = [abs(c_d(d, False) - ref) for d in (6.0, 9.0)]

        order = (math.log(errs_curved[0] / errs_curved[1])
                 / math.log(9.0 / 6.0))
        assert order >= 1.5, (order, errs_curved)
        # The staircase wall is first-order in wall position: its error
        # is far larger at every resolution and barely improves.
        assert errs_stair[0] > errs_curved[0]
        assert errs_stair[1] > 2.0 * errs_curved[1]
