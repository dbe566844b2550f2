"""Fast-path backends inside the distributed slab runtime.

Parity of decomposed cells is the conformance matrix's
(``tests/property/test_conformance.py``): the ids below check its cells
on a 30×18 grid and three ranks. What a rank holds is pinned here.
"""

import pytest

from repro.parallel import RunSpec, run_process
from repro.service.registry import build_distributed

from test_conformance import (Cell, check_backends_agree,
                              check_rank_counts_agree)

SHAPE = (30, 18)


def cell(kind, scheme, backend, mode="emulated-3"):
    return Cell(kind, scheme, "D2Q9", backend, mode, shape=SHAPE)


class TestEmulatedFusedParity:
    @pytest.mark.parametrize("kind", ["channel", "periodic", "forced-channel"])
    @pytest.mark.parametrize("scheme", ["ST", "MR-P", "MR-R"])
    def test_matches_reference_ranks(self, kind, scheme):
        """Per-rank fused cores reproduce the reference slab trajectory."""
        check_backends_agree(cell(kind, scheme, "fused"))

    def test_fused_rank_count_invariance(self):
        """The fused trajectory is independent of the slab count."""
        for ranks in (2, 5):
            check_rank_counts_agree(cell("channel", "MR-P", "fused",
                                         f"emulated-{ranks}"))

    def test_numba_rejected_for_distributed(self):
        with pytest.raises(ValueError, match="numba"):
            RunSpec("channel", "ST", "D2Q9", SHAPE, 2, accel="numba")

    @pytest.mark.parametrize("scheme", ["ST", "MR-P", "MR-R"])
    def test_forced_channel_matches_single_domain(self, scheme):
        """The distributed forced channel reproduces the single solver."""
        check_rank_counts_agree(cell("forced-channel", scheme, "fused"))


class TestEmulatedInplaceParity:
    """The single-lattice ``aa`` backend inside the slab runtime.

    Distributed aa ranks run the conservative natural-layout step every
    step (halo exchange and checkpoints see natural arrays), so they
    must match the reference ranks exactly. The runtime drops the
    per-rank scratch lattice; boundary-free MR ranks then really run
    one distribution buffer lighter, while ST ranks trade it for the
    core-owned scratch (neutral — the conservative fallback still
    needs a gather target).
    """

    @pytest.mark.parametrize("kind", ["channel", "periodic", "forced-channel"])
    @pytest.mark.parametrize("scheme", ["ST", "MR-P", "MR-R"])
    def test_matches_reference_ranks(self, kind, scheme):
        check_backends_agree(cell(kind, scheme, "aa"))

    def test_aa_ranks_drop_scratch_lattice(self, field_doubles):
        """A rank owns only its state; the core's buffers are the inventory.

        Same check as ``tests/unit/test_accel_cores.py`` on one slab of
        the decomposition. A rank this small is a single window slab, so
        ``fused`` and ``aa`` hold the same buffers: the streamed slab for
        ST, the ``f*`` ring and the streamed slab for MR, each a whole
        lattice here (on a grid of several slabs they are a few planes).
        """
        for scheme, field, scratch in (("ST", "f", "_f_streamed"),
                                       ("MR-P", "m", "_f_scratch")):
            for accel in ("fused", "aa"):
                dist = build_distributed("periodic", scheme, "D2Q9", SHAPE, 2,
                                         accel=accel).run(2)
                state = dist.ranks[0]
                # the rank solver's reference-only buffer
                assert getattr(state, scratch) is None
                lat, n = dist.lat, state.domain.n_nodes
                q, m, d, p = lat.q, lat.n_moments, lat.d, lat.n_pairs
                expected = (
                    n * (2 * q + (m + d + d * d) + d + q) if scheme == "ST"
                    else n * (m + 2 * q + (m + d * d) + d + 3 * p + 2 + d))
                core = state._stepper.core
                assert field_doubles(getattr(state, field), core,
                                     min_size=n) == expected
                # boundary-free: one persistent lattice for ST, none
                # beside the moments for MR
                assert core.state_lattices == (1 if scheme == "ST" else 0)
                # a rank's halo exchange looks every step, so a
                # boundary-free aa ST core takes (and reports) the
                # natural-layout step; the sliding-window steps are
                # natural at every step
                assert state.accel_path == {
                    ("fused", "ST"): "lean", ("fused", "MR-P"): "lean",
                    ("aa", "ST"): "bounded", ("aa", "MR-P"): "lean",
                }[accel, scheme]
        assert build_distributed("periodic", "ST", "D2Q9", SHAPE, 2).ranks[0] \
            ._f_streamed is not None


class TestProcessFused:
    def test_process_backend_runs_fused(self):
        """Real worker processes honour RunSpec.accel and report it."""
        process = cell("channel", "MR-P", "fused", "process-2")
        check_backends_agree(process)
        check_rank_counts_agree(process)
        result = run_process(RunSpec("channel", "MR-P", "D2Q9", SHAPE, 2,
                                     accel="fused"), 1)
        assert all(rec["accel"] == "fused" for rec in result.per_rank)
