"""Sweep members against their solo runs, and the single-lattice core.

A sweep used to step its members in lockstep on a batch axis of the
fused cores; the axis is gone, and every ``mrlbm sweep`` member is a
single-domain run. These checks keep what the batch had to guarantee —
a member with its own relaxation time, state or forcing ends bit for
bit on its independent ``fused`` run (the ``swept`` fixture asserts it)
— across ST / MR-P / MR-R, D2Q9 and D3Q19, plus the fused core's own
validation, streaming and steady-state allocation behaviour. None of it
is a conformance-matrix cell: the matrix steps one relaxation time per
cell and builds no sweep. The file keeps its old name so that its test
ids stay stable.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.accel import FusedMRCore, FusedSTCore, NeighborTable
from repro.ensemble import expand_sweep
from repro.lattice import get_lattice
from repro.parallel.runtime import RunSpec

SCHEMES = ("ST", "MR-P", "MR-R")


def specs(kind, scheme, lattice, shape, params):
    """One fused sweep spec per ``(tau, u_max)``."""
    return [RunSpec(kind=kind, scheme=scheme, lattice=lattice, shape=shape,
                    n_ranks=1, tau=tau, options={"u_max": u}, accel="fused")
            for tau, u in params]


class TestBatchedParity:
    @pytest.mark.parametrize("scheme", SCHEMES)
    @pytest.mark.parametrize("lattice_name,shape", [
        ("D2Q9", (14, 10)),
        ("D3Q19", (6, 5, 4)),
    ])
    def test_heterogeneous_tau_periodic(self, swept, scheme, lattice_name,
                                        shape):
        """Members of their own tau and state: the periodic vortex in 2D,
        the streamwise-periodic forced channel in 3D."""
        kind = "taylor-green" if len(shape) == 2 else "forced-channel"
        params = [(0.6, 0.02), (0.85, 0.03), (1.3, 0.04)]
        _, members = swept(specs(kind, scheme, lattice_name, shape, params), 8)
        assert all(m.time == 8 for m in members)

    @pytest.mark.parametrize("scheme", SCHEMES)
    def test_heterogeneous_forcing(self, swept, scheme):
        """Per-member Guo forcing (different tau AND u_max) stays exact."""
        params = [(0.7, 0.03), (0.9, 0.05), (1.2, 0.08), (0.62, 0.04)]
        swept(specs("forced-channel", scheme, "D2Q9", (16, 10), params), 10)

    @pytest.mark.parametrize("scheme", SCHEMES)
    def test_forcing_3d(self, swept, scheme):
        params = [(0.8, 0.04), (1.1, 0.04)]
        swept(specs("forced-channel", scheme, "D3Q19", (8, 6, 5), params), 6)

    def test_roll_stream_matches_gather(self):
        """The core's wrap-block copies are the table's gather, bit for bit."""
        lat = get_lattice("D2Q9")
        f = np.random.default_rng(1).standard_normal((lat.q, 12, 8))
        out = np.empty_like(f)
        FusedSTCore(lat, (12, 8), 0.8)._stream(f, out)
        assert np.array_equal(out, NeighborTable(lat, (12, 8)).gather(f))

    @given(taus=st.lists(st.floats(0.55, 1.9), min_size=1, max_size=5))
    @settings(max_examples=10, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_property_random_tau_vectors(self, swept, taus):
        """Any legal set of taus: members track their independent runs."""
        swept(expand_sweep("taylor-green", ["MR-P"], ["D2Q9"], [(10, 8)],
                           [round(t, 3) for t in taus])[0], 4)


class TestCoreValidation:
    def test_taus_must_exceed_half(self):
        with pytest.raises(ValueError, match="tau"):
            expand_sweep("taylor-green", ["MR-P"], ["D2Q9"], [(8, 8)],
                         [0.8, 0.5])

    def test_taus_must_be_nonempty(self):
        with pytest.raises(ValueError, match="grid is empty"):
            expand_sweep("taylor-green", ["ST"], ["D2Q9"], [(8, 8)], [])

    def test_mr_scheme_validated(self):
        with pytest.raises(ValueError, match="MR-P or MR-R"):
            FusedMRCore(get_lattice("D2Q9"), (8, 8), 0.8, scheme="ST")

    def test_auto_stream_resolves_to_gather(self, swept, monkeypatch):
        """A member streams the way its solo run does: on a grid of several
        slabs it slides the window (``lean``), as a batch never could."""
        monkeypatch.setattr("repro.accel.fused._CHUNK", 64)
        monkeypatch.setattr("repro.accel.fused._SLAB_CHUNKS", 1)
        _, members = swept(specs("channel", "MR-R", "D2Q9", (32, 12),
                                 [(0.8, 0.05), (1.1, 0.05)]), 5)
        for m in members:
            assert m.accel_path == "lean"
            assert len(m._stepper.core._window()[0]) > 1

    def test_boundary_list_length_mismatch(self):
        """A sliding core refuses a boundary list it was not built with."""
        from repro.service.registry import build_single

        walled = build_single("channel", "ST", "D2Q9", (16, 10), tau=0.8,
                              backend="fused").run(1)
        core = walled._stepper.core
        with pytest.raises(ValueError, match="built with"):
            core.step(walled.f, boundaries=[])


class TestSteadyStateAllocations:
    def test_st_step_does_not_allocate_fields(self, traced):
        """After warm-up a fused ST step allocates no per-call fields.

        NumPy's buffered ufunc iteration still allocates bounded chunk
        buffers (<= ~64 KB each), so the field is several times larger:
        one transient ``(Q, N)`` allocation would pass ``f.nbytes // 4``.
        """
        lat = get_lattice("D2Q9")
        core = FusedSTCore(lat, (128, 96), 0.7)
        f = 1.0 + 0.01 * np.random.default_rng(3).standard_normal(
            (lat.q, 128, 96))
        for _ in range(3):
            core.step(f)
        _, current, peak = traced(lambda: [core.step(f) for _ in range(5)])
        assert peak < f.nbytes // 4        # no per-step field allocation
        assert current < 64 * 1024         # and nothing is retained
