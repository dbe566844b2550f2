"""Per-member parity of the batched fused cores against independent runs.

The contract of :mod:`repro.accel.batched` is that every member of a
batched ensemble reproduces its own independent ``backend="fused"`` run
bit for bit — a member's block is cut into the columns of its solo run,
so the conformance matrix's tolerance rule
(``tests/property/test_conformance.py``) allows no rounding; the batch
axis is a dispatch-amortization device, never a physics change. These
tests pin that across ST / MR-P / MR-R, D2Q9 and D3Q19, heterogeneous
per-member relaxation times and forcing, plus the constructor
validation and steady-state allocation behavior of the cores.
"""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.accel.batched import (
    BatchedFusedMRCore,
    BatchedFusedSTCore,
    _as_taus,
)
from repro.core.streaming import stream_push
from repro.ensemble import EnsembleRunner
from repro.lattice import get_lattice
from repro.service.registry import build_single
from repro.validation import taylor_green_fields

from test_conformance import assert_agree, fields

SCHEMES = ("ST", "MR-P", "MR-R")


def periodic_member(scheme, lattice_name, shape, tau, seed):
    """One fused periodic solver with member-specific initial state."""
    lat = get_lattice(lattice_name)
    if lat.d == 2:
        rho0, u0 = taylor_green_fields(shape, 0.0, lat.viscosity(tau),
                                       0.02 + 0.01 * seed)
    else:
        rng = np.random.default_rng(seed)
        rho0 = 1 + 0.02 * rng.standard_normal(shape)
        u0 = 0.03 * rng.standard_normal((lat.d, *shape))
    return build_single("periodic", scheme, lat, shape, tau=tau, rho0=rho0,
                        u0=u0, backend="fused")


def assert_members_match(solos, members):
    """Every enrolled member is its independent twin, bit for bit."""
    for solo, member in zip(solos, members):
        assert_agree(fields(*member.macroscopic()),
                     fields(*solo.macroscopic()), exact=True)


class TestBatchedParity:
    @pytest.mark.parametrize("scheme", SCHEMES)
    @pytest.mark.parametrize("lattice_name,shape", [
        ("D2Q9", (14, 10)),
        ("D3Q19", (6, 5, 4)),
    ])
    def test_heterogeneous_tau_periodic(self, scheme, lattice_name, shape):
        """Batched == B independent fused runs, member-specific tau/state."""
        taus = (0.6, 0.85, 1.3)
        build = lambda: [periodic_member(scheme, lattice_name, shape, tau, k)
                         for k, tau in enumerate(taus)]       # noqa: E731
        solos, members = build(), build()
        for s in solos:
            s.run(8)
        EnsembleRunner(members).run(8)
        assert_members_match(solos, members)
        assert all(m.time == 8 for m in members)

    @pytest.mark.parametrize("scheme", SCHEMES)
    def test_heterogeneous_forcing(self, scheme):
        """Per-member Guo forcing (different tau AND u_max) stays exact."""
        params = [(0.7, 0.03), (0.9, 0.05), (1.2, 0.08), (0.62, 0.04)]
        build = lambda: [build_single("forced-channel", scheme, "D2Q9",
                                      (16, 10), tau=tau, u_max=u,
                                      backend="fused")
                         for tau, u in params]                # noqa: E731
        solos, members = build(), build()
        for s in solos:
            s.run(10)
        EnsembleRunner(members).run(10)
        assert_members_match(solos, members)

    @pytest.mark.parametrize("scheme", SCHEMES)
    def test_forcing_3d(self, scheme):
        build = lambda: [build_single("forced-channel", scheme, "D3Q19",
                                      (8, 6, 5), tau=tau, u_max=0.04,
                                      backend="fused")
                         for tau in (0.8, 1.1)]               # noqa: E731
        solos, members = build(), build()
        for s in solos:
            s.run(6)
        EnsembleRunner(members).run(6)
        assert_members_match(solos, members)

    def test_roll_stream_matches_gather(self):
        """A batch gathers through the table, a single simulation rolls:
        the same pure permutation, so members match bit for bit."""
        build = lambda: [periodic_member("MR-P", "D2Q9", (12, 8), tau, k)
                         for k, tau in enumerate((0.7, 1.0))]  # noqa: E731
        solos, members = build(), build()
        for s in solos:
            s.run(5)
        EnsembleRunner(members).run(5)
        for solo, member in zip(solos, members):
            assert np.array_equal(solo.m, member.m)

    @given(taus=st.lists(st.floats(0.55, 1.9), min_size=1, max_size=5))
    @settings(max_examples=10, deadline=None)
    def test_property_random_tau_vectors(self, taus):
        """Any legal tau vector: members track their independent runs."""
        taus = [round(t, 3) for t in taus]
        build = lambda: [periodic_member("MR-P", "D2Q9", (10, 8), tau, k)
                         for k, tau in enumerate(taus)]       # noqa: E731
        solos, members = build(), build()
        for s in solos:
            s.run(4)
        EnsembleRunner(members).run(4)
        assert_members_match(solos, members)


class TestCoreValidation:
    def test_taus_must_exceed_half(self):
        with pytest.raises(ValueError, match="exceed 1/2"):
            _as_taus([0.8, 0.5])

    def test_taus_must_be_1d(self):
        with pytest.raises(ValueError, match="1-D"):
            _as_taus([[0.8, 0.9]])

    def test_taus_must_be_nonempty(self):
        with pytest.raises(ValueError, match="non-empty"):
            _as_taus([])

    def test_batch_size_mismatch(self):
        with pytest.raises(ValueError, match="expected 3"):
            _as_taus([0.8, 0.9], batch=3)

    def test_mr_scheme_validated(self):
        with pytest.raises(ValueError, match="MR-P or MR-R"):
            BatchedFusedMRCore(get_lattice("D2Q9"), (8, 8), [0.8],
                               scheme="ST")

    def test_auto_stream_resolves_to_gather(self):
        """With a batch axis the core streams through the neighbour table."""
        lat = get_lattice("D2Q9")
        core = BatchedFusedSTCore(lat, (8, 8), [0.8, 0.9])
        assert core.batch == 2
        f = np.random.default_rng(1).standard_normal((2, lat.q, 8, 8))
        out = np.empty_like(f)
        core._stream(f, out)
        for k in range(2):
            assert np.array_equal(out[k], stream_push(lat, f[k]))

    def test_boundary_list_length_mismatch(self):
        lat = get_lattice("D2Q9")
        core = BatchedFusedSTCore(lat, (6, 6), [0.8, 0.9])
        f = np.tile(lat.w[:, None, None], (2, 1, 6, 6))
        with pytest.raises(ValueError, match="boundary lists"):
            core.step(f, boundaries=[[]])


class TestSteadyStateAllocations:
    def test_st_step_does_not_allocate_fields(self):
        """After warm-up a batched ST step allocates no per-call fields.

        NumPy's buffered ufunc iteration still allocates bounded chunk
        buffers (<= ~64 KB each, independent of field size), so the pin
        uses a field several times larger than that cap: a single
        transient ``(B, Q, N)`` allocation per step would push the peak
        past ``f.nbytes``.
        """
        lat = get_lattice("D2Q9")
        shape, batch = (48, 32), 8
        core = BatchedFusedSTCore(lat, shape,
                                  [0.6 + 0.05 * k for k in range(batch)])
        rng = np.random.default_rng(3)
        f = 1.0 + 0.01 * rng.standard_normal((batch, lat.q, *shape))
        for _ in range(3):
            core.step(f)
        tracemalloc.start()
        try:
            for _ in range(5):
                core.step(f)
            current, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < f.nbytes // 4        # no per-step field allocation
        assert current < 64 * 1024         # and nothing is retained
