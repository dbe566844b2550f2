"""Unit: halo-exchange byte accounting (CommunicationReport).

Pins the per-step wire volume for ST vs MR on D3Q19 — the paper's
compression argument on the network: an MR face ships M = 10 moments per
node where a naive ST exchange would ship Q = 19 populations (ST ships
the 5 that cross) — and locks the ``steps`` bookkeeping: every exchange
round advances ``comm.steps`` whether driven through ``run()`` or direct
``step()`` calls.
"""

import numpy as np
import pytest

from repro.parallel import CommunicationReport
from repro.service.registry import build_distributed

SHAPE_3D = (12, 6, 5)
FACE_NODES = 6 * 5
DOUBLE = 8
# Periodic, 2 ranks: each rank exchanges over both faces -> 4 directed
# messages per step.
MESSAGES_PER_STEP = 4


class TestStepsAdvance:
    def test_direct_step_calls_advance_steps(self):
        d = build_distributed("periodic", "MR-P", "D2Q9", (24, 10), 2)
        d.step()
        d.step()
        assert d.comm.steps == 2
        assert d.comm.bytes_per_step() == d.comm.bytes_sent / 2

    def test_run_and_step_agree(self):
        via_run = build_distributed("periodic", "ST", "D2Q9", (24, 10), 2)
        via_step = build_distributed("periodic", "ST", "D2Q9", (24, 10), 2)
        via_run.run(3)
        for _ in range(3):
            via_step.step()
        assert via_run.comm == via_step.comm


class TestD3Q19BytesPerStep:
    @pytest.mark.parametrize("scheme,kwargs,payload", [
        ("ST", {}, 5),                             # crossing populations
        ("ST", {"force": np.r_[1e-5, 0, 0]}, 5),   # forcing ships nothing
        ("MR-P", {}, 10),                          # compressed moments
        ("MR-R", {}, 10),                          # same wire format
    ])
    def test_pinned_bytes_per_step(self, scheme, kwargs, payload):
        d = build_distributed("periodic", scheme, "D3Q19", SHAPE_3D, 2,
                              **kwargs)
        d.run(3)
        expected = MESSAGES_PER_STEP * payload * FACE_NODES * DOUBLE
        assert d.comm.bytes_per_step() == expected
        assert d.comm.messages == MESSAGES_PER_STEP * 3
        assert d.comm.steps == 3

    def test_mr_between_crossing_and_full_st(self):
        mr = build_distributed("periodic", "MR-P", "D3Q19", SHAPE_3D, 2)
        st = build_distributed("periodic", "ST", "D3Q19", SHAPE_3D, 2)
        for d in (mr, st):
            d.run(2)
        # the naive full exchange: all Q populations, every directed face
        full = MESSAGES_PER_STEP * mr.lat.q * FACE_NODES * DOUBLE
        assert st.comm.bytes_per_step() < mr.comm.bytes_per_step() < full


class TestReportArithmetic:
    def test_record_counts_doubles(self):
        rep = CommunicationReport()
        rep.record(100)
        rep.record(50)
        assert rep.bytes_sent == 150 * DOUBLE
        assert rep.messages == 2

    def test_bytes_per_step_guard_against_zero_steps(self):
        rep = CommunicationReport(bytes_sent=800)
        assert rep.bytes_per_step() == 800

    def test_merge_adds_volume_keeps_lockstep_steps(self):
        a = CommunicationReport(bytes_sent=100, messages=2, steps=5)
        b = CommunicationReport(bytes_sent=300, messages=4, steps=5)
        a.merge(b)
        assert a == CommunicationReport(bytes_sent=400, messages=6, steps=5)

    def test_to_dict_roundtrip(self):
        rep = CommunicationReport(bytes_sent=960, messages=4, steps=2)
        assert rep.to_dict() == {
            "bytes_sent": 960, "messages": 4, "steps": 2,
            "bytes_per_step": 480.0,
        }
