"""Extension bench: halo-exchange volume of the distributed solvers.

The moment representation compresses inter-device traffic exactly as it
compresses DRAM traffic: an MR rank exchanges M moments per cut-face node
(10 for D3Q19) against 2Q for a naive full exchange (the analytic
``2·Q·face_nodes`` doubles per face; nothing here ships it) — with ST's
crossing-only packing (5 components per direction) as the lean reference
point. The
bench also verifies the distributed solvers reproduce single-domain
physics while the accounting runs.
"""

import numpy as np
from conftest import run_once

from repro.bench import render_table
from repro.service.registry import build_distributed
from repro.service.registry import build_single
from repro.validation import taylor_green_fields


def _measure():
    shape2, shape3 = (32, 16), (16, 10, 10)
    out = {}
    for lattice, shape in (("D2Q9", shape2), ("D3Q19", shape3)):
        row = {}
        for label, scheme in (("MR", "MR-P"), ("ST-crossing", "ST")):
            d = build_distributed("periodic", scheme, lattice, shape, 2)
            d.run(3)
            row[label] = {
                "per_face": d.communication_values_per_face(),
                "bytes_per_step": d.comm.bytes_per_step(),
            }
        # the naive full exchange, analytically: all Q, both directions
        full = 2 * d.lat.q * d.decomp.face_nodes
        row["ST-full"] = {"per_face": full, "bytes_per_step": (
            d.comm.bytes_per_step() * full / row["ST-crossing"]["per_face"])}
        out[lattice] = row
    return out


def test_halo_volume(benchmark, write_result):
    data = run_once(benchmark, _measure)

    rows = []
    for lattice, row in data.items():
        for label, v in row.items():
            rows.append([lattice, label, v["per_face"],
                         f"{v['bytes_per_step']:,.0f}"])
    write_result("communication_volume.txt", render_table(
        ["lattice", "exchange", "doubles/face", "bytes/step"], rows,
        "Halo-exchange volume (distributed extension; ST-full is the "
        "analytic 2*Q*face_nodes)"))

    for lattice, q, q_cross, m in (("D2Q9", 9, 3, 6), ("D3Q19", 19, 5, 10)):
        row = data[lattice]
        face = row["ST-full"]["per_face"] // (2 * q)
        assert row["ST-full"]["per_face"] == 2 * q * face
        assert row["ST-crossing"]["per_face"] == 2 * q_cross * face
        assert row["MR"]["per_face"] == 2 * m * face
        # The compression claim on the wire: M < Q.
        assert row["MR"]["per_face"] < row["ST-full"]["per_face"]


def test_distributed_correctness_under_accounting(benchmark):
    """Physics stays exact while the communication meter runs."""
    shape = (30, 12)
    rho0, u0 = taylor_green_fields(shape, 0.0, 0.1, 0.04)

    def compute():
        ref = build_single("periodic", "MR-R", "D2Q9", shape, tau=0.8,
                           rho0=rho0, u0=u0)
        dist = build_distributed("periodic", "MR-R", "D2Q9", shape, 3,
                                 rho0=rho0, u0=u0)
        ref.run(5)
        dist.run(5)
        rg, ug = dist.gather_macroscopic()
        rr, ur = ref.macroscopic()
        return np.abs(ug - ur).max(), dist.comm.bytes_sent

    diff, total_bytes = run_once(benchmark, compute)
    assert diff < 1e-13
    assert total_bytes > 0
