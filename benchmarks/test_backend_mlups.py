"""Backend MLUPS comparison: fused fast path vs reference solvers.

Each case writes its measured table to ``benchmarks/results/`` (the
speedups of docs/PERFORMANCE.md) and asserts parity by the conformance
matrix's tolerance rule. Speed is recorded, not asserted: a wall-clock
band fails on a shared host whatever the code does.
"""

import numpy as np

from repro.obs import compare_backends, format_backend_comparison

from test_conformance import tolerance


class TestBackendThroughput:
    def test_d3q19_fused_speedup(self, write_result):
        """Fused MR-P on D3Q19 against the reference, at parity."""
        result = compare_backends("MR-P", "D3Q19", shape=(40, 40, 40),
                                  steps=12)
        write_result("backend_mlups_d3q19.txt",
                     format_backend_comparison(result))

        rows = {row["backend"]: row for row in result["backends"]}
        fused = rows["fused"]
        assert fused["max_abs_diff"] <= tolerance(steps=12)
        # Telemetry reports both backends side by side from the same run.
        assert rows["reference"]["mlups"] > 0
        assert set(rows) >= {"reference", "fused"}

    def test_d2q9_fused_parity_and_gain(self, write_result):
        result = compare_backends("ST", "D2Q9", shape=(160, 160), steps=20)
        write_result("backend_mlups_d2q9.txt",
                     format_backend_comparison(result))
        rows = {row["backend"]: row for row in result["backends"]}
        assert rows["fused"]["max_abs_diff"] <= tolerance(steps=20)
        assert np.isfinite([r["mlups"] for r in result["backends"]]).all()

    def test_forced_channel_fused_speedup(self, write_result):
        """The fused Guo-source path under forcing."""
        result = compare_backends("MR-P", "D2Q9", shape=(160, 120), steps=16,
                                  problem="forced-channel")
        write_result("backend_mlups_forced_d2q9.txt",
                     format_backend_comparison(result))
        rows = {row["backend"]: row for row in result["backends"]}
        assert result["problem"] == "forced-channel"
        assert rows["fused"]["max_abs_diff"] <= tolerance(steps=16)

    def test_forced_channel_d3q19(self, write_result):
        result = compare_backends("ST", "D3Q19", shape=(32, 24, 24), steps=10,
                                  problem="forced-channel")
        write_result("backend_mlups_forced_d3q19.txt",
                     format_backend_comparison(result))
        rows = {row["backend"]: row for row in result["backends"]}
        assert rows["fused"]["max_abs_diff"] <= tolerance(steps=10)

    def test_power_law_fused_speedup(self, write_result):
        """Variable-tau (power-law) collision."""
        result = compare_backends(lattice="D2Q9", shape=(256, 192), steps=12,
                                  problem="power-law")
        write_result("backend_mlups_power_law_d2q9.txt",
                     format_backend_comparison(result))
        rows = {row["backend"]: row for row in result["backends"]}
        assert result["scheme"] == "MR-P-PL"
        assert rows["fused"]["max_abs_diff"] <= tolerance(steps=12)

