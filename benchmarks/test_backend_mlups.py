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


class TestBatchedEnsembleThroughput:
    def test_small_domain_ensemble_speedup(self, write_result):
        """A 16-member 32^2 ensemble against per-run fused dispatch.

        Small domains are exactly where per-run dispatch overhead
        dominates; the batched cores' case (docs/PERFORMANCE.md) is an
        aggregate-MLUPS win, recorded here, at bit-for-bit per-member
        parity (measured ~3.8x unloaded).
        """
        import json
        import time

        from repro.ensemble import EnsembleRunner
        from repro.lattice import get_lattice
        from repro.service.registry import build_single
        from repro.validation import taylor_green_fields

        lat = get_lattice("D2Q9")
        shape, steps, batch = (32, 32), 24, 16
        taus = [0.6 + 0.02 * k for k in range(batch)]

        def members():
            out = []
            for k, tau in enumerate(taus):
                rho0, u0 = taylor_green_fields(shape, 0.0,
                                               lat.viscosity(tau),
                                               0.02 + 0.002 * k)
                out.append(build_single("periodic", "MR-P", lat, shape,
                                        tau=tau, rho0=rho0, u0=u0,
                                        backend="fused"))
            return out

        n_fluid = batch * shape[0] * shape[1]
        serial_wall = float("inf")
        serial_members = None
        for _ in range(2):
            solos = members()
            t0 = time.perf_counter()
            for s in solos:
                s.run(steps)
            wall = time.perf_counter() - t0
            if wall < serial_wall:
                serial_wall, serial_members = wall, solos

        batched_wall = float("inf")
        batched_members = None
        for _ in range(2):
            enrolled = members()
            runner = EnsembleRunner(enrolled)
            t0 = time.perf_counter()
            runner.run(steps)
            wall = time.perf_counter() - t0
            if wall < batched_wall:
                batched_wall, batched_members = wall, enrolled

        diffs = []
        for solo, member in zip(serial_members, batched_members):
            rho_s, u_s = solo.macroscopic()
            rho_m, u_m = member.macroscopic()
            diffs.append(max(float(np.abs(rho_s - rho_m).max()),
                             float(np.abs(u_s - u_m).max())))
        speedup = serial_wall / batched_wall
        summary = {
            "scheme": "MR-P", "lattice": "D2Q9", "shape": list(shape),
            "batch": batch, "steps": steps,
            "serial_mlups": n_fluid * steps / serial_wall / 1e6,
            "batched_mlups": n_fluid * steps / batched_wall / 1e6,
            "speedup": speedup,
            "max_abs_diff": max(diffs),
        }
        write_result(
            "ensemble_batched_speedup.txt",
            f"batched ensemble MR-P D2Q9 {shape} x{batch}, {steps} steps\n"
            f"serial  {summary['serial_mlups']:8.2f} MLUPS aggregate\n"
            f"batched {summary['batched_mlups']:8.2f} MLUPS aggregate\n"
            f"speedup {speedup:.2f}x  max |diff| {max(diffs):.3e}\n")
        write_result("ensemble_batched_speedup.json",
                     json.dumps(summary, indent=2))
        assert max(diffs) == 0.0         # a member is its solo run
