"""Tests for the profiling harness, GPU telemetry hooks and CLI wiring."""

import json

import pytest

from repro.cli import main
from repro.gpu import MRKernel, STKernel, KernelProblem, MemoryTracker, V100
from repro.obs import Telemetry, format_profile, profile_scheme
from repro.spec import RunSpec


class TestKernelTelemetry:
    def _problem(self):
        from repro.lattice import get_lattice

        return KernelProblem(get_lattice("D2Q9"), (12, 10), 0.8)

    def test_st_kernel_publishes_launch(self):
        tel = Telemetry()
        k = STKernel(self._problem(), V100, telemetry=tel)
        stats = k.step()
        assert tel.counters["gpu.launches"] == 1
        assert tel.counters["gpu.nodes"] == stats.n_nodes
        assert tel.counters["gpu.bytes.sector"] == stats.traffic.sector_bytes_total
        assert tel.phases["gpu.step"].calls == 1

    def test_mr_kernel_publishes_launch(self):
        tel = Telemetry()
        k = MRKernel(self._problem(), V100, scheme="MR-P", telemetry=tel)
        k.step()
        k.step()
        assert tel.counters["gpu.launches"] == 2
        assert tel.counters["gpu.launches.MR-P/D2Q9"] == 2
        assert tel.effective_gbs() > 0

    def test_kernel_without_telemetry_unchanged(self):
        tr = MemoryTracker()
        k = STKernel(self._problem(), V100, tracker=tr)
        stats = k.step()
        assert stats.traffic.total_bytes > 0


class TestProfileScheme:
    def test_profile_mrp(self):
        result = profile_scheme("MR-P", "D2Q9", shape=(24, 14), steps=5)
        assert result["scheme"] == "MR-P"
        paths = {p["phase"] for p in result["phases"]}
        assert {"step", "step/collide", "step/stream"} <= paths
        assert result["host_mlups"] > 0
        t = result["traffic"]
        assert t is not None
        assert t["dram_bytes_per_node"] > 0
        assert t["effective_host_gbs"] == pytest.approx(
            t["dram_bytes_per_node"] * result["host_mlups"] * 1e6 / 1e9)

    def test_profile_aa_without_traffic(self):
        result = profile_scheme("AA", "D2Q9", shape=(16, 16), steps=4)
        assert result["traffic"] is None
        assert result["host_mlups"] > 0

    def test_format_profile_mentions_units(self):
        result = profile_scheme("ST", "D2Q9", shape=(24, 14), steps=5)
        text = format_profile(result)
        assert "MLUPS" in text and "GB/s" in text
        assert "B/node" in text
        assert "phase" in text

    def test_result_json_serializable(self):
        json.dumps(profile_scheme("MR-R", "D2Q9", shape=(20, 12), steps=3))


class TestCLI:
    def test_profile_command(self, mrlbm):
        out = mrlbm("profile --scheme MR-P --shape 24,14 --steps 5")
        assert "MLUPS" in out and "GB/s" in out
        assert "step/collide" in out

    def test_profile_json_dump(self, mrlbm, tmp_path):
        path = tmp_path / "prof.json"
        mrlbm(f"profile --scheme ST --shape 20,12 --steps 4 --json {path}")
        assert json.loads(path.read_text())[0]["scheme"] == "ST"

    def test_run_trace_and_metrics(self, mrlbm, tmp_path):
        trace, metrics = tmp_path / "out.json", tmp_path / "m.jsonl"
        mrlbm("run --scheme MR-P --shape 20,12 --steps 10 --report-interval "
              f"5 --trace {trace} --metrics {metrics}")
        doc = json.loads(trace.read_text())
        assert doc["traceEvents"], "trace must contain phase spans"
        assert all(ev["ph"] == "X" for ev in doc["traceEvents"])
        records = [json.loads(ln) for ln in metrics.read_text().splitlines()]
        assert any("summary" in r for r in records)
        assert any(r.get("step") == 10 for r in records)

    def test_run_manifest_flag(self, tmp_path, mrlbm, one_record):
        """One record with every other writer's; the fast path named."""
        mrlbm("run --problem forced-channel --scheme ST --shape 16,10 --u-max "
              f"0.03 --steps 5 --accel fused --manifest {tmp_path}/m.json")
        m = json.loads((tmp_path / "m.json").read_text())
        assert m["scheme"] == "ST" and m["shape"] == [16, 10]
        assert m["extra"]["accel_path"] and m["extra"]["accel"] == "fused"
        one_record(RunSpec("forced-channel", "ST", "D2Q9", (16, 10), 1,
                           options={"u_max": 0.03}), tmp_path / "m.json")

    def test_run_watchdog_flag_healthy(self, mrlbm):
        assert "  step      10" in mrlbm("run --scheme MR-P --shape 16,10 "
                                        "--steps 10 --report-interval 5 "
                                        "--watchdog 5")

    def test_telemetry_off_by_default_golden(self):
        """Plain `run` must not attach telemetry (numerics & speed path)."""
        from repro.service.registry import build_single
        from repro.obs import NULL_TELEMETRY

        s = build_single("channel", "MR-P", "D2Q9", (16, 10))
        assert s.telemetry is NULL_TELEMETRY


class TestAccelFlag:
    def test_profile_accel_flag(self, mrlbm):
        assert "backend = fused" in mrlbm("profile --scheme MR-P --shape "
                                          "24,14 --steps 4 --accel fused")

    def test_run_accel_flag(self, mrlbm):
        assert "accel = fused" in mrlbm("run --scheme MR-P --shape 20,12 "
                                        "--steps 6 --accel fused")

    def test_run_distributed_rejects_numba(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["run", "--scheme", "ST", "--shape", "24,10", "--steps", "2",
                  "--ranks", "2", "--accel", "numba"])
        assert exc.value.code == 2
        assert "invalid choice: 'numba'" in capsys.readouterr().err
