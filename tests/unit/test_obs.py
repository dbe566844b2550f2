"""Unit tests for the repro.obs observability layer."""

import json

import numpy as np
import pytest

from repro.loop import Cadences, Sinks, run_loop, watch
from repro.obs import (NULL_TELEMETRY, JsonLinesExporter, RunManifest,
                       StabilityError, Telemetry, load_manifest,
                       manifest_path_for, read_jsonl, summarize_events,
                       write_chrome_trace, write_csv_summary)
from repro.service.registry import build_single
from repro.solver.monitors import ConvergenceMonitor, EnergyMonitor, ProbeMonitor
from repro.spec import RunSpec


class TestPhaseTimers:
    def test_nesting_builds_hierarchical_paths(self):
        tel = Telemetry()
        with tel.phase("step"):
            with tel.phase("collide"):
                pass
            with tel.phase("stream"):
                pass
        with tel.phase("step"):
            with tel.phase("collide"):
                pass
        assert set(tel.phases) == {"step", "step/collide", "step/stream"}
        assert tel.phases["step"].calls == 2
        assert tel.phases["step/collide"].calls == 2
        assert tel.phases["step/stream"].calls == 1
        # Parent time includes child time.
        assert tel.phases["step"].total >= (
            tel.phases["step/collide"].total + tel.phases["step/stream"].total
        ) * 0.99

    def test_span_depths(self):
        tel = Telemetry()
        with tel.phase("a"):
            with tel.phase("b"):
                pass
        depths = {s.name: s.depth for s in tel.spans}
        assert depths == {"a": 0, "a/b": 1}

    def test_injectable_clock(self):
        t = [0.0]

        def clock():
            t[0] += 1.0
            return t[0]

        tel = Telemetry(clock=clock)
        with tel.phase("x"):
            pass
        assert tel.phases["x"].total == pytest.approx(1.0)

    def test_span_cap_counts_drops(self):
        tel = Telemetry(max_spans=2)
        for _ in range(4):
            with tel.phase("p"):
                pass
        assert len(tel.spans) == 2
        assert tel.counters["telemetry.spans_dropped"] == 2
        assert tel.phases["p"].calls == 4   # aggregation is never dropped

    def test_counters_gauges_and_derived(self):
        tel = Telemetry(clock=iter(np.arange(0.0, 100.0, 0.5)).__next__)
        with tel.phase("step"):
            pass
        tel.count("steps", 10)
        tel.gauge("g", 3.0)
        assert tel.counters["steps"] == 10
        assert tel.gauges["g"] == 3.0
        # 10 steps x 1000 nodes in 0.5 s -> 0.02 MLUPS
        assert tel.mlups(1000) == pytest.approx(1000 * 10 / 0.5 / 1e6)
        assert tel.mlups(1000, phase="missing") == 0.0

    def test_summary_is_json_serializable(self):
        tel = Telemetry()
        with tel.phase("step"):
            pass
        tel.count("c")
        tel.gauge("g", 1.5)
        json.dumps(tel.summary())


class TestNullTelemetry:
    def test_phase_is_shared_singleton(self):
        assert NULL_TELEMETRY.phase("a") is NULL_TELEMETRY.phase("b")
        with NULL_TELEMETRY.phase("a"):
            pass

    def test_disabled_flag_and_noop_hooks(self):
        assert NULL_TELEMETRY.enabled is False
        NULL_TELEMETRY.count("x", 5)
        NULL_TELEMETRY.gauge("y", 1.0)
        NULL_TELEMETRY.add_span("z", 0.0, 1.0)

    def test_no_per_step_allocations_from_obs(self):
        """The disabled path must not allocate per step."""
        import tracemalloc

        s = build_single("periodic", "MR-P", "D2Q9", (16, 16), tau=0.8)
        s.run(2)                                   # warm caches
        tracemalloc.start()
        base = tracemalloc.take_snapshot()
        s.run(5)
        after = tracemalloc.take_snapshot()
        tracemalloc.stop()
        growth = [
            st for st in after.compare_to(base, "filename")
            if "repro/obs" in st.traceback[0].filename.replace("\\", "/")
            and st.size_diff > 0
        ]
        assert not growth, [str(g) for g in growth]


class TestSolverIntegration:
    def test_run_records_scheme_phases(self):
        for scheme, expected in [
            ("ST", {"step", "step/stream", "step/boundary", "step/collide"}),
            ("MR-P", {"step", "step/collide", "step/stream",
                      "step/boundary", "step/macroscopic"}),
        ]:
            tel = Telemetry()
            s = build_single("channel", scheme, "D2Q9",
                             (16, 10)).attach_telemetry(tel)
            s.run(3)
            assert expected <= set(tel.phases), scheme
            assert tel.counters["steps"] == 3
            assert tel.phases["step"].calls == 3

    def test_aa_solver_phases(self):
        from repro.geometry.domain import periodic_box
        from repro.lattice import get_lattice
        from repro.solver.aa import AASolver

        tel = Telemetry()
        s = AASolver(get_lattice("D2Q9"), periodic_box((8, 8)), 0.8)
        s.attach_telemetry(tel)
        s.run(4)
        # Odd steps time their two memory passes as distinct sub-phases
        # (a single "stream" phase entered twice would double-count).
        assert {"step", "step/collide", "step/stream:gather",
                "step/stream:scatter"} <= set(tel.phases)
        assert "step/stream" not in tel.phases

    def test_telemetry_does_not_change_results(self):
        a = build_single("channel", "MR-R", "D2Q9", (20, 12))
        b = build_single("channel", "MR-R", "D2Q9",
                         (20, 12)).attach_telemetry(Telemetry())
        a.run(20)
        b.run(20)
        np.testing.assert_array_equal(a.m, b.m)

    def test_attach_none_restores_null(self):
        s = build_single("periodic", "ST", "D2Q9", (8, 8), tau=0.8)
        s.attach_telemetry(Telemetry())
        s.attach_telemetry(None)
        assert s.telemetry is NULL_TELEMETRY

    def test_run_to_steady_state_forwards_callback(self):
        s = build_single("channel", "ST", "D2Q9", (16, 10))
        em = EnergyMonitor(every=5)
        s.run_to_steady_state(tol=1e-3, check_interval=10, max_steps=2000,
                              callback=em, callback_interval=1)
        assert len(em.values) >= 2       # monitors observed the run
        assert em.times == [t for t in em.times if t % 5 == 0]


class TestMonitorFixes:
    def test_probe_series_is_dense_stack(self):
        s = build_single("periodic", "ST", "D2Q9", (8, 8), tau=0.8)
        pm = ProbeMonitor((4, 4), every=3)
        s.run(10, callback=pm)
        times, values = pm.series()
        assert values.dtype == np.float64
        assert values.shape == (len(times), 2)

    def test_empty_series(self):
        pm = ProbeMonitor((0, 0), every=1000)
        times, values = pm.series()
        assert times.size == 0 and values.size == 0

    def test_convergence_monitor_skips_sentinel(self):
        s = build_single("periodic", "ST", "D2Q9", (8, 8), tau=0.8)
        cm = ConvergenceMonitor(every=5)
        s.run(20, callback=cm)
        assert cm.times == [10, 15, 20]
        _, values = cm.series()
        assert np.isfinite(values).all()


class TestExporters:
    def test_jsonl_round_trip(self, tmp_path):
        path = tmp_path / "metrics.jsonl"
        with JsonLinesExporter(path) as ex:
            ex.write({"step": 1, "mlups": 2.5})
            ex.write({"step": 2, "mlups": 2.75})
        records = read_jsonl(path)
        assert records == [{"step": 1, "mlups": 2.5}, {"step": 2, "mlups": 2.75}]

    def test_csv_summary(self, tmp_path):
        tel = Telemetry()
        with tel.phase("step"):
            pass
        tel.count("steps", 3)
        tel.gauge("gbs", 1.25)
        text = write_csv_summary(tel, tmp_path / "summary.csv").read_text()
        lines = text.strip().splitlines()
        assert lines[0].startswith("kind,name")
        kinds = {ln.split(",")[0] for ln in lines[1:]}
        assert kinds == {"phase", "counter", "gauge"}

    def test_chrome_trace_round_trip(self, tmp_path):
        tel = Telemetry()
        with tel.phase("step"):
            with tel.phase("collide"):
                pass
        path = write_chrome_trace(tel, tmp_path / "trace.json")
        doc = json.loads(path.read_text())
        assert len(doc["traceEvents"]) == 2
        for ev in doc["traceEvents"]:
            assert ev["ph"] == "X"
            assert ev["ts"] >= 0 and ev["dur"] >= 0
        names = {ev["args"]["path"] for ev in doc["traceEvents"]}
        assert names == {"step", "step/collide"}


class TestManifest:
    RECORD = RunSpec("periodic", "MR-P", "D2Q9", (8, 8), 1).record("single")

    def test_round_trip(self, tmp_path):
        path = RunManifest.from_identity(self.RECORD, 3, note="hi").write(
            tmp_path / "m.json")
        m = load_manifest(path)
        assert m.scheme == "MR-P" and m.lattice == "D2Q9"
        assert m.shape == (8, 8) and m.tau == 0.8 and m.steps == 3
        assert (m.extra["note"], m.extra["kind"], m.extra["fingerprint"]) == (
            "hi", "periodic", self.RECORD["fingerprint"])
        assert m.version and m.platform["python"]

    def test_manifest_path_for(self):
        assert manifest_path_for("out/flow.npz").name == "flow.manifest.json"

    def test_from_identity_is_dataclass(self):
        m = RunManifest.from_identity(self.RECORD, 0, accel_path=None)
        assert m.scheme == "MR-P" and "accel_path" not in m.extra
        json.dumps(m.to_dict())

    def test_checkpoint_writes_manifest(self, tmp_path):
        from test_conformance import identity, save

        save(s := build_single("periodic", "ST", "D2Q9", (8, 8)).run(2),
             tmp_path)
        m = load_manifest(tmp_path / "step-00000002" / "manifest.json")
        assert (m.scheme, m.shape, m.tau, m.steps) == ("ST", (8, 8), 0.8, 2)
        assert m.extra["fingerprint"] == identity(s)["fingerprint"]


class TestWatchdog:
    """The run loop's divergence check, on its watchdog cadence."""

    @staticmethod
    def look(s):
        return lambda: (*s.macroscopic(), s.domain.fluid_mask)

    def test_healthy_run_passes(self):
        s, tel = build_single("channel", "MR-P", "D2Q9", (16, 10)), Telemetry()
        run_loop(s.step, self.look(s), 0, 10, Cadences(watchdog=5),
                 Sinks(telemetry=tel))
        assert tel.counters["watchdog.checks"] == 2
        assert watch(self.look(s))["nonfinite_u"] == 0

    def test_triggers_on_induced_nan(self):
        s = build_single("periodic", "ST", "D2Q9", (8, 8))
        s.f[0, 3, 3] = np.nan
        with pytest.raises(StabilityError) as exc:
            run_loop(s.step, self.look(s), 0, 1, Cadences(watchdog=1),
                     record={"scheme": "ST"})
        report = exc.value.report
        assert report["nonfinite_rho"] >= 1 or report["nonfinite_u"] >= 1
        assert report["scheme"] == "ST" and report["step"] == 1
        json.dumps(report)               # structured, machine-readable

    def test_triggers_on_superluminal_speed(self):
        s = build_single("periodic", "MR-P", "D2Q9", (8, 8))
        s.m[1, :, :] = 2.0               # momentum far above c_s
        with pytest.raises(StabilityError) as exc:
            watch(self.look(s))
        assert exc.value.report["supersonic"] > 0

    def test_telemetry_gauges(self):
        tel = Telemetry()
        watch(self.look(build_single("periodic", "ST", "D2Q9", (8, 8))), tel)
        assert tel.counters["watchdog.checks"] == 1
        assert "watchdog.max_speed" in tel.gauges

    def test_invalid_cadence(self):
        with pytest.raises(ValueError, match="watchdog cadence"):
            Cadences(watchdog=-1)

    def test_an_interrupted_loop_ends_its_stream(self, tmp_path):
        """Ctrl-C at step 3 (any exception) still ends the stream: the
        rank's status is ``error``, not ``running`` for ever."""
        from repro.obs import read_events

        def step():
            if tel.counters.get("steps") == 3:
                raise KeyboardInterrupt
        tel = Telemetry()
        with pytest.raises(KeyboardInterrupt):
            run_loop(step, None, 0, 9, Cadences(events=1),
                     Sinks(tel, events=tmp_path))
        summary = summarize_events(read_events(tmp_path))
        assert summary["all_done"] and summary["ranks"][0]["status"] == "error"
        assert summary["ranks"][0]["step"] == 3


@pytest.mark.parametrize("package, lazy", [
    ("repro.obs", "profile_scheme"), ("repro.service", "JobScheduler")])
def test_lazily_resolved_exports_behave_like_attributes(package, lazy):
    """``repro.obs`` and ``repro.service`` import their heavy submodules
    on first use of a name; the export list reads as it always did."""
    import importlib

    module = importlib.import_module(package)
    assert lazy in module.__all__
    assert all(getattr(module, name) is not None for name in module.__all__)
    assert vars(module)[lazy] is getattr(module, lazy)      # cached
    with pytest.raises(AttributeError, match="no attribute 'nope'"):
        module.nope
    with pytest.raises(ImportError):
        exec(f"from {package} import nope")
