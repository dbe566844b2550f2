"""Unit: merged distributed reports, imbalance attribution, trace export.

Covers the :func:`repro.obs.merge.merge_rank_reports` edge cases a real
cohort can produce (empty report lists, ranks missing ``wall_s``,
zero-step ranks), the halo-wait/load-imbalance attribution block, span
depth forwarding in :meth:`Telemetry.add_span` and the multi-rank Chrome
trace layout (one ``pid`` row per rank with ``process_name`` metadata).
"""

import json

import pytest

from repro.obs import (NULL_TELEMETRY, Telemetry, merge_rank_reports,
                       write_chrome_trace)


def rank_report(rank, wall_s=1.0, steps=4, n_fluid=100, wait_s=0.25,
                **over):
    rep = {
        "rank": rank,
        "steps": steps,
        "n_fluid": n_fluid,
        "wall_s": wall_s,
        "exchange_wait_s": wait_s,
        "comm": {"bytes_sent": 800, "messages": 8, "steps": steps},
        "summary": {
            "counters": {"steps": steps},
            "phases": {
                "step": {"calls": steps, "total_s": wall_s,
                         "min_s": 0.1, "max_s": 0.4},
                "step/barrier": {"calls": 2 * steps, "total_s": wait_s,
                                 "min_s": 0.01, "max_s": 0.1},
            },
        },
    }
    rep.update(over)
    return rep


class TestMergeEdgeCases:
    def test_empty_cohort_merges_to_zeros(self):
        report = merge_rank_reports([])
        assert report["n_ranks"] == 0 and report["steps"] == 0
        assert report["mlups"] == 0.0 and report["wall_s"] == 0.0
        assert report["imbalance"]["imbalance_ratio"] == 1.0
        assert report["imbalance"]["slowest_rank"] is None
        json.dumps(report)                     # fully serializable

    def test_missing_wall_s_degrades_to_zero(self):
        rep = rank_report(0)
        del rep["wall_s"]
        report = merge_rank_reports([rep, rank_report(1, wall_s=2.0)])
        assert report["mlups_per_rank"][0]["mlups"] == 0.0
        assert report["wall_s_slowest_rank"] == 2.0
        assert report["imbalance"]["per_rank"][0]["exchange_wait_share"] == 0.0

    def test_zero_step_rank_contributes_nothing(self):
        report = merge_rank_reports([rank_report(0, steps=0, wall_s=0.0,
                                                 wait_s=0.0),
                                     rank_report(1)])
        assert report["steps"] == 4            # cohort pace from live ranks
        assert report["mlups_per_rank"][0]["mlups"] == 0.0
        assert report["mlups"] > 0

    def test_missing_summary_and_comm_tolerated(self):
        report = merge_rank_reports([{"rank": 0, "steps": 2,
                                      "n_fluid": 10, "wall_s": 0.5}])
        assert report["counters"] == {}
        assert report["comm"]["bytes_sent"] == 0
        # wait falls back to the (absent) barrier phase -> zero share
        assert report["imbalance"]["exchange_wait_s"] == 0.0

    def test_memory_peak_names_its_process(self):
        """Largest ``peak_rss_mb`` among ranks and the merging process;
        ranks that report none (old workers) fall back to the parent."""
        big = rank_report(1)
        big["summary"]["peak_rss_mb"] = 1e9
        report = merge_rank_reports([rank_report(0), big])
        assert (report["peak_rss_process"], report["peak_rss_mb"]) == (
            "rank 1", 1e9)
        report = merge_rank_reports([rank_report(0)])
        assert report["peak_rss_process"] == "parent"
        assert report["peak_rss_mb"] > 0

    def test_parent_wall_overrides_slowest(self):
        report = merge_rank_reports([rank_report(0)], wall_s=9.0)
        assert report["wall_s"] == 9.0
        assert report["wall_s_slowest_rank"] == 1.0


class TestImbalanceAttribution:
    def test_straggler_ratio_and_wait_share(self):
        report = merge_rank_reports([
            rank_report(0, wall_s=1.0, wait_s=0.5),
            rank_report(1, wall_s=3.0, wait_s=0.1),
        ])
        imb = report["imbalance"]
        assert imb["wall_s_mean"] == pytest.approx(2.0)
        assert imb["wall_s_slowest"] == 3.0
        assert imb["slowest_rank"] == 1
        assert imb["imbalance_ratio"] == pytest.approx(1.5)
        assert imb["exchange_wait_s"] == pytest.approx(0.6)
        assert imb["exchange_wait_share"] == pytest.approx(0.6 / 4.0)
        shares = {r["rank"]: r["exchange_wait_share"]
                  for r in imb["per_rank"]}
        assert shares[0] == pytest.approx(0.5)
        assert shares[1] == pytest.approx(0.1 / 3.0)

    def test_wait_falls_back_to_barrier_phase(self):
        rep = rank_report(0, wait_s=0.25)
        del rep["exchange_wait_s"]             # pre-events worker report
        imb = merge_rank_reports([rep])["imbalance"]
        assert imb["exchange_wait_s"] == pytest.approx(0.25)

    def test_balanced_cohort_reads_ratio_one(self):
        imb = merge_rank_reports([rank_report(0), rank_report(1)])["imbalance"]
        assert imb["imbalance_ratio"] == pytest.approx(1.0)

    def test_cohort_mlups_paced_by_slowest_rank(self):
        report = merge_rank_reports([
            rank_report(0, wall_s=1.0), rank_report(1, wall_s=2.0)])
        assert report["mlups"] == pytest.approx(200 * 4 / 2.0 / 1e6)


class TestSpanDepth:
    def test_add_span_forwards_depth(self):
        tel = Telemetry()
        tel.add_span("gpu/kernel", 0.0, 1.0, depth=2)
        assert tel.spans[-1].depth == 2

    def test_add_span_depth_defaults_to_zero(self):
        tel = Telemetry()
        tel.add_span("gpu/kernel", 0.0, 1.0)
        assert tel.spans[-1].depth == 0

    def test_null_telemetry_accepts_depth(self):
        NULL_TELEMETRY.add_span("z", 0.0, 1.0, depth=3)   # no-op, no raise


class TestMultiRankChromeTrace:
    def _registry(self, name):
        tel = Telemetry()
        with tel.phase("step"):
            with tel.phase("compute"):
                pass
        tel.count("steps")
        tel.gauge("who", hash(name) % 7)
        return tel

    def test_single_registry_back_compat(self, tmp_path):
        path = write_chrome_trace(self._registry("solo"),
                                  tmp_path / "t.json", pid=7)
        doc = json.loads(path.read_text())
        assert all(e["ph"] == "X" for e in doc["traceEvents"])
        assert {e["pid"] for e in doc["traceEvents"]} == {7}
        assert doc["otherData"]["counters"] == {"steps": 1}

    def test_rank_mapping_gets_pid_rows_and_labels(self, tmp_path):
        registries = {0: self._registry("r0"), 1: self._registry("r1")}
        doc = json.loads(write_chrome_trace(
            registries, tmp_path / "t.json").read_text())
        meta = [e for e in doc["traceEvents"] if e["ph"] == "M"]
        assert {(m["pid"], m["args"]["name"]) for m in meta} \
            == {(0, "rank 0"), (1, "rank 1")}
        spans = [e for e in doc["traceEvents"] if e["ph"] == "X"]
        assert {e["pid"] for e in spans} == {0, 1}
        assert all(e["name"] in ("step", "compute") for e in spans)
        assert doc["otherData"]["counters"]["rank 1"] == {"steps": 1}

    def test_sequence_form_indexes_ranks(self, tmp_path):
        doc = json.loads(write_chrome_trace(
            [self._registry("a"), self._registry("b")],
            tmp_path / "t.json").read_text())
        meta = [e for e in doc["traceEvents"] if e["ph"] == "M"]
        assert [m["args"]["name"] for m in meta] == ["rank 0", "rank 1"]

    def test_span_depth_exported_in_args(self, tmp_path):
        tel = Telemetry()
        tel.add_span("step/compute", 0.0, 0.5, depth=1)
        doc = json.loads(write_chrome_trace(
            tel, tmp_path / "t.json").read_text())
        (span,) = doc["traceEvents"]
        assert span["args"] == {"path": "step/compute", "depth": 1}
