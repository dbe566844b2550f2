"""Span recorder: nesting, self times, Chrome-trace form."""

import threading

import pytest

from perfbench.trace import Tracer, chrome_trace, self_time_table, self_times


def test_disabled_tracer_records_nothing():
    tracer = Tracer(enabled=False)
    with tracer.span("a") as span_id:
        assert span_id is None
    assert tracer.add("b", 0.0, 1.0, None) is None
    assert tracer.spans == []


def test_nesting_and_self_time():
    tracer = Tracer(workload="w")
    with tracer.span("root", unit="cell-1") as root:
        with tracer.span("child"):
            with tracer.span("grandchild"):
                pass
        with tracer.span("child"):
            pass
    by_name = {}
    for span in tracer.spans:
        by_name.setdefault(span.name, []).append(span)
    root_span = by_name["root"][0]
    assert root_span.id == root and root_span.parent is None
    assert all(c.parent == root for c in by_name["child"])
    assert by_name["grandchild"][0].parent == by_name["child"][0].id
    # the unit of a root is inherited by what it causes
    assert {s.unit for s in tracer.spans} == {"cell-1"}
    for span in tracer.spans:
        if span.parent is not None:
            parent = next(s for s in tracer.spans if s.id == span.parent)
            assert parent.start <= span.start and span.end <= parent.end
    selfs = self_times(tracer.spans)
    assert all(v >= 0 for v in selfs.values())
    assert sum(selfs.values()) == pytest.approx(root_span.duration, abs=1e-9)


def test_self_time_of_overlapping_children_counts_the_union():
    tracer = Tracer()
    root = tracer.add("root", 0.0, 10.0, None)
    tracer.add("a", 1.0, 5.0, root)
    tracer.add("b", 4.0, 8.0, root)          # overlaps a by 1 s
    assert self_times(tracer.spans)[root] == pytest.approx(3.0)
    table = {row["name"]: row for row in self_time_table(tracer.spans)}
    assert table["root"]["self_s"] == pytest.approx(3.0)
    assert table["a"]["count"] == 1


def test_graft_remaps_ids_under_parent():
    child = Tracer()
    with child.span("build"):
        with child.span("inner"):
            pass
    parent = Tracer()
    root = parent.add("cell", 0.0, 1e9, None, unit="ST")
    parent.graft(child.export(), root, unit="ST")
    names = {s.name: s for s in parent.spans}
    assert names["build"].parent == root
    assert names["inner"].parent == names["build"].id
    assert len({s.id for s in parent.spans}) == 3


def test_threads_build_separate_trees():
    tracer = Tracer()

    def work(tag):
        with tracer.span("job", unit=tag):
            with tracer.span("submit"):
                pass

    threads = [threading.Thread(target=work, args=(f"t{i}",))
               for i in range(4)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=10)
    roots = [s for s in tracer.spans if s.parent is None]
    assert len(roots) == 4
    for sub in (s for s in tracer.spans if s.name == "submit"):
        parent = next(s for s in tracer.spans if s.id == sub.parent)
        assert parent.unit == sub.unit


def test_chrome_trace_form():
    tracer = Tracer(workload="box3d")
    with tracer.span("cell", unit="ST"):
        with tracer.span("segment", telemetry=True):
            pass
    doc = chrome_trace(tracer.spans)
    events = doc["traceEvents"]
    assert len(events) == 2
    for event in events:
        assert event["ph"] == "X" and event["dur"] >= 0 and event["ts"] >= 0
        assert event["args"]["workload"] == "box3d"
    assert len({e["tid"] for e in events}) == 1     # one lane per root
    segment = next(e for e in events if e["name"] == "segment")
    assert segment["args"]["telemetry"] is True
