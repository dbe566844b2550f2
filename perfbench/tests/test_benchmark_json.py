"""BENCHMARK.json against the contract the PR driver checks before any run."""

import re

from perfbench.harness import BASE_SECONDS, REPO_ROOT
from perfbench.run import BENCHMARK_JSON, load_benchmark
from perfbench.workloads import WORKLOADS

BENCH = load_benchmark()
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def test_top_level_shape():
    assert set(BENCH) == {"command", "paths", "run_seconds", "workloads",
                          "end_to_end", "per_layer"}
    assert BENCHMARK_JSON.stat().st_size <= 64 * 1024
    assert BENCH["paths"] == ["perfbench"]
    assert BENCH["command"] == ["python3", "perfbench/run.py"]
    assert isinstance(BENCH["run_seconds"], int)
    assert 1 <= BENCH["run_seconds"] <= 60
    assert BENCH["run_seconds"] == BASE_SECONDS
    # every run, with its set-up, must fit the driver's total budget
    assert (4 + 22 * len(BENCH["workloads"])) * 37 <= 3420


def test_workloads_match_the_code():
    assert 2 <= len(BENCH["workloads"]) <= 8
    assert [w["name"] for w in BENCH["workloads"]] == list(WORKLOADS)
    for workload in BENCH["workloads"]:
        assert set(workload) == {"name", "why"}
        assert len(workload["why"]) <= 200 and "\n" not in workload["why"]
        assert workload["why"] == WORKLOADS[workload["name"]].WHY


def test_metric_entries():
    e2e, layers = BENCH["end_to_end"], BENCH["per_layer"]
    assert 1 <= len(e2e) <= 16 and 1 <= len(layers) <= 128
    for metric in e2e:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert 0 < metric["bound"] <= 0.25
    for metric in layers:
        assert set(metric) == {"name", "unit", "better"}
    names = ([m["name"] for m in e2e + layers]
             + [w["name"] for w in BENCH["workloads"]])
    assert len(names) == len(set(names)), "a name is used once"
    for metric in e2e + layers:
        assert NAME.match(metric["name"]), metric["name"]
        assert UNIT.match(metric["unit"]), metric["unit"]
        assert metric["better"] in ("lower", "higher")
    setup = next(m for m in e2e if m["name"] == "setup_s")
    assert setup["unit"] == "s" and setup["better"] == "lower"
    assert setup["bound"] == max(m["bound"] for m in e2e)


def test_every_per_layer_metric_belongs_to_a_workload():
    listed = set()
    for module in WORKLOADS.values():
        listed |= set(module.PER_LAYER)
    assert listed == {m["name"] for m in BENCH["per_layer"]}


def test_paths_hold_only_the_benchmark():
    assert (REPO_ROOT / "perfbench" / "run.py").is_file()
    for path in (REPO_ROOT / "perfbench").rglob("*"):
        assert not path.is_symlink()
