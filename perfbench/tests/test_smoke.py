"""The command end to end, on the ``--smoke`` configuration (tiny shapes).

One full smoke run (every workload, untraced then traced) is shared by
most tests here; a second with another seed, a run with a broken check,
the driver's single-run form, a checkout without the program and an
interrupted run complete the set.
"""

import json
import re
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

from perfbench.harness import PERFBENCH_DIR, REPO_ROOT
from perfbench.run import load_benchmark
from perfbench.workloads import WORKLOADS

RUN = [sys.executable, str(PERFBENCH_DIR / "run.py")]
BENCH = load_benchmark()
E2E = {m["name"]: m["unit"] for m in BENCH["end_to_end"]}
LAYERS = {m["name"]: m["unit"] for m in BENCH["per_layer"]}
METRIC_LINE = re.compile(r"^(\S+) (\S+) (\S+) (\S+)$")


def run_cli(*args, timeout=300, **kwargs):
    return subprocess.run([*RUN, *args], capture_output=True, text=True,
                          timeout=timeout, **kwargs)


def leftovers():
    """Server or rank processes and shared memory a run may leave behind."""
    procs = subprocess.run(["pgrep", "-f", "repro (serve|run)"],
                           capture_output=True, text=True).stdout.split()
    return procs, list(Path("/dev/shm").glob("mrlbm*"))


@pytest.fixture(scope="module")
def smoke(tmp_path_factory):
    out = tmp_path_factory.mktemp("smoke")
    start = time.perf_counter()
    proc = run_cli("--smoke", "--seed", "1", "--out", str(out))
    elapsed = time.perf_counter() - start
    assert proc.returncode == 0, proc.stdout + proc.stderr
    return {"out": out, "stdout": proc.stdout, "elapsed": elapsed,
            "doc": json.loads((out / "result.json").read_text())}


def test_smoke_is_quick(smoke):
    assert smoke["elapsed"] < 30.0


def test_every_named_metric_once_per_workload_with_its_unit(smoke):
    seen: dict[tuple[str, str, str], int] = {}
    kind = {}
    for line in smoke["stdout"].splitlines():
        if line.startswith("# "):
            words = line.split()
            if len(words) > 2 and words[2].rstrip(":") in ("untraced", "traced"):
                kind[words[1]] = words[2].rstrip(":")
            continue
        match = METRIC_LINE.match(line)
        assert match, f"not a metric line: {line!r}"
        workload, name, value, unit = match.groups()
        float(value)
        if name == "failed_share":
            assert value == "0" and unit == "ratio"
            continue
        seen[(workload, kind[workload], name)] = \
            seen.get((workload, kind[workload], name), 0) + 1
        assert unit == {**E2E, **LAYERS}[name], f"{name}: unit {unit}"
    expected = set()
    for workload, module in WORKLOADS.items():
        expected |= {(workload, "untraced", name) for name in E2E}
        expected |= {(workload, "traced", name) for name in module.PER_LAYER}
    assert set(seen) == expected           # none missing, none unnamed
    assert set(seen.values()) == {1}       # each exactly once


def test_result_file_has_machine_profile_and_all_passes(smoke):
    doc = smoke["doc"]
    machine = doc["machine"]
    for key in ("nproc", "cache_bytes", "ram_bytes", "python", "numpy",
                "blas", "pinned_env", "git_rev", "git_dirty",
                "load_1m_start", "load_1m_end", "noisy"):
        assert key in machine
    assert machine["pinned_env"]["OPENBLAS_NUM_THREADS"] == "1"
    assert doc["smoke"] is True and doc["seed"] == 1
    assert [(p["workload"], p["traced"]) for p in doc["passes"]] == [
        (w, t) for w in WORKLOADS for t in (False, True)]
    for run in doc["passes"]:
        assert run["failed"] == 0 and run["attempted"] >= 1
        assert run["failed_share"] == 0
        assert all(check["ok"] for check in run["checks"])


def test_times_are_reported_at_nominal_weather(smoke):
    for run in smoke["doc"]["passes"]:
        metrics, probe = run["metrics"], run["samples"]["weather_probe_s"]
        assert len(probe) >= 4 and metrics["host.weather"] > 0
        assert len(run["samples"]["weather_dense_s"]) == len(probe)
        assert metrics["time_to_result_s"] == pytest.approx(
            metrics["user.time_to_result_raw_s"] / metrics["host.weather"])


def test_exact_counts_and_canaries(smoke):
    traced = {p["workload"]: p["metrics"] for p in smoke["doc"]["passes"]
              if p["traced"]}
    assert traced["box3d"]["gpu.dram_bytes_per_flup.st"] == 304.0
    assert traced["box3d"]["gpu.dram_bytes_per_flup.mr"] == 160.0
    assert traced["box3d"]["accel.model_bytes_per_flup.st"] == 4 * 19 * 8
    assert traced["porous2d"]["accel.model_bytes_per_flup.st"] == 8 * 9 * 8
    assert traced["porous2d"]["accel.model_bytes_per_flup.mrp"] == \
        (5 * 9 + 5 * 6) * 8
    assert traced["ranks2"]["parallel.messages_per_step"] == 2
    assert traced["served"]["service.cache_hit_ratio"] == 1.0
    assert 0.1 < traced["porous2d"]["accel.fluid_fraction"] < 0.2


def test_traces_are_well_formed_and_nested(smoke):
    for workload in WORKLOADS:
        doc = json.loads((smoke["out"] / f"trace-{workload}.json").read_text())
        events = doc["traceEvents"]
        assert events, workload
        by_id = {e["args"]["id"]: e for e in events}
        children: dict[int, list] = {}
        for event in events:
            assert event["ph"] == "X" and event["dur"] >= 0
            assert event["args"]["workload"] == workload
            parent = event["args"]["parent"]
            if parent is None:
                continue
            up = by_id[parent]
            # every span lies inside its parent (1 us of float slack)
            assert event["ts"] >= up["ts"] - 1.0
            assert event["ts"] + event["dur"] <= up["ts"] + up["dur"] + 1.0
            children.setdefault(parent, []).append(event)

        def self_sum(event):
            kids = children.get(event["args"]["id"], [])
            own = event["dur"] - sum(k["dur"] for k in kids)
            return own + sum(self_sum(k) for k in kids)

        # each root's self times add up to its duration
        for root in (e for e in events if e["args"]["parent"] is None):
            assert self_sum(root) == pytest.approx(root["dur"], abs=1.0)
        table = json.loads(
            (smoke["out"] / f"trace-{workload}-selftime.json").read_text())
        assert all(row["self_s"] >= -1e-9 for row in table)
    cells = json.loads((smoke["out"] / "trace-box3d.json").read_text())
    names = {e["name"] for e in cells["traceEvents"]}
    assert {"cell", "build_cold", "first_step", "segment", "parity"} <= names
    jobs = json.loads((smoke["out"] / "trace-served.json").read_text())
    assert {"job", "submit", "wait", "result", "hit"} <= {
        e["name"] for e in jobs["traceEvents"]}


def test_seed_changes_inputs_not_counts(smoke, tmp_path):
    proc = run_cli("--smoke", "--seed", "2", "--out", str(tmp_path))
    assert proc.returncode == 0, proc.stdout + proc.stderr
    other = json.loads((tmp_path / "result.json").read_text())
    for a, b in zip(smoke["doc"]["passes"], other["passes"]):
        assert (a["workload"], a["traced"]) == (b["workload"], b["traced"])
        assert a["input_hash"] != b["input_hash"], a["workload"]
        counts_a = {k: v for k, v in a["counts"].items() if k != "spans"}
        counts_b = {k: v for k, v in b["counts"].items() if k != "spans"}
        assert counts_a == counts_b and counts_a
        assert a["attempted"] == b["attempted"]


def test_compare_two_smoke_runs_is_refused(smoke):
    result = str(smoke["out"] / "result.json")
    proc = run_cli("--compare", result, result)
    assert proc.returncode == 2 and "smoke" in proc.stdout


def test_broken_check_fails_the_command(tmp_path):
    proc = run_cli("--smoke", "--workload", "box3d", "--out", str(tmp_path),
                   "--inject-parity-tol", "-1")
    assert proc.returncode != 0
    share = [float(line.split()[2]) for line in proc.stdout.splitlines()
             if line.startswith("box3d failed_share")]
    assert share and all(s > 0 for s in share)
    assert "FAILED box3d ST.parity" in proc.stdout


@pytest.mark.parametrize("traced", [0, 1])
def test_driver_form_prints_one_json_result(traced):
    proc = run_cli("--smoke", "--workload", "porous2d", "--seed", "7",
                   "--seconds", str(BENCH["run_seconds"]),
                   "--trace", str(traced))
    assert proc.returncode == 0, proc.stdout + proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert isinstance(result["attempted"], int) and result["attempted"] >= 1
    wanted = LAYERS if traced else E2E
    assert set(result["metrics"]) == set(wanted)
    for name, entry in result["metrics"].items():
        assert set(entry) == {"value", "unit"} and entry["unit"] == wanted[name]
        assert isinstance(entry["value"], float)
    if not traced:
        assert all(entry["value"] > 0 for entry in result["metrics"].values())
    else:       # other workloads' layers read 0 here
        assert result["metrics"]["boundary.ms_per_step"]["value"] == 0.0
        assert result["metrics"]["accel.table_build_s"]["value"] > 0.0


def test_without_the_program_exits_non_zero_and_prints_no_result(tmp_path):
    shutil.copy(REPO_ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(PERFBENCH_DIR, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "box3d", "--seed",
         "1", "--seconds", "20", "--trace", "0"], cwd=tmp_path,
        capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert "{" not in proc.stdout
    assert "no program to measure" in proc.stderr


def test_interrupt_mid_served_leaves_nothing_behind(tmp_path):
    out = tmp_path / "out"
    proc = subprocess.Popen([*RUN, "--smoke", "--workload", "served",
                             "--trace", "0", "--out", str(out)],
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            text=True)
    try:
        deadline = time.monotonic() + 60.0
        while time.monotonic() < deadline:          # wait for the server
            if leftovers()[0]:
                break
            time.sleep(0.05)
        else:
            pytest.fail("the smoke run never started its server")
        time.sleep(0.3)                             # jobs are in flight now
        proc.send_signal(signal.SIGINT)
        proc.communicate(timeout=60)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.communicate()
    assert proc.returncode != 0
    deadline = time.monotonic() + 10.0
    while time.monotonic() < deadline and leftovers()[0]:
        time.sleep(0.1)
    procs, segments = leftovers()
    assert procs == [] and segments == []
    assert not list(out.glob("scratch-*"))
    assert not (out / "result.json").exists()
