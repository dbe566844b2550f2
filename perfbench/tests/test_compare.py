"""``--compare``: verdicts, the bounds' single home, refusals, exit codes."""

import json

import pytest

from perfbench import compare
from perfbench.run import load_benchmark

BENCH = load_benchmark()
BOUND = {m["name"]: m["bound"] for m in BENCH["end_to_end"]}


def _doc(values, workload="box3d", traced=False, failed=0, noisy=False,
         smoke=False):
    return {"machine": {"noisy": noisy}, "smoke": smoke, "seed": 0,
            "passes": [{"workload": workload, "traced": traced,
                        "metrics": dict(values), "attempted": 10,
                        "failed": failed}]}


def _write(tmp_path, name, docs):
    path = tmp_path / name
    path.write_text(json.dumps(docs))
    return path


def test_verdict_words():
    same = [10.0, 10.1, 9.9, 10.0]
    assert compare.verdict(same, same, 0.1, "lower") == "ok"
    assert compare.verdict(same, [v * 1.2 for v in same], 0.1,
                           "lower") == "regressed"
    assert compare.verdict(same, [v * 0.8 for v in same], 0.1,
                           "lower") == "improved"
    # higher-is-better flips the direction
    assert compare.verdict(same, [v * 0.8 for v in same], 0.1,
                           "higher") == "regressed"
    assert compare.verdict(same, [v * 1.2 for v in same], 0.1,
                           "higher") == "improved"


def test_wide_spread_is_unresolved_unless_every_run_wins():
    wide = [8.0, 9.0, 10.0, 11.0, 12.0]
    assert compare.verdict(wide, [v * 1.02 for v in wide], 0.1,
                           "lower") == "unresolved"
    # every run of B below every run of A: the spread cannot hide that
    assert compare.verdict(wide, [5.0, 6.0, 7.0, 7.5, 7.9], 0.1,
                           "lower") == "improved"
    # a regression beyond the bound is called one even when noisy
    assert compare.verdict(wide, [v * 1.5 for v in wide], 0.1,
                           "lower") == "regressed"


def test_single_run_sets_have_degenerate_quartiles():
    assert compare.quartiles([3.0]) == (3.0, 3.0, 3.0)
    assert compare.verdict([3.0], [3.1], 0.1, "lower") == "ok"


def test_exit_codes_and_rows(tmp_path, capsys):
    base = {"setup_s": 1.0, "time_to_result_s": 10.0, "peak_rss_mb": 200.0}
    a = _write(tmp_path, "a.json", _doc(base))
    ok = _write(tmp_path, "ok.json", _doc(base))
    assert compare.main(a, ok, BENCH) == 0
    out = capsys.readouterr().out
    for name in base:
        assert any(line.split()[:2] == ["box3d", name]
                   for line in out.splitlines())
    assert "failed_share" in out

    slow = dict(base, time_to_result_s=10.0 * (1 + BOUND["time_to_result_s"])
                * 1.05)
    b = _write(tmp_path, "b.json", _doc(slow))
    assert compare.main(a, b, BENCH) == 1
    assert "regressed" in capsys.readouterr().out


def test_bound_comes_from_benchmark_json(tmp_path):
    base = {"peak_rss_mb": 200.0}
    a = _write(tmp_path, "a.json", _doc(base))
    b = _write(tmp_path, "b.json", _doc({"peak_rss_mb": 230.0}))   # +15%
    assert compare.main(a, b, BENCH) == 1
    loose = json.loads(json.dumps(BENCH))
    for metric in loose["end_to_end"]:
        if metric["name"] == "peak_rss_mb":
            metric["bound"] = 0.25
    assert compare.main(a, b, loose) == 0


def test_rise_of_failed_share_fails(tmp_path):
    base = {"setup_s": 1.0}
    a = _write(tmp_path, "a.json", _doc(base))
    b = _write(tmp_path, "b.json", _doc(base, failed=1))
    assert compare.main(a, b, BENCH) == 1


@pytest.mark.parametrize("flag", ["noisy", "smoke"])
def test_refuses_noisy_and_smoke_sets(tmp_path, capsys, flag):
    base = {"setup_s": 1.0}
    a = _write(tmp_path, "a.json", _doc(base))
    b = _write(tmp_path, "b.json", _doc(base, **{flag: True}))
    assert compare.main(a, b, BENCH) == 2
    assert "refusing" in capsys.readouterr().out or flag == "smoke"


def test_sets_of_runs_from_a_directory(tmp_path, capsys):
    for side, scale in (("a", 1.0), ("b", 1.0)):
        folder = tmp_path / side
        folder.mkdir()
        for i in range(10):
            _write(folder, f"r{i}.json",
                   _doc({"time_to_result_s": scale * (5.0 + 0.01 * i)}))
    assert compare.main(tmp_path / "a", tmp_path / "b", BENCH) == 0
    row = next(line for line in capsys.readouterr().out.splitlines()
               if line.split()[:2] == ["box3d", "time_to_result_s"])
    assert row.split().count("10") >= 2           # both sample counts


def test_per_layer_rows_get_no_verdict(tmp_path, capsys):
    a = _write(tmp_path, "a.json",
               _doc({"accel.table_build_s": 1.0}, "porous2d", traced=True))
    b = _write(tmp_path, "b.json",
               _doc({"accel.table_build_s": 9.0}, "porous2d", traced=True))
    assert compare.main(a, b, BENCH) == 0
    row = next(line for line in capsys.readouterr().out.splitlines()
               if "accel.table_build_s" in line)
    assert row.rstrip().endswith("-")
