"""``--compare A B``: judge two sets of results against BENCHMARK.json.

``A`` is the parent, ``B`` the change. Each is a ``result.json`` written
by ``run.py --out``, a JSON list of such documents, or a directory holding
several (one per run, e.g. ten alternating pairs). One row is printed per
(workload, metric) with both medians, quartiles and sample counts.

End-to-end metrics are judged against their bound, read from
``BENCHMARK.json``: *regressed* when B's median is worse than A's by more
than the bound; otherwise *unresolved* when either side's run-to-run
spread (quartile distance over median) is wider than the bound — unless
every run of B beats every run of A; *improved* when B is better by more
than the bound; else *ok*. Per-layer metrics have no bound and get no
verdict. The exit code is 1 on any *regressed* row or any rise of
``failed_share``, and 2 when a set cannot be judged at all (a run marked
noisy, or a smoke run).
"""

from __future__ import annotations

import json
import statistics
from pathlib import Path


def load_documents(path: Path) -> list[dict]:
    """Result documents behind one ``--compare`` argument."""
    if path.is_dir():
        docs = []
        for file in sorted(path.rglob("*.json")):
            docs.extend(load_documents(file))
        return docs
    data = json.loads(path.read_text(encoding="utf-8"))
    if isinstance(data, list):
        return [d for d in data if "passes" in d]
    return [data] if "passes" in data else []


def collect(docs: list[dict], traced: bool) -> dict[tuple[str, str], list[float]]:
    """``(workload, metric) -> values``, one value per run."""
    values: dict[tuple[str, str], list[float]] = {}
    for doc in docs:
        for run in doc["passes"]:
            if run["traced"] != traced:
                continue
            for name, value in run["metrics"].items():
                values.setdefault((run["workload"], name), []).append(value)
    return values


def failed_share(docs: list[dict]) -> dict[str, float]:
    """Worst ``failed_share`` per workload over all runs."""
    worst: dict[str, float] = {}
    for doc in docs:
        for run in doc["passes"]:
            share = run["failed"] / max(run["attempted"], 1)
            worst[run["workload"]] = max(worst.get(run["workload"], 0.0), share)
    return worst


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """``(q1, median, q3)``; a single value is all three."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def verdict(a: list[float], b: list[float], bound: float,
            better: str) -> str:
    """``ok`` / ``regressed`` / ``improved`` / ``unresolved`` for one row."""
    a_q1, a_med, a_q3 = quartiles(a)
    b_q1, b_med, b_q3 = quartiles(b)
    sign = 1.0 if better == "lower" else -1.0
    base = abs(a_med) or 1.0
    worse_by = sign * (b_med - a_med) / base
    if worse_by > bound:
        return "regressed"
    b_always_better = (max(b) < min(a) if better == "lower"
                       else min(b) > max(a))
    spread = max((a_q3 - a_q1) / base, (b_q3 - b_q1) / (abs(b_med) or 1.0))
    if spread > bound:
        return "improved" if b_always_better else "unresolved"
    return "improved" if worse_by < -bound else "ok"


def main(path_a: Path, path_b: Path, bench: dict) -> int:
    """Print the comparison; returns the exit code."""
    docs_a, docs_b = load_documents(path_a), load_documents(path_b)
    if not docs_a or not docs_b:
        print("compare: no result documents found")
        return 2
    for label, docs in (("A", docs_a), ("B", docs_b)):
        if any(d["machine"].get("noisy") for d in docs):
            print(f"compare: set {label} has a run started on a busy box "
                  f"(machine.noisy); refusing to judge it")
            return 2
        if any(d.get("smoke") for d in docs):
            print(f"compare: set {label} is a smoke run; its numbers mean "
                  f"nothing")
            return 2

    exit_code = 0
    header = (f"{'workload':<9} {'metric':<34} {'A median':>11} "
              f"{'[q1, q3]':>24} {'n':>3} {'B median':>11} "
              f"{'[q1, q3]':>24} {'n':>3} {'change':>8} {'bound':>6}  verdict")
    print(header)
    for section, traced in (("end_to_end", False), ("per_layer", True)):
        values_a, values_b = collect(docs_a, traced), collect(docs_b, traced)
        for spec in bench[section]:
            for (workload, name), a in sorted(values_a.items()):
                b = values_b.get((workload, name))
                if name != spec["name"] or not b:
                    continue
                a_q1, a_med, a_q3 = quartiles(a)
                b_q1, b_med, b_q3 = quartiles(b)
                change = (b_med - a_med) / (abs(a_med) or 1.0)
                bound = spec.get("bound")
                word = (verdict(a, b, bound, spec["better"])
                        if bound is not None else "-")
                if word == "regressed":
                    exit_code = 1
                print(f"{workload:<9} {name:<34} {a_med:>11.5g} "
                      f"{f'[{a_q1:.5g}, {a_q3:.5g}]':>24} {len(a):>3} "
                      f"{b_med:>11.5g} "
                      f"{f'[{b_q1:.5g}, {b_q3:.5g}]':>24} {len(b):>3} "
                      f"{change:>+8.1%} "
                      f"{'' if bound is None else format(bound, '.0%'):>6}  "
                      f"{word}")
    fails_a, fails_b = failed_share(docs_a), failed_share(docs_b)
    for workload in sorted(fails_b):
        a, b = fails_a.get(workload, 0.0), fails_b[workload]
        word = "regressed" if b > a else "ok"
        if b > a:
            exit_code = 1
        print(f"{workload:<9} {'failed_share':<34} {a:>11.5g} {'':>24} "
              f"{'':>3} {b:>11.5g} {'':>24} {'':>3} {'':>8} {'0':>6}  {word}")
    return exit_code
