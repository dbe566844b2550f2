#!/usr/bin/env python3
"""The benchmark's one command.

    python3 perfbench/run.py [--workload W]... [--seed N] [--out DIR]
    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --compare A.json B.json

Without ``--trace`` each selected workload runs twice: untraced, which
gives the end-to-end metrics, then traced, which gives the per-layer
metrics. Every metric is printed as ``workload metric value unit``, the
correctness checks run as part of the same command, and the exit code is
non-zero when any operation or check failed.

With ``--trace`` exactly one run of one workload is made and the last
line of standard output is one JSON object (``correct``, ``attempted``,
``failed``, ``metrics``) — the form the PR driver reads; failures are
reported there and the exit code is 0 once that line is printed.

Metric names, units and regression bounds live in ``BENCHMARK.json`` at
the repo root and nowhere else.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import sys
import time
from pathlib import Path

if __name__ == "__main__" and __package__ in (None, ""):
    # Run as a script: put the repo root, not perfbench/, first on the
    # path, so the package imports work and perfbench/trace.py does not
    # shadow the standard library's ``trace``.
    sys.path[0] = str(Path(__file__).resolve().parent.parent)

from perfbench import compare as compare_mod          # noqa: E402
from perfbench import harness                         # noqa: E402
from perfbench.machine import (PINNED_ENV, finish_profile,  # noqa: E402
                               machine_profile)
from perfbench.trace import Tracer, chrome_trace, write_trace  # noqa: E402
from perfbench.weather import Probe                   # noqa: E402
from perfbench.workloads import WORKLOADS             # noqa: E402
from perfbench.workloads.common import Context        # noqa: E402

BENCHMARK_JSON = harness.REPO_ROOT / "BENCHMARK.json"


def load_benchmark() -> dict:
    """The benchmark's definition: workloads, metric names, units, bounds."""
    return json.loads(BENCHMARK_JSON.read_text(encoding="utf-8"))


def run_pass(workload: str, traced: bool, seed: int, sizes: harness.Sizes,
             out_root: Path, artefacts: Path | None,
             parity_tol: float) -> harness.PassResult:
    """One run of one workload, with everything it starts cleaned up after."""
    module = WORKLOADS[workload]
    result = harness.PassResult(workload, traced, seed)
    children = harness.Children(out_root)
    tracer = Tracer(enabled=traced, workload=workload)
    ctx = Context(sizes, seed, traced, tracer, children, result, parity_tol,
                  Probe())
    start = time.perf_counter()
    try:
        module.run(ctx)
        leaked = children.leaked_shm()
        result.check("no_shm_left", not leaked, " ".join(leaked))
    finally:
        children.close()
    result.wall_s = time.perf_counter() - start
    if traced:
        document = chrome_trace(tracer.spans)
        result.check("trace_well_formed",
                     all(e["ph"] == "X" and e["dur"] >= 0
                         for e in document["traceEvents"])
                     and len(document["traceEvents"]) > 0)
        if artefacts is not None:
            write_trace(tracer.spans, artefacts / f"trace-{workload}.json")
        result.counts["spans"] = len(tracer.spans)
    return result


def select_metrics(result: harness.PassResult, bench: dict) -> dict:
    """The metrics this run owes, by BENCHMARK.json, each with its unit.

    The untraced run owes every end-to-end metric. The traced run owes
    every per-layer metric; one that belongs to another workload's layers
    reads 0 here (``boundary.ms_per_step`` on ``box3d``). A metric the
    workload lists but did not produce, or produced without listing, is a
    harness bug and raises.
    """
    module = WORKLOADS[result.workload]
    if not result.traced:
        wanted = {m["name"]: m["unit"] for m in bench["end_to_end"]}
        owed = set(wanted)
    else:
        wanted = {m["name"]: m["unit"] for m in bench["per_layer"]}
        owed = set(module.PER_LAYER)
        unknown = owed - set(wanted)
        if unknown:
            raise RuntimeError(f"{result.workload} lists metrics missing "
                               f"from BENCHMARK.json: {sorted(unknown)}")
    produced = set(result.metrics)
    e2e_names = {m["name"] for m in bench["end_to_end"]}
    layer_names = {m["name"] for m in bench["per_layer"]}
    stray = produced - e2e_names - layer_names
    if stray:
        raise RuntimeError(f"{result.workload} produced unnamed metrics: "
                           f"{sorted(stray)}")
    missing = owed - produced
    if missing and result.correct:
        raise RuntimeError(f"{result.workload} did not produce: "
                           f"{sorted(missing)}")
    return {name: {"value": float(result.metrics.get(name, 0.0)),
                   "unit": unit}
            for name, unit in wanted.items()}


def print_pass(result: harness.PassResult, metrics: dict) -> None:
    """``workload metric value unit`` lines, then samples and failed checks.

    Only what this workload measured is printed; the zeros that stand for
    other workloads' layers appear in the driver's JSON alone.
    """
    kind = "traced" if result.traced else "untraced"
    print(f"# {result.workload} {kind}: {result.wall_s:.1f} s, "
          f"{result.attempted} attempted, {result.failed} failed, "
          f"inputs {result.input_hash}")
    for name, entry in metrics.items():
        if name in result.metrics:
            print(f"{result.workload} {name} {entry['value']:.6g} "
                  f"{entry['unit']}")
    print(f"{result.workload} failed_share {result.failed_share:.6g} ratio")
    for name, values in result.samples.items():
        if not values:
            continue
        line = (f"# {result.workload} {name}: median "
                f"{harness.median(values):.6g}")
        tail = harness.tail_percentile(values)
        if tail:
            line += f", p{tail[0]} {tail[1]:.6g}"
        print(f"{line}, n={len(values)}")
    for check in result.checks:
        if not check.ok:
            print(f"# FAILED {result.workload} {check.name}: {check.detail}")


def _raise_exit(signum, frame):
    raise SystemExit(128 + signum)


def main(argv: list[str] | None = None) -> int:
    """Entry point; returns the process exit code."""
    bench = load_benchmark()
    names = [w["name"] for w in bench["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", action="append", choices=names,
                        help="workload to run (repeatable; default: all)")
    parser.add_argument("--seed", type=int, default=0,
                        help="seed of the generated inputs")
    parser.add_argument("--seconds", type=float,
                        default=float(bench["run_seconds"]),
                        help="run length the fixed counts are scaled to")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=None,
                        help="make one run only (0 untraced, 1 traced) and "
                        "print its result as the last line, as JSON")
    parser.add_argument("--out", type=Path, default=None,
                        help="directory for result.json and trace files")
    parser.add_argument("--smoke", action="store_true",
                        help="tiny shapes: exercises the harness, measures "
                        "nothing")
    parser.add_argument("--compare", nargs=2, metavar=("A.json", "B.json"),
                        type=Path, help="judge two result files against "
                        "the bounds in BENCHMARK.json")
    parser.add_argument("--inject-parity-tol", type=float, default=None,
                        help=argparse.SUPPRESS)   # test hook: break a check
    args = parser.parse_args(argv)

    if args.compare:
        return compare_mod.main(args.compare[0], args.compare[1], bench)
    if not (harness.SRC_DIR / "repro").is_dir():
        print(f"perfbench: no program to measure at {harness.SRC_DIR}",
              file=sys.stderr)
        return 2

    os.environ.update(PINNED_ENV)
    if str(harness.SRC_DIR) not in sys.path:
        sys.path.insert(1, str(harness.SRC_DIR))   # the harness calls in too
    signal.signal(signal.SIGTERM, _raise_exit)
    out = args.out.resolve() if args.out else None
    os.chdir(harness.REPO_ROOT)      # socket paths stay short and relative
    single = args.trace is not None
    workloads = args.workload or names
    if single and len(workloads) != 1:
        parser.error("--trace runs one workload: give exactly one --workload")
    if out is None and not single:
        out = harness.PERFBENCH_DIR / "out" / time.strftime("run-%Y%m%d-%H%M%S")
    out_root = out or harness.PERFBENCH_DIR / "out"
    sizes = harness.scaled(harness.SMOKE if args.smoke else harness.FULL,
                           args.seconds)
    parity_tol = (harness.PARITY_TOL if args.inject_parity_tol is None
                  else args.inject_parity_tol)

    profile = machine_profile(harness.REPO_ROOT)
    passes = [False, True] if not single else [bool(args.trace)]
    results = []
    last_metrics: dict = {}
    for workload in workloads:
        for traced in passes:
            result = run_pass(workload, traced, args.seed, sizes, out_root,
                              out, parity_tol)
            last_metrics = select_metrics(result, bench)
            print_pass(result, last_metrics)
            results.append(result)
    finish_profile(profile)

    if out is not None:
        out.mkdir(parents=True, exist_ok=True)
        document = {
            "machine": profile, "seed": args.seed, "seconds": args.seconds,
            "smoke": args.smoke,
            "passes": [r.to_dict() for r in results],
        }
        (out / "result.json").write_text(json.dumps(document, indent=1) + "\n",
                                         encoding="utf-8")
        print(f"# results in {out}")
    if single:
        # The driver's form: the verdict travels in the JSON, and a run
        # that printed its result exits 0.
        result = results[0]
        print(json.dumps({"correct": result.correct,
                          "attempted": result.attempted,
                          "failed": result.failed,
                          "metrics": last_metrics}))
        return 0
    return 1 if any(r.failed for r in results) else 0


if __name__ == "__main__":
    if any(os.environ.get(k) != v for k, v in PINNED_ENV.items()):
        # The run conditions (thread pins, allocator settings) only take
        # effect at interpreter start, and the harness's own probes must
        # run under them too: start again with them set.
        os.environ.update(PINNED_ENV)
        os.execv(sys.executable, [sys.executable, *sys.argv])
    sys.exit(main())
