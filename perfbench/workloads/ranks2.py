"""``ranks2`` — the path a user types: cold ``mrlbm run`` on two ranks.

The paper's channel proxy app (velocity inlet, pressure outlet,
bounce-back walls), MR-P D3Q19, run as cold subprocesses of
``python -m repro run --ranks 2 --backend process``: plain runs, then
runs with fault tolerance and observability on (checkpoints, event
streams, watchdog). The only workload where interpreter start,
parent-side build, process spawn, halo wait, slab publish, gather,
output and checkpoint writes exist.
"""

from __future__ import annotations

import json
import os
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from ..harness import input_hash, lower_quartile, median, python_cmd
from .common import Context, span_cost_s

NAME = "ranks2"
WHY = ("cold CLI runs on 2 process ranks: interpreter start, build, spawn, "
       "halo exchange, gather, output and checkpoint writes exist only "
       "here; the FT variant is writes beside compute")

PER_LAYER = (
    "host.weather", "user.time_to_result_raw_s",
    "user.mlups_mrp", "user.cli_wall_ft_s",
    "boundary.ms_per_step",
    "parallel.compute_s", "parallel.halo_wait_s", "parallel.pack_unpack_s",
    "parallel.publish_s", "parallel.halo_wait_share",
    "parallel.imbalance_ratio", "parallel.halo_bytes_per_step",
    "parallel.messages_per_step", "parallel.spawn_gather_s",
    "parallel.scaling_eff_2", "parallel.rank1_vs_single_ratio",
    "io.checkpoint_s_per_write", "io.checkpoint_mb_per_write",
    "io.output_write_s", "io.output_mb",
    "obs.ft_overhead_pct", "obs.events_bytes_per_run",
    "obs.tracing_overhead_pct",
    "cli.import_s", "cli.nonstep_s",
)

SCHEME, LATTICE = "MR-P", "D3Q19"


@dataclass
class CliRun:
    """One finished ``mrlbm run`` subprocess."""

    wall_s: float
    report: dict
    directory: Path

    @property
    def step_wall_s(self) -> float:
        """Stepping wall of the slowest rank (the cohort's pace)."""
        return self.report["wall_s_slowest_rank"]

    def phase_per_rank(self, *names: str) -> float:
        """Seconds per rank the report attributes to the named phases."""
        phases = self.report["phases"]
        total = sum(phases.get(n, {}).get("total_s", 0.0) for n in names)
        return total / self.report["n_ranks"]


def _dir_bytes(path: Path) -> int:
    return sum(f.stat().st_size for f in path.rglob("*") if f.is_file())


def run_cli(ctx: Context, tag: str, ranks: int, steps: int, u_max: float,
            fault_tolerant: bool = False) -> CliRun | None:
    """One cold CLI run in its own directory; counted and checked."""
    sz = ctx.sizes
    directory = ctx.children.scratch / tag
    directory.mkdir()
    rel = Path(os.path.relpath(directory))
    cmd = python_cmd(
        "-m", "repro", "run", "--problem", "channel", "--scheme", SCHEME,
        "--lattice", LATTICE, "--shape", ",".join(map(str, sz.ranks_shape)),
        "--ranks", str(ranks), "--backend", "process", "--accel", "fused",
        "--steps", str(steps), "--u-max", repr(u_max),
        "--metrics", str(rel / "m.jsonl"), "--output", str(rel / "out.npz"))
    if fault_tolerant:
        every = max(steps // 2, 1)
        cmd += ["--checkpoint-dir", str(rel / "ckpt"),
                "--checkpoint-every", str(every),
                "--events", str(rel / "events"), "--watchdog", str(every)]
    child = ctx.children.run(cmd, tag=tag, timeout=sz.child_timeout_s)
    ctx.sample_weather(4)         # a CLI run is long: fewer points, more passes
    report = None
    if child.returncode == 0 and (directory / "out.npz").exists():
        try:
            lines = (directory / "m.jsonl").read_text().strip().splitlines()
            report = json.loads(lines[-1])["report"]
        except (OSError, IndexError, KeyError, json.JSONDecodeError):
            report = None
    if not ctx.result.check(
            f"{tag}.exit", report is not None,
            "" if report else f"rc={child.returncode}: {child.stderr[-400:]}"):
        return None
    # The report says how long the runtime and its slowest rank took but
    # not when: they ride on the span as attributes, not as child spans.
    ctx.tracer.add("cli_run", child.spawn, child.exit, None, unit=tag,
                   ranks=ranks, steps=steps, fault_tolerant=fault_tolerant,
                   runtime_wall_s=report["wall_s"],
                   step_wall_s=report["wall_s_slowest_rank"])
    return CliRun(child.wall_s, report, directory)


def run(ctx: Context) -> None:
    """Run the workload into ``ctx.result``."""
    sz, res = ctx.sizes, ctx.result
    ranks = min(2, os.cpu_count() or 1)
    u_max = float(ctx.rng(0).uniform(0.03, 0.05))
    res.input_hash = input_hash(repr(u_max).encode())
    n_plain = sz.ranks_plain_runs_traced if ctx.traced else sz.ranks_plain_runs
    n_ft = sz.ranks_ft_runs_traced if ctx.traced else sz.ranks_ft_runs
    res.counts = {"plain_runs": n_plain, "ft_runs": n_ft,
                  "steps": sz.ranks_steps, "ranks": ranks}

    # A short N-rank run warms the box (the first process cohort after an
    # idle spell runs at half pace) and, against a 1-rank run of the same
    # command, is the bit-for-bit check.
    pair = [run_cli(ctx, f"check-r{r}", r, sz.ranks_check_steps, u_max)
            for r in (ranks, 1)]
    if all(pair):
        fields = [np.load(p.directory / "out.npz") for p in pair]
        res.check("ranks_bit_for_bit",
                  all(np.array_equal(fields[0][k], fields[1][k])
                      for k in ("rho", "u")),
                  f"{ranks}-rank vs 1-rank out.npz")

    plain = [run_cli(ctx, f"plain-{i}", ranks, sz.ranks_steps, u_max)
             for i in range(n_plain)]
    ft = [run_cli(ctx, f"ft-{i}", ranks, sz.ranks_steps, u_max,
                  fault_tolerant=True) for i in range(n_ft)]
    plain = [r for r in plain if r]
    ft = [r for r in ft if r]
    if not plain or not ft:
        return

    # The lower quartile of the plain runs, not their median: a rank that
    # loses its core to other work holds the cohort up at every halo
    # exchange, such spells cover none to most of one run's CLI calls
    # (walls of 2.3 2.3 3.2 3.5 3.1 s), and the median flips with them
    # (ten runs spread by 20%) where the lower quartile does not (9%).
    m = res.metrics
    weather = ctx.finish_weather()
    walls = [r.wall_s for r in plain]
    res.samples["cli_wall_s"] = walls
    res.samples["cli_wall_ft_s"] = [r.wall_s for r in ft]
    m["user.time_to_result_raw_s"] = lower_quartile(walls)
    m["time_to_result_s"] = lower_quartile(walls) / weather
    m["setup_s"] = lower_quartile(
        r.wall_s - r.step_wall_s for r in plain) / weather
    m["user.mlups_mrp"] = median(r.report["mlups"] for r in plain)
    m["peak_rss_mb"] = ctx.children.peak_rss_mb
    m["user.cli_wall_ft_s"] = median(r.wall_s for r in ft)
    if not ctx.traced:
        return

    # -- per-layer: from the reports of the same runs ----------------------
    m["parallel.compute_s"] = median(
        r.phase_per_rank("step/compute") for r in plain)
    m["parallel.halo_wait_s"] = median(
        r.phase_per_rank("step/barrier") for r in plain)
    m["parallel.pack_unpack_s"] = median(
        r.phase_per_rank("step/pack", "step/unpack") for r in plain)
    m["parallel.publish_s"] = median(
        r.phase_per_rank("step/publish") for r in plain)
    m["parallel.halo_wait_share"] = median(
        r.report["imbalance"]["exchange_wait_share"] for r in plain)
    m["parallel.imbalance_ratio"] = median(
        r.report["imbalance"]["imbalance_ratio"] for r in plain)
    comm = plain[0].report["comm"]
    m["parallel.halo_bytes_per_step"] = comm["bytes_per_step"]
    m["parallel.messages_per_step"] = comm["messages"] / max(comm["steps"], 1)
    m["parallel.spawn_gather_s"] = median(
        r.report["wall_s"] - r.step_wall_s for r in plain)
    m["cli.nonstep_s"] = median(r.wall_s - r.report["wall_s"] for r in plain)

    ckpt = ft[0].report["phases"].get("checkpoint", {})
    writes = ckpt.get("calls", 0) / ft[0].report["n_ranks"]
    m["io.checkpoint_s_per_write"] = ckpt.get("mean_s", 0.0)
    m["io.checkpoint_mb_per_write"] = \
        _dir_bytes(ft[0].directory / "ckpt") / max(writes, 1) / 1e6
    m["obs.events_bytes_per_run"] = _dir_bytes(ft[0].directory / "events")
    m["obs.ft_overhead_pct"] = 100.0 * (
        m["user.cli_wall_ft_s"] / median(walls) - 1.0)

    # -- baselines only the traced run pays for ----------------------------
    one_rank = run_cli(ctx, "baseline-r1", 1, sz.ranks_steps, u_max)
    if one_rank:
        m["parallel.scaling_eff_2"] = \
            m["user.mlups_mrp"] / one_rank.report["mlups"] / ranks

    from repro.io import save_fields
    from repro.obs import Telemetry
    from repro.service.registry import build_single

    with ctx.tracer.span("single_domain_baseline"):
        solver = build_single("channel", SCHEME, LATTICE, sz.ranks_shape,
                              tau=0.8, backend="fused", u_max=u_max)
        solver.run(2)
        telemetry = Telemetry(record_spans=False)
        solver.attach_telemetry(telemetry)
        solver.run(sz.ranks_single_steps)
    single_mlups = telemetry.mlups(int(solver.domain.fluid_mask.sum()))
    m["boundary.ms_per_step"] = \
        telemetry.phase_total("step/boundary") / sz.ranks_single_steps * 1e3
    if one_rank:
        m["parallel.rank1_vs_single_ratio"] = \
            one_rank.report["mlups"] / single_mlups

    out_npz = plain[0].directory / "out.npz"
    m["io.output_mb"] = out_npz.stat().st_size / 1e6
    fields = np.load(out_npz)
    with ctx.tracer.span("io.save_fields"):
        t0 = time.perf_counter()
        save_fields(ctx.children.scratch / "rewrite.npz",
                    fields["rho"], fields["u"])
        m["io.output_write_s"] = time.perf_counter() - t0

    imports = []
    for i in range(sz.ranks_import_repeats):
        with ctx.tracer.span("cli.import", unit=f"import-{i}"):
            child = ctx.children.run(python_cmd("-c", "import repro.cli"),
                                     tag=f"import-{i}",
                                     timeout=sz.child_timeout_s)
        if res.check(f"import-{i}.exit", child.returncode == 0,
                     child.stderr[-400:]):
            imports.append(child.wall_s)
    m["cli.import_s"] = median(imports)

    # Nothing inside the CLI changes between the two runs of this
    # workload: tracing here is the harness's own spans, and their cost is
    # their count times the measured cost of one.
    m["obs.tracing_overhead_pct"] = 100.0 * (
        len(ctx.tracer.spans) * span_cost_s() / sum(walls))
