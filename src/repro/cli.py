"""Command-line interface: ``mrlbm`` (or ``python -m repro``).

Subcommands
-----------
``run``      Run any registered problem kind with any scheme.
``profile``  Per-phase time/traffic breakdown for a short workload.
``watch``    Tail the per-rank JSONL event streams of a (live) run dir.
``sweep``    Run a parameter grid, every member a single-domain fused
             run (see docs/TUTORIAL.md).
``serve``    Start the local async job server over the fault-tolerant
             process runtime (see docs/SERVICE.md).
``submit``   Submit one job to a running server; optionally wait for
             the sealed result or follow the live event stream.
``jobs``     List a server's jobs, or query one job / its result.
``tables``   Regenerate the paper's Tables 1-4.
``figures``  Regenerate the paper's Figures 2-3 (text rendering).
``summary``  Regenerate the headline claims (footprint, speedups, MR-R cost).
``devices``  Show the modelled GPU devices.
``validate`` Quick physics validation (Taylor-Green + Poiseuille).
``report``   Write the full reproduction report.
``tune``     Rank MR tile configurations on a modelled device.

Every ``run`` — single-domain, ``--ranks N`` emulated in this process, or
``--backend process`` (one OS process per slab) — steps one loop
(:mod:`repro.loop`), so ``--metrics``, ``--trace``, ``--manifest``,
``--watchdog N``, ``--events DIR``, ``--checkpoint-dir`` and ``--resume``
(one checkpoint format, resumable on any path and rank count) work on
each; a flag a path cannot honour (``--max-restarts`` needs the process
backend's supervisor) is refused in one sentence before any step runs
(see ``docs/observability.md`` and ``docs/PARALLEL.md``).
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

__all__ = ["main", "build_parser"]


def _shape(text: str) -> tuple[int, ...]:
    """``argparse`` type of ``--shape``: ``"64,34,34"`` -> ``(64, 34, 34)``."""
    return tuple(int(s) for s in text.split(","))


def _add_run_flags(parser, shape: str, steps: int) -> None:
    """The flags ``run`` and ``submit`` share: what to step, how long, on
    how many slabs and backends, with which fault-tolerance cadences."""
    from .spec import BACKENDS

    parser.add_argument("--scheme", default="MR-P",
                        choices=["ST", "MR-P", "MR-R"])
    parser.add_argument("--lattice", default="D2Q9")
    parser.add_argument("--shape", type=_shape, default=shape,
                        help="comma-separated grid shape, e.g. 128,66")
    parser.add_argument("--tau", type=float, default=0.8)
    parser.add_argument("--steps", type=int, default=steps)
    parser.add_argument("--ranks", type=int, default=1, metavar="N",
                        help="decompose into N streamwise slabs")
    parser.add_argument("--accel", default="reference", choices=BACKENDS,
                        help="execution backend of the step "
                        "(docs/PERFORMANCE.md)")
    parser.add_argument("--checkpoint-every", type=int, default=0,
                        metavar="N", help="checkpoint cadence in steps "
                        "(0 = off)")
    parser.add_argument("--max-restarts", type=int, default=0, metavar="K",
                        help="retry a failed cohort up to K times")
    parser.add_argument("--watchdog", type=int, default=0, metavar="N",
                        help="abort on NaN/Inf/over-speed fields, checked "
                        "every N steps (0 = off)")


def build_parser() -> argparse.ArgumentParser:
    # every --problem list is the registry's and every --accel list the
    # backend tuple, so a new kind or backend is offered the moment it
    # exists; both are the numpy-free spec layer's
    from .spec import BACKENDS, problem_kinds, sweep_kinds

    p = argparse.ArgumentParser(
        prog="mrlbm",
        description="Moment representation of regularized LBM (SC'23 reproduction)",
    )
    sub = p.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run a simulation")
    _add_run_flags(run, "128,66", 1000)
    run.add_argument("--problem", default="channel",
                     choices=problem_kinds())
    run.add_argument("--u-max", type=float, default=0.05)
    run.add_argument("--bc", default="regularized-fd", choices=["regularized-fd", "nebb"])
    run.add_argument("--backend", default=None,
                     choices=["emulated", "process"],
                     help="step the slabs in this process, or each in an "
                     "OS process over shared memory (default: emulated "
                     "for --ranks > 1, process with --max-restarts)")
    run.add_argument("--checkpoint-dir", default=None, metavar="DIR",
                     help="write a checkpoint step directory here every "
                     "--checkpoint-every steps (any path)")
    run.add_argument("--resume", default=None, metavar="DIR",
                     help="resume from the newest complete checkpoint in "
                     "DIR; --steps is the TOTAL trajectory length")
    run.add_argument("--output", default=None, help="write final fields to .npz/.vtk")
    run.add_argument("--report-interval", type=int, default=None,
                     metavar="N", help="print progress every N steps "
                     "(default 200; in-process runs)")
    run.add_argument("--metrics", default=None, metavar="PATH",
                     help="write metric records to a JSON-lines file")
    run.add_argument("--trace", default=None, metavar="PATH",
                     help="write a Chrome trace-event file of the phase spans")
    run.add_argument("--manifest", default=None, metavar="PATH", nargs="?",
                     const="", help="write a run manifest JSON (default: "
                     "next to --output, or run.manifest.json)")
    run.add_argument("--events", default=None, metavar="DIR",
                     help="append per-rank JSONL event streams to DIR "
                     "(tail them with 'mrlbm watch DIR')")
    run.add_argument("--events-every", type=int, default=25, metavar="N",
                     help="event heartbeat cadence in steps (default 25)")

    prof = sub.add_parser(
        "profile", help="per-phase time/traffic breakdown for a short workload")
    prof.add_argument("--scheme", default="MR-P",
                      choices=["ST", "MR-P", "MR-R", "AA", "all"])
    prof.add_argument("--lattice", default="D2Q9")
    prof.add_argument("--shape", type=_shape, default=None,
                      help="comma-separated grid shape (default: small 2D/3D)")
    prof.add_argument("--steps", type=int, default=40)
    prof.add_argument("--tau", type=float, default=0.8)
    prof.add_argument("--device", default="V100",
                      help="device for the traffic measurement / roofline")
    prof.add_argument("--no-traffic", action="store_true",
                      help="skip the virtual-GPU DRAM traffic measurement")
    prof.add_argument("--json", default=None, metavar="PATH",
                      help="also dump the raw profile results as JSON")
    prof.add_argument("--accel", default="reference", choices=BACKENDS,
                      help="execution backend to profile")

    watch = sub.add_parser(
        "watch", help="tail the per-rank event streams of a run directory")
    watch.add_argument("run_dir", help="directory holding "
                       "events-rank*.jsonl streams (see 'mrlbm run "
                       "--events DIR')")
    watch.add_argument("--follow", action="store_true",
                       help="keep tailing until every rank ends (or "
                       "--timeout expires)")
    watch.add_argument("--poll", type=float, default=0.5, metavar="S",
                       help="poll interval in seconds while following")
    watch.add_argument("--timeout", type=float, default=None, metavar="S",
                       help="give up following after S seconds")

    sub.add_parser("tables", help="regenerate paper Tables 1-4")
    fig = sub.add_parser("figures", help="regenerate paper Figures 2-3")
    fig.add_argument("--which", default="both", choices=["2", "3", "both"])
    fig.add_argument("--svg", default=None, metavar="PREFIX",
                     help="also write PREFIX_figure2.svg / PREFIX_figure3.svg")
    fig.add_argument("--csv", default=None, metavar="PREFIX",
                     help="also write PREFIX_figure2.csv / PREFIX_figure3.csv")
    sub.add_parser("summary", help="regenerate headline claims")
    sub.add_parser("devices", help="list modelled GPU devices")

    val = sub.add_parser("validate",
                         help="quick physics validation (TG + Poiseuille)")
    val.add_argument("--fast", action="store_true",
                     help="smaller grids / fewer steps")

    rep = sub.add_parser("report", help="write the full reproduction report")
    rep.add_argument("--output", default="reproduction_report.md")
    rep.add_argument("--svg-dir", default=None,
                     help="also write the SVG figures into this directory")

    swp = sub.add_parser(
        "sweep", help="expand a parameter grid and run every member as a "
        "single-domain fused run (see docs/TUTORIAL.md)")
    swp.add_argument("--problem", default="taylor-green",
                     choices=sweep_kinds())
    swp.add_argument("--scheme", default="MR-P",
                     help="comma-separated scheme list, e.g. MR-P,MR-R,ST")
    swp.add_argument("--lattice", default="D2Q9",
                     help="comma-separated lattice list")
    swp.add_argument("--shape", default="48,48",
                     help="semicolon-separated shape list of comma shapes, "
                     "e.g. '48,48;64,64'")
    swp.add_argument("--tau", default="0.8",
                     help="comma-separated relaxation times, e.g. "
                     "0.6,0.8,1.0")
    swp.add_argument("--u-max", default="0.05",
                     help="comma-separated peak velocities")
    swp.add_argument("--steps", type=int, default=200)
    swp.add_argument("--out", default=None, metavar="DIR",
                     help="write per-member manifests and "
                     "sweep_summary.json into DIR")
    swp.add_argument("--json", default=None, metavar="PATH",
                     help="also dump the sweep summary JSON to PATH")

    srv = sub.add_parser(
        "serve", help="start the local async job server over the "
        "fault-tolerant runtime (see docs/SERVICE.md)")
    srv.add_argument("--root", default="mrlbm-jobs", metavar="DIR",
                     help="job state directory: one subdirectory per "
                     "job holding events, checkpoints and the sealed "
                     "result (default mrlbm-jobs)")
    srv.add_argument("--host", default="127.0.0.1",
                     help="TCP bind address (default 127.0.0.1)")
    srv.add_argument("--port", type=int, default=8722,
                     help="TCP port; 0 picks an ephemeral one "
                     "(default 8722)")
    srv.add_argument("--uds", default=None, metavar="PATH",
                     help="bind a Unix-domain socket at PATH instead "
                     "of TCP")
    srv.add_argument("--workers", type=int, default=2, metavar="N",
                     help="number of jobs run concurrently (default 2)")
    srv.add_argument("--run-timeout", type=float, default=None,
                     metavar="S", help="per-job wall-clock timeout: a job "
                     "past it fails and its job process is replaced")

    sbm = sub.add_parser(
        "submit", help="submit a job to a running 'mrlbm serve' server")
    sbm.add_argument("--server", default="127.0.0.1:8722", metavar="ADDR",
                     help="server address: host:port, or a Unix-socket "
                     "path (contains '/')")
    sbm.add_argument("--kind", default="forced-channel",
                     help="problem kind (see 'mrlbm jobs --kinds')")
    _add_run_flags(sbm, "64,34", 500)
    sbm.add_argument("--option", action="append", default=[],
                     metavar="KEY=VALUE",
                     help="extra problem option forwarded to the "
                     "builder (repeatable; VALUE is parsed as JSON, "
                     "falling back to a string)")
    sbm.add_argument("--wait", action="store_true",
                     help="block until the job finishes and print the "
                     "sealed result")
    sbm.add_argument("--follow", action="store_true",
                     help="stream the job's event-bus lines while it "
                     "runs (implies --wait)")
    sbm.add_argument("--timeout", type=float, default=600.0, metavar="S",
                     help="give up waiting after S seconds "
                     "(default 600)")

    jbs = sub.add_parser(
        "jobs", help="list jobs on a running server, or query one job")
    jbs.add_argument("job_id", nargs="?", default=None,
                     help="show one job instead of listing all")
    jbs.add_argument("--server", default="127.0.0.1:8722", metavar="ADDR",
                     help="server address: host:port, or a Unix-socket "
                     "path (contains '/')")
    jbs.add_argument("--result", action="store_true",
                     help="with a job id: print the sealed result JSON")
    jbs.add_argument("--kinds", action="store_true",
                     help="list the server's registered problem kinds")
    jbs.add_argument("--json", action="store_true",
                     help="print raw JSON instead of the table")

    tune = sub.add_parser("tune", help="rank MR tile configurations")
    tune.add_argument("--lattice", default="D3Q19")
    tune.add_argument("--device", default="V100")
    tune.add_argument("--shape", type=_shape, default="256,256,256")
    tune.add_argument("--scheme", default="MR-P", choices=["MR-P", "MR-R"])
    tune.add_argument("--top", type=int, default=10)
    return p


def _problem_options(args) -> dict:
    """The ``run`` flags the chosen problem kind takes, as its options.

    The kinds live in the shared kind table (:mod:`repro.spec`); the CLI
    only maps ``--u-max``/``--bc`` onto the kinds that accept them (the
    porous kind draws its own geometry and takes neither).
    """
    from .spec import get_problem

    accepted = get_problem(args.problem).options
    options = {}
    if "u_max" in accepted:
        options["u_max"] = args.u_max
    if "bc_method" in accepted:
        options["bc_method"] = args.bc
    return options


def _refusal(args, backend: str | None) -> str | None:
    """The one sentence refusing a ``run`` flag the chosen path lacks.

    ``backend`` is ``None`` (single domain), ``"emulated"`` or
    ``"process"``; every other flag works on every path.
    """
    needs = [("--max-restarts", args.max_restarts,
              "a supervising parent (--backend process)", ("process",)),
             ("--checkpoint-every", args.checkpoint_every
              and not args.checkpoint_dir, "--checkpoint-dir", ()),
             ("--checkpoint-dir", args.checkpoint_dir
              and not args.checkpoint_every, "--checkpoint-every", ()),
             ("--report-interval", args.report_interval is not None,
              "a progress printer in the stepping process", (None, "emulated"))]
    path = {None: "a single-domain run", "emulated": "an emulated cohort",
            "process": "a process run"}[backend]
    return next((f"{flag} needs {what}, which {path} does not have"
                 for flag, given, what, paths in needs
                 if given and backend not in paths), None)


def _cmd_run(args: argparse.Namespace) -> int:
    """Handle ``mrlbm run``: build the stepper, run the one loop, write.

    A single domain and an emulated cohort step on the in-process
    launcher (:func:`repro.loop.launch`); a process run's ranks step the
    same loop in theirs (:mod:`repro.parallel.worker`). Every path runs
    under one record (:func:`repro.spec.run_record`). The output,
    metrics, trace and manifest are written once, here.
    """
    import json

    from .loop import Cadences, Sinks, launch
    from .obs import JsonLinesExporter, RunManifest, StabilityError, Telemetry
    from .obs.events import end_running_streams
    from .obs.exporters import rank_registries
    from .parallel import ParallelRuntimeError, ProcessRuntime, RunSpec
    from .service.registry import build_single
    from .spec import run_record

    backend = args.backend or ("process" if args.max_restarts else
                               "emulated" if args.ranks > 1 else None)
    record = run_record(args.problem, args.scheme, args.lattice, args.shape,
                        args.tau, _problem_options(args), n_ranks=args.ranks,
                        backend=backend or "single", accel=args.accel)
    runtime = None
    try:
        refusal = _refusal(args, backend)
        if refusal:
            raise ValueError(refusal)
        if backend is None:
            solver = build_single(args.problem, args.scheme, args.lattice,
                                  args.shape, tau=args.tau,
                                  backend=args.accel,
                                  **_problem_options(args))
        else:
            spec = RunSpec(
                args.problem, args.scheme, args.lattice, args.shape,
                args.ranks, tau=args.tau, accel=args.accel,
                options=_problem_options(args),
                checkpoint_dir=args.checkpoint_dir,
                checkpoint_every=args.checkpoint_every,
                resume_from=args.resume, max_restarts=args.max_restarts,
                watchdog_every=args.watchdog, events_dir=args.events,
                events_every=args.events_every)
            # One build serves the header, the run and the manifest: the
            # process runtime's shell is the parent's shape oracle.
            runtime = ProcessRuntime(spec) if backend == "process" else None
            solver = runtime.solver if runtime else spec.build()
    except (ValueError, RuntimeError) as err:
        # a refused flag, a bad spec or an unsupported accel/solver
        # combination: one line, before any step runs or rank is forked
        print(f"ERROR: {err}", file=sys.stderr)
        return 2
    n_fluid = (solver.global_domain if backend else solver.domain).n_fluid
    cohort = f", {args.ranks} rank(s), backend = {backend}" if backend else ""
    print(f"{args.scheme} / {args.lattice} on {args.shape} "
          f"({n_fluid:,} fluid nodes), tau = {args.tau}{cohort}, "
          f"accel = {args.accel}")

    metrics = JsonLinesExporter(args.metrics) if args.metrics else None
    tel = (Telemetry() if runtime is None
           and (args.metrics or args.trace or args.events) else None)
    trace, ended = tel, "rank terminated by the parent"
    row = {"backend": backend or "single", "ranks": args.ranks,
           "steps": args.steps, "n_fluid": int(n_fluid)}

    def progress(sample):
        print(f"  step {sample['step']:7d}  max|u| = "
              f"{sample['max_speed']:.5f}  mass = {sample['mass']:.6e}  "
              f"({sample['mlups']:.2f} CPU-MFLUPS)")
        if metrics is not None:
            metrics.write(sample)

    try:
        if runtime is None:
            rho, u, start, wall, mlups = launch(
                solver, record, args.steps,
                Cadences(checkpoint=args.checkpoint_every,
                         watchdog=args.watchdog,
                         report=args.report_interval or 200,
                         events=args.events_every),
                Sinks(telemetry=tel, events=args.events,
                      checkpoint=args.checkpoint_dir, report=progress),
                resume=args.resume)
            row.update(wall_s=wall, mlups=mlups)
            if start:
                print(f"  resumed from checkpoint at step {start} "
                      f"({args.steps - start} steps run)")
            print(f"  {mlups:.2f} MLUPS ({args.steps - start} steps"
                  f"{', sequential emulation' if backend else ''})")
        else:
            result = runtime.run(args.steps, spans=bool(args.trace))
            rho, u, report = result.rho, result.u, result.report
            row.update(wall_s=result.wall_s, mlups=report["mlups"],
                       report=report)
            trace = rank_registries(result.spans)
            _print_cohort(args, result)
    except (StabilityError, ParallelRuntimeError) as err:
        if args.events and runtime is not None:
            end_running_streams(args.events, type(err).__name__, ended)
        print(f"ABORTED: {err}", file=sys.stderr)
        for failure in getattr(err, "failures", [err]):
            if failure.report is not None:
                print(json.dumps(failure.report, indent=2), file=sys.stderr)
        return 2
    except KeyboardInterrupt:
        # A process run's interrupt path has already terminated the
        # ranks, and with them their shared memory.
        if args.events and runtime is not None:
            end_running_streams(args.events, "KeyboardInterrupt", ended)
        print("INTERRUPTED: " + ("cohort terminated, shared memory "
                                 "released" if runtime else "run stopped"),
              file=sys.stderr)
        return 130
    except (FileNotFoundError, ValueError) as err:
        # bad --resume target or incompatible checkpoint manifest
        print(f"ERROR: {err}", file=sys.stderr)
        return 2
    finally:
        if args.events:
            print(f"event streams in {args.events} "
                  f"(tail with 'mrlbm watch {args.events}')")
        if metrics is not None:
            if runtime is None:
                row["summary"] = tel.summary()
            metrics.write(row)
            metrics.close()
            print(f"wrote {args.metrics}")
        if args.trace and trace is not None:
            from .obs import write_chrome_trace

            write_chrome_trace(trace, args.trace)
            print(f"wrote {args.trace} (load in chrome://tracing)")

    if backend:
        print(f"  halo payload per cut face: "
              f"{solver.communication_values_per_face()} doubles "
              f"(both directions)")
        print(f"  exchange volume: {solver.comm.bytes_per_step():,.0f} "
              f"B/step, {solver.comm.messages} messages total")
    if args.output:
        from .io import save_fields, write_vtk

        if args.output.endswith(".vtk"):
            write_vtk(args.output, rho, u)
        else:
            save_fields(args.output, rho, u, time=args.steps)
        print(f"wrote {args.output}")
    if args.manifest is not None:
        from .obs import manifest_path_for

        mpath = args.manifest or (manifest_path_for(args.output)
                                  if args.output else "run.manifest.json")
        RunManifest.from_identity(
            record, args.steps, wall_s=row["wall_s"], mlups=row["mlups"],
            accel_path=getattr(solver, "accel_path", None),
            blas_threads=([r["blas_threads"] for r in result.per_rank]
                          if runtime else None),
            **(solver.results() if backend is None else {})).write(mpath)
        print(f"wrote {mpath}")
    return 0


def _print_cohort(args, result) -> None:
    """What a process run's merged report says, a line a fact."""
    report, imb = result.report, result.report["imbalance"]
    if result.start_step:
        print(f"  resumed from checkpoint at step {result.start_step} "
              f"({args.steps - result.start_step} steps run)")
    if result.restarts:
        print(f"  recovered after {result.restarts} restart(s) "
              f"from the last checkpoint")
    for entry in report["mlups_per_rank"]:
        print(f"  rank {entry['rank']}: {entry['n_fluid']:,} fluid "
              f"nodes, {entry['mlups']:.2f} MLUPS")
    print(f"  cohort: {report['mlups']:.2f} MLUPS "
          f"(slowest-rank pace over {report['steps']} steps)")
    print(f"  imbalance: slowest/mean = {imb['imbalance_ratio']:.2f} "
          f"(rank {imb['slowest_rank']}), halo-wait share = "
          f"{imb['exchange_wait_share']:.1%} of step time")


def _cmd_profile(args: argparse.Namespace) -> int:
    from .obs import PROFILE_SCHEMES, format_profile, profile_scheme

    schemes = PROFILE_SCHEMES if args.scheme == "all" else (args.scheme,)
    results = []
    for i, scheme in enumerate(schemes):
        if i:
            print()
        if scheme == "AA" and args.accel != "reference":
            note = (f"the AA scheme has no --accel {args.accel}; profile it "
                    f"with --accel reference")
            if len(schemes) == 1:
                print(f"ERROR: {note}", file=sys.stderr)
                return 2
            print(f"AA: skipped ({note})")
            continue
        result = profile_scheme(scheme, lattice=args.lattice,
                                shape=args.shape, steps=args.steps,
                                tau=args.tau, device=args.device,
                                measure_traffic=not args.no_traffic,
                                accel=args.accel)
        results.append(result)
        print(format_profile(result))
    if args.json:
        import json as _json

        Path(args.json).write_text(_json.dumps(results, indent=2))
        print(f"\nwrote {args.json}")
    return 0


def _cmd_watch(args: argparse.Namespace) -> int:
    from .obs import (
        event_files,
        follow_events,
        format_watch,
        read_events,
        summarize_events,
    )

    run_dir = Path(args.run_dir)
    if not args.follow and not event_files(run_dir):
        print(f"ERROR: no events-rank*.jsonl streams under {run_dir} "
              f"(start a run with --events)", file=sys.stderr)
        return 2

    if args.follow:
        events = []
        try:
            for event in follow_events(run_dir, poll_s=args.poll,
                                       timeout_s=args.timeout):
                events.append(event)
                kind = event.get("kind")
                if kind in ("heartbeat", "phase"):
                    continue        # summarized below; too chatty to echo
                step = event.get("step")
                detail = {k: v for k, v in event.items()
                          if k not in ("ts", "rank", "attempt", "kind",
                                       "step")}
                print(f"  rank {event.get('rank', 0):3d} "
                      f"{kind:>10s} step {step if step is not None else '-':>7} "
                      f" {detail if detail else ''}")
        except KeyboardInterrupt:
            pass
        summary = summarize_events(events)
    else:
        summary = summarize_events(read_events(run_dir))

    if not summary["ranks"]:
        print(f"no events yet under {run_dir}")
        return 0
    print(f"\n{run_dir}: {summary['n_ranks']} rank(s), "
          f"{'all done' if summary['all_done'] else 'still running'}")
    print(format_watch(summary))
    return 1 if any(s["status"] == "error"
                    for s in summary["ranks"].values()) else 0


def _cmd_tables(args: argparse.Namespace) -> int:
    from .bench import (
        render_table,
        table1_devices,
        table2_bytes_per_flup,
        table3_roofline,
        table4_bandwidth,
    )

    t1 = table1_devices()
    print(render_table(t1["headers"], t1["rows"], "Table 1 — device features"))

    print("\nTable 2 — bytes per fluid lattice update (B/F)")
    rows = [[r["pattern"], r["formula"], r["D2Q9"], r["D2Q9_measured"],
             r["D3Q19"], r["D3Q19_measured"]] for r in table2_bytes_per_flup()["rows"]]
    print(render_table(
        ["Pattern", "B/F", "D2Q9", "(measured)", "D3Q19", "(measured)"], rows))

    print("\nTable 3 — roofline MFLUPS (Eq. 15)")
    rows = [[r["pattern"]] + [f"{r[(d, l)]:,.0f}"
            for d in ("V100", "MI100") for l in ("D2Q9", "D3Q19")]
            for r in table3_roofline()["rows"]]
    print(render_table(
        ["Model", "V100 D2Q9", "V100 D3Q19", "MI100 D2Q9", "MI100 D3Q19"], rows))

    print("\nTable 4 — sustained bandwidth (GB/s, fraction of peak)")
    rows = [[r["device"], r["pattern"],
             f"{r['D2Q9']:.0f} ({r['D2Q9_fraction']:.0%})",
             f"{r['D3Q19']:.0f} ({r['D3Q19_fraction']:.0%})"]
            for r in table4_bandwidth()["rows"]]
    print(render_table(["GPU", "Model", "D2Q9", "D3Q19"], rows))
    return 0


def _cmd_figures(args: argparse.Namespace) -> int:
    from .bench import (
        figure2_d2q9,
        figure3_d3q19,
        figure_to_csv,
        figure_to_svg,
        render_figure_text,
    )

    jobs = []
    if args.which in ("2", "both"):
        jobs.append(("figure2", "Figure 2 — D2Q9 performance (MFLUPS)",
                     figure2_d2q9))
    if args.which in ("3", "both"):
        jobs.append(("figure3", "Figure 3 — D3Q19 performance (MFLUPS)",
                     figure3_d3q19))
    for name, title, fn in jobs:
        panels = fn()
        print(f"{title}\n")
        print(render_figure_text(panels))
        print()
        if args.svg:
            path = Path(f"{args.svg}_{name}.svg")
            path.write_text(figure_to_svg(panels, title))
            print(f"wrote {path}")
        if args.csv:
            path = Path(f"{args.csv}_{name}.csv")
            path.write_text(figure_to_csv(panels))
            print(f"wrote {path}")
    return 0


def _cmd_summary(args: argparse.Namespace) -> int:
    from .bench import footprint_summary, intensity_summary, speedup_summary

    print("Memory footprint at 15M fluid nodes (Section 4.1):")
    for r in footprint_summary():
        if r["scheme"] == "reduction":
            print(f"  {r['lattice']:6s} reduction: {r['gib']:.1%} "
                  f"(paper ~{r['paper_gb']:.0%})")
        else:
            print(f"  {r['lattice']:6s} {r['scheme']:3s}: {r['gib']:.2f} GiB "
                  f"(paper ~{r['paper_gb']} GB)")
    print("\nMR-P speedup over ST (Section 5):")
    for r in speedup_summary():
        print(f"  {r['device']:6s} {r['lattice']:6s}: {r['speedup']:.2f}x "
              f"(paper {r['paper_speedup']}x)")
    s = intensity_summary()
    print(f"\nMR-R/MR-P arithmetic intensity, D2Q9: {s['ai_ratio_d2q9']:.2f} "
          f"(paper ~{s['paper_ai_ratio']})")
    for dev, v in s["d3q19_penalties"].items():
        print(f"  {dev}: MR-R penalty on D3Q19 = {v['penalty']:.0f} MFLUPS "
              f"(paper ~{v['paper_penalty']:.0f})")
    return 0


def _cmd_devices(args: argparse.Namespace) -> int:
    from .gpu import MI100, V100

    for d in (V100, MI100):
        print(f"{d.name}: {d.vendor}, {d.sm_count} SM/CU, "
              f"{d.bandwidth_gbs} GB/s, {d.fp64_tflops} FP64 TFLOP/s, "
              f"{d.memory_gb:.0f} GB HBM2, {d.compiler}")
    return 0


def _cmd_sweep(args: argparse.Namespace) -> int:
    import json

    from .ensemble import expand_sweep, run_sweep

    try:
        schemes = [s.strip() for s in args.scheme.split(",") if s.strip()]
        lattices = [s.strip() for s in args.lattice.split(",") if s.strip()]
        shapes = [_shape(part) for part in args.shape.split(";")
                  if part.strip()]
        taus = [float(v) for v in args.tau.split(",") if v.strip()]
        u_maxes = [float(v) for v in args.u_max.split(",") if v.strip()]
        specs, dropped = expand_sweep(args.problem, schemes, lattices,
                                      shapes, taus, u_maxes)
        print(f"sweep '{args.problem}': {len(specs)} members "
              f"({dropped} duplicates dropped), {args.steps} steps")
        result = run_sweep(specs, args.steps, out_dir=args.out,
                           progress=lambda line: print(f"  {line}"))
    except (ValueError, RuntimeError) as err:
        # Bad grid values or an ineligible member configuration — fail
        # with a clean message, never a traceback.
        print(f"ERROR: {err}", file=sys.stderr)
        return 2
    summary = result.to_dict()
    print(f"{summary['n_members']} members, {result.wall_s:.2f} s wall, "
          f"{summary['aggregate_mlups']:.2f} MLUPS aggregate")
    if args.out:
        print(f"manifests + summary written to {args.out}")
    if args.json:
        Path(args.json).write_text(json.dumps(summary, indent=2) + "\n",
                                   encoding="utf-8")
        print(f"summary JSON written to {args.json}")
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    """Handle ``mrlbm serve``: run the async job server until stopped."""
    import asyncio

    from .service import JobScheduler, JobServer

    scheduler = JobScheduler(args.root, workers=args.workers,
                             run_timeout=args.run_timeout)
    server = JobServer(scheduler, host=args.host, port=args.port,
                       uds=args.uds)

    async def _serve() -> int:
        try:
            await server.start()
        except OSError as err:      # a live server on --uds, a busy port
            print(f"ERROR: {err}", file=sys.stderr)
            return 2
        print(f"mrlbm serve: listening on {server.address} "
              f"({scheduler.workers} worker(s), jobs under "
              f"{scheduler.root})")
        print(f"  submit:  mrlbm submit --server {server.address} ...")
        print(f"  inspect: mrlbm jobs --server {server.address}")
        try:
            await server.serve_forever()
        finally:
            await server.close()
        return 0

    try:
        return asyncio.run(_serve())
    except KeyboardInterrupt:
        print("mrlbm serve: stopped", file=sys.stderr)
    return 0


def _parse_option(text: str) -> tuple[str, object]:
    """Split one ``--option KEY=VALUE``; VALUE parses as JSON if it can."""
    import json as _json

    key, sep, value = text.partition("=")
    if not sep or not key:
        raise ValueError(f"--option expects KEY=VALUE, got {text!r}")
    try:
        return key, _json.loads(value)
    except _json.JSONDecodeError:
        return key, value


def _cmd_submit(args: argparse.Namespace) -> int:
    """Handle ``mrlbm submit``: post one job, optionally wait/follow."""
    from .service import ServiceClient, ServiceError

    try:
        options = dict(_parse_option(o) for o in args.option)
    except ValueError as err:
        print(f"ERROR: {err}", file=sys.stderr)
        return 2
    payload: dict = {
        "kind": args.kind, "scheme": args.scheme, "lattice": args.lattice,
        "shape": list(args.shape),
        "steps": args.steps, "tau": args.tau, "n_ranks": args.ranks,
        "accel": args.accel, "options": options,
    }
    if args.checkpoint_every:
        payload["checkpoint_every"] = args.checkpoint_every
    if args.max_restarts:
        payload["max_restarts"] = args.max_restarts
    if args.watchdog:
        payload["watchdog_every"] = args.watchdog

    client = ServiceClient(args.server)
    try:
        reply = client.submit(payload)
        job = reply["job"]
        verb = ("created" if reply.get("created")
                else "cached" if job["state"] == "done" else "coalesced")
        print(f"{job['id']} [{verb}] state={job['state']} "
              f"key={job['key']}")
        if not (args.wait or args.follow):
            return 0
        if args.follow:
            for event in client.events(job["id"], follow=True):
                kind = event.get("kind", "?")
                step = event.get("step")
                print(f"  rank {event.get('rank', 0):3d} {kind:>10s} "
                      f"step {step if step is not None else '-':>7}")
        job = client.wait(job["id"], timeout_s=args.timeout)
        if job["state"] != "done":
            print(f"FAILED: {job.get('error')}", file=sys.stderr)
            return 1
        result = client.result(job["id"])["result"]
    except TimeoutError as err:
        print(f"ERROR: {err}", file=sys.stderr)
        return 2
    except (ServiceError, ConnectionError, OSError) as err:
        print(f"ERROR: {err}", file=sys.stderr)
        return 2
    print(f"{job['id']} done: {result['steps']} steps, "
          f"{result['mlups']:.2f} MLUPS, {result['wall_s']:.2f} s wall, "
          f"{result['restarts']} restart(s)")
    print(f"  sealed result in {job['dir']}")
    return 0


def _cmd_jobs(args: argparse.Namespace) -> int:
    """Handle ``mrlbm jobs``: list jobs / show one / list problem kinds."""
    import json as _json

    from .service import ServiceClient, ServiceError

    client = ServiceClient(args.server)
    try:
        if args.kinds:
            kinds = client.kinds()
            if args.json:
                print(_json.dumps(kinds, indent=2, sort_keys=True))
            else:
                for name in sorted(kinds):
                    print(f"  {name:15s} {kinds[name]}")
            return 0
        if args.job_id:
            if args.result:
                payload = client.result(args.job_id)["result"]
            else:
                payload = client.job(args.job_id)
            print(_json.dumps(payload, indent=2, sort_keys=True))
            return 0
        jobs = client.jobs()
    except (ServiceError, ConnectionError, OSError) as err:
        print(f"ERROR: {err}", file=sys.stderr)
        return 2
    if args.json:
        print(_json.dumps(jobs, indent=2, sort_keys=True))
        return 0
    if not jobs:
        print("no jobs")
        return 0
    print(f"{'id':12s} {'state':8s} {'steps':>7s} {'hits':>4s}  spec")
    for job in jobs:
        spec = job.get("spec") or {}
        desc = (f"{spec.get('kind', '?')} {spec.get('scheme', '?')} "
                f"{spec.get('lattice', '?')} "
                f"{tuple(spec.get('shape', ()))} x{spec.get('n_ranks', '?')}")
        print(f"{job['id']:12s} {job['state']:8s} {job['steps']:7d} "
              f"{job['hits']:4d}  {desc}")
    return 0


def _cmd_tune(args: argparse.Namespace) -> int:
    from .gpu import get_device
    from .lattice import get_lattice
    from .perf import mr_launch_config, sweep_tiles

    lat = get_lattice(args.lattice)
    device = get_device(args.device)
    ranking = sweep_tiles(lat, args.shape, device, scheme=args.scheme)
    print(f"{args.scheme} / {lat.name} on {device.name}, domain {args.shape} "
          f"({len(ranking)} legal configurations)\n")
    print(f"{'tile':>10s} {'w_t':>4s} {'threads':>8s} {'shared':>9s} "
          f"{'blk/SM':>7s} {'MFLUPS':>9s} {'bound':>8s}")
    for cand in ranking[: args.top]:
        occ = cand.prediction.occupancy
        cfg = mr_launch_config(lat, args.shape, cand.tile_cross, cand.w_t)
        print(f"{str(cand.tile_cross):>10s} {cand.w_t:4d} "
              f"{cfg.threads_per_block:8d} "
              f"{cfg.shared_bytes_per_block / 1024:8.1f}K "
              f"{occ.blocks_per_sm:7d} {cand.mflups:9,.0f} "
              f"{cand.prediction.bound:>8s}")
    return 0


def _cmd_validate(args: argparse.Namespace) -> int:
    import numpy as np

    from .service.registry import build_single
    from .validation import (
        poiseuille_profile,
        relative_l2_error,
        taylor_green_fields,
    )

    tg_shape = (32, 32) if args.fast else (64, 64)
    tg_steps = 100 if args.fast else 300
    ch_shape = (32, 18) if args.fast else (48, 26)
    ch_steps = 3000 if args.fast else 12000
    tau, u0 = 0.8, 0.03
    nu = (tau - 0.5) / 3.0
    failures = 0

    print(f"Taylor-Green {tg_shape}, {tg_steps} steps "
          f"(tolerance 1% relative L2):")
    rho_i, u_i = taylor_green_fields(tg_shape, 0.0, nu, u0)
    _, u_ref = taylor_green_fields(tg_shape, float(tg_steps), nu, u0)
    for scheme in ("ST", "MR-P", "MR-R"):
        s = build_single("periodic", scheme, "D2Q9", tg_shape, tau=tau,
                         rho0=rho_i, u0=u_i)
        s.run(tg_steps)
        err = relative_l2_error(s.velocity(), u_ref)
        ok = err < 0.01
        failures += not ok
        print(f"  {scheme:5s} error {err:.2e}  {'PASS' if ok else 'FAIL'}")

    print(f"\nChannel Poiseuille {ch_shape}, {ch_steps} steps "
          f"(tolerance 2% max error):")
    analytic = poiseuille_profile(ch_shape[1], 0.04)
    for scheme in ("ST", "MR-P", "MR-R"):
        s = build_single("channel", scheme, "D2Q9", ch_shape, tau=0.9,
                         u_max=0.04)
        s.run(ch_steps)
        prof = s.velocity()[0][ch_shape[0] // 2]
        err = np.abs(prof[1:-1] - analytic[1:-1]).max() / 0.04
        ok = err < 0.02
        failures += not ok
        print(f"  {scheme:5s} error {err:.2e}  {'PASS' if ok else 'FAIL'}")

    print(f"\n{'all validations passed' if not failures else f'{failures} FAILURES'}")
    return 1 if failures else 0


def _cmd_report(args: argparse.Namespace) -> int:
    from .bench import write_report

    path = write_report(args.output, svg_dir=args.svg_dir)
    print(f"wrote {path}")
    if args.svg_dir:
        print(f"wrote SVG figures into {args.svg_dir}/")
    return 0


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return globals()[f"_cmd_{args.command}"](args)
    except KeyboardInterrupt:
        # 128 + SIGINT: handlers with a cleaner interrupt story (watch,
        # serve, the distributed run path) catch it before this does.
        print("interrupted", file=sys.stderr)
        return 130


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
