"""Unit tests for the command-line interface."""

import json
import multiprocessing
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import repro
from repro.cli import build_parser, main
from repro.parallel import ProcessRuntime, RunSpec
from repro.validation import schafer_turek_tau

from test_conformance import assert_agree, fields

#: The three ways ``mrlbm run`` steps a problem, as flags.
PATHS = {"single": [], "emulated": ["--ranks", "2", "--backend", "emulated"],
         "process": ["--ranks", "2", "--backend", "process"]}


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_run_defaults(self):
        args = build_parser().parse_args(["run"])
        assert args.scheme == "MR-P"
        assert args.lattice == "D2Q9"
        assert args.problem == "channel"

    def test_invalid_scheme(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "--scheme", "MRT"])

    def test_problem_lists_are_the_registry(self):
        """No hand-written kind list: what is registered is offered."""
        from repro.service.registry import problem_kinds, sweep_kinds

        parser = build_parser()
        for command, kinds in (("run", problem_kinds()),
                               ("sweep", sweep_kinds())):
            for kind in kinds:
                args = parser.parse_args([command, "--problem", kind])
                assert args.problem == kind
        for command in ("sweep", "profile"):
            with pytest.raises(SystemExit):
                parser.parse_args([command, "--problem", "porous"])


class TestCommands:
    def test_devices(self, mrlbm):
        out = mrlbm("devices")
        assert "V100" in out and "MI100" in out and "900.0 GB/s" in out

    def test_run_channel_small(self, mrlbm, tmp_path):
        out = mrlbm("run --scheme ST --shape 24,10 --steps 20 "
                    f"--report-interval 10 --output {tmp_path / 'final.npz'}")
        assert (tmp_path / "final.npz").exists()
        assert "ST / D2Q9" in out and "  step      10" in out

    def test_run_taylor_green(self, mrlbm):
        assert "MR-R" in mrlbm("run --problem taylor-green --scheme MR-R "
                               "--shape 16,16 --steps 10 --report-interval 5")

    def test_run_taylor_green_needs_2d(self, mrlbm):
        assert "2D" in mrlbm("run --problem taylor-green --shape 8,8,8 "
                             "--lattice D3Q19 --steps 1", rc=2)

    def test_run_distributed_emulated(self, mrlbm):
        out = mrlbm("run --scheme ST --shape 24,10 --steps 4 --ranks 2")
        assert "backend = emulated" in out
        assert "halo payload per cut face" in out

    def test_run_distributed_process(self, mrlbm, tmp_path):
        out = mrlbm("run --scheme MR-P --shape 24,10 --steps 4 --ranks 2 "
                    f"--backend process --output {tmp_path / 'fields.npz'} "
                    f"--metrics {tmp_path / 'm.jsonl'}")
        assert "backend = process" in out and "cohort:" in out
        assert (tmp_path / "fields.npz").exists()
        assert (tmp_path / "m.jsonl").exists()

    def test_ranks_run_the_problem_bc_names(self, tmp_path):
        """``--ranks 2 --bc X`` is the single-domain ``--bc X`` run cut into
        two slabs (the matrix's rule: ``reference`` runs bit for bit)."""
        flags = ["run", "--problem", "channel", "--scheme", "MR-P",
                 "--shape", "32,14", "--steps", "20"]
        got = {}
        for bc in ("nebb", "regularized-fd"):
            for ranks in ([], ["--ranks", "2", "--backend", "process"]):
                out = tmp_path / f"{bc}-{len(ranks)}.npz"
                assert main(flags + ["--bc", bc, "--output", str(out)]
                            + ranks) == 0
                with np.load(out) as data:
                    got[bc, bool(ranks)] = fields(data["rho"], data["u"])
            assert_agree(got[bc, True], got[bc, False], exact=True)
        assert not np.array_equal(got["nebb", True],
                                  got["regularized-fd", True])

    def test_distributed_run_imports_only_what_runs(self, tmp_path):
        """A process-backend run needs no HTTP stack and no profiling
        harness: ``repro.service`` and ``repro.obs`` resolve those names
        on first use, and nothing on this path uses them."""
        code = (
            "import sys; from repro.cli import main\n"
            "rc = main(['run', '--problem', 'channel', '--shape', '24,10',"
            " '--steps', '4', '--ranks', '2', '--backend', 'process',"
            " '--metrics', 'm.jsonl', '--output', 'out.npz'])\n"
            "heavy = ['asyncio', 'http.client', 'ssl', 'repro.obs.profile',"
            " 'repro.service.jobs', 'repro.service.server',"
            " 'repro.service.client']\n"
            "print(rc, [m for m in heavy if m in sys.modules])\n")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [str(Path(repro.__file__).parents[1]),
                          os.environ.get("PYTHONPATH")])))
        done = subprocess.run([sys.executable, "-c", code], cwd=tmp_path,
                              env=env, capture_output=True, text=True,
                              timeout=120)
        assert done.returncode == 0, done.stderr
        assert done.stdout.splitlines()[-1] == "0 []"
        assert (tmp_path / "out.npz").exists()

    def test_run_distributed_taylor_green(self, mrlbm):
        assert "2 rank(s)" in mrlbm("run --problem taylor-green --scheme "
                                    "MR-R --shape 24,24 --steps 4 --ranks 2 "
                                    "--backend emulated")

    def test_run_forced_channel(self, mrlbm):
        assert "MR-P" in mrlbm("run --problem forced-channel --scheme MR-P "
                               "--shape 20,12 --steps 8 --accel fused "
                               "--report-interval 4")

    def test_run_forced_channel_distributed(self, mrlbm):
        assert "2 rank(s)" in mrlbm("run --problem forced-channel --scheme "
                                    "ST --shape 24,12 --steps 4 --ranks 2")

    def test_run_schafer_turek_writes_its_drag(self, mrlbm, tmp_path):
        """The kind's run results land in the run's manifest."""
        mrlbm(f"run --problem schafer-turek --scheme MR-R --shape 88,18 --tau "
              f"{schafer_turek_tau(20, 4, 0.05)!r} --steps 10 --manifest "
              f"{tmp_path / 'm.json'}")
        extra = json.loads((tmp_path / "m.json").read_text())["extra"]
        assert extra["c_d"] > 0 and abs(extra["c_l"]) < extra["c_d"]
        assert extra["re"] == pytest.approx(20)

    def test_run_forced_channel_sparse(self, mrlbm):
        """The sparse fluid-node-list backend is selectable from the CLI."""
        assert "accel = sparse" in mrlbm("run --problem forced-channel "
                                         "--shape 24,12 --steps 4 "
                                         "--accel sparse")

    def test_unsupported_accel_exits_2(self, capsys):
        """A backend the parser does not offer is refused (exit 2): the
        removed ``numba`` backend, and ``compare`` on ``profile``, whose
        choices are exactly the backends."""
        for argv in (["run", "--problem", "channel", "--scheme", "ST",
                      "--shape", "24,10", "--steps", "4", "--accel", "numba"],
                     ["profile", "--accel", "compare"]):
            with pytest.raises(SystemExit) as exc:
                main(argv)
            assert exc.value.code == 2
            assert f"invalid choice: '{argv[-1]}'" in capsys.readouterr().err

    def test_run_vtk_output(self, tmp_path):
        out_file = tmp_path / "final.vtk"
        main(["run", "--scheme", "ST", "--shape", "16,8", "--steps", "5",
              "--output", str(out_file)])
        assert "DATASET STRUCTURED_POINTS" in out_file.read_text()

    def test_tune(self, mrlbm):
        out = mrlbm("tune --lattice D3Q19 --device V100 --shape 64,64,64 "
                    "--top 3")
        assert "legal configurations" in out and "MFLUPS" in out
        # Three ranked rows after the header lines.
        assert len([l for l in out.splitlines() if l.strip().startswith("(")]) == 3

    def test_tune_mi100_q27_avoids_cliff(self, capsys):
        main(["tune", "--lattice", "D3Q27", "--device", "MI100",
              "--shape", "64,64,64", "--top", "1"])
        out = capsys.readouterr().out
        top_row = [l for l in out.splitlines() if l.strip().startswith("(")][0]
        # blocks/SM column must satisfy the 2-block rule.
        assert int(top_row.split()[-3]) >= 2

    def test_profile_all_off_reference_skips_aa(self, mrlbm):
        """``--scheme all`` profiles what the backend steps, and one line
        says that AA, a reference-only scheme, was left out."""
        out = mrlbm("profile --scheme all --accel fused --shape 16,10 "
                    "--steps 2 --no-traffic")
        assert out.count("backend = fused") == 3 and "AA: skipped" in out
        assert "ERROR: the AA scheme has no --accel fused" in mrlbm(
            "profile --scheme AA --accel fused --no-traffic", rc=2)

    @pytest.mark.parametrize("command", ["run", "profile", "submit", "tune"])
    def test_malformed_shape_exits_2(self, command, capsys):
        """A bad ``--shape`` is argparse's one-line error, before any build."""
        with pytest.raises(SystemExit) as exc:
            main([command, "--shape", "12,x"])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "argument --shape: invalid _shape value: '12,x'" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("argv, headline", [
        (["tables"], ["Table 2", " 144 ", " 96 ", " 304 ", " 160 "]),
        (["figures", "--which", "2"],
         ["Figure 2 — D2Q9 performance (MFLUPS)",
          "rooflines: ST 6,250, MR 9,375 MFLUPS"]),
        (["summary"], ["MR-P speedup over ST", "(paper 1.46x)"]),
        (["report", "--output", "{report}"],
         ["## Table 2 — bytes per fluid lattice update",
          "## Figure 3 — D3Q19 (MFLUPS vs problem size)",
          "## Headline speedups (Section 5)"]),
    ], ids=["tables", "figures", "summary", "report"])
    def test_paper_artefact_commands(self, argv, headline, capsys, tmp_path):
        """The table/figure/summary/report commands run and carry the
        paper's headline values (the library functions are pinned
        elsewhere; this is the CLI path)."""
        report = tmp_path / "report.md"
        assert main([a.format(report=report) for a in argv]) == 0
        text = capsys.readouterr().out
        if report.exists():
            text += report.read_text()
        for value in headline:
            assert value in text


class TestWatchCommand:
    """`mrlbm watch`: tail / summarize per-rank event streams."""

    def test_missing_run_dir_exits_2(self, mrlbm, tmp_path):
        assert "no events-rank" in mrlbm(f"watch {tmp_path / 'nowhere'}",
                                         rc=2)

    def test_summarizes_finished_run(self, mrlbm, tmp_path):
        from repro.obs import EventStream, RunEventEmitter

        for rank in range(2):
            emitter = RunEventEmitter(EventStream(tmp_path, rank=rank),
                                      every=5, n_steps=10, n_fluid=100)
            emitter.start(pid=1)
            emitter.maybe(10)
            emitter.end(10)
        assert "2 rank(s), all done" in mrlbm(f"watch {tmp_path}")

    def test_error_rank_exits_nonzero(self, capsys, tmp_path):
        from repro.obs import EventStream

        stream = EventStream(tmp_path, rank=0)
        stream.emit("start", step=0, n_steps=4)
        stream.emit("error", step=2, exc_type="ValueError", message="boom")
        rc = main(["watch", str(tmp_path)])
        assert rc == 1
        assert "ValueError: boom" in capsys.readouterr().out

    def test_follow_drains_finished_run(self, mrlbm, tmp_path):
        from repro.obs import EventStream

        stream = EventStream(tmp_path, rank=0)
        stream.emit("start", step=0, n_steps=4)
        stream.emit("end", step=4, mlups=1.0, wall_s=0.5)
        out = mrlbm(f"watch {tmp_path} --follow --timeout 5")
        assert "start" in out and "all done" in out

    @pytest.mark.parametrize("path", PATHS, ids=PATHS)
    def test_run_with_events_then_watch(self, mrlbm, tmp_path, path):
        """An --events run round-trips through watch on every path, and
        its heartbeats carry the running MLUPS."""
        from repro.obs import read_events

        run_dir = tmp_path / "ev"
        assert "tail with 'mrlbm watch" in mrlbm(
            f"run --scheme ST --shape 16,8 --steps 6 --events {run_dir} "
            "--events-every 2 " + " ".join(PATHS[path]))
        ranks = 2 if path == "process" else 1
        assert f"{ranks} rank(s), all done" in mrlbm(f"watch {run_dir}")
        beats = [e for e in read_events(run_dir) if e["kind"] == "heartbeat"]
        assert len(beats) == 3 * ranks and all(e["mlups"] > 0 for e in beats)

    @pytest.mark.parametrize("path", PATHS, ids=PATHS)
    def test_trace_and_watchdog_on_every_path(self, capsys, tmp_path, path):
        """--trace writes its spans, and --watchdog aborts a diverging run
        with ``ABORTED:`` and the structured report, on every path."""
        import json

        trace = tmp_path / "t.json"
        assert main(["run", "--shape", "24,16", "--steps", "4", "--trace",
                     str(trace)] + PATHS[path]) == 0
        spans = json.loads(trace.read_text())["traceEvents"]
        assert {"step", "collide"} <= {e["name"] for e in spans}
        capsys.readouterr()
        assert main(["run", "--shape", "24,16", "--steps", "400", "--tau",
                     "0.505", "--u-max", "0.35", "--watchdog", "20"]
                    + PATHS[path]) == 2
        err = capsys.readouterr().err
        assert err.startswith("ABORTED: ") and '"supersonic"' in err

    @pytest.mark.parametrize("path", PATHS, ids=PATHS)
    def test_checkpoint_then_resume_on_every_path(self, mrlbm, tmp_path,
                                                  path):
        """Checkpointed at 4, resumed to 10: the straight run, bit for bit."""
        run = (f"run --problem taylor-green --shape 24,16 --steps {{}} "
               f"--output {tmp_path}/{{}}.npz " + " ".join(PATHS[path]))
        mrlbm(run.format(6, 0) + f" --checkpoint-dir {tmp_path} "
              "--checkpoint-every 4")
        assert "from checkpoint at step 4" in mrlbm(
            run.format(10, 1) + f" --resume {tmp_path}")
        mrlbm(run.format(10, 2))
        a, b = (np.load(tmp_path / f"{n}.npz") for n in (1, 2))
        assert all(np.array_equal(a[k], b[k]) for k in ("rho", "u"))

    def test_a_flag_the_path_lacks_is_refused_before_a_step(self, mrlbm,
                                                            monkeypatch):
        assert mrlbm("run --ranks 2 --backend emulated --max-restarts 1",
                     rc=2) == ("ERROR: --max-restarts needs a supervising "
                               "parent (--backend process), which an "
                               "emulated cohort does not have\n")
        for path, name in (("", "a single-domain run"),
                           (" --ranks 2 --backend process", "a process run")):
            assert mrlbm("run --checkpoint-dir ck" + path, rc=2) == (
                f"ERROR: --checkpoint-dir needs --checkpoint-every, which "
                f"{name} does not have\n")
        # ... and a process run where the platform cannot fork
        monkeypatch.setattr(multiprocessing, "get_all_start_methods",
                            lambda: ["spawn"])
        with pytest.raises(ValueError, match="--backend emulated") as no:
            ProcessRuntime(RunSpec("periodic", "ST", "D2Q9", (24, 10), 2))
        assert mrlbm("run --ranks 2 --backend process",
                     rc=2) == f"ERROR: {no.value}\n"


class TestSweepCommand:
    SWEEP = "sweep --problem taylor-green --scheme MR-P --lattice D2Q9 "

    def test_sweep_runs_batched_grid(self, mrlbm, tmp_path):
        """One line per member, one total."""
        out = mrlbm(self.SWEEP + "--shape 16,16 --tau 0.7,0.9,1.1 "
                    f"--steps 4 --out {tmp_path}").splitlines()
        assert len([line for line in out if " s) [" in line]) == 3
        assert out[-2].startswith("3 members, ")
        assert "MLUPS aggregate" in out[-2]
        assert (tmp_path / "sweep_summary.json").exists()
        assert len(list(tmp_path.glob("member-*.json"))) == 3

    def test_sweep_multiple_groups_and_json(self, mrlbm, tmp_path):
        """Two shapes, one record per member; summary JSON is dumped."""
        import json

        mrlbm(self.SWEEP + "--shape 12,12;16,16 --tau 0.8,1.0 --steps 3 "
              f"--json {tmp_path / 'sweep.json'}")
        summary = json.loads((tmp_path / "sweep.json").read_text())
        assert summary["n_members"] == 4 and "batches" not in summary
        assert all(row["wall_s"] > 0 for row in summary["members"])
        assert summary["duplicates_dropped"] == 0

    def test_sweep_dedupes_fingerprints(self, mrlbm):
        assert "(1 duplicates dropped)" in mrlbm(
            "sweep --shape 12,12 --tau 0.8,0.8 --steps 2")

    def test_sweep_bad_grid_exits_2(self, capsys):
        """taylor-green on a 3D lattice is a clean error, not a traceback;
        there is no batch size to choose."""
        assert main("sweep --lattice D3Q19 --shape 8,8,8".split()) == 2
        assert "ERROR:" in capsys.readouterr().err
        with pytest.raises(SystemExit) as refused:
            main(["sweep", "--batch", "4"])
        assert refused.value.code == 2
        assert "unrecognized arguments: --batch 4" in capsys.readouterr().err

    def test_sweep_forced_channel(self, mrlbm):
        assert "ST" in mrlbm("sweep --problem forced-channel --scheme ST "
                             "--shape 16,10 --tau 0.8,1.0 --u-max 0.04 "
                             "--steps 3")
