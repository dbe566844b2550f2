"""End-to-end tests for the async job server (``mrlbm serve``).

The server runs on an event-loop thread of its own (the suite has no
async test runner) and the blocking :class:`ServiceClient` — the same
one behind ``mrlbm submit``/``jobs`` — talks to it over a real TCP
socket, so these tests cover the full wire path: HTTP parsing, payload
validation, scheduling, dedup, fault-tolerant execution and event
streaming.
"""

import asyncio
import contextlib
import json
import os
import signal
import socket
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np
import pytest

from repro.obs import read_events
from repro.parallel.runtime import FINGERPRINT_VERSION
from repro.service import (JobScheduler, JobServer, ServiceClient,
                           ServiceError, build_single, jobproc,
                           spec_from_dict)


@contextlib.contextmanager
def serving(root, workers=2, run_timeout=None, uds=None):
    """A JobServer and its scheduler on an event-loop thread of their own."""
    server = JobServer(JobScheduler(root, workers, run_timeout), port=0,
                       uds=uds)
    up = threading.Event()

    async def main():
        await server.start()
        up.set()
        await server.serve_forever()
        await server.close()

    thread = threading.Thread(target=asyncio.run, args=(main(),), daemon=True)
    thread.start()
    assert up.wait(10), "server failed to start"
    try:
        yield server
    finally:
        with contextlib.suppress(Exception):
            ServiceClient(server.address, timeout=5).shutdown()
        thread.join(60)


def payload(**overrides):
    """A small forced-channel submission; overrides patch fields."""
    base = {"kind": "forced-channel", "scheme": "MR-P", "lattice": "D2Q9",
            "shape": [24, 14], "steps": 40, "tau": 0.8, "n_ranks": 1,
            "options": {"u_max": 0.03}}
    base.update(overrides)
    return base


class TestLifecycle:
    """submit -> poll -> result, and the sealed job directory."""

    def test_submit_poll_result(self, tmp_path):
        """A one-rank job, checkpointing too, is the single-domain run in
        the job process itself: its sealed fields are that run's."""
        with serving(tmp_path / "jobs") as srv:
            client = ServiceClient(srv.address)
            assert client.health()["ok"]
            reply = client.submit(payload(checkpoint_every=16))
            assert reply["created"] is True and reply["job"]["state"] in (
                "queued", "running")
            job = client.wait(reply["job"]["id"], timeout_s=120)
            assert job["state"] == "done"
            result = client.result(job["id"])["result"]
            assert result["steps"] == 40 and result["mlups"] > 0
            job_dir = tmp_path / "jobs" / job["id"]
            assert (job_dir / "COMPLETE").exists()
            assert len(list(job_dir.glob("ckpt/step-*/COMPLETE"))) == 2
            starts = [e["pid"] for e in client.events(job["id"])
                      if e["kind"] == "start"]
            assert len(starts) == 1 and starts[0] in srv.scheduler.job_pids
        sealed = np.load(job_dir / "fields.npz")
        solver = build_single("forced-channel", "MR-P", "D2Q9", (24, 14),
                              u_max=0.03).run(40)
        assert np.array_equal(sealed["rho"], solver.macroscopic()[0])
        assert np.array_equal(sealed["u"], solver.macroscopic()[1])

    def test_a_kinds_run_results_are_sealed(self, tmp_path):
        """``schafer-turek``'s drag lands in the job's one record (there
        is no ``result.json``), as the in-process run computes it."""
        with serving(tmp_path / "jobs", 1) as srv:
            client = ServiceClient(srv.address)
            job = client.submit(payload(kind="schafer-turek", shape=[88, 18],
                                        tau=0.52, options={"u_max": 0.05}))
            result = client.result(client.wait(job["job"]["id"])["id"])
        extra = json.loads(Path(result["job"]["dir"], "manifest.json")
                           .read_text())["extra"]
        solver = build_single("schafer-turek", "MR-P", "D2Q9", (88, 18),
                              tau=0.52, u_max=0.05).run(40)
        assert (extra["c_d"] == result["result"]["c_d"]
                == solver.results()["c_d"])
        assert not list((tmp_path / "jobs").glob("*/result.json"))

    def test_result_conflicts_until_done(self, tmp_path):
        with serving(tmp_path / "jobs") as srv:
            client = ServiceClient(srv.address)
            job = client.submit(payload(steps=200))["job"]
            if client.job(job["id"])["state"] in ("queued", "running"):
                with pytest.raises(ServiceError) as err:
                    client.result(job["id"])
                assert err.value.status == 409
            client.wait(job["id"], timeout_s=120)
            assert client.result(job["id"])["result"]["steps"] == 200


class TestValidation:
    """Bad submissions come back as HTTP 400, not server errors."""

    def test_unknown_kind_400(self, tmp_path):
        with serving(tmp_path / "jobs") as srv:
            with pytest.raises(ServiceError) as err:
                ServiceClient(srv.address).submit(
                    payload(kind="no-such-problem"))
            assert err.value.status == 400
            assert "unknown problem kind" in str(err.value)

    def test_unknown_option_400_leaves_no_job(self, tmp_path):
        """A misnamed option, a single-only kind cut in two, a lattice the
        one-node halo cannot carry, a negative viscosity, an unknown lattice,
        scheme or backend, a shape of the wrong dimension or a rank count
        the grid cannot be cut into is refused at submit: no job record,
        no job directory that a later scan could adopt."""
        with serving(tmp_path / "jobs") as srv:
            client = ServiceClient(srv.address)
            for bad, text in [
                    (payload(kind="porous", options={"u_max": 0.05}),
                     "accepted options: solid_fraction, seed, force_x"),
                    (payload(kind="power-law", n_ranks=2),
                     "no distributed form"),
                    (payload(kind="periodic", lattice="D3Q39",
                             shape=[12, 8, 8], n_ranks=2, options={}),
                     "halo 1 node wide"),
                    (payload(tau=0.4, accel="fused"),
                     "tau must exceed 1/2"),
                    (payload(lattice="D7Q7"), "unknown lattice"),
                    (payload(scheme="XX"), "unknown scheme 'XX'; expected "
                     "one of ['MR-P', 'MR-R', 'ST']"),
                    (payload(accel="bogus"), "unknown backend 'bogus'; "
                     "expected one of ('reference', 'fused', 'aa', "
                     "'sparse')"),
                    (payload(n_ranks=0), "need at least one rank"),
                    (payload(n_ranks=9), "9 slabs need a global extent of "
                     "at least 27 along axis 0, got 24"),
                    (payload(shape=[24, 14, 8]),
                     "does not match lattice dimension 2")]:
                with pytest.raises(ServiceError) as err:
                    client.submit(bad)
                assert err.value.status == 400
                assert text in str(err.value)
            assert client.jobs() == []
            assert not list((tmp_path / "jobs").glob("job-*"))

    def test_unknown_field_400(self, tmp_path):
        with serving(tmp_path / "jobs") as srv:
            with pytest.raises(ServiceError) as err:
                ServiceClient(srv.address).submit(payload(typo_field=1))
            assert err.value.status == 400
            assert "typo_field" in str(err.value)

    def test_missing_steps_400(self, tmp_path):
        with serving(tmp_path / "jobs") as srv:
            bad = payload()
            del bad["steps"]
            with pytest.raises(ServiceError) as err:
                ServiceClient(srv.address).submit(bad)
            assert err.value.status == 400
            assert "steps must be a positive integer, got 0" in str(err.value)

    def test_unknown_job_404(self, tmp_path):
        with serving(tmp_path / "jobs") as srv:
            with pytest.raises(ServiceError) as err:
                ServiceClient(srv.address).job("job-999999")
            assert err.value.status == 404


class TestDedupAndConcurrency:
    """Fingerprint dedup and the bounded worker pool."""

    def test_identical_resubmission_served_from_cache(self, tmp_path):
        with serving(tmp_path / "jobs") as srv:
            client = ServiceClient(srv.address)
            first = client.submit(payload())
            client.wait(first["job"]["id"], timeout_s=120)
            second = client.submit(payload())
            assert second["created"] is False
            assert second["job"]["id"] == first["job"]["id"]
            assert second["job"]["state"] == "done"
            assert second["job"]["hits"] == 1
            # the cached hit must not have re-executed anything
            assert client.health()["runs_executed"] == 1

    def test_different_steps_not_coalesced(self, tmp_path):
        """A new step count, rank count or backend is a fresh run."""
        with serving(tmp_path / "jobs") as srv:
            client = ServiceClient(srv.address)
            for a, b in ((payload(), payload(steps=80)),
                         (payload(), payload(n_ranks=2)),
                         (payload(steps=50, accel="fused"), payload(steps=50))):
                first = client.submit(a)["job"]
                client.wait(first["id"], timeout_s=120)
                then = client.submit(b)
                assert then["created"] and then["job"]["key"] != first["key"]

    def test_two_concurrent_jobs_two_workers(self, tmp_path):
        with serving(tmp_path / "jobs", workers=2) as srv:
            client = ServiceClient(srv.address)
            a = client.submit(payload(steps=300))["job"]
            b = client.submit(payload(scheme="ST", steps=300))["job"]
            done_a = client.wait(a["id"], timeout_s=120)
            done_b = client.wait(b["id"], timeout_s=120)
            assert done_a["state"] == done_b["state"] == "done"
            # with two workers the runs overlap in wall-clock time
            assert done_a["started_unix"] < done_b["finished_unix"]
            assert done_b["started_unix"] < done_a["finished_unix"]
            assert client.health()["runs_executed"] == 2

    def test_cache_survives_scheduler_restart(self, tmp_path):
        root = tmp_path / "jobs"
        with serving(root) as srv:
            client = ServiceClient(srv.address)
            first = client.submit(payload())
            client.wait(first["job"]["id"], timeout_s=120)
        with serving(root) as srv:
            client = ServiceClient(srv.address)
            reply = client.submit(payload())
            assert reply["created"] is False
            assert reply["job"]["state"] == "done"
            assert reply["job"]["id"] == first["job"]["id"]
            assert client.health()["runs_executed"] == 0
            assert client.result(reply["job"]["id"])["result"]["steps"] == 40

    def test_result_sealed_under_another_version_is_not_served(self, tmp_path):
        """The cache survives a restart, but only what the current version
        sealed: a v4 seal holds a one-rank job stepped on a ghosted slab,
        which v5 steps as a single domain, so that resubmission runs."""
        root = tmp_path / "jobs"
        with serving(root) as srv:
            client = ServiceClient(srv.address)
            first, old = (client.submit(payload(steps=n))["job"]
                          for n in (40, 60))
            for job in (first, old):
                client.wait(job["id"], timeout_s=120)
        sealed = root / old["id"] / "manifest.json"
        manifest = json.loads(sealed.read_text())
        manifest["extra"]["fingerprint_version"] = 4
        sealed.write_text(json.dumps(manifest))
        with serving(root) as srv:
            client = ServiceClient(srv.address)
            cached, rerun = (client.submit(payload(steps=n)) for n in (40, 60))
            assert not cached["created"] and cached["job"]["id"] == first["id"]
            assert client.result(first["id"])["result"]["steps"] == 40
            assert rerun["created"] and rerun["job"]["id"] != old["id"]
            done = client.wait(rerun["job"]["id"], timeout_s=120)
            assert done["state"] == "done"
            assert client.health()["runs_executed"] == 1
            assert client.result(done["id"])["result"][
                "fingerprint_version"] == FINGERPRINT_VERSION == 5


class TestFaultTolerance:
    """Jobs inherit the runtime's supervised retry."""

    def test_worker_death_retried_from_checkpoint(self, tmp_path):
        """A job with ``max_restarts`` runs through the process runtime
        on one rank as on two: a killed rank restarts from a checkpoint."""
        with serving(tmp_path / "jobs") as srv:
            client = ServiceClient(srv.address)
            jobs = [client.submit(payload(
                n_ranks=n, steps=20, checkpoint_every=8, max_restarts=2,
                options={"u_max": 0.03 + n / 1000},
                fault={"rank": n - 1, "step": 12, "kind": "kill",
                       "attempt": 0}))["job"] for n in (1, 2)]
            for job in jobs:
                done = client.wait(job["id"], timeout_s=180)
                assert done["state"] == "done", done
                result = client.result(job["id"])["result"]
                assert result["restarts"] == 1
                assert result["steps"] == 20

    def test_permanent_failure_reported_and_retryable(self, tmp_path):
        with serving(tmp_path / "jobs") as srv:
            client = ServiceClient(srv.address)
            bad = payload(n_ranks=2, steps=20,
                          fault={"rank": 0, "step": 3, "kind": "exception",
                                 "attempt": None})
            job = client.submit(bad)["job"]
            done = client.wait(job["id"], timeout_s=180)
            assert done["state"] == "failed"
            assert done["error"]
            # a failed key is cleared: resubmitting creates a NEW job
            assert client.submit(bad)["created"] is True


class TestEventStreaming:
    """/jobs/<id>/events tails the per-rank event bus."""

    def test_follow_streams_until_done(self, tmp_path):
        with serving(tmp_path / "jobs") as srv:
            client = ServiceClient(srv.address)
            job = client.submit(payload(steps=100))["job"]
            events = list(client.events(job["id"], follow=True))
            kinds = {e.get("kind") for e in events}
            assert "start" in kinds and "end" in kinds
            assert client.job(job["id"])["state"] == "done"

    def test_snapshot_without_follow(self, tmp_path):
        with serving(tmp_path / "jobs") as srv:
            client = ServiceClient(srv.address)
            job = client.submit(payload())["job"]
            client.wait(job["id"], timeout_s=120)
            events = list(client.events(job["id"]))
            assert {e.get("kind") for e in events} >= {"start", "end"}


def living(pids):
    """Those of ``pids`` that name a running (not a zombie) process."""
    def state(pid):
        try:
            return Path(f"/proc/{pid}/stat").read_text().rsplit(")", 1)[1][1]
        except OSError:
            return "gone"
    return [pid for pid in pids if state(pid) not in ("Z", "gone")]


class TestJobProcess:
    """A job process that overruns or dies fails its job, is replaced,
    and leaves no process behind."""

    @pytest.mark.parametrize("end", ["timeout", "crash"])
    def test_lost_job_process_is_replaced(self, tmp_path, end):
        with serving(tmp_path / "jobs", 1, 4 if end == "timeout" else None
                     ) as srv:
            client = ServiceClient(srv.address)
            (old,) = srv.scheduler.job_pids
            job = client.submit(payload(n_ranks=2, steps=10**6))["job"]
            job_dir, ranks = tmp_path / "jobs" / job["id"], []
            while len(ranks) < 2 and client.job(job["id"])["state"] in (
                    "queued", "running"):
                time.sleep(0.05)
                ranks = [e["pid"] for e in read_events(job_dir)
                         if e["kind"] == "start"]
            if end == "crash":
                os.kill(old, signal.SIGKILL)
            done = client.wait(job["id"], timeout_s=60)
            assert done["state"] == "failed" and len(ranks) == 2
            assert done["error"].startswith({"timeout": "TimeoutError",
                                             "crash": "JobProcessDied"}[end])
            assert done["error"].endswith("and replaced")
            (new,) = srv.scheduler.job_pids
            assert new != old and living([old, *ranks]) == []
            again = client.submit(payload())["job"]
            assert client.wait(again["id"], timeout_s=120)["state"] == "done"
        assert living([new]) == []

    def test_a_lingering_job_process_never_blocks_the_loop(self,
                                                           monkeypatch):
        """A job process that closes its pipe and exits 0.5 s later: its
        job fails and it is replaced while a ticker on the same loop never
        waits more than 100 ms."""
        def linger(conn, workers, parent):
            conn.recv()
            conn.close()
            time.sleep(0.5)

        monkeypatch.setattr(jobproc, "_serve", linger)
        handle, ticks = jobproc.JobProcess(1), [time.monotonic()]
        old = handle.pid

        async def main():
            async def tick():
                while True:
                    await asyncio.sleep(0.01)
                    ticks.append(time.monotonic())

            ticker = asyncio.create_task(tick())
            try:
                return await handle.run(None, None)
            finally:
                ticker.cancel()
                ticks.append(time.monotonic())

        try:
            state, error = asyncio.run(main())
        finally:
            handle.stop()
        assert state == "failed" and error.startswith("JobProcessDied")
        assert error.endswith("and replaced") and handle.pid != old
        assert np.diff(ticks).max() < 0.1, np.diff(ticks).max()


def python(cwd, *argv):
    """``python *argv`` in ``cwd`` over this checkout: (rc, stdout, stderr)."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(Path(__file__).parents[2] / "src"),
                      os.environ.get("PYTHONPATH")])))
    done = subprocess.run([sys.executable, *argv], cwd=cwd, env=env,
                          capture_output=True, text=True, timeout=180)
    return done.returncode, done.stdout, done.stderr


class TestFrontEnd:
    """The server holds no numerics and takes no live server's socket."""

    def test_a_live_socket_is_refused_a_stale_one_replaced(self, tmp_path):
        sock = str(tmp_path / "s.sock")
        stale = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        stale.bind(sock)            # a socket file nobody listens on
        stale.close()
        with serving(tmp_path / "jobs", 1, uds=sock) as srv:
            pids = srv.scheduler.job_pids
            assert python(tmp_path, "-m", "repro", "serve", "--uds", sock,
                          "--root", "other") == (
                2, "", f"ERROR: a server is already listening on {sock}; "
                "stop it or pick another --uds path\n")
            assert not (tmp_path / "other").exists()
            assert ServiceClient(sock).health()["ok"]
            assert living(pids) == pids
        assert not os.path.exists(sock)     # unlinked at /shutdown

    def test_a_busy_port_forks_no_job_process(self, tmp_path):
        """The bind comes first: a busy port forks no job process."""
        with socket.create_server(("127.0.0.1", 0)) as busy:
            server = JobServer(JobScheduler(tmp_path / "jobs", 1),
                               port=busy.getsockname()[1])
            with pytest.raises(OSError):
                asyncio.run(server.start())
        assert server.scheduler.job_pids == []
        assert not (tmp_path / "jobs").exists()

    def test_the_server_imports_no_numpy(self, tmp_path, one_record):
        """Health, kinds, a refused payload, a fresh job to its seal and
        its cache hit, in a server that never loads numpy; its job
        process found the OpenBLAS thread setter."""
        rc, out, err = python(tmp_path, "-c", (
            "import asyncio, json, sys, threading\n"
            "from repro.service import (JobScheduler, JobServer,\n"
            "                           ServiceClient, ServiceError)\n"
            "srv, up = JobServer(JobScheduler('jobs', 1), uds='s.sock'), "
            "threading.Event()\n"
            "async def main():\n"
            "    await srv.start(); up.set()\n"
            "    await srv.serve_forever(); await srv.close()\n"
            "loop = threading.Thread(target=asyncio.run, args=(main(),))\n"
            "loop.start(); up.wait(30); client = ServiceClient('./s.sock')\n"
            "seen = [client.health()['ok'], sorted(client.kinds())]\n"
            "try:\n"
            f"    client.submit({payload(kind='porous')!r})\n"
            "except ServiceError as err:\n"
            "    seen.append(str(err))\n"
            f"job = client.submit({payload()!r})['job']\n"
            "seen.append(client.wait(job['id'], timeout_s=120)['state'])\n"
            f"hit = client.submit({payload()!r})\n"
            "seen.append([hit['created'], hit['job']['id'] == job['id']])\n"
            "client.shutdown(); loop.join(60)\n"
            "print(json.dumps(seen + ['numpy' in sys.modules]))\n"))
        assert rc == 0, err
        assert json.loads(out.splitlines()[-1]) == [
            True, ["channel", "cylinder", "forced-channel", "periodic",
                   "porous", "power-law", "schafer-turek", "taylor-green"],
            "HTTP 400: problem kind 'porous' has no option 'u_max'; "
            "accepted options: solid_fraction, seed, force_x",
            "done", [False, True], False]
        job_dir = tmp_path / "jobs/job-000001"
        manifest = json.loads((job_dir / "manifest.json").read_text())
        assert isinstance(manifest["extra"]["blas_threads"], int)
        one_record(spec_from_dict(payload())[0], job_dir / "manifest.json",
                   job_dir)
