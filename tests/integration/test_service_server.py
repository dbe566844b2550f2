"""End-to-end tests for the async job server (``mrlbm serve``).

The server runs on a dedicated event-loop thread (the suite has no
async test runner) and the blocking :class:`ServiceClient` — the same
one behind ``mrlbm submit``/``jobs`` — talks to it over a real TCP
socket, so these tests cover the full wire path: HTTP parsing, payload
validation, scheduling, dedup, fault-tolerant execution and event
streaming.
"""

import asyncio
import json
import threading

import numpy as np
import pytest

from repro.parallel.runtime import FINGERPRINT_VERSION
from repro.service import JobScheduler, JobServer, ServiceClient, ServiceError


class ServerThread:
    """A JobServer + scheduler running on its own event-loop thread."""

    def __init__(self, root, workers=2):
        self.root = root
        self.workers = workers
        self.address = None
        self.scheduler = None
        self._thread = None

    def __enter__(self):
        started = threading.Event()

        def runner():
            loop = asyncio.new_event_loop()
            asyncio.set_event_loop(loop)

            async def main():
                self.scheduler = JobScheduler(self.root,
                                              workers=self.workers)
                server = JobServer(self.scheduler, port=0)
                await server.start()
                self.address = server.address
                started.set()
                await server.serve_forever()
                await server.close()

            loop.run_until_complete(main())
            loop.close()

        self._thread = threading.Thread(target=runner, daemon=True)
        self._thread.start()
        assert started.wait(10), "server failed to start"
        return self

    def __exit__(self, *exc):
        try:
            ServiceClient(self.address, timeout=5).shutdown()
        except Exception:
            pass
        self._thread.join(60)


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
        with ServerThread(tmp_path / "jobs") as srv:
            client = ServiceClient(srv.address)
            assert client.health()["ok"]
            reply = client.submit(payload())
            assert reply["created"] is True
            assert reply["job"]["state"] in ("queued", "running")
            job = client.wait(reply["job"]["id"], timeout_s=120)
            assert job["state"] == "done"
            result = client.result(job["id"])["result"]
            assert result["steps"] == 40
            assert result["mlups"] > 0
            job_dir = tmp_path / "jobs" / job["id"]
            assert (job_dir / "COMPLETE").exists()
            assert (job_dir / "manifest.json").exists()
            fields = np.load(job_dir / "fields.npz")
            assert np.all(np.isfinite(fields["u"]))

    def test_result_conflicts_until_done(self, tmp_path):
        with ServerThread(tmp_path / "jobs") as srv:
            client = ServiceClient(srv.address)
            job = client.submit(payload(steps=200))["job"]
            if client.job(job["id"])["state"] in ("queued", "running"):
                with pytest.raises(ServiceError) as err:
                    client.result(job["id"])
                assert err.value.status == 409
            client.wait(job["id"], timeout_s=120)
            assert client.result(job["id"])["result"]["steps"] == 200

    def test_kinds_endpoint(self, tmp_path):
        with ServerThread(tmp_path / "jobs") as srv:
            kinds = ServiceClient(srv.address).kinds()
            assert "forced-channel" in kinds and "cylinder" in kinds


class TestValidation:
    """Bad submissions come back as HTTP 400, not server errors."""

    def test_unknown_kind_400(self, tmp_path):
        with ServerThread(tmp_path / "jobs") as srv:
            with pytest.raises(ServiceError) as err:
                ServiceClient(srv.address).submit(
                    payload(kind="no-such-problem"))
            assert err.value.status == 400
            assert "unknown problem kind" in str(err.value)

    def test_unknown_option_400_leaves_no_job(self, tmp_path):
        """A misnamed option, a single-only kind, a lattice the one-node
        halo cannot carry, a negative viscosity, an unknown lattice,
        scheme or backend, a shape of the wrong dimension or a rank count
        the grid cannot be cut into is refused at submit: no job record,
        no job directory that a later scan could adopt."""
        with ServerThread(tmp_path / "jobs") as srv:
            client = ServiceClient(srv.address)
            for bad, text in [
                    (payload(kind="porous", options={"u_max": 0.05}),
                     "accepted options: solid_fraction, seed, force_x"),
                    (payload(kind="power-law"), "no distributed form"),
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
        with ServerThread(tmp_path / "jobs") as srv:
            with pytest.raises(ServiceError) as err:
                ServiceClient(srv.address).submit(payload(typo_field=1))
            assert err.value.status == 400
            assert "typo_field" in str(err.value)

    def test_missing_steps_400(self, tmp_path):
        with ServerThread(tmp_path / "jobs") as srv:
            bad = payload()
            del bad["steps"]
            with pytest.raises(ServiceError) as err:
                ServiceClient(srv.address).submit(bad)
            assert err.value.status == 400

    def test_unknown_job_404(self, tmp_path):
        with ServerThread(tmp_path / "jobs") as srv:
            with pytest.raises(ServiceError) as err:
                ServiceClient(srv.address).job("job-999999")
            assert err.value.status == 404


class TestDedupAndConcurrency:
    """Fingerprint dedup and the bounded worker pool."""

    def test_identical_resubmission_served_from_cache(self, tmp_path):
        with ServerThread(tmp_path / "jobs") as srv:
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
        with ServerThread(tmp_path / "jobs") as srv:
            client = ServiceClient(srv.address)
            a = client.submit(payload(steps=40))["job"]
            b = client.submit(payload(steps=80))["job"]
            assert a["id"] != b["id"]
            assert a["key"] != b["key"]

    def test_two_concurrent_jobs_two_workers(self, tmp_path):
        with ServerThread(tmp_path / "jobs", workers=2) as srv:
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
        with ServerThread(root) as srv:
            client = ServiceClient(srv.address)
            first = client.submit(payload())
            client.wait(first["job"]["id"], timeout_s=120)
        with ServerThread(root) as srv:
            client = ServiceClient(srv.address)
            reply = client.submit(payload())
            assert reply["created"] is False
            assert reply["job"]["state"] == "done"
            assert reply["job"]["id"] == first["job"]["id"]
            assert client.health()["runs_executed"] == 0
            assert client.result(reply["job"]["id"])["result"]["steps"] == 40

    def test_result_sealed_under_another_version_is_not_served(self, tmp_path):
        """A v3 seal holds numbers the v4 cores round differently (v3
        also dropped the kinds' distributed defaults): after a restart the
        resubmission runs."""
        root = tmp_path / "jobs"
        with ServerThread(root) as srv:
            client = ServiceClient(srv.address)
            first = client.submit(payload())["job"]
            client.wait(first["id"], timeout_s=120)
        sealed = root / first["id"] / "result.json"
        result = json.loads(sealed.read_text())
        sealed.write_text(json.dumps({**result, "fingerprint_version": 3}))
        with ServerThread(root) as srv:
            client = ServiceClient(srv.address)
            reply = client.submit(payload())
            assert reply["created"] is True
            assert reply["job"]["id"] != first["id"]
            done = client.wait(reply["job"]["id"], timeout_s=120)
            assert done["state"] == "done"
            assert client.health()["runs_executed"] == 1
            assert client.result(done["id"])["result"][
                "fingerprint_version"] == FINGERPRINT_VERSION == 4


class TestFaultTolerance:
    """Jobs inherit the runtime's supervised retry."""

    def test_worker_death_retried_from_checkpoint(self, tmp_path):
        with ServerThread(tmp_path / "jobs") as srv:
            client = ServiceClient(srv.address)
            job = client.submit(payload(
                n_ranks=2, steps=20, checkpoint_every=8, max_restarts=2,
                fault={"rank": 1, "step": 12, "kind": "kill",
                       "attempt": 0}))["job"]
            done = client.wait(job["id"], timeout_s=180)
            assert done["state"] == "done", done
            result = client.result(job["id"])["result"]
            assert result["restarts"] == 1
            assert result["steps"] == 20

    def test_permanent_failure_reported_and_retryable(self, tmp_path):
        with ServerThread(tmp_path / "jobs") as srv:
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
        with ServerThread(tmp_path / "jobs") as srv:
            client = ServiceClient(srv.address)
            job = client.submit(payload(steps=100))["job"]
            events = list(client.events(job["id"], follow=True))
            kinds = {e.get("kind") for e in events}
            assert "start" in kinds and "end" in kinds
            assert client.job(job["id"])["state"] == "done"

    def test_snapshot_without_follow(self, tmp_path):
        with ServerThread(tmp_path / "jobs") as srv:
            client = ServiceClient(srv.address)
            job = client.submit(payload())["job"]
            client.wait(job["id"], timeout_s=120)
            events = list(client.events(job["id"]))
            assert {e.get("kind") for e in events} >= {"start", "end"}
