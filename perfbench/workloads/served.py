"""``served`` — the job server under a closed loop of two clients.

``python -m repro serve --workers 1 --uds ...`` runs as a subprocess and
two client threads drive it through ``repro.service.ServiceClient``, each
sending its next request only when the last one is answered (a closed
loop: a slower server receives less load; with two clients on one worker
a job always waits behind the other client's). Phase *fresh*: distinct jobs,
half ``taylor-green`` MR-P D2Q9 and half ``forced-channel`` ST D2Q9,
with seeded distinct ``u_max``. Phase *hits*: resubmissions drawn from
those payloads, plus the result fetch. Phase *restart*: stop, start again
on the same root, time to healthy, resubmit (all must be cached).

Kernel time is small on purpose: this is the workload on which a kernel
or bandwidth change must read "no change", and the one that exercises
server, fingerprint, spawn and seal costs.
"""

from __future__ import annotations

import os
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from ..harness import input_hash, median, percentile, python_cmd
from .common import Context, span_cost_s

NAME = "served"
WHY = ("service and runtime start-up do most of the work and kernel time is "
       "small: bypass workload for kernel changes, exercise workload for "
       "server, fingerprint, spawn, seal and cache costs")

PER_LAYER = (
    "host.weather", "user.time_to_result_raw_s",
    "user.mlups_mrp", "user.mlups_st", "user.job_latency_p90_ms", "user.jobs_per_s",
    "user.cache_hit_p50_ms",
    "service.submit_rtt_ms_p50", "service.healthz_rtt_ms_p50",
    "service.queue_wait_ms_p50", "service.run_ms_p50",
    "service.runtime_wall_ms_p50", "service.seal_ms_p50",
    "service.worker_busy_share", "service.cache_hit_ratio",
    "service.cache_hit_p99_ms", "service.rescan_s",
    "service.fingerprint_us", "service.spec_from_dict_us",
    "obs.tracing_overhead_pct",
)

#: One worker, not the two ISSUE 12 asked for: with two, the server
#: deadlocks a rank process about once in 500-1000 jobs (measured: 2000
#: tiny jobs, hung at job 207; the same 2000 on one worker all finish).
#: Two job threads share ``multiprocessing``'s resource-tracker lock; when
#: one forks its ranks while the other holds it, the child inherits a lock
#: nobody will release, blocks on its first shared-memory attach, and the
#: job stays "running" for ever. A benchmark may not run a workload on
#: which operations fail, so this stays at 1 until ``src/`` forks safely.
WORKERS = 1
#: ``ServiceClient.wait`` polls every 0.25 s by default, which would
#: quantise every latency here.
POLL_S = 0.005
JOB_TIMEOUT_S = 30.0


@dataclass
class Server:
    """One ``mrlbm serve`` subprocess on a Unix socket."""

    ctx: Context
    root: Path
    tag: str
    proc: object = None
    address: str = ""
    healthy_s: float = 0.0

    def start(self) -> "Server":
        """Spawn and wait for the first 200 on ``/healthz``."""
        from repro.service import ServiceClient, ServiceError

        scratch = self.ctx.children.scratch
        # A relative path: AF_UNIX addresses are limited to ~100 bytes and
        # the checkout may sit anywhere.
        self.address = os.path.join(os.path.relpath(scratch),
                                    f"{self.tag}.sock")
        if len(self.address) > 100:
            raise RuntimeError(f"socket path too long: {self.address}")
        children = self.ctx.children
        self.proc = children.popen(
            python_cmd("-m", "repro", "serve", "--workers", str(WORKERS),
                       "--uds", self.address,
                       "--root", os.path.relpath(self.root)),
            tag=f"serve-{self.tag}")
        client = ServiceClient(self.address, timeout=5.0)
        tries = 0
        while True:
            try:
                client.health()
                break
            except (OSError, ServiceError):
                tries += 1
                if tries % 250 == 0 and not (
                        tries < 15000 and children.alive(self.proc)):
                    raise RuntimeError(f"server {self.tag} did not come up: "
                                       f"{self.proc.stderr[-400:]}")
                time.sleep(0.002)
        now = time.perf_counter()
        self.healthy_s = now - self.proc.spawn
        self.ctx.tracer.add("server.start", self.proc.spawn, now, None,
                            unit=self.tag)
        return self

    def client(self):
        """A fresh client (one per thread: connections are per request)."""
        from repro.service import ServiceClient

        return ServiceClient(self.address, timeout=JOB_TIMEOUT_S)

    def stop(self) -> None:
        """Ask the server to shut down and reap it."""
        try:
            self.client().shutdown()
        except OSError:
            pass
        self.ctx.children.reap(self.proc, timeout=15.0)


@dataclass
class JobSample:
    """One fresh job as a client saw it."""

    index: int
    job_id: str = ""
    ok: bool = False
    submit_s: float = 0.0
    latency_s: float = 0.0
    result: dict = field(default_factory=dict)


def make_payloads(ctx: Context) -> list[dict]:
    """The fresh phase's distinct jobs, in seeded order."""
    sz = ctx.sizes
    rng = ctx.rng(0)
    n = sz.served_fresh_jobs
    # Distinct by construction: a seeded permutation of an even grid,
    # jittered inside each grid cell.
    u_values = 0.01 + 0.04 * (rng.permutation(n) + rng.uniform(0.1, 0.9, n)) / n
    payloads = []
    for i in range(n):
        kind, scheme, shape = (
            ("taylor-green", "MR-P", sz.served_tg_shape) if i % 2 == 0
            else ("forced-channel", "ST", sz.served_fc_shape))
        payloads.append({
            "kind": kind, "scheme": scheme, "lattice": "D2Q9",
            "shape": list(shape), "steps": sz.served_job_steps, "tau": 0.8,
            "accel": "fused", "options": {"u_max": float(u_values[i])}})
    order = rng.permutation(n)
    return [payloads[i] for i in order]


def run_job(ctx: Context, client, payload: dict, sample: JobSample) -> None:
    """Submit one job, wait for it, fetch its result; never raises."""
    from repro.service import ServiceError

    with ctx.tracer.span("job", unit=f"job-{sample.index}"):
        try:
            t0 = time.perf_counter()
            with ctx.tracer.span("submit"):
                reply = client.submit(payload)
            sample.submit_s = time.perf_counter() - t0
            sample.job_id = reply["job"]["id"]
            with ctx.tracer.span("wait"):
                job = client.wait(sample.job_id, timeout_s=JOB_TIMEOUT_S,
                                  poll_s=POLL_S)
            with ctx.tracer.span("result"):
                sample.result = client.result(sample.job_id)["result"]
            sample.latency_s = time.perf_counter() - t0
            sample.ok = bool(reply["created"] and job["state"] == "done")
        except (ServiceError, OSError, TimeoutError, KeyError):
            sample.ok = False


def closed_loop(n_clients: int, n_items: int, work) -> float:
    """Run ``work(client_index, item_index)`` over all items; returns elapsed.

    Each client thread takes the next item only after finishing its last.
    """
    lock = threading.Lock()
    cursor = [0]
    errors: list[BaseException] = []

    def client_loop(client_index: int) -> None:
        try:
            while True:
                with lock:
                    item = cursor[0]
                    cursor[0] += 1
                if item >= n_items:
                    return
                work(client_index, item)
        except BaseException as exc:       # surfaced to the caller below
            errors.append(exc)

    threads = [threading.Thread(target=client_loop, args=(k,))
               for k in range(n_clients)]
    start = time.perf_counter()
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    elapsed = time.perf_counter() - start
    if errors:
        raise errors[0]
    return elapsed


def run(ctx: Context) -> None:
    """Run the workload into ``ctx.result``."""
    from repro.service import ServiceError

    sz, res, m = ctx.sizes, ctx.result, ctx.result.metrics
    scratch = ctx.children.scratch
    payloads = make_payloads(ctx)
    n_fresh = len(payloads)
    res.input_hash = input_hash(repr(payloads).encode())
    res.counts = {"fresh_jobs": n_fresh, "hits": sz.served_hits,
                  "restart_jobs": sz.served_restart_jobs,
                  "clients": sz.clients, "job_steps": sz.served_job_steps}

    # -- set-up: spawn -> healthy, on empty roots, several times -----------
    healthy = []
    for i in range(sz.served_setup_repeats):
        probe = Server(ctx, scratch / f"empty-{i}", f"e{i}").start()
        healthy.append(probe.healthy_s)
        probe.stop()
        ctx.sample_weather()
    server = Server(ctx, scratch / "jobs", "main").start()
    healthy.append(server.healthy_s)
    res.samples["spawn_to_healthy_s"] = healthy
    main_client = server.client()

    # Two sequential jobs, one per kind, before the clients start: the
    # server's lazy imports and the resource tracker's start-up are paid
    # here, not by whichever fresh job happens to come first.
    for index, payload in ((-1, payloads[0]), (-2, payloads[1])):
        warm = dict(payload, options={"u_max": 0.005 - 0.001 * index})
        run_job(ctx, main_client, warm, JobSample(index))

    # -- phase fresh ---------------------------------------------------------
    # In batches, with the weather probe timed between them while the
    # server sits idle; the loop drains at each boundary, which one job
    # in ``served_batch_jobs`` sees as a free worker.
    samples = [JobSample(i) for i in range(n_fresh)]
    clients = [server.client() for _ in range(sz.clients)]
    fresh_elapsed = 0.0
    ctx.sample_weather()
    for first in range(0, n_fresh, sz.served_batch_jobs):
        count = min(sz.served_batch_jobs, n_fresh - first)
        fresh_elapsed += closed_loop(
            sz.clients, count,
            lambda k, i, first=first: run_job(
                ctx, clients[k], payloads[first + i], samples[first + i]))
        ctx.sample_weather()
    done = [s for s in samples if s.ok]
    res.count("fresh_jobs", n_fresh, n_fresh - len(done))
    if not done:
        server.stop()
        return
    latencies = [s.latency_s for s in done]
    res.samples["job_latency_s"] = latencies
    records = {j["id"]: j for j in main_client.jobs()}
    runs_before_hits = main_client.health()["runs_executed"]

    # One job's sealed fields against the same problem built in-process.
    first = next(s for s in done if payloads[s.index]["kind"] == "taylor-green")
    from repro.service.registry import build_single

    spec = payloads[first.index]
    solver = build_single(spec["kind"], spec["scheme"], spec["lattice"],
                          tuple(spec["shape"]), tau=spec["tau"],
                          backend=spec["accel"], **spec["options"])
    solver.run(spec["steps"])
    rho, u = solver.macroscopic()
    sealed = np.load(Path(records[first.job_id]["dir"]) / "fields.npz")
    diff = max(float(np.abs(sealed["rho"] - rho).max()),
               float(np.abs(sealed["u"] - u).max()))
    res.check("served_fields_match_in_process", diff <= ctx.parity_tol,
              f"max |diff| {diff:.3e}")

    # -- phase hits ----------------------------------------------------------
    draws = ctx.rng(1).integers(0, len(done), size=sz.served_hits)
    hit_s = [0.0] * sz.served_hits
    hit_ok = [False] * sz.served_hits

    def hit(k: int, i: int) -> None:
        target = done[draws[i]]
        try:
            with ctx.tracer.span("hit", unit=f"hit-{i}"):
                t0 = time.perf_counter()
                reply = clients[k].submit(payloads[target.index])
                clients[k].result(reply["job"]["id"])
                hit_s[i] = time.perf_counter() - t0
            hit_ok[i] = (not reply["created"]
                         and reply["job"]["id"] == target.job_id)
        except (ServiceError, OSError, KeyError):
            hit_ok[i] = False

    closed_loop(sz.clients, sz.served_hits, hit)
    res.count("cache_hits", sz.served_hits, hit_ok.count(False))
    res.samples["cache_hit_s"] = [t for t, ok in zip(hit_s, hit_ok) if ok]
    runs_after_hits = main_client.health()["runs_executed"]
    res.check("hits_ran_nothing", runs_after_hits == runs_before_hits,
              f"runs_executed {runs_before_hits} -> {runs_after_hits}")

    rtts = []
    if ctx.traced:
        for _ in range(sz.served_rtt_probes):
            t0 = time.perf_counter()
            main_client.health()
            rtts.append(time.perf_counter() - t0)

    # -- phase restart -------------------------------------------------------
    server.stop()
    server = Server(ctx, scratch / "jobs", "again").start()
    restart_client = server.client()
    redraws = ctx.rng(2).integers(0, len(done), size=sz.served_restart_jobs)
    cached = 0
    for i in redraws:
        try:
            reply = restart_client.submit(payloads[done[i].index])
            restart_client.result(reply["job"]["id"])
            cached += int(not reply["created"])
        except (ServiceError, OSError, KeyError):
            pass
    res.count("restart_cached", len(redraws), len(redraws) - cached)
    runs_after_restart = restart_client.health()["runs_executed"]
    res.check("restart_ran_nothing", runs_after_restart == 0,
              f"runs_executed {runs_after_restart} after restart")
    server.stop()

    # -- metrics -------------------------------------------------------------
    def job_mlups(scheme: str) -> float:
        return median(s.result["mlups"] for s in done
                      if payloads[s.index]["scheme"] == scheme)

    weather = ctx.finish_weather()
    m["setup_s"] = median(healthy) / weather
    m["time_to_result_s"] = median(latencies) / weather
    m["user.time_to_result_raw_s"] = median(latencies)
    m["user.mlups_mrp"] = job_mlups("MR-P")
    m["peak_rss_mb"] = ctx.children.peak_rss_mb
    m["user.mlups_st"] = job_mlups("ST")
    m["user.job_latency_p90_ms"] = percentile(latencies, 90) * 1e3
    m["user.jobs_per_s"] = len(done) / fresh_elapsed
    m["user.cache_hit_p50_ms"] = median(res.samples["cache_hit_s"]) * 1e3
    if not ctx.traced:
        return

    recs = [records[s.job_id] for s in done]
    run_s = [r["finished_unix"] - r["started_unix"] for r in recs]
    m["service.submit_rtt_ms_p50"] = median(s.submit_s for s in done) * 1e3
    m["service.healthz_rtt_ms_p50"] = median(rtts) * 1e3
    m["service.queue_wait_ms_p50"] = median(
        r["started_unix"] - r["created_unix"] for r in recs) * 1e3
    m["service.run_ms_p50"] = median(run_s) * 1e3
    m["service.runtime_wall_ms_p50"] = median(
        s.result["wall_s"] for s in done) * 1e3
    m["service.seal_ms_p50"] = median(
        t - s.result["wall_s"] for t, s in zip(run_s, done)) * 1e3
    m["service.worker_busy_share"] = sum(run_s) / (WORKERS * fresh_elapsed)
    m["service.cache_hit_ratio"] = hit_ok.count(True) / sz.served_hits
    m["service.cache_hit_p99_ms"] = \
        percentile(res.samples["cache_hit_s"], 99) * 1e3

    # Direct calls: what a restart pays to re-adopt the sealed jobs, and
    # what every submission pays before it reaches the queue.
    import asyncio

    from repro.service import JobScheduler, spec_from_dict

    async def rescan() -> float:
        scheduler = JobScheduler(scratch / "jobs", workers=WORKERS)
        t0 = time.perf_counter()
        await scheduler.start()
        elapsed = time.perf_counter() - t0
        await scheduler.close()
        return elapsed

    with ctx.tracer.span("service.rescan"):
        m["service.rescan_s"] = asyncio.run(rescan())

    run_spec, _ = spec_from_dict(payloads[0])
    t0 = time.perf_counter()
    for _ in range(sz.served_direct_calls):
        run_spec.fingerprint()
    m["service.fingerprint_us"] = \
        (time.perf_counter() - t0) / sz.served_direct_calls * 1e6
    t0 = time.perf_counter()
    for _ in range(sz.served_direct_calls):
        spec_from_dict(payloads[0])
    m["service.spec_from_dict_us"] = \
        (time.perf_counter() - t0) / sz.served_direct_calls * 1e6

    # The server process is the same in both runs: tracing here is the
    # harness's own spans around the client calls.
    m["obs.tracing_overhead_pct"] = 100.0 * (
        len(ctx.tracer.spans) * span_cost_s() / fresh_elapsed)
