"""What the workloads share: the run context and the parent side of a cell."""

from __future__ import annotations

import json
import os
import select
import time
from dataclasses import dataclass

import numpy as np

from ..harness import (MASS_TOL, Children, PassResult, Sizes, child_env,
                       median, python_cmd)
from ..trace import Tracer
from ..weather import Probe

#: ``(Q, M)`` of the lattices the workloads use.
LATTICE_QM = {"D2Q9": (9, 6), "D3Q19": (19, 10)}


def model_bytes_per_flup(backend: str, scheme: str, lattice: str) -> float:
    """Computed host bytes per fluid lattice update of one cell.

    Values moved per update by the host kernels, as array-level passes
    (docs/ALGORITHMS.md, "The host model" and "The sparse model"), of 8
    bytes each. Computed, not measured: cache misses are not in it.
    """
    q, m = LATTICE_QM[lattice]
    if backend == "fused":
        values = 4 * q                        # ST and MR alike
    elif scheme == "ST":
        values = 7 * q + q                    # sparse: passes + index reads
    else:
        values = 4 * q + 4 * m + q + m
    return 8.0 * values


@dataclass
class Context:
    """Everything one run of one workload works with."""

    sizes: Sizes
    seed: int
    traced: bool
    tracer: Tracer
    children: Children
    result: PassResult
    parity_tol: float
    probe: Probe

    def rng(self, stream: int = 0) -> np.random.Generator:
        """Generator of the run's inputs (one independent stream per use)."""
        return np.random.default_rng([self.seed, stream])

    def sample_weather(self, passes: int = 2) -> None:
        """Time the weather probe (see :mod:`perfbench.weather`).

        Called between measured units, never beside one: the probe would
        compete with what it is the yardstick of.
        """
        with self.tracer.span("weather.probe"):
            self.probe.sample(passes)

    def finish_weather(self) -> float:
        """Store the probe's passes in the result; returns the run's weather."""
        self.result.samples["weather_probe_s"] = list(self.probe.passes)
        for name, part in self.probe.parts.items():
            self.result.samples[f"weather_{name}_s"] = list(part)
        self.result.metrics["host.weather"] = self.probe.weather
        return self.probe.weather


def smooth_velocity(rng: np.random.Generator, shape: tuple[int, ...],
                    u_peak: float) -> np.ndarray:
    """Smooth periodic random velocity field with ``max |u_a| == u_peak``.

    A few low Fourier modes with random wave vectors, phases and
    amplitudes per component: resolved on any grid the benchmark uses, so
    the box stays stable, and different for every seed.
    """
    d = len(shape)
    axes = np.meshgrid(*[np.arange(n) / n for n in shape], indexing="ij")
    u = np.zeros((d, *shape))
    for a in range(d):
        for _ in range(4):
            k = rng.integers(-2, 3, size=d)
            phase = rng.uniform(0.0, 2.0 * np.pi)
            arg = sum(2.0 * np.pi * k[i] * axes[i] for i in range(d))
            u[a] += rng.uniform(0.3, 1.0) * np.sin(arg + phase)
        peak = np.abs(u[a]).max()
        u[a] *= u_peak / (peak if peak > 0 else 1.0)
    return u


class LiveCell:
    """Parent side of one cell process (see :mod:`perfbench.cell`).

    The workload starts its cells one by one, waits until each is ready,
    steps them in turn with :meth:`segment` and collects them with
    :meth:`finish`.
    """

    def __init__(self, ctx: Context, label: str, spec: dict):
        self.ctx, self.label = ctx, label
        self.seg_steps = spec["seg_steps"]
        self.against = (spec.get("parity") or {}).get("against")
        self.seg_s: list[float] = []
        self.seg_traced: list[bool] = []
        self.rec: dict | None = None
        self.ready = 0.0
        scratch = ctx.children.scratch
        fifos = {}
        for end in ("command", "reply"):
            fifos[end] = scratch / f"cell-{label}.{end}"
            os.mkfifo(fifos[end])
        spec = dict(spec, spans=ctx.traced,
                    command_fifo=str(fifos["command"]),
                    reply_fifo=str(fifos["reply"]))
        spec_path = scratch / f"cell-{label}.json"
        spec_path.write_text(json.dumps(spec), encoding="utf-8")
        # O_RDWR on a FIFO never blocks on Linux, so a child that dies
        # before opening its ends cannot hang the harness in open().
        self._commands = os.fdopen(os.open(fifos["command"], os.O_RDWR), "w")
        self._reply_fd = os.open(fifos["reply"], os.O_RDWR)
        self._pending = b""
        self.child = ctx.children.popen(
            python_cmd("-m", "perfbench.cell", str(spec_path)),
            tag=f"cell-{label}", env=child_env(with_perfbench=True))

    def _reply(self) -> dict | None:
        """Next reply line, or ``None`` when the child died or timed out."""
        deadline = time.monotonic() + self.ctx.sizes.child_timeout_s
        while b"\n" not in self._pending:
            readable, _, _ = select.select([self._reply_fd], [], [], 1.0)
            if readable:
                self._pending += os.read(self._reply_fd, 65536)
            elif (time.monotonic() > deadline
                  or not self.ctx.children.alive(self.child)):
                return None
        line, _, self._pending = self._pending.partition(b"\n")
        return json.loads(line)

    def wait_ready(self) -> bool:
        """Block until the cell has built, warmed up and awaits segments."""
        reply = self._reply()
        if reply is not None:
            self.ready = reply["ready"]
        return reply is not None

    def segment(self, with_telemetry: bool = False) -> bool:
        """Have the cell step one segment; records its duration."""
        self._commands.write(f"seg {int(with_telemetry)}\n")
        self._commands.flush()
        reply = self._reply()
        if reply is None:
            return False
        self.seg_s.append(reply["seg_s"])
        self.seg_traced.append(with_telemetry)
        return True

    def finish(self) -> bool:
        """Let the cell run its checks and exit; count and check it."""
        ctx, res, label = self.ctx, self.ctx.result, self.label
        try:
            self._commands.write("finish\n")
            self._commands.flush()
        except OSError:
            pass
        child = ctx.children.reap(self.child, ctx.sizes.child_timeout_s)
        self._commands.close()
        os.close(self._reply_fd)
        rec = None
        if child.returncode == 0:
            try:
                rec = json.loads(child.stdout.strip().splitlines()[-1])
            except (IndexError, json.JSONDecodeError):
                rec = None
        if not res.check(
                f"{label}.exit", rec is not None,
                "" if rec else f"rc={child.returncode}: {child.stderr[-400:]}"):
            return False
        root = ctx.tracer.add("cell", child.spawn, child.exit, None,
                              unit=label)
        ctx.tracer.graft(rec.pop("spans"), root, unit=label)
        self.rec = rec
        res.check(f"{label}.finite", rec["finite"])
        res.check(f"{label}.mass", rec["mass_rel_drift"] < MASS_TOL,
                  f"relative drift {rec['mass_rel_drift']:.3e}")
        if rec["parity_max_diff"] is not None:
            res.check(f"{label}.parity",
                      rec["parity_max_diff"] <= ctx.parity_tol,
                      f"max |diff| {rec['parity_max_diff']:.3e} vs "
                      f"{self.against}")
        return True

    # -- what the workloads read off a finished cell -----------------------
    @property
    def plain_seg_s(self) -> list[float]:
        """Segment times stepped without Telemetry attached."""
        return [t for t, tel in zip(self.seg_s, self.seg_traced) if not tel]

    @property
    def traced_seg_s(self) -> list[float]:
        """Segment times stepped with Telemetry attached."""
        return [t for t, tel in zip(self.seg_s, self.seg_traced) if tel]

    @property
    def mlups(self) -> float:
        """Median over plain segments of fluid-node updates per second / 1e6."""
        return (self.rec["n_fluid"] * self.seg_steps
                / median(self.plain_seg_s) / 1e6)

    @property
    def setup_s(self) -> float:
        """Median over the repeats of build + first step."""
        return median(b + f for b, f in
                      zip(self.rec["builds"], self.rec["first_steps"]))

    @property
    def time_to_result_s(self) -> float:
        """Process spawn to the last segment done, as a user would wait.

        Interpreter start, imports, the cold build and first step and the
        warm-up (spawn to ``ready``), plus the stepping time of every
        segment. Left out: what the harness inserts for its own purposes
        (the memory pre-touch, the set-up repeats behind ``setup_s``) and
        the time the cell sat waiting for its turn.
        """
        inserted = (self.rec["prefault_s"] + sum(self.rec["builds"][1:])
                    + sum(self.rec["first_steps"][1:]))
        return self.ready - self.child.spawn - inserted + sum(self.seg_s)

    @property
    def telemetry_overhead(self) -> float:
        """Relative cost of stepping with Telemetry attached."""
        return median(self.traced_seg_s) / median(self.plain_seg_s) - 1.0

    def phase_ms_per_step(self, phase: str) -> float:
        """Mean milliseconds per step Telemetry attributes to ``phase``."""
        steps = self.rec["traced_steps"]
        return self.rec["phases"].get(phase, 0.0) / steps * 1e3 if steps else 0.0


def run_cells(ctx: Context, specs: dict[str, dict],
              segments: int) -> dict[str, LiveCell]:
    """Start the cells, step them in turn ``segments`` times, collect them.

    Returns the cells that finished, by label. In the traced run every
    second round steps with Telemetry attached. The weather probe is
    timed after every cell's start-up and after every round.
    """
    # One at a time: a cell that builds while another starts up would
    # have its set-up timed under contention.
    cells, alive = {}, {}
    for label, spec in specs.items():
        cells[label] = LiveCell(ctx, label, spec)
        if cells[label].wait_ready():
            alive[label] = cells[label]
        ctx.sample_weather()
    for index in range(segments):
        with_tel = bool(ctx.traced and index % 2 == 1)
        alive = {label: cell for label, cell in alive.items()
                 if cell.segment(with_tel)}
        ctx.sample_weather()
    return {label: cell for label, cell in cells.items() if cell.finish()}


def host_copy_gbs(sizes: Sizes) -> float:
    """Sustained copy bandwidth of this host, GB/s read + written.

    Median of ``copy_repeats`` ``np.copyto`` calls over arrays far larger
    than the L2 caches, taken in the same run as the kernels it is
    compared with (the VM's advertised 260 MiB L3 is shared with other
    tenants and no NumPy-speed run can exceed it fourfold; both sizes are
    in the machine profile).
    """
    n = sizes.copy_mb * 1024 * 1024 // 8
    src = np.ones(n)
    dst = np.zeros(n)
    times = []
    for _ in range(sizes.copy_repeats):
        t0 = time.perf_counter()
        np.copyto(dst, src)
        times.append(time.perf_counter() - t0)
    return 2.0 * n * 8 / median(times) / 1e9


SUFFIX = {"ST": "st", "MR-P": "mrp", "MR-R": "mrr"}


def cell_metrics(ctx: Context, cells: dict[str, LiveCell], backend: str,
                 lattice: str) -> None:
    """Fill the metrics both in-process workloads derive from their cells.

    ``cells`` maps scheme name to its finished cell. End-to-end numbers
    are sums over the cells (fixed work), at nominal weather; per-layer
    numbers are per scheme and as measured.
    """
    m = ctx.result.metrics
    copy_gbs = host_copy_gbs(ctx.sizes) if ctx.traced else None
    weather = ctx.finish_weather()
    raw = sum(c.time_to_result_s for c in cells.values())
    m["setup_s"] = sum(c.setup_s for c in cells.values()) / weather
    m["time_to_result_s"] = raw / weather
    m["user.time_to_result_raw_s"] = raw
    m["peak_rss_mb"] = ctx.children.peak_rss_mb
    for scheme, cell in cells.items():
        s = SUFFIX[scheme]
        mlups = cell.mlups
        m[f"user.mlups_{s}"] = mlups
        ctx.result.samples[f"segment_s.{s}"] = cell.plain_seg_s
        m[f"solver.build_cold_s.{s}"] = cell.rec["builds"][0]
        m[f"solver.build_warm_s.{s}"] = median(cell.rec["builds"][1:])
        m[f"solver.first_step_s.{s}"] = median(cell.rec["first_steps"])
        if not ctx.traced:
            continue
        m[f"accel.stream_ms_per_step.{s}"] = cell.phase_ms_per_step("stream")
        m[f"accel.collide_ms_per_step.{s}"] = cell.phase_ms_per_step("collide")
        if scheme != "ST":
            m[f"accel.project_ms_per_step.{s}"] = \
                cell.phase_ms_per_step("macroscopic")
        model = model_bytes_per_flup(backend, scheme, lattice)
        effective_gbs = model * mlups * 1e6 / 1e9
        m[f"accel.model_bytes_per_flup.{s}"] = model
        m[f"accel.effective_gbs.{s}"] = effective_gbs
        m[f"accel.bw_fraction.{s}"] = effective_gbs / copy_gbs
    if ctx.traced:
        m["host.prefault_s"] = sum(c.rec["prefault_s"] for c in cells.values())
        m["host.copy_gbs"] = copy_gbs
        m["obs.tracing_overhead_pct"] = 100.0 * median(
            c.telemetry_overhead for c in cells.values())


def cell_layer_names(schemes: tuple[str, ...]) -> tuple[str, ...]:
    """Per-layer metric names :func:`cell_metrics` emits for ``schemes``."""
    names = ["host.weather", "user.time_to_result_raw_s", "host.prefault_s",
             "host.copy_gbs", "obs.tracing_overhead_pct"]
    for scheme in schemes:
        s = SUFFIX[scheme]
        names += [f"user.mlups_{s}", f"solver.build_cold_s.{s}",
                  f"solver.build_warm_s.{s}", f"solver.first_step_s.{s}",
                  f"accel.stream_ms_per_step.{s}",
                  f"accel.collide_ms_per_step.{s}",
                  f"accel.model_bytes_per_flup.{s}",
                  f"accel.effective_gbs.{s}", f"accel.bw_fraction.{s}"]
        if scheme != "ST":
            names.append(f"accel.project_ms_per_step.{s}")
    return tuple(names)


def span_cost_s(n: int = 2000) -> float:
    """Measured cost of recording one harness span.

    On the workloads whose program runs unchanged in the traced run
    (``ranks2``, ``served``) tracing is only these spans, and its overhead
    is their count times this cost over the time they were recorded in.
    """
    probe = Tracer(enabled=True)
    t0 = time.perf_counter()
    for _ in range(n):
        with probe.span("probe"):
            pass
    return (time.perf_counter() - t0) / n
