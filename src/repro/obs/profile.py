"""Profiling harness behind ``mrlbm profile``.

Runs a short channel (or periodic, for AA) workload per scheme with a
live :class:`~repro.obs.telemetry.Telemetry` attached, and pairs the
host-side per-phase wall-clock breakdown with the DRAM traffic the
virtual-GPU kernels measure through
:class:`~repro.gpu.memory.MemoryTracker` — the same 32-byte-sector
counting the paper's ``nvprof``/``rocprof`` Table 4 numbers come from.
Reported throughputs:

* **host MLUPS** — fluid-node updates per second of the reference run;
* **effective host GB/s** — sector bytes per node × host update rate
  (what a DRAM profiler would see if the host run were the device run);
* **modelled device MLUPS** — the bandwidth roofline
  ``BW_peak / bytes-per-node`` on the chosen device.
"""

from __future__ import annotations

from .telemetry import Telemetry, peak_rss_mb

__all__ = ["profile_scheme", "format_profile", "PROFILE_SCHEMES"]

PROFILE_SCHEMES = ("ST", "MR-P", "MR-R", "AA")


def _default_shape(ndim: int) -> tuple[int, ...]:
    return (96, 50) if ndim == 2 else (24, 14, 14)


def _build_solver(scheme: str, lattice: str, shape: tuple[int, ...],
                  tau: float, u_max: float, accel: str = "reference"):
    """The profiled workload: the channel kind, or a periodic box for AA."""
    from ..service.registry import build_single, setup_problem
    from ..solver.aa import AASolver

    if scheme.upper() != "AA":
        return build_single("channel", scheme, lattice, shape, tau=tau,
                            backend=accel, u_max=u_max)
    if accel != "reference":
        raise ValueError(
            "the AA scheme is the reference single-lattice solver; "
            "its fast path is the 'aa' *backend* — profile "
            "--scheme ST/MR-P/MR-R with --accel aa instead"
        )
    kind, options = (("taylor-green", {"u_max": u_max}) if len(shape) == 2
                     else ("periodic", {}))
    lat, setup = setup_problem(kind, lattice, shape, tau, **options)
    return AASolver(lat, setup.domain, tau, rho0=setup.rho0, u0=setup.u0)


def profile_scheme(scheme: str = "MR-P", lattice: str = "D2Q9",
                   shape: tuple[int, ...] | None = None, steps: int = 40,
                   tau: float = 0.8, u_max: float = 0.05,
                   device: str = "V100",
                   measure_traffic: bool = True,
                   accel: str = "reference") -> dict:
    """Profile one scheme; returns a JSON-serializable result dict.

    The per-phase timings come from a telemetry-instrumented run of the
    selected execution backend (``accel``, see :mod:`repro.accel`); the
    traffic columns execute the corresponding virtual-GPU kernel
    under a :class:`~repro.gpu.memory.MemoryTracker` (cached — see
    :func:`repro.bench.measure.measure_channel_traffic`).
    """
    from ..gpu.device import get_device
    from ..lattice import get_lattice

    lat = get_lattice(lattice)
    if shape is None:
        shape = _default_shape(lat.d)
    solver = _build_solver(scheme, lattice, shape, tau, u_max, accel=accel)
    tel = Telemetry()
    solver.attach_telemetry(tel)
    solver.run(int(steps))

    n_fluid = solver.domain.n_fluid
    step_total = tel.phase_total("step")
    host_mlups = tel.mlups(n_fluid)

    phases = []
    for path, stats in sorted(tel.phases.items(),
                              key=lambda kv: -kv[1].total):
        phases.append({
            "phase": path,
            "calls": stats.calls,
            "total_s": stats.total,
            "mean_us": stats.mean * 1e6,
            "share": (stats.total / step_total) if step_total > 0 else 0.0,
        })

    path = solver.accel_path
    result = {
        "scheme": scheme.upper(),
        "backend": accel,
        "path": path,
        # how often a core put the dense state right for a reader (`sync`
        # phase); None on the reference step, which has no core
        "syncs": None if path is None else int(tel.counters.get("syncs", 0)),
        "lattice": lat.name,
        "shape": list(shape),
        "tau": tau,
        "steps": int(steps),
        "n_fluid": int(n_fluid),
        "host_seconds": step_total,
        "host_mlups": host_mlups,
        "peak_rss_mb": peak_rss_mb(),
        "phases": phases,
        "device": device,
        "traffic": None,
    }

    if measure_traffic and scheme.upper() in ("ST", "MR-P", "MR-R"):
        from ..bench.measure import measure_channel_traffic
        dev = get_device(device)
        meas = measure_channel_traffic(scheme, lat.name, device)
        dram = meas.dram_bytes_per_node
        result["traffic"] = {
            "measured_shape": list(meas.shape),
            "dram_bytes_per_node": dram,
            "dram_read_per_node": meas.dram_read_per_node,
            "dram_write_per_node": meas.dram_write_per_node,
            "logical_bytes_per_node": meas.logical_bytes_per_node,
            "effective_host_gbs": dram * host_mlups * 1e6 / 1e9,
            "device_roofline_mlups": dev.bandwidth_gbs * 1e9 / dram / 1e6,
            "device_bandwidth_gbs": dev.bandwidth_gbs,
        }
    return result


def format_profile(result: dict) -> str:
    """Render one :func:`profile_scheme` result as a fixed-width report."""
    lines = []
    shape = "x".join(str(s) for s in result["shape"])
    backend = result.get("backend", "reference")
    if result.get("path"):
        backend += f" ({result['path']} path)"
    if result.get("syncs") is not None:
        backend += f", {result['syncs']} state syncs"
    if result.get("peak_rss_mb"):
        backend += f", peak RSS {result['peak_rss_mb']:.0f} MB"
    lines.append(
        f"{result['scheme']} / {result['lattice']} on {shape} "
        f"({result['n_fluid']:,} fluid nodes), tau = {result['tau']}, "
        f"backend = {backend}, "
        f"{result['steps']} steps in {result['host_seconds']:.3f} s"
    )
    lines.append("")
    lines.append(f"  {'phase':<24s} {'calls':>7s} {'total ms':>10s} "
                 f"{'mean us':>10s} {'share':>7s}")
    for p in result["phases"]:
        lines.append(
            f"  {p['phase']:<24s} {p['calls']:7d} "
            f"{p['total_s'] * 1e3:10.2f} {p['mean_us']:10.1f} "
            f"{p['share']:6.1%}"
        )
    lines.append("")
    lines.append(f"  host throughput: {result['host_mlups']:.3f} MLUPS")
    t = result.get("traffic")
    if t:
        lines.append(
            f"  DRAM traffic (MemoryTracker, 32 B sectors, "
            f"{'x'.join(str(s) for s in t['measured_shape'])} proxy): "
            f"{t['dram_bytes_per_node']:.1f} B/node "
            f"(read {t['dram_read_per_node']:.1f} + "
            f"write {t['dram_write_per_node']:.1f}; "
            f"logical {t['logical_bytes_per_node']:.1f})"
        )
        lines.append(
            f"  effective host bandwidth: {t['effective_host_gbs']:.4f} GB/s"
        )
        lines.append(
            f"  {result['device']} roofline at this B/node: "
            f"{t['device_roofline_mlups']:,.0f} MLUPS "
            f"(peak {t['device_bandwidth_gbs']:.0f} GB/s)"
        )
    else:
        lines.append("  DRAM traffic: n/a (no virtual-GPU kernel for this "
                     "scheme/problem)")
    return "\n".join(lines)
