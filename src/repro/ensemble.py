"""Lockstep ensemble execution: N same-shape simulations, one fused kernel.

On small and medium grids a single simulation cannot feed the fused
kernels: the per-step cost is dominated by fixed NumPy dispatch and the
BLAS moment projections run starved on skinny ``(M, N)`` operands. A
parameter sweep (the EXPERIMENTS-style Re/τ/resolution scans of ROADMAP
item 3) is exactly ``B`` such starved simulations — so
:class:`EnsembleRunner` packs them into the batched cores of
:mod:`repro.accel.batched` and steps the whole ensemble with one kernel
invocation per stage, restoring the large-``n`` dgemm shapes the moment
representation was designed around.

Packing is **zero-copy for the members**: the runner allocates the
``(B, ...)`` batch arrays once, copies each member's state in, and
rebinds the member solver's state attribute (``f``/``m``/``force``) to
its batch *view*. Member solvers therefore stay fully observable —
``macroscopic()``, diagnostics, monitors and manifests all read the live
batched state — but they must not call their own ``step``/``run`` while
enrolled; the runner advances everyone in lockstep (and keeps each
member's ``time`` in sync).

Eligibility is explicit, via the ``batched: True`` flag of the solver's
``accel_caps`` declaration (see :mod:`repro.accel`): ST (plain BGK),
MR-P and MR-R solvers qualify; subclasses that override physics, TRT
collisions, ``tau_bulk`` splits and per-node ``tau_field`` relaxation do
not. Members must share the lattice, grid shape, scheme and solid
geometry; relaxation time, forcing fields, boundary objects and initial
conditions are free per member. Each member reproduces its independent
``backend="fused"`` run bit for bit (the tolerance rule of
``tests/property/test_conformance.py``).

On top of the runner, this module provides the sweep machinery behind
``mrlbm sweep``: :func:`expand_sweep` turns a parameter grid into
:class:`~repro.parallel.runtime.RunSpec` records (fingerprint-deduped),
:func:`pack_batches` groups compatible specs into batches, and
:func:`run_sweep` executes them, attributing aggregate MLUPS back to
each member and writing per-member manifests plus a sweep summary.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Sequence

import numpy as np

from .accel import make_core, solver_caps
from .core.collision import BGKCollision
from .obs.manifest import write_manifest
from .obs.telemetry import NULL_TELEMETRY
from .parallel.runtime import RunSpec
from .service.registry import build_single, sweep_kinds
from .solver.base import Solver

__all__ = [
    "EnsembleRunner",
    "SWEEP_PROBLEMS",
    "expand_sweep",
    "build_sweep_member",
    "pack_batches",
    "run_sweep",
    "SweepResult",
]


def _member_caps(member: Solver) -> dict:
    """The member's own ``accel_caps``; raise unless it certifies batching."""
    caps = solver_caps(member)
    if caps is None or not caps.get("batched"):
        raise ValueError(
            f"{type(member).__name__} does not certify batched execution "
            f"(accel_caps must declare batched=True in its own class body; "
            f"see repro.accel)"
        )
    return caps


class EnsembleRunner:
    """Step ``B`` same-shape simulations in lockstep through one batched core.

    Parameters
    ----------
    members:
        The enrolled solvers. All must certify ``batched`` capability in
        their own ``accel_caps``, share lattice / grid shape / scheme
        family (and MR scheme) / solid geometry / forcing presence, agree on
        ``time``, and be distinct objects. Relaxation time, force fields,
        boundary objects and state are free per member.
    Notes
    -----
    Construction rebinds each member's state arrays (``f``/``m``, and
    ``force`` when forced) to views into the runner-owned batch arrays;
    the members remain live observers of the evolving state but must not
    self-step while enrolled.
    """

    def __init__(self, members: Sequence[Solver]):
        members = list(members)
        if not members:
            raise ValueError("an ensemble needs at least one member")
        if len({id(m) for m in members}) != len(members):
            raise ValueError("ensemble members must be distinct solver "
                             "objects (the same solver cannot be enrolled "
                             "twice)")
        head = members[0]
        caps0 = _member_caps(head)
        self.family = caps0["family"]
        self.scheme = caps0.get("scheme")
        for m in members:
            caps = _member_caps(m)
            if caps["family"] != self.family or caps.get("scheme") != self.scheme:
                raise ValueError(
                    "ensemble members must share one scheme; got "
                    f"{type(head).__name__} and {type(m).__name__}")
            if m.lat.name != head.lat.name:
                raise ValueError(
                    f"ensemble members must share one lattice; got "
                    f"{head.lat.name} and {m.lat.name}")
            if tuple(m.domain.shape) != tuple(head.domain.shape):
                raise ValueError(
                    f"ensemble members must share one grid shape; got "
                    f"{tuple(head.domain.shape)} and {tuple(m.domain.shape)}")
            if m.time != head.time:
                raise ValueError(
                    "ensemble members must agree on time before enrolment "
                    f"(got steps {head.time} and {m.time})")
            if not np.array_equal(m.domain.solid_mask, head.domain.solid_mask):
                raise ValueError(
                    "ensemble members must share the solid geometry")
            if (m.force is None) != (head.force is None):
                raise ValueError(
                    "ensemble forcing is all-or-none: forced and unforced "
                    "members take bitwise-different collision paths, so "
                    "they cannot share a batch")
            if self.family == "st" and type(m.collision) is not BGKCollision:
                raise ValueError(
                    "only the plain BGK collision is batched for ST (same "
                    "support matrix as the fused backend)")
            if self.family == "mr" and getattr(m, "tau_bulk", None) is not None:
                raise ValueError(
                    "tau_bulk members cannot be batched (the trace-split "
                    "relaxation is a single-simulation feature)")

        self.members = members
        self.batch = len(members)
        self.lat = head.lat
        self.shape = tuple(head.domain.shape)
        self.time = head.time
        self.telemetry = NULL_TELEMETRY
        self._boundaries = [m.boundaries for m in members]
        self._force = None
        if head.force is not None:
            self._force = np.empty((self.batch, self.lat.d, *self.shape))
            for k, m in enumerate(members):
                self._force[k] = m.force
                # Rebind so member.set_force(...) keeps driving the batch.
                m.force = self._force[k]
        # A vector of relaxation times selects the batch axis of the
        # shared factory; the core owns all distribution scratch.
        self._core = make_core("fused", caps0, self.lat, head.domain,
                               [m.tau for m in members])
        # Persistent ensemble state: f[B, Q, *grid] or m[B, M, *grid],
        # with each member's own array rebound to its slice.
        self._field = "f" if self.family == "st" else "m"
        self._state = np.stack([getattr(m, self._field) for m in members])
        setattr(self, "_" + self._field, self._state)   # ``_f`` / ``_m``
        for k, m in enumerate(members):
            setattr(m, self._field, self._state[k])

    def attach_telemetry(self, telemetry) -> "EnsembleRunner":
        """Attach a :class:`~repro.obs.Telemetry` registry (``None`` resets).

        Phases accumulate over the whole ensemble step; use
        :meth:`member_mlups` to attribute throughput back to members.
        """
        self.telemetry = telemetry if telemetry is not None else NULL_TELEMETRY
        return self

    def step(self) -> None:
        """Advance every member one lockstep step (one batched kernel pass)."""
        self._core.step(self._state, self._boundaries, self.telemetry,
                        force=self._force)

    def run(self, n_steps: int) -> "EnsembleRunner":
        """Lockstep steps, not ``repro.loop``'s: a sweep has none of its flags.

        ``mrlbm sweep`` exposes no watchdog, event, trace or checkpoint
        flag, so its batches step here; member ``time`` attributes
        advance in sync.
        """
        tel = self.telemetry
        completed = 0
        try:
            for _ in range(int(n_steps)):
                with tel.phase("step"):
                    self.step()
                self.time += 1
                for m in self.members:
                    m.time += 1
                completed += 1
        finally:
            if tel.enabled and completed:
                tel.count("steps", completed)
        return self

    # -- throughput attribution ---------------------------------------
    def member_fluid_nodes(self) -> list[int]:
        """Fluid-node count of each member (equal when geometry is shared)."""
        return [int(m.domain.n_fluid) for m in self.members]

    def aggregate_mlups(self, elapsed_s: float, steps: int) -> float:
        """Ensemble throughput: total fluid-node updates / wall seconds."""
        if elapsed_s <= 0.0:
            return 0.0
        return sum(self.member_fluid_nodes()) * steps / elapsed_s / 1e6

    def member_mlups(self, elapsed_s: float, steps: int) -> list[float]:
        """Per-member MLUPS attribution of a timed span.

        Each member is credited its own fluid-node updates over the
        shared wall time, so the attributions sum to
        :meth:`aggregate_mlups` exactly.
        """
        if elapsed_s <= 0.0:
            return [0.0] * self.batch
        return [nf * steps / elapsed_s / 1e6
                for nf in self.member_fluid_nodes()]


# ---------------------------------------------------------------------------
# Sweep machinery (the engine behind ``mrlbm sweep``)
# ---------------------------------------------------------------------------

#: Problem kinds a sweep can expand over — the registry entries flagged
#: ``sweepable`` (see :mod:`repro.service.registry`), so a kind
#: registered there with ``sweepable=True`` becomes sweepable here and
#: in ``mrlbm sweep`` without touching this module.
SWEEP_PROBLEMS = sweep_kinds()


def expand_sweep(problem: str, schemes: Sequence[str],
                 lattices: Sequence[str],
                 shapes: Sequence[tuple[int, ...]],
                 taus: Sequence[float],
                 u_maxes: Sequence[float] = (0.05,)
                 ) -> tuple[list[RunSpec], int]:
    """Expand a parameter grid into deduplicated single-domain RunSpecs.

    The cross product ``schemes x lattices x shapes x taus x u_maxes``
    becomes one :class:`~repro.parallel.runtime.RunSpec` per member
    (``kind`` is the sweep problem name, ``n_ranks=1``, ``u_max`` in
    ``options``); members whose :meth:`RunSpec.fingerprint` collides
    with an earlier one are dropped. Returns ``(specs, n_duplicates)``.
    """
    if problem not in SWEEP_PROBLEMS:
        raise ValueError(f"unknown sweep problem {problem!r}; expected one "
                         f"of {SWEEP_PROBLEMS}")
    specs: list[RunSpec] = []
    seen: set[str] = set()
    dropped = 0
    for scheme in schemes:
        for lattice in lattices:
            for shape in shapes:
                for tau in taus:
                    for u_max in u_maxes:
                        spec = RunSpec(kind=problem, scheme=scheme,
                                       lattice=lattice,
                                       shape=tuple(int(s) for s in shape),
                                       n_ranks=1, tau=float(tau),
                                       options={"u_max": float(u_max)})
                        fp = spec.fingerprint()
                        if fp in seen:
                            dropped += 1
                            continue
                        seen.add(fp)
                        specs.append(spec)
    return specs, dropped


def build_sweep_member(spec: RunSpec, backend: str = "fused") -> Solver:
    """Construct the single-domain solver one sweep RunSpec describes.

    Delegates to the registry's single-domain builders
    (:func:`repro.service.registry.build_single`), so any sweepable
    kind — including ones registered downstream — is buildable here.
    """
    if spec.kind not in SWEEP_PROBLEMS:
        raise ValueError(f"unknown sweep problem kind {spec.kind!r}; "
                         f"expected one of {SWEEP_PROBLEMS}")
    return build_single(spec.kind, spec.scheme, spec.lattice,
                        tuple(spec.shape), tau=spec.tau, backend=backend,
                        **spec.options)


def pack_batches(specs: Sequence[RunSpec],
                 max_batch: int = 16) -> list[list[RunSpec]]:
    """Group specs into batchable chunks of at most ``max_batch`` members.

    Members are batch-compatible when they share ``(kind, scheme,
    lattice, shape)`` — the ensemble contract of
    :class:`EnsembleRunner` (same kernels, same geometry; τ and
    ``u_max`` free). Grouping preserves first-seen order of both the
    groups and their members.
    """
    if max_batch < 1:
        raise ValueError(f"max_batch must be >= 1, got {max_batch}")
    groups: dict[tuple, list[RunSpec]] = {}
    for spec in specs:
        key = (spec.kind, spec.scheme, spec.lattice, tuple(spec.shape))
        groups.setdefault(key, []).append(spec)
    batches: list[list[RunSpec]] = []
    for group in groups.values():
        for i in range(0, len(group), max_batch):
            batches.append(group[i:i + max_batch])
    return batches


@dataclass
class SweepResult:
    """Outcome of :func:`run_sweep`.

    ``members`` holds one record per executed member (scheme, lattice,
    shape, tau, options, fingerprint, batch index, attributed MLUPS,
    final max speed); ``batches`` one record per kernel batch (size,
    wall seconds, aggregate MLUPS); ``duplicates_dropped`` the members
    removed by fingerprint dedupe before execution.
    """

    problem: str
    steps: int
    members: list[dict] = field(default_factory=list)
    batches: list[dict] = field(default_factory=list)
    duplicates_dropped: int = 0
    wall_s: float = 0.0

    def to_dict(self) -> dict:
        """JSON-serializable summary."""
        return {
            "problem": self.problem,
            "steps": self.steps,
            "n_members": len(self.members),
            "n_batches": len(self.batches),
            "duplicates_dropped": self.duplicates_dropped,
            "wall_s": self.wall_s,
            "aggregate_mlups": (
                sum(b["mlups"] for b in self.batches)
                if self.batches else 0.0),
            "batches": self.batches,
            "members": self.members,
        }

    def write(self, path: str | Path) -> Path:
        """Write the summary JSON to ``path`` (returns the path)."""
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(self.to_dict(), indent=2) + "\n",
                        encoding="utf-8")
        return path


def run_sweep(specs: Sequence[RunSpec], steps: int, max_batch: int = 16,
              out_dir: str | Path | None = None, backend: str = "fused",
              progress: Callable[[str], None] | None = None) -> SweepResult:
    """Execute a sweep: pack, run batched, attribute MLUPS, write manifests.

    Specs are fingerprint-deduplicated (defensively — :func:`expand_sweep`
    already dedupes) and packed by :func:`pack_batches`; each batch of
    two or more members runs through an :class:`EnsembleRunner`, while
    singletons run their solver directly (same fused kernels, no batch
    overhead). With ``out_dir`` set, every member gets a
    ``member-<fingerprint>.json`` manifest and the sweep a
    ``sweep_summary.json``. ``progress`` (e.g. ``print``) receives one
    line per completed batch.
    """
    unique: list[RunSpec] = []
    seen: set[str] = set()
    dropped = 0
    fps: dict[int, str] = {}
    for spec in specs:
        fp = spec.fingerprint()
        if fp in seen:
            dropped += 1
            continue
        seen.add(fp)
        fps[id(spec)] = fp
        unique.append(spec)
    problem = unique[0].kind if unique else "?"
    result = SweepResult(problem=problem, steps=int(steps),
                         duplicates_dropped=dropped)
    out_path = None
    if out_dir is not None:
        out_path = Path(out_dir)
        out_path.mkdir(parents=True, exist_ok=True)
    t_sweep = time.perf_counter()
    for bi, chunk in enumerate(pack_batches(unique, max_batch=max_batch)):
        solvers = [build_sweep_member(s, backend=backend) for s in chunk]
        t0 = time.perf_counter()
        if len(solvers) == 1:
            solvers[0].run(int(steps))
            runner = None
        else:
            runner = EnsembleRunner(solvers)
            runner.run(int(steps))
        wall = time.perf_counter() - t0
        fluid = [int(s.domain.n_fluid) for s in solvers]
        agg = (sum(fluid) * steps / wall / 1e6) if wall > 0 else 0.0
        result.batches.append({
            "batch": bi,
            "kind": chunk[0].kind,
            "scheme": chunk[0].scheme,
            "lattice": chunk[0].lattice,
            "shape": list(chunk[0].shape),
            "size": len(solvers),
            "batched": runner is not None,
            "wall_s": wall,
            "mlups": agg,
        })
        for spec, solver, nf in zip(chunk, solvers, fluid):
            fp = fps[id(spec)]
            mlups = (nf * steps / wall / 1e6) if wall > 0 else 0.0
            row = {
                "fingerprint": fp,
                "kind": spec.kind,
                "scheme": spec.scheme,
                "lattice": spec.lattice,
                "shape": list(spec.shape),
                "tau": spec.tau,
                "options": dict(spec.options),
                "batch": bi,
                "steps": int(steps),
                "mlups": mlups,
                "max_speed": solver.diagnostics.max_speed(),
            }
            result.members.append(row)
            if out_path is not None:
                write_manifest(out_path / f"member-{fp}.json", solver,
                               kind=spec.kind, fingerprint=fp, batch=bi,
                               mlups=mlups, u_max=spec.options.get("u_max"))
        if progress is not None:
            progress(f"batch {bi}: {len(solvers)} x {chunk[0].scheme} "
                     f"{chunk[0].lattice} {tuple(chunk[0].shape)} — "
                     f"{agg:.2f} MLUPS aggregate ({wall:.3f} s)")
    result.wall_s = time.perf_counter() - t_sweep
    if out_path is not None:
        result.write(out_path / "sweep_summary.json")
    return result
