"""Parameter sweeps: the engine behind ``mrlbm sweep``.

A sweep is a grid of single-domain runs. :func:`expand_sweep` turns a
parameter grid into :class:`~repro.parallel.runtime.RunSpec` records
(fingerprint-deduped, each naming the ``fused`` backend it runs on), and
:func:`run_sweep` builds and steps every member alone on the in-process
launcher of ``mrlbm run`` (:func:`repro.loop.launch`) — the solver and
step of its own single-domain run, bit for bit — recording the member's
own wall time and MLUPS, with a manifest per member and a sweep summary.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Sequence

from .loop import launch
from .obs.manifest import RunManifest
from .parallel.runtime import RunSpec
from .service.registry import build_single, sweep_kinds

__all__ = [
    "SWEEP_PROBLEMS",
    "expand_sweep",
    "run_sweep",
    "SweepResult",
]

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
    (``kind`` is the sweep problem name, ``n_ranks=1``, ``accel`` is
    ``"fused"``, ``u_max`` in ``options``); members whose
    :meth:`RunSpec.fingerprint` collides with an earlier one are
    dropped. Returns ``(specs, n_duplicates)``; an empty grid is refused.
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
                                       options={"u_max": float(u_max)},
                                       accel="fused")
                        fp = spec.fingerprint()
                        if fp in seen:
                            dropped += 1
                            continue
                        seen.add(fp)
                        specs.append(spec)
    if not specs:
        raise ValueError("the sweep grid is empty")
    return specs, dropped


@dataclass
class SweepResult:
    """Outcome of :func:`run_sweep`.

    ``members`` holds one record per executed member (scheme, lattice,
    shape, tau, options, fingerprint, steps, its own stepping ``wall_s``
    and MLUPS, final max speed); ``duplicates_dropped`` the members
    removed by fingerprint dedupe before execution; ``wall_s`` the whole
    sweep, builds included.
    """

    problem: str
    steps: int
    members: list[dict] = field(default_factory=list)
    duplicates_dropped: int = 0
    wall_s: float = 0.0

    def to_dict(self) -> dict:
        """JSON-serializable summary.

        ``aggregate_mlups`` is every member's node updates over the
        members' summed stepping time.
        """
        stepping = sum(row["wall_s"] for row in self.members)
        updates = sum(row["mlups"] * row["wall_s"] for row in self.members)
        return {
            "problem": self.problem,
            "steps": self.steps,
            "n_members": len(self.members),
            "duplicates_dropped": self.duplicates_dropped,
            "wall_s": self.wall_s,
            "aggregate_mlups": updates / stepping if stepping > 0 else 0.0,
            "members": self.members,
        }

    def write(self, path: str | Path) -> Path:
        """Write the summary JSON to ``path`` (returns the path)."""
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(self.to_dict(), indent=2) + "\n",
                        encoding="utf-8")
        return path


def run_sweep(specs: Sequence[RunSpec], steps: int,
              out_dir: str | Path | None = None,
              progress: Callable[[str], None] | None = None) -> SweepResult:
    """Execute a sweep: every member a single-domain run, one after another.

    Specs are fingerprint-deduplicated (defensively — :func:`expand_sweep`
    already dedupes) and must be of a sweepable kind; each member is
    built by the registry (:func:`repro.service.registry.build_single`)
    on ``spec.accel`` and stepped alone by :func:`repro.loop.launch`, so
    it ends bit for bit where its own run of the same spec ends. With
    ``out_dir`` set, every member gets a ``member-<fingerprint>.json``
    manifest and the sweep a ``sweep_summary.json``. ``progress`` (e.g.
    ``print``) receives one line per completed member.
    """
    unique: list[tuple[RunSpec, str]] = []
    seen: set[str] = set()
    for spec in specs:
        if spec.kind not in SWEEP_PROBLEMS:
            raise ValueError(f"unknown sweep problem kind {spec.kind!r}; "
                             f"expected one of {SWEEP_PROBLEMS}")
        fp = spec.fingerprint()
        if fp not in seen:
            seen.add(fp)
            unique.append((spec, fp))
    if not unique:
        raise ValueError("a sweep needs at least one member")
    result = SweepResult(problem=unique[0][0].kind, steps=int(steps),
                         duplicates_dropped=len(specs) - len(unique))
    out_path = None
    if out_dir is not None:
        out_path = Path(out_dir)
        out_path.mkdir(parents=True, exist_ok=True)
    t_sweep = time.perf_counter()
    for spec, fp in unique:
        solver = build_single(spec.kind, spec.scheme, spec.lattice,
                              tuple(spec.shape), tau=spec.tau,
                              backend=spec.accel, **spec.options)
        record = spec.record("single")
        *_, wall, mlups = launch(solver, record, int(steps))
        result.members.append({
            "fingerprint": fp,
            "kind": spec.kind,
            "scheme": spec.scheme,
            "lattice": spec.lattice,
            "shape": list(spec.shape),
            "tau": spec.tau,
            "options": dict(spec.options),
            "steps": int(steps),
            "wall_s": wall,
            "mlups": mlups,
            "max_speed": solver.diagnostics.max_speed(),
        })
        if out_path is not None:
            RunManifest.from_identity(
                record, steps, wall_s=wall, mlups=mlups,
                accel_path=solver.accel_path,
            ).write(out_path / f"member-{fp}.json")
        if progress is not None:
            progress(f"{spec.scheme:6s} {spec.lattice:6s} "
                     f"{str(tuple(spec.shape)):>12s} tau={spec.tau:<5g} "
                     f"u_max={spec.options.get('u_max', 0.0):<6g} -> "
                     f"{mlups:7.2f} MLUPS ({wall:.3f} s) [{fp}]")
    result.wall_s = time.perf_counter() - t_sweep
    if out_path is not None:
        result.write(out_path / "sweep_summary.json")
    return result
