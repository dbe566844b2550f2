"""Run manifests: reproducibility metadata written alongside outputs.

A :class:`RunManifest` captures everything needed to re-run (or audit) a
simulation whose fields/checkpoint live next to it on disk: scheme,
lattice, grid shape, relaxation time, RNG seed, package version and the
host platform. Manifests are plain JSON so any tool can read them, and
are written by the CLI (``mrlbm run --manifest``) and into every
checkpoint step directory and every sealed job directory.
"""

from __future__ import annotations

import json
import platform as _platform
import sys
import time
from dataclasses import asdict, dataclass, field
from pathlib import Path

__all__ = ["RunManifest", "write_manifest", "load_manifest", "manifest_path_for"]


def _platform_info() -> dict:
    import numpy as np

    return {
        "python": sys.version.split()[0],
        "implementation": _platform.python_implementation(),
        "system": _platform.system(),
        "machine": _platform.machine(),
        "numpy": np.__version__,
    }


@dataclass
class RunManifest:
    """Reproducibility metadata for one simulation run."""

    scheme: str
    lattice: str
    shape: tuple[int, ...]
    tau: float
    seed: int | None = None
    steps: int | None = None
    version: str = ""
    platform: dict = field(default_factory=dict)
    created_unix: float = 0.0
    extra: dict = field(default_factory=dict)

    @classmethod
    def from_solver(cls, solver, seed: int | None = None,
                    **extra) -> "RunManifest":
        """Build a manifest from a live solver (duck-typed: needs ``name``
        or ``scheme``, ``lat``, ``domain`` or ``global_domain``, ``tau``,
        ``time`` — so distributed solvers work too). A fast-path solver's
        step variant (``solver.accel_path``) lands in ``extra``."""
        from .. import __version__

        domain = getattr(solver, "domain", None)
        if domain is None:
            domain = solver.global_domain
        accel_path = getattr(solver, "accel_path", None)
        if accel_path is not None:
            extra = {"accel_path": accel_path, **extra}
        return cls(
            scheme=getattr(solver, "name", None) or solver.scheme,
            lattice=solver.lat.name,
            shape=tuple(domain.shape),
            tau=float(solver.tau),
            seed=seed,
            steps=int(solver.time),
            version=__version__,
            platform=_platform_info(),
            created_unix=time.time(),
            extra=dict(extra),
        )

    @classmethod
    def from_identity(cls, identity: dict, step: int,
                      **extra) -> "RunManifest":
        """Build a manifest from a problem identity after ``step`` steps.

        ``identity`` is :func:`repro.spec.problem_identity`'s:
        the problem alone (no live solver, no ``RunSpec``), so a resume on
        any path validates against this manifest. Its fingerprint and
        version, and ``extra`` (kind, rank count, ...), land in
        :attr:`extra`.
        """
        from .. import __version__

        core = ("scheme", "lattice", "shape", "tau")
        return cls(
            *(identity[k] for k in core),
            steps=int(step),
            version=__version__,
            platform=_platform_info(),
            created_unix=time.time(),
            extra={**{k: v for k, v in identity.items() if k not in core},
                   **extra},
        )

    def to_dict(self) -> dict:
        """JSON-serializable form (tuples become lists)."""
        d = asdict(self)
        d["shape"] = list(self.shape)
        return d

    def write(self, path: str | Path) -> Path:
        """Write the manifest as pretty-printed JSON; returns the path."""
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(self.to_dict(), indent=2, sort_keys=True)
                        + "\n", encoding="utf-8")
        return path


def manifest_path_for(output_path: str | Path) -> Path:
    """Conventional manifest location next to an output file:
    ``flow.npz`` → ``flow.manifest.json``."""
    p = Path(output_path)
    return p.with_name(p.stem + ".manifest.json")


def write_manifest(path: str | Path, solver, seed: int | None = None,
                   **extra) -> Path:
    """Write a manifest for ``solver`` to ``path`` (returns the path)."""
    return RunManifest.from_solver(solver, seed=seed, **extra).write(path)


def load_manifest(path: str | Path) -> RunManifest:
    """Load a manifest JSON back into a :class:`RunManifest`."""
    data = json.loads(Path(path).read_text(encoding="utf-8"))
    data["shape"] = tuple(data.get("shape", ()))
    known = {f for f in RunManifest.__dataclass_fields__}
    kwargs = {k: v for k, v in data.items() if k in known}
    return RunManifest(**kwargs)
