"""Run manifests: reproducibility metadata written alongside outputs.

A :class:`RunManifest` captures everything needed to re-run (or audit) a
simulation whose fields/checkpoint live next to it on disk: the run's
record (:func:`repro.spec.run_record`: scheme, lattice, grid shape,
relaxation time, problem fingerprint, kind, rank count, backend and
accel), the step count, package version and the host platform.
Manifests are plain JSON so any tool can read them, and every writer
builds one the same way (:meth:`RunManifest.from_identity`): ``mrlbm run
--manifest``, every checkpoint step directory, every sealed job
directory and every sweep member.
"""

from __future__ import annotations

import json
import platform as _platform
import sys
import time
from dataclasses import asdict, dataclass, field
from pathlib import Path

__all__ = ["RunManifest", "load_manifest", "manifest_path_for"]


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
    steps: int | None = None
    version: str = ""
    platform: dict = field(default_factory=dict)
    created_unix: float = 0.0
    extra: dict = field(default_factory=dict)

    @classmethod
    def from_identity(cls, record: dict, step: int,
                      **results) -> "RunManifest":
        """The manifest of a run's ``record`` after ``step`` steps.

        ``record`` is :func:`repro.spec.run_record`'s (or a bare
        :func:`~repro.spec.problem_identity`): the problem and where it
        steps, no live solver, so a resume on any path validates against
        it. Its fingerprint, kind and path land in :attr:`extra`, with
        ``results`` — what only the writer knows (``wall_s``, ``mlups``,
        ``blas_threads``, ``accel_path``, ``job_key``); a ``None`` result
        is left out.
        """
        from .. import __version__

        core = ("scheme", "lattice", "shape", "tau")
        return cls(
            *(record[k] for k in core),
            steps=int(step),
            version=__version__,
            platform=_platform_info(),
            created_unix=time.time(),
            extra={**{k: v for k, v in record.items() if k not in core},
                   **{k: v for k, v in results.items() if v is not None}},
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


def load_manifest(path: str | Path) -> RunManifest:
    """Load a manifest JSON back into a :class:`RunManifest`."""
    data = json.loads(Path(path).read_text(encoding="utf-8"))
    data["shape"] = tuple(data.get("shape", ()))
    known = {f for f in RunManifest.__dataclass_fields__}
    kwargs = {k: v for k, v in data.items() if k in known}
    return RunManifest(**kwargs)
