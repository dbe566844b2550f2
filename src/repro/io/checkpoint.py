"""Checkpoint/restore for the reference and distributed solvers.

Checkpoints capture the minimal persistent state of each scheme: the
current distribution lattice for ST, the moment field for MR-P/MR-R —
which is itself a nice demonstration of the paper's compression claim
(an MR checkpoint of the same simulation is ``M/Q`` the size).

Single-domain checkpoints (:func:`save_checkpoint` /
:func:`restore_checkpoint`) are one ``.npz`` per run. Distributed runs
use a *per-run checkpoint directory* instead, written cooperatively by
the worker ranks of :mod:`repro.parallel.runtime` at barrier-aligned
steps::

    ckpt/
      step-00000040/
        rank0000.npz        # one interior slab per rank (f or m payload)
        rank0001.npz
        manifest.json       # RunManifest: scheme/lattice/shape/tau/step
        COMPLETE            # written last, by rank 0, after a barrier

A step directory without its ``COMPLETE`` marker is a torn checkpoint
(a rank died mid-write) and is never resumed from. Rank files hold the
*interior* planes only — ghost planes are filled from the neighbouring
files on restore, and are overwritten by the first halo exchange of the
resumed run before any kernel reads them, so restarts are bit-exact for
any rank count: :func:`read_slab` copies each slab of the (possibly
different) new decomposition out of the rank files that hold its planes.
"""

from __future__ import annotations

import json
import shutil
import warnings
from pathlib import Path

import numpy as np

from ..solver import MRPSolver, MRRSolver, Solver, STSolver
from .snapshots import save_archive

__all__ = [
    "save_checkpoint",
    "restore_checkpoint",
    "checkpoint_step_dir",
    "checkpoint_step",
    "save_rank_slab",
    "load_rank_slab",
    "mark_checkpoint_complete",
    "is_checkpoint_complete",
    "latest_checkpoint",
    "prune_checkpoints",
    "load_manifest_for_resume",
    "load_distributed_checkpoint",
    "read_slab",
    "validate_checkpoint_manifest",
]

#: Marker file whose presence declares a step directory fully written.
COMPLETE_MARKER = "COMPLETE"
_STEP_PREFIX = "step-"


def save_checkpoint(path: str | Path, solver: Solver,
                    manifest: bool = False, seed: int | None = None) -> Path:
    """Write the solver's persistent state to an ``.npz`` checkpoint.

    The state is ``f`` or ``m``, plus the relaxation field
    ``tau_field`` of a solver that relaxes with the previous step's.
    With ``manifest=True`` a :class:`~repro.obs.RunManifest` JSON (scheme,
    lattice, shape, tau, seed, package version, platform) is written next
    to the checkpoint at :func:`~repro.obs.manifest_path_for`'s location.
    """
    path = Path(path)
    if manifest:
        from ..obs.manifest import manifest_path_for, write_manifest

        write_manifest(manifest_path_for(path), solver, seed=seed,
                       artifact=path.name, kind="checkpoint")
    payload = {
        "scheme": np.asarray(solver.name),
        "lattice": np.asarray(solver.lat.name),
        "tau": np.asarray(solver.tau),
        "time": np.asarray(solver.time),
        "node_type": solver.domain.node_type,
    }
    if isinstance(solver, STSolver):
        payload["f"] = solver.f
    elif isinstance(solver, (MRPSolver, MRRSolver)):
        payload["m"] = solver.m
    else:  # pragma: no cover - future solvers
        raise TypeError(f"cannot checkpoint solver type {type(solver).__name__}")
    if getattr(solver, "tau_field", None) is not None:
        payload["tau_field"] = solver.tau_field
    return save_archive(path, **payload)


def restore_checkpoint(path: str | Path, solver: Solver) -> Solver:
    """Restore a checkpoint into a compatibly-constructed solver.

    The solver must have been built with the same scheme, lattice and
    domain (verified); tau and boundaries come from the constructor.
    """
    with np.load(Path(path)) as data:
        scheme = str(data["scheme"])
        lattice = str(data["lattice"])
        if scheme != solver.name:
            raise ValueError(f"checkpoint is for scheme {scheme}, solver is {solver.name}")
        if lattice != solver.lat.name:
            raise ValueError(f"checkpoint lattice {lattice} != solver {solver.lat.name}")
        if not np.array_equal(data["node_type"], solver.domain.node_type):
            raise ValueError("checkpoint domain does not match solver domain")
        solver.time = int(data["time"])
        if isinstance(solver, STSolver):
            solver.f[...] = data["f"]
        else:
            solver.m[...] = data["m"]
        if "tau_field" in data:
            solver.tau_field[...] = data["tau_field"]
    return solver


# -- distributed checkpoints ----------------------------------------------

def checkpoint_step_dir(root: str | Path, step: int) -> Path:
    """Directory of the checkpoint taken after ``step`` steps."""
    return Path(root) / f"{_STEP_PREFIX}{int(step):08d}"


def checkpoint_step(step_dir: str | Path) -> int:
    """Step number encoded in a checkpoint step directory's name."""
    name = Path(step_dir).name
    if not name.startswith(_STEP_PREFIX):
        raise ValueError(f"{name!r} is not a checkpoint step directory")
    return int(name[len(_STEP_PREFIX):])


def save_rank_slab(step_dir: str | Path, rank: int, field: np.ndarray, *,
                   start: int, stop: int, step: int, scheme: str,
                   lattice: str) -> Path:
    """Atomically write one rank's interior slab into a step directory.

    ``field`` is the rank's ``(C, width, *rest)`` interior payload
    (populations for ST, moments for MR); ``[start, stop)`` are its
    global axis-0 bounds. :func:`~repro.io.snapshots.save_archive` keeps
    a crash mid-write from leaving a plausible-looking but torn rank file.
    """
    return save_archive(
        Path(step_dir) / f"rank{rank:04d}.npz", field=field,
        start=np.asarray(start), stop=np.asarray(stop),
        rank=np.asarray(rank), step=np.asarray(step),
        scheme=np.asarray(scheme), lattice=np.asarray(lattice))


def load_rank_slab(path: str | Path) -> dict:
    """Load one rank slab file back into a plain dict."""
    with np.load(Path(path)) as data:
        return {
            "field": np.array(data["field"]),
            "start": int(data["start"]),
            "stop": int(data["stop"]),
            "rank": int(data["rank"]),
            "step": int(data["step"]),
            "scheme": str(data["scheme"]),
            "lattice": str(data["lattice"]),
        }


def mark_checkpoint_complete(step_dir: str | Path) -> Path:
    """Drop the ``COMPLETE`` marker declaring a step directory usable."""
    marker = Path(step_dir) / COMPLETE_MARKER
    marker.write_text("ok\n", encoding="utf-8")
    return marker


def is_checkpoint_complete(step_dir: str | Path) -> bool:
    """Whether a step directory carries its ``COMPLETE`` marker."""
    return (Path(step_dir) / COMPLETE_MARKER).is_file()


def _step_dirs(root: Path) -> list[Path]:
    """Checkpoint step directories under ``root``, oldest first."""
    if not root.is_dir():
        return []
    out = []
    for entry in root.iterdir():
        if entry.is_dir() and entry.name.startswith(_STEP_PREFIX):
            try:
                checkpoint_step(entry)
            except ValueError:
                continue
            out.append(entry)
    return sorted(out, key=checkpoint_step)


def latest_checkpoint(root: str | Path) -> Path | None:
    """Newest *complete* step directory under a checkpoint root.

    ``root`` may also be a step directory itself (it is returned when
    complete) — so CLI users can pass either the run's checkpoint
    directory or one specific snapshot. Torn (marker-less) directories
    are skipped; returns ``None`` when nothing usable exists.
    """
    root = Path(root)
    if root.name.startswith(_STEP_PREFIX) and root.is_dir():
        return root if is_checkpoint_complete(root) else None
    for step_dir in reversed(_step_dirs(root)):
        if is_checkpoint_complete(step_dir):
            return step_dir
    return None


def prune_checkpoints(root: str | Path, keep: int = 2) -> list[Path]:
    """Delete all but the newest ``keep`` complete step directories.

    Torn directories older than the newest complete one are deleted too
    (they can never be resumed from). Returns the removed paths.
    """
    complete = [d for d in _step_dirs(Path(root)) if is_checkpoint_complete(d)]
    survivors = {d.name for d in complete[-max(int(keep), 1):]}
    newest = checkpoint_step(complete[-1]) if complete else -1
    removed = []
    for step_dir in _step_dirs(Path(root)):
        torn = not is_checkpoint_complete(step_dir)
        if step_dir.name in survivors or (torn and
                                          checkpoint_step(step_dir) >= newest):
            continue
        shutil.rmtree(step_dir, ignore_errors=True)
        removed.append(step_dir)
    return removed


def load_manifest_for_resume(step_dir: str | Path) -> dict:
    """Read just the manifest dict of a complete step directory.

    The cheap validation path: the parent checks compatibility from the
    manifest alone and leaves loading the (much larger) rank slabs to
    the worker processes.
    """
    step_dir = Path(step_dir)
    if not is_checkpoint_complete(step_dir):
        raise FileNotFoundError(
            f"{step_dir} is not a complete checkpoint (no "
            f"{COMPLETE_MARKER} marker)")
    return json.loads((step_dir / "manifest.json").read_text(encoding="utf-8"))


def _rank_files(step_dir: Path, extent: int | None = None
                ) -> list[tuple[Path, int, int]]:
    """``(path, start, stop)`` of every rank file of a complete step
    directory, in axis-0 order, read from the files' small members only.

    Raises ``FileNotFoundError`` for a missing/torn directory and
    ``ValueError`` when the files do not tile axis 0 (up to ``extent``,
    when given).
    """
    if not is_checkpoint_complete(step_dir):
        raise FileNotFoundError(
            f"{step_dir} is not a complete checkpoint (no "
            f"{COMPLETE_MARKER} marker; the writing run may have died "
            "mid-checkpoint)")
    files = []
    for path in step_dir.glob("rank*.npz"):
        with np.load(path) as data:
            files.append((int(data["rank"]), path, int(data["start"]),
                          int(data["stop"])))
    if not files:
        raise ValueError(f"{step_dir} holds no rank slab files")
    stop = 0
    for rank, _, start, end in sorted(files):
        if start != stop:
            raise ValueError(
                f"rank files in {step_dir} do not tile the domain: rank "
                f"{rank} starts at {start}, expected {stop}")
        stop = end
    if extent is not None and stop != extent:
        raise ValueError(f"rank files cover axis 0 up to {stop}, global "
                         f"extent is {extent}")
    return [entry[1:] for entry in sorted(files)]


def load_distributed_checkpoint(step_dir: str | Path) -> tuple[dict, list[dict]]:
    """Load a complete step directory: ``(manifest dict, rank slabs)``.

    Raises ``FileNotFoundError`` for a missing/torn directory and
    ``ValueError`` when the rank files do not tile the global domain.
    """
    step_dir = Path(step_dir)
    files = _rank_files(step_dir)
    manifest = json.loads(
        (step_dir / "manifest.json").read_text(encoding="utf-8"))
    return manifest, [load_rank_slab(path) for path, _, _ in files]


def read_slab(step_dir: str | Path, decomp, rank: int,
              out: np.ndarray) -> None:
    """Fill ``out`` with rank ``rank``'s slab from a checkpoint.

    ``out`` is the rank's ghosted ``(C, planes, *rest)`` slab and
    ``decomp`` the :class:`~repro.parallel.decomposition.SlabDecomposition`
    of the *resumed* run — it need not match the one that wrote the
    checkpoint. Only the rank files holding some of the slab's planes
    are loaded, one at a time, and only those planes are copied, so a
    resume holds the slab plus one rank file whatever the two rank
    counts. Ghost planes get the neighbours' values (wrapping when
    periodic); the first halo exchange overwrites them, but starting
    finite keeps watchdogs and diagnostics sane.
    """
    extent = decomp.global_shape[0]
    planes = np.arange(extent)[decomp.ghosted(rank)]
    for path, start, stop in _rank_files(Path(step_dir), extent):
        wanted = [(k, g - start) for k, g in enumerate(planes)
                  if start <= g < stop]
        if wanted:
            with np.load(path) as data:
                field = data["field"]
            for k, row in wanted:
                out[:, k] = field[:, row]
            del field               # before the next file is loaded


def validate_checkpoint_manifest(manifest: dict, *, scheme: str, lattice: str,
                                 shape: tuple[int, ...], tau: float,
                                 fingerprint: str | None = None,
                                 fingerprint_version: int | None = None
                                 ) -> None:
    """Check a checkpoint manifest against the run that wants to resume it.

    Lattice, global shape, scheme and tau must match exactly (they
    change the trajectory); the rank count may differ (the field is
    re-sharded). A mismatched problem ``fingerprint`` — covering the
    problem kind and preset options — is also rejected, but only when
    the checkpoint was written under the same fingerprint encoding:
    when ``fingerprint_version`` is given and differs from the
    manifest's recorded version (absent = version 1, the pre-fix
    encoding), the digests are not comparable, so the comparison is
    skipped with a :class:`UserWarning` instead of failing spuriously.
    The field-by-field checks above still guard the resume.
    """
    problems = []
    if manifest.get("scheme") != scheme:
        problems.append(
            f"scheme: checkpoint {manifest.get('scheme')!r} != run {scheme!r}")
    if manifest.get("lattice") != lattice:
        problems.append(f"lattice: checkpoint {manifest.get('lattice')!r} "
                        f"!= run {lattice!r}")
    if tuple(manifest.get("shape", ())) != tuple(shape):
        problems.append(f"shape: checkpoint {tuple(manifest.get('shape', ()))}"
                        f" != run {tuple(shape)}")
    if manifest.get("tau") is not None and \
            float(manifest["tau"]) != float(tau):
        problems.append(f"tau: checkpoint {manifest['tau']} != run {tau}")
    extra = manifest.get("extra", {})
    saved_fp = extra.get("fingerprint")
    saved_version = extra.get("fingerprint_version", 1)
    if fingerprint is not None and saved_fp is not None:
        if (fingerprint_version is not None
                and saved_version != fingerprint_version):
            warnings.warn(
                f"checkpoint was written under fingerprint encoding "
                f"v{saved_version}, this run uses v{fingerprint_version}; "
                "skipping the problem-fingerprint comparison (scheme/"
                "lattice/shape/tau still validated). Re-checkpointing "
                "will record the current version." + (
                    " Kind defaults changed in v3: a distributed channel, "
                    "forced-channel or cylinder takes its single-domain "
                    "defaults; pass u_max, bc_method and outlet_tangential "
                    "explicitly to continue the same problem."
                    if saved_version < 3 else ""), UserWarning,
                stacklevel=2)
        elif saved_fp != fingerprint:
            problems.append("problem fingerprint differs (kind/options "
                            "changed since the checkpoint was written)")
    if problems:
        raise ValueError("checkpoint is incompatible with this run:\n  "
                         + "\n  ".join(problems))
