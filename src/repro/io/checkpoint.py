"""Checkpoint/resume: one on-disk format for every way a run steps.

Checkpoints capture the minimal persistent state of each scheme: the
current distribution lattice for ST, the moment field for MR-P/MR-R —
which is itself a nice demonstration of the paper's compression claim
(an MR checkpoint of the same simulation is ``M/Q`` the size). A
solver that relaxes with the previous step's field (the power-law
kind's ``tau_field``) adds that field: it is state too.

A single domain, an emulated cohort and the ranks of
:mod:`repro.parallel.runtime` all write the same *per-run checkpoint
directory*, at the checkpoint steps of their run loop
(:func:`repro.loop.run_loop`)::

    ckpt/
      step-00000040/
        rank0000.npz        # one interior slab per rank (f or m payload);
        rank0001.npz        # a single domain writes one, [0, nx)
        manifest.json       # RunManifest of the run record, at this step
        COMPLETE            # written last, after every rank file

Every writer saves its slabs (:func:`save_slabs`) and one of them seals
the step (:func:`seal_checkpoint`: manifest, ``COMPLETE``, prune); the
run loop's sink that does both is :func:`checkpoint_sink`. A step
directory without its ``COMPLETE`` marker is a torn checkpoint (a writer
died mid-write) and is never resumed from. Every reader finds and
validates its checkpoint with :func:`resolve_resume` and fills its slabs
with :func:`load_slabs`. Rank files hold the *interior* planes only —
ghost planes are filled from the neighbouring files on restore, and are
overwritten by the first halo exchange of the resumed run before any
kernel reads them, so restarts are bit-exact on any path and any rank
count: :func:`read_slab` copies the planes a slab of the (possibly
different) new decomposition holds out of the rank files that hold them.
"""

from __future__ import annotations

import json
import shutil
import warnings
from pathlib import Path

import numpy as np

from ..obs.manifest import RunManifest
from .snapshots import save_archive

__all__ = [
    "checkpoint_step_dir",
    "checkpoint_step",
    "save_rank_slab",
    "save_slabs",
    "seal_checkpoint",
    "checkpoint_sink",
    "is_checkpoint_complete",
    "latest_checkpoint",
    "prune_checkpoints",
    "load_manifest_for_resume",
    "resolve_resume",
    "read_slab",
    "load_slabs",
    "validate_checkpoint_manifest",
]

#: Marker file whose presence declares a step directory fully written.
COMPLETE_MARKER = "COMPLETE"
_STEP_PREFIX = "step-"
#: The keys of a run record a resume validates: the problem identity.
_IDENTITY = ("scheme", "lattice", "shape", "tau", "fingerprint",
             "fingerprint_version")


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
                   lattice: str, tau_field: np.ndarray | None = None) -> Path:
    """Atomically write one rank's interior slab into a step directory.

    ``field`` is the rank's ``(C, width, *rest)`` interior payload
    (populations for ST, moments for MR), ``tau_field`` its relaxation
    field if it steps with one, ``[start, stop)`` its global axis-0
    bounds. :func:`~repro.io.snapshots.save_archive` keeps a crash
    mid-write from leaving a plausible-looking but torn rank file.
    """
    extra = {} if tau_field is None else {"tau_field": tau_field}
    return save_archive(
        Path(step_dir) / f"rank{rank:04d}.npz", field=field,
        start=np.asarray(start), stop=np.asarray(stop),
        rank=np.asarray(rank), step=np.asarray(step),
        scheme=np.asarray(scheme), lattice=np.asarray(lattice), **extra)


def _state(solver) -> np.ndarray:
    """A solver's persistent state array: ``f`` for ST, ``m`` for MR (the
    rule of :meth:`~repro.parallel.decomposition.DistributedSolver.field`)."""
    return solver.f if solver.name == "ST" else solver.m


def _slabs(solver, ranks=None) -> list:
    """``(rank, its solver, its owned state planes, its global start, the
    global planes its state holds)`` of each rank of an emulated cohort
    (``ranks``, default all) — or of a single domain, a one-slab cohort."""
    if not hasattr(solver, "decomp"):
        return [(0, solver, slice(None), 0,
                 np.arange(solver.domain.shape[0]))]
    decomp, nx = solver.decomp, solver.decomp.global_shape[0]
    return [(r, solver.rank(r), solver.interior(r), decomp.bounds(r)[0],
             np.arange(nx)[decomp.ghosted(r)])
            for r in (range(decomp.n_ranks) if ranks is None else ranks)]


def save_slabs(root: str | Path, step: int, solver, ranks=None) -> Path:
    """Write the rank files of ``solver`` after ``step`` steps: a single
    domain's one, ``[0, nx)``, with its ``tau_field`` if it has one, or
    one per rank in ``ranks`` (default all) of a
    :class:`~repro.parallel.decomposition.DistributedSolver`. Returns the
    step directory, for :func:`seal_checkpoint` to seal."""
    step_dir = checkpoint_step_dir(root, step)
    for r, rank, owned, start, _ in _slabs(solver, ranks):
        field, tau = _state(rank)[:, owned], getattr(rank, "tau_field", None)
        save_rank_slab(step_dir, r, field, start=start,
                       stop=start + field.shape[1], step=step,
                       scheme=rank.name, lattice=rank.lat.name,
                       tau_field=None if tau is None else tau[owned])
    return step_dir


def seal_checkpoint(root: str | Path, step: int, record: dict,
                    keep: int = 2) -> Path:
    """Seal the step directory of ``step`` once every rank file is in it:
    the manifest of the run's ``record`` (:func:`repro.spec.run_record`),
    then ``COMPLETE``, then prune all but the newest ``keep`` snapshots
    of that problem. Returns the step directory."""
    step_dir = checkpoint_step_dir(root, step)
    RunManifest.from_identity(record, step).write(step_dir / "manifest.json")
    (step_dir / COMPLETE_MARKER).write_text("ok\n", encoding="utf-8")
    prune_checkpoints(root, keep=keep, fingerprint=record["fingerprint"])
    return step_dir


def checkpoint_sink(root: str | Path, solver, record: dict, keep: int = 2,
                    *, rank: int | None = None, barrier=None):
    """The run loop's checkpoint writer ``sink(at)``: :func:`save_slabs`
    (only ``rank``'s, when given), ``barrier()`` (a process rank: every
    file is on disk before rank 0 seals), :func:`seal_checkpoint`."""
    def sink(at: int) -> str:
        save_slabs(root, at, solver, None if rank is None else [rank])
        if barrier is not None:
            barrier()
        if not rank:
            seal_checkpoint(root, at, record, keep)
        return str(root)
    return sink


def is_checkpoint_complete(step_dir: str | Path) -> bool:
    """Whether a step directory carries its ``COMPLETE`` marker."""
    return (Path(step_dir) / COMPLETE_MARKER).is_file()


def _step_dirs(root: Path) -> list[Path]:
    """Checkpoint step directories under ``root``, oldest first."""
    found = root.glob(f"{_STEP_PREFIX}*") if root.is_dir() else ()
    return sorted((d for d in found if d.is_dir()
                   and d.name[len(_STEP_PREFIX):].isdigit()),
                  key=checkpoint_step)


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
    return next((d for d in reversed(_step_dirs(root))
                 if is_checkpoint_complete(d)), None)


def _fingerprint(step_dir: Path) -> str | None:
    """The problem fingerprint a complete step's manifest records."""
    try:
        return load_manifest_for_resume(step_dir)["extra"].get("fingerprint")
    except (OSError, ValueError, KeyError, AttributeError):
        return None


def prune_checkpoints(root: str | Path, keep: int = 2, *,
                      fingerprint: str) -> list[Path]:
    """Delete all but the newest ``keep`` complete step directories of
    the problem ``fingerprint``: in a reused directory, another
    problem's snapshots are not this run's to delete.

    Torn directories older than the newest complete one kept are deleted
    too (they can never be resumed from). Returns the removed paths.
    """
    steps = _step_dirs(Path(root))
    complete = [d for d in steps if is_checkpoint_complete(d)
                and _fingerprint(d) == fingerprint]
    survivors = {d.name for d in complete[-max(int(keep), 1):]}
    newest = checkpoint_step(complete[-1]) if complete else -1
    removed = [d for d in steps if d.name not in survivors and (
        d in complete or (not is_checkpoint_complete(d)
                          and checkpoint_step(d) < newest))]
    for step_dir in removed:
        shutil.rmtree(step_dir, ignore_errors=True)
    return removed


def _complete(step_dir: str | Path) -> Path:
    """``step_dir``; ``FileNotFoundError`` unless it is sealed."""
    if not is_checkpoint_complete(step_dir):
        raise FileNotFoundError(
            f"{step_dir} is not a complete checkpoint (no "
            f"{COMPLETE_MARKER} marker; the writing run may have died "
            "mid-checkpoint)")
    return Path(step_dir)


def load_manifest_for_resume(step_dir: str | Path) -> dict:
    """Read just the manifest dict of a complete step directory."""
    return json.loads((_complete(step_dir) / "manifest.json").read_text(
        encoding="utf-8"))


def _rank_files(step_dir: Path, extent: int) -> list[tuple[Path, int, int]]:
    """``(path, start, stop)`` of every rank file of a complete step
    directory, in axis-0 order, read from the files' small members only.

    Raises ``FileNotFoundError`` for a missing/torn directory and
    ``ValueError`` when the files do not tile axis 0 from plane 0 up to
    ``extent``.
    """
    files = []
    for path in _complete(step_dir).glob("rank*.npz"):
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
    if stop != extent:
        raise ValueError(f"rank files cover axis 0 up to {stop}, global "
                         f"extent is {extent}")
    return [entry[1:] for entry in sorted(files)]


def resolve_resume(where: str | Path, n_steps: int,
                   record: dict) -> tuple[Path, int]:
    """Find, validate and step the checkpoint a run resumes from.

    ``where`` is one step directory or a checkpoint root, of which the
    newest complete step of the run's ``record``
    (:func:`~repro.spec.run_record`) fingerprint is taken — or, without
    one, its newest complete step. Returns ``(step_dir, start_step)``;
    raises ``FileNotFoundError`` when no complete checkpoint exists and
    ``ValueError`` when the manifest is incompatible with the run or the
    checkpoint already reached ``n_steps``.
    """
    own = [d for d in _step_dirs(Path(where)) if is_checkpoint_complete(d)
           and _fingerprint(d) == record["fingerprint"]]
    found = own[-1] if own else latest_checkpoint(where)
    if found is None:
        raise FileNotFoundError(
            f"no complete checkpoint under {str(where)!r} to resume from")
    validate_checkpoint_manifest(load_manifest_for_resume(found), **{
        k: record[k] for k in _IDENTITY})
    start_step = checkpoint_step(found)
    if start_step >= int(n_steps):
        raise ValueError(
            f"checkpoint {found} is at step {start_step}, which already "
            f"reaches the requested total of {n_steps} steps")
    return found, start_step


def read_slab(step_dir: str | Path, planes: np.ndarray, out: np.ndarray,
              extent: int, tau_field: np.ndarray | None = None) -> None:
    """Fill ``out`` with the global axis-0 ``planes`` of a checkpoint
    whose rank files tile ``[0, extent)`` (the resumed run's ``nx``).

    ``out`` is a ``(C, len(planes), *rest)`` state array — a single
    domain's whole lattice (``planes`` is ``arange(nx)``) or a rank's
    ghosted slab of the *resumed* run's decomposition, which need not
    match the one that wrote the checkpoint; ``tau_field``, when given,
    gets the same planes of the saved relaxation field. Only the rank
    files holding some of the planes are loaded, one at a time, and only
    those planes are copied, so a resume holds the slab plus one rank
    file whatever the two rank counts. Ghost planes get the neighbours'
    values (wrapping when periodic); the first halo exchange overwrites
    them, but starting finite keeps watchdogs and diagnostics sane.
    """
    for path, start, stop in _rank_files(Path(step_dir), extent):
        wanted = [(k, g - start) for k, g in enumerate(planes)
                  if start <= g < stop]
        if wanted:
            with np.load(path) as data:
                field = data["field"]
                tau = None if tau_field is None else data["tau_field"]
            for k, row in wanted:
                out[:, k] = field[:, row]
                if tau is not None:
                    tau_field[k] = tau[row]
            del field, tau          # before the next file is loaded


def load_slabs(step_dir: str | Path, solver, ranks=None) -> None:
    """Fill the state of ``solver`` — a single domain, or the ranks of a
    cohort in ``ranks`` (default all) — from a complete step directory
    (:func:`read_slab`); the step count is the caller's to set."""
    extent = (solver.global_domain if hasattr(solver, "decomp")
              else solver.domain).shape[0]
    for _, rank, _, _, planes in _slabs(solver, ranks):
        read_slab(step_dir, planes, _state(rank), extent,
                  getattr(rank, "tau_field", None))


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
