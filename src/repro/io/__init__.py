"""Snapshot and checkpoint I/O.

Run manifests (reproducibility metadata written alongside outputs and
checkpoints) live in :mod:`repro.obs.manifest`; the common entry points
are re-exported here because they travel with the files this package
writes.
"""

from ..obs.manifest import (
    RunManifest,
    load_manifest,
    manifest_path_for,
)
from .checkpoint import (
    checkpoint_step,
    checkpoint_step_dir,
    latest_checkpoint,
    load_slabs,
    prune_checkpoints,
    read_slab,
    resolve_resume,
    save_rank_slab,
    save_slabs,
    seal_checkpoint,
    validate_checkpoint_manifest,
)
from .snapshots import load_fields, save_archive, save_fields, write_vtk

__all__ = [
    "save_archive",
    "save_fields",
    "load_fields",
    "write_vtk",
    "checkpoint_step_dir",
    "checkpoint_step",
    "save_rank_slab",
    "save_slabs",
    "seal_checkpoint",
    "latest_checkpoint",
    "prune_checkpoints",
    "resolve_resume",
    "read_slab",
    "load_slabs",
    "validate_checkpoint_manifest",
    "RunManifest",
    "load_manifest",
    "manifest_path_for",
]
