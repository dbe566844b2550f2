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
    write_manifest,
)
from .checkpoint import (
    checkpoint_step,
    checkpoint_step_dir,
    latest_checkpoint,
    load_distributed_checkpoint,
    load_rank_slab,
    prune_checkpoints,
    read_slab,
    restore_checkpoint,
    save_checkpoint,
    save_rank_slab,
    validate_checkpoint_manifest,
)
from .snapshots import load_fields, save_archive, save_fields, write_vtk

__all__ = [
    "save_archive",
    "save_fields",
    "load_fields",
    "write_vtk",
    "save_checkpoint",
    "restore_checkpoint",
    "checkpoint_step_dir",
    "checkpoint_step",
    "save_rank_slab",
    "load_rank_slab",
    "latest_checkpoint",
    "prune_checkpoints",
    "load_distributed_checkpoint",
    "read_slab",
    "validate_checkpoint_manifest",
    "RunManifest",
    "write_manifest",
    "load_manifest",
    "manifest_path_for",
]
