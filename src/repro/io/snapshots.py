"""Simulation snapshot output: NumPy archives and legacy VTK.

:func:`save_archive` is the one ``.npz`` writer of the package — field
snapshots, single-domain checkpoints, distributed rank slabs and the job
server's sealed results all go through it, uncompressed (zlib over
float64 fields ran at 16 MB/s to save two thirds of a file written
once) and atomically (a crash mid-write never leaves a torn file under
the final name), and streamed: a member is written in pieces of at
most :data:`_BLOCK` bytes, never as one member-sized ``bytes`` (NumPy's
own writer makes pieces of 16 MB). ``np.load`` reads compressed archives
of earlier versions unchanged. The VTK legacy writer produces STRUCTURED_POINTS
files loadable by ParaView/VisIt for the examples.
"""

from __future__ import annotations

import io
import os
import zipfile
from pathlib import Path

import numpy as np
from numpy.lib import format as npy

__all__ = ["save_archive", "save_fields", "load_fields", "write_vtk"]

#: Largest piece of array data :func:`save_archive` copies at a time.
_BLOCK = 1 << 20


def _write_npy(fh, array: np.ndarray) -> None:
    """Write ``array`` as the bytes ``np.save`` would, data in pieces.

    The version 1.0 header, then the data in the header's order; a piece
    is at most :data:`_BLOCK` bytes, a view of the array where that is
    contiguous and a copy where it is not.
    """
    if array.dtype.hasobject or array.dtype.kind not in "biufcmMSUV":
        npy.write_array(fh, array, version=(1, 0))    # pickled, as np.save
        return
    header = npy.header_data_from_array_1_0(array)
    npy.write_array_header_1_0(fh, header)
    for piece in np.nditer(
            array, flags=["external_loop", "buffered", "zerosize_ok"],
            buffersize=max(_BLOCK // max(array.itemsize, 1), 1),
            order="F" if header["fortran_order"] else "C"):
        fh.write(np.ascontiguousarray(piece).view(np.uint8))


def save_archive(path: str | Path, **arrays) -> Path:
    """Atomically write ``arrays`` to an uncompressed ``.npz`` archive.

    The archive is written under a temporary name in the target
    directory (created when missing) and moved into place with
    ``os.replace``, so readers see the previous file or the complete new
    one, never a torn one; a failed write removes its temporary. Every
    member holds the bytes ``np.savez`` would write, and as with it
    ``.npz`` is appended to a name that lacks it. Returns the path
    written.
    """
    path = Path(path)
    if path.suffix != ".npz":
        path = path.with_name(path.name + ".npz")
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(f".{path.name}.tmp")
    try:
        with open(tmp, "wb") as fh, \
                zipfile.ZipFile(fh, "w", allowZip64=True) as archive:
            for name, value in arrays.items():
                # as np.savez does: stored, zip64 forced (numpy gh-10776)
                with archive.open(f"{name}.npy", "w",
                                  force_zip64=True) as member:
                    _write_npy(member, np.asanyarray(value))
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise
    return path


def save_fields(path: str | Path, rho: np.ndarray, u: np.ndarray,
                time: int = 0, **extra: np.ndarray) -> Path:
    """Save macroscopic fields (plus arbitrary extras) to an ``.npz``."""
    return save_archive(path, rho=rho, u=u, time=np.asarray(time), **extra)


def load_fields(path: str | Path) -> dict[str, np.ndarray]:
    """Load a snapshot written by :func:`save_fields`."""
    with np.load(Path(path)) as data:
        return {k: data[k] for k in data.files}


def write_vtk(path: str | Path, rho: np.ndarray, u: np.ndarray,
              title: str = "repro LBM snapshot") -> Path:
    """Write macroscopic fields as a legacy-VTK STRUCTURED_POINTS file.

    Handles 2D (written as a one-cell-thick 3D grid) and 3D fields; data
    are emitted in the x-fastest order VTK expects.
    """
    rho = np.asarray(rho)
    u = np.asarray(u)
    d = rho.ndim
    if d not in (2, 3):
        raise ValueError(f"rho must be 2D or 3D, got {d}D")
    if u.shape != (d, *rho.shape):
        raise ValueError(f"u must have shape {(d, *rho.shape)}, got {u.shape}")
    dims = rho.shape + (1,) * (3 - d)
    n = rho.size

    buf = io.StringIO()
    buf.write("# vtk DataFile Version 3.0\n")
    buf.write(title[:255] + "\n")
    buf.write("ASCII\nDATASET STRUCTURED_POINTS\n")
    buf.write(f"DIMENSIONS {dims[0]} {dims[1]} {dims[2]}\n")
    buf.write("ORIGIN 0 0 0\nSPACING 1 1 1\n")
    buf.write(f"POINT_DATA {n}\n")

    buf.write("SCALARS density double 1\nLOOKUP_TABLE default\n")
    for v in rho.ravel(order="F"):
        buf.write(f"{v:.10g}\n")

    buf.write("VECTORS velocity double\n")
    ux = u[0].ravel(order="F")
    uy = u[1].ravel(order="F")
    uz = u[2].ravel(order="F") if d == 3 else np.zeros(n)
    for a, b, c in zip(ux, uy, uz):
        buf.write(f"{a:.10g} {b:.10g} {c:.10g}\n")

    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(buf.getvalue())
    return path
