"""Roofline performance model (paper Section 4.1, Eq. 15, Tables 2-3).

LBM is bandwidth-bound on GPUs, so the roofline collapses to

.. math::  MFLUPS_{max} = B_{BW} / (10^6 \\times B/F)

with ``B/F`` the bytes moved per fluid lattice update: ``2 Q x 8`` for the
two-lattice ST pattern and ``2 M x 8`` for the moment representation
(read + write of the full per-node state; Table 2).
"""

from __future__ import annotations

from ..gpu.device import GPUDevice
from ..lattice import LatticeDescriptor

__all__ = [
    "values_per_update",
    "bytes_per_flup",
    "roofline_mflups",
]

DOUBLE = 8


def _pattern_class(scheme: str) -> str:
    key = scheme.upper()
    if key in ("ST", "BGK", "STANDARD"):
        return "ST"
    if key in ("MR", "MR-P", "MR-R", "MRP", "MRR"):
        return "MR"
    raise ValueError(f"unknown scheme {scheme!r}")


def values_per_update(lat: LatticeDescriptor, scheme: str) -> int:
    """Doubles moved per lattice update: ``2Q`` (ST) or ``2M`` (MR)."""
    if _pattern_class(scheme) == "ST":
        return 2 * lat.q
    return 2 * lat.n_moments


def bytes_per_flup(lat: LatticeDescriptor, scheme: str) -> int:
    """The B/F of paper Table 2 (144/96 for D2Q9, 304/160 for D3Q19)."""
    return values_per_update(lat, scheme) * DOUBLE


def roofline_mflups(device: GPUDevice, lat: LatticeDescriptor, scheme: str) -> float:
    """Eq. 15: peak MFLUPS for a pattern on a device (paper Table 3)."""
    return device.bandwidth_bytes_per_s / (1e6 * bytes_per_flup(lat, scheme))

