"""The batch axis: one kernel invocation, N simulations.

On small and medium domains the per-step cost of the fused fast path is
fixed Python dispatch — the regime of parameter sweeps and ensembles:
*many independent small simulations*. The fused kernels of
:mod:`repro.accel.fused` are batch-polymorphic: given a ``(B,)`` vector
of relaxation times they size every buffer ``(B, C, N)``, the dgemms
broadcast ``(M, Q) @ (B, Q, N)`` and each member keeps its own ``τ_k``
through ``(B, 1, 1)`` prefactor columns. This module adds only what a
batch axis genuinely changes:

* **streaming** is one flat gather — the
  :class:`~repro.accel.tables.NeighborTable` indices applied to the
  ``(B, Q·N)`` view in a single ``np.take``. A single simulation copies
  wrap blocks (contiguous slices beat the indexed gather on every host
  measured); with a batch axis the gather amortizes its index pass over
  all members where block copies would pay ``B x Q x 2^D`` dispatches;
* **boundary hooks** are per-member state (objects bound to
  member-specific τ/profiles), so they run member by member on array
  views — an ``O(surface)`` loop riding on ``O(volume)`` batched stages.

Per-member arithmetic is that of the single-simulation cores on the
member's contiguous block, so every member reproduces its independent
fused run bit for bit (``tests/property/test_conformance.py``'s rule).
Lattice, grid shape and solid geometry are shared across a batch;
``tau_field`` and ``tau_bulk`` stay single-simulation features. The
solver-facing driver is :class:`repro.ensemble.EnsembleRunner`; solvers
opt in through ``batched: True`` in their ``accel_caps``.
"""

from __future__ import annotations

import numpy as np

from .fused import FusedMRCore, FusedSTCore
from .tables import neighbor_table

__all__ = ["BatchedFusedSTCore", "BatchedFusedMRCore"]


def _as_taus(taus, batch: int | None = None) -> np.ndarray:
    """Validate and normalize the per-member relaxation times ``(B,)``."""
    arr = np.atleast_1d(np.asarray(taus, dtype=np.float64))
    if arr.ndim != 1 or arr.size == 0:
        raise ValueError(f"taus must be a non-empty 1-D sequence, got "
                         f"shape {arr.shape}")
    if batch is not None and arr.size != batch:
        raise ValueError(f"expected {batch} relaxation times, got {arr.size}")
    if (arr <= 0.5).any():
        raise ValueError(f"every tau must exceed 1/2, got {arr}")
    return arr


class _BatchAxis:
    """Streaming and boundary hooks over ``(B, Q, *grid)`` fields."""

    def __init__(self, lat, shape: tuple[int, ...], taus, **kwargs):
        self.taus = _as_taus(taus)
        self.batch = int(self.taus.size)
        self._table = neighbor_table(lat, tuple(shape))
        super().__init__(lat, shape, self.taus, **kwargs)

    def _gather(self, plan, f: np.ndarray, out: np.ndarray) -> None:
        """One flat table gather streams the ensemble (no block ``plan``)."""
        # mode="clip" is semantically a no-op (the table indices are
        # in-range by construction) but skips NumPy's bounce-buffer
        # path for out= takes — measurably faster on large batches.
        np.take(f.reshape(self.batch, -1), self._table.flat, axis=1,
                out=out.reshape(self.batch, -1), mode="clip")

    def _apply(self, hook: str, boundaries, f_new: np.ndarray,
               f_src: np.ndarray) -> None:
        """Run one boundary hook member by member on array views.

        ``boundaries`` is a sequence of ``B`` per-member boundary lists
        (``None`` or empty: no boundaries anywhere).
        """
        if not boundaries:
            return
        if len(boundaries) != self.batch:
            raise ValueError(f"expected {self.batch} per-member boundary "
                             f"lists, got {len(boundaries)}")
        for k, blist in enumerate(boundaries):
            for b in blist or ():
                getattr(b, hook)(self.lat, f_new[k], f_src[k])


class BatchedFusedSTCore(_BatchAxis, FusedSTCore):
    """:class:`FusedSTCore` over ``f[B, Q, *grid]`` with per-member ``τ_k``.

    ``step(f, boundaries, tel, force=)`` takes ``B`` per-member boundary
    lists and an optional ``(B, D, *grid)`` force (all members forced,
    or none); the solid mask is the shared geometry.
    """


class BatchedFusedMRCore(_BatchAxis, FusedMRCore):
    """:class:`FusedMRCore` over ``m[B, M, *grid]`` with per-member ``τ_k``.

    Same calling convention as :class:`BatchedFusedSTCore`; per-node
    ``tau_field`` collision and the ``tau_bulk`` trace split are not
    batched (see the module docstring).
    """
