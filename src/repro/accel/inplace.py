"""Single-lattice in-place streaming cores (the ``"aa"`` backend).

The AA pattern (Bailey; the reference :class:`repro.solver.aa.AASolver`
and the memory-traffic model in ``docs/ALGORITHMS.md``) streams a single
lattice in place by alternating two step flavours. This module brings it
into the backend seam as an array-level realization that stays
*collide-identical* to the fused cores:

:class:`InplaceSTCore` keeps one persistent lattice and alternates an
even step that leaves the relaxed populations *pre-streamed* with an odd
step that therefore needs no streaming pass at all — one propagation
traversal per step *pair* (the class docstring has the state convention).

The moment representation needs no core of its own here: its persistent
state is the moment field, and the sliding-window step of
:class:`~repro.accel.fused.FusedMRCore` never holds a whole distribution
lattice, so ``"aa"`` steps MR problems with that core.

``path`` names the variant the core runs: ``"lean"`` (boundary-free)
or ``"bounded"`` (also any core once it is stepped without a clock).

At odd times the lean ST state is stored component-shifted ("AA
layout"); :func:`natural_to_aa` / :func:`aa_to_natural` are the exact
permutations between it and the natural layout that checkpoints
(:mod:`repro.io.checkpoint`, always natural) and the odd-parity
:meth:`repro.solver.standard.STSolver.macroscopic` go through.
"""

from __future__ import annotations

import numpy as np

from ..core.streaming import stream_push
from ..lattice import LatticeDescriptor
from ..obs.telemetry import NULL_TELEMETRY
from .fused import FusedSTCore

__all__ = [
    "InplaceSTCore",
    "natural_to_aa",
    "aa_to_natural",
]


def natural_to_aa(lat: LatticeDescriptor, f: np.ndarray) -> np.ndarray:
    """Natural post-collision state -> component-shifted AA layout.

    ``out[i] = roll(f[i], +c_i)`` — the pull-stream displacement applied
    eagerly, i.e. exactly the array the lean even-parity step of
    :class:`InplaceSTCore` leaves behind. Pure permutation per
    component, hence bit-exact and inverted by :func:`aa_to_natural`.
    """
    out = np.empty_like(f)
    stream_push(lat, f, out=out)
    return out


def aa_to_natural(lat: LatticeDescriptor, f: np.ndarray) -> np.ndarray:
    """Component-shifted AA layout -> natural state (inverse roll).

    ``out[i] = roll(f[i], -c_i)``, undoing :func:`natural_to_aa`
    exactly. Used to canonicalize odd-time checkpoints and to evaluate
    macroscopic fields at odd parity without mutating the solver state.
    """
    axes = tuple(range(f.ndim - 1))
    out = np.empty_like(f)
    for i in range(lat.q):
        out[i] = np.roll(f[i], shift=tuple(-lat.c[i]), axis=axes)
    return out


class InplaceSTCore(FusedSTCore):
    """Single-lattice AA-pattern ST step (BGK, optional Guo forcing).

    Subclasses :class:`~repro.accel.fused.FusedSTCore`, so every path
    relaxes through the same chunked ``_relax`` body and the lean steps
    only change where the relaxed populations land. State convention on
    the ``"lean"`` path (``time`` = steps completed):

    * even ``time``: ``f`` holds the natural post-collision lattice —
      bit-identical to the fused state;
    * odd ``time``: ``f`` holds the *pre-streamed* next input,
      ``f[i] = roll(f_nat[i], +c_i)`` (AA layout).

    The parity comes from the owner's clock (``step(..., time=)``), so
    checkpoint/resume at any parity only restores the clock. The
    ``"bounded"`` path — chosen at construction when boundary objects
    are present — is the inherited one-slab step against the core-owned
    scratch. An owner that passes no clock (a distributed rank, whose
    halo exchange needs the natural layout after every step) moves the
    core to ``"bounded"`` for good; ``path`` reports the step taken.
    """

    #: one persistent lattice on every path (the scratch is the core's)
    state_lattices = 1
    #: the pre-streaming scatter needs the whole relaxed lattice at once
    _slides = False

    def step(self, f: np.ndarray, boundaries=(), tel=None,
             force: np.ndarray | None = None, tau_field=None,
             time: int | None = None) -> None:
        """Advance the single persistent lattice ``f`` one step in place.

        Lean even step (natural ``f_t`` -> AA-layout ``f_{t+1}``): stream
        into core scratch, relax there, then block-copy the result back
        shifted by ``+c_i``, pre-streaming the next step (relaxing through
        the strided destination views measured slower everywhere; see
        ``docs/ALGORITHMS.md``). Lean odd step (AA layout -> natural
        ``f_{t+2}``): the array already holds the streamed input, so the
        step is one in-place collision — the AA pattern's saved pass.
        """
        if time is None:
            self.path = "bounded"
        if self.path != "lean":
            super().step(f, boundaries, tel, force=force)
            return
        tel = NULL_TELEMETRY if tel is None else tel
        if time % 2:
            with tel.phase("collide"):
                self._relax(f, f, force)
                self._pin(self._flat(f, self.lat.q))
            return
        scratch = self._window()[2][0]
        with tel.phase("stream:gather"):
            self._stream(f, scratch)
        with tel.phase("collide"):
            self._relax(scratch, scratch, force)
            self._pin(self._flat(scratch, self.lat.q))
        with tel.phase("stream:scatter"):
            self._stream(scratch, f)
