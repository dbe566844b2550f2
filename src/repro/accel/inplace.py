"""Single-lattice in-place streaming for ST (the ``"aa"`` backend).

The AA pattern (Bailey; Wittmann et al., PAPERS.md; the reference
:class:`repro.solver.aa.AASolver`; traffic model in
``docs/ALGORITHMS.md``) streams one lattice in place by alternating two
step flavours: an even step leaves the relaxed populations
*pre-streamed*, so the odd step that follows needs no streaming pass —
one propagation traversal per step *pair*. :class:`InplaceSTCore` is its
array-level realization, collide-identical to the fused core.

How an odd step is stored is this module's business alone: like the
compact arrays of :mod:`repro.accel.sparse`, the shifted lattice is a
core-private buffer state that :meth:`InplaceSTCore.sync` puts right
when somebody looks, so ``solver.f`` is natural on every backend at
every step. ``"aa"`` means the boundary-free ST pattern only:
:func:`repro.accel.make_core` steps walled ST and all MR problems with
the fused cores, whose windows hold one lattice / none.
"""

from __future__ import annotations

import numpy as np

from ..lattice import LatticeDescriptor
from ..obs.telemetry import NULL_TELEMETRY
from .fused import FusedSTCore

__all__ = ["InplaceSTCore"]


class InplaceSTCore(FusedSTCore):
    """Single-lattice AA-pattern ST step (BGK, optional Guo forcing).

    Every flavour relaxes the same streamed input through the inherited
    chunked ``_relax`` — bit-identical fields — and differs in where the
    result lands (``path`` reports the step taken):

    * *even* — natural ``f`` in, shifted out (``"lean"``);
    * *odd* — shifted in, one in-place collision, natural out
      (``"lean"``): the AA pattern's saved pass;
    * *natural* — the state was looked at since the last step (a rank's
      halo exchange, a monitor), so whoever looks keeps getting a natural
      lattice: the inherited one-slab step (``"bounded"``).
    """

    #: one persistent lattice on every path (the scratch is the core's)
    state_lattices = 1
    #: the pre-streaming scatter needs the whole relaxed lattice at once
    _slides = False
    #: ``f`` holds the pre-streamed next input, ``roll(f_nat[i], +c_i)``
    _shifted = False
    #: the state was handed out since the previous step
    _looked = False

    @staticmethod
    def carries(boundaries) -> bool:
        """Core protocol: the AA pattern steps no boundary list."""
        return not boundaries

    def __init__(self, lat: LatticeDescriptor, shape: tuple[int, ...], tau,
                 solid_mask: np.ndarray | None = None, boundaries=()):
        if not self.carries(boundaries):
            raise ValueError(
                "the AA pattern pre-streams a boundary-free lattice; "
                "make_core steps walled 'aa' problems with FusedSTCore")
        super().__init__(lat, shape, tau, solid_mask)

    def sync(self, f: np.ndarray, tel=NULL_TELEMETRY) -> None:
        """``f`` is being looked at: un-stream it if it is shifted (the
        pull plan run backwards into the scratch, one copy back: exact,
        no new buffer). The next step starts from what ``f`` then holds.
        """
        self._looked = True
        if self._shifted:
            _, (plan,), (scratch,) = self._window()
            with tel.phase("sync"):
                for dst, src in plan:
                    scratch[src] = f[dst]
                f[...] = scratch
            tel.count("syncs")
            self._shifted = False

    def step(self, f: np.ndarray, boundaries=(), tel=None,
             force: np.ndarray | None = None, tau_field=None) -> None:
        """Advance the single persistent lattice ``f`` one step in place.

        The even step streams into core scratch, relaxes there and
        block-copies the result back shifted by ``+c_i`` (relaxing
        through the strided destination views measured slower
        everywhere; see ``docs/ALGORITHMS.md``).
        """
        looked, self._looked = self._looked, False
        self.path = "bounded" if looked else "lean"
        if looked:
            super().step(f, boundaries, tel, force=force)
            return
        tel = NULL_TELEMETRY if tel is None else tel
        if self._shifted:
            with tel.phase("collide"):
                self._relax(f, f, force)
                self._pin(self._flat(f, self.lat.q))
            self._shifted = False
            return
        scratch = self._window()[2][0]
        with tel.phase("stream:gather"):
            self._stream(f, scratch)
        with tel.phase("collide"):
            self._relax(scratch, scratch, force)
            self._pin(self._flat(scratch, self.lat.q))
        with tel.phase("stream:scatter"):
            self._stream(scratch, f)
        self._shifted = True
