"""The one cache-blocking constant of the host code.

Whatever walks a lattice-sized field with more than a copy per node does
so over column blocks of :data:`_CHUNK` nodes, so its intermediates are
block-wide, live and die in cache, and are never allocated at lattice
size: the collide bodies and the sliding window of
:mod:`repro.accel.fused` every step, and the initial states of
:mod:`repro.core.equilibrium` once per build. A field of at most
``_CHUNK`` nodes is one block — the unblocked NumPy calls.
"""

from __future__ import annotations

__all__: list[str] = []

#: Nodes per block. Sized for the measured host (machine profile: L1
#: 48 KiB, L2 2 MiB per core): a collide body keeps about three
#: ``(Q, _CHUNK)`` blocks of doubles live (populations, equilibrium or
#: coefficients, moments + velocity), and on D3Q19 that is
#: ``3 x 19 x 4096 x 8 B = 1.8 MiB <= 2 MiB``.
_CHUNK = 4096

#: Chunks per window slab where one leading-axis plane is smaller than a
#: chunk. A slab costs a fixed ``Q x 2^(D-1)`` block copies and a few
#: dozen calls whatever its height, so one-chunk slabs of thin planes
#: (48 x 48: 56% of a chunk each) pay that once per 2,304 nodes; eight
#: chunks amortise it (measured flat from about five up, docs/
#: PERFORMANCE.md) while the window stays a few MB. A plane of a chunk
#: or more already is a slab and is not grouped.
_SLAB_CHUNKS = 8


def _blocks(n: int) -> list[slice]:
    """Column slices of at most ``_CHUNK`` nodes that cover ``range(n)``."""
    return [slice(c0, c0 + _CHUNK) for c0 in range(0, n, _CHUNK)]
