"""Standard single-speed lattice velocity sets.

The paper evaluates the two most common single-speed lattices, D2Q9 and
D3Q19 (Section 4), and names single-speed D3Q27 as future work (Section 5).
We provide all of these plus D1Q3 (useful for unit tests) and D3Q15, each
with the classical Qian-d'Humieres-Lallemand weights and ``cs2 = 1/3``.

Velocity ordering convention: rest velocity first, then axis velocities,
then diagonals — grouped by speed shell. Within a shell the ordering is
lexicographic; bounce-back code uses the ``opposite`` table rather than any
positional convention, so the ordering is an implementation detail.

The sets are plain Python values (:func:`velocity_set`,
:func:`lattice_info`), so a run spec checks a lattice name, dimension and
reach without numpy; a :class:`~repro.lattice.descriptor.LatticeDescriptor`
is built on the first :func:`get_lattice` of each lattice.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    from .descriptor import LatticeDescriptor

__all__ = ["get_lattice", "available_lattices", "lattice_info",
           "LatticeInfo", "D2Q9", "D3Q19", "D3Q27", "D3Q15", "D1Q3", "D3Q39"]

#: A velocity set: ``(c, w, cs2)`` — velocities, weights, sound speed².
VelocitySet = tuple[tuple[tuple[int, ...], ...], tuple[float, ...], float]


def _shells(d: int, shells: dict[int, float], keep=None) -> tuple[list[list[int]], list[float]]:
    """Enumerate velocities by squared-speed shell with per-shell weights."""
    velocities: list[list[int]] = []
    weights: list[float] = []
    for speed2 in sorted(shells):
        for v in itertools.product((0, 1, -1), repeat=d):
            if sum(x * x for x in v) == speed2 and (keep is None or keep(v)):
                velocities.append(list(v))
                weights.append(shells[speed2])
    return velocities, weights


def _d1q3():
    return [[0], [1], [-1]], [2.0 / 3.0, 1.0 / 6.0, 1.0 / 6.0], 1.0 / 3.0


def _d2q9():
    return (*_shells(2, {0: 4.0 / 9.0, 1: 1.0 / 9.0, 2: 1.0 / 36.0}),
            1.0 / 3.0)


def _d3q15():
    return (*_shells(3, {0: 2.0 / 9.0, 1: 1.0 / 9.0, 3: 1.0 / 72.0}),
            1.0 / 3.0)


def _d3q19():
    return (*_shells(3, {0: 1.0 / 3.0, 1: 1.0 / 18.0, 2: 1.0 / 36.0}),
            1.0 / 3.0)


def _d3q27():
    return (*_shells(3, {0: 8.0 / 27.0, 1: 2.0 / 27.0, 2: 1.0 / 54.0,
                         3: 1.0 / 216.0}), 1.0 / 3.0)


def _d3q39():
    """Multi-speed D3Q39 (Shan-Yuan-Chen 2006), cs2 = 2/3.

    Shells: rest; (1,0,0); (1,1,1); (2,0,0); (2,2,0); (3,0,0). The paper's
    Section 5 names multi-speed lattices like D3Q39 as future work because
    their B/F is usually prohibitive — which is exactly where the moment
    representation helps most (B/F drops from 2*39*8 to 2*10*8).
    """
    velocities: list[list[int]] = [[0, 0, 0]]
    weights: list[float] = [1.0 / 12.0]
    shells = [
        (1, (1, 0, 0), 1.0 / 12.0),
        (3, (1, 1, 1), 1.0 / 27.0),
        (4, (2, 0, 0), 2.0 / 135.0),
        (8, (2, 2, 0), 1.0 / 432.0),
        (9, (3, 0, 0), 1.0 / 1620.0),
    ]
    for speed2, proto, w in shells:
        shape = sorted(abs(x) for x in proto)
        for v in itertools.product((0, 1, -1, 2, -2, 3, -3), repeat=3):
            if (sum(x * x for x in v) == speed2
                    and sorted(abs(x) for x in v) == shape):
                velocities.append(list(v))
                weights.append(w)
    return velocities, weights, 2.0 / 3.0


_SETS = {
    "D1Q3": _d1q3,
    "D2Q9": _d2q9,
    "D3Q15": _d3q15,
    "D3Q19": _d3q19,
    "D3Q27": _d3q27,
    "D3Q39": _d3q39,
}


def _key(name: str) -> str:
    """The canonical (upper-case) name; ``ValueError`` for an unknown one."""
    key = name.upper()
    if key not in _SETS:
        raise ValueError(
            f"unknown lattice {name!r}; available: {sorted(_SETS)}")
    return key


@lru_cache(maxsize=None)
def velocity_set(name: str) -> VelocitySet:
    """The velocities, weights and ``cs2`` of a named lattice, as plain
    Python values (case-insensitive; ``ValueError`` for an unknown name)."""
    c, w, cs2 = _SETS[_key(name)]()
    return tuple(tuple(v) for v in c), tuple(w), cs2


@dataclass(frozen=True)
class LatticeInfo:
    """What a run spec checks of a lattice, read off its velocity set:
    the canonical ``name``, the dimension ``d`` and the ``reach`` (largest
    ``|c_ia|``) — no descriptor is built and numpy is not imported."""

    name: str
    d: int
    reach: int


def lattice_info(name: str) -> LatticeInfo:
    """The :class:`LatticeInfo` of a named lattice (``ValueError`` for an
    unknown name, in :func:`get_lattice`'s words)."""
    c = velocity_set(name)[0]
    return LatticeInfo(_key(name), len(c[0]),
                       max(abs(x) for v in c for x in v))


@lru_cache(maxsize=None)
def _cached_build(key: str) -> LatticeDescriptor:
    from .descriptor import build_descriptor

    c, w, cs2 = velocity_set(key)
    return build_descriptor(key, c, w, cs2=cs2)


def get_lattice(name: str) -> LatticeDescriptor:
    """Return the (cached, immutable) descriptor for a named lattice.

    Lookup is case-insensitive and always returns the same singleton,
    built (with numpy) on the first call for that lattice.

    >>> lat = get_lattice("D2Q9")
    >>> lat.q, lat.d, lat.n_moments
    (9, 2, 6)
    """
    return _cached_build(_key(name))


def available_lattices() -> list[str]:
    """Names of all built-in lattices."""
    return sorted(_SETS)


def __getattr__(name: str):
    """The module-level singletons ``D2Q9``, ``D3Q19``, ... — each built
    on first access, not at import."""
    if name in _SETS:
        return get_lattice(name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
