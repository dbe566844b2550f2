"""Domain descriptions: node-type fields and standard geometries.

The paper's proxy applications simulate flow in a rectangular 2D or 3D
channel with bounce-back walls and finite-difference velocity boundaries at
the inlet and outlet (Section 4). :class:`Domain` captures the node
classification on a Cartesian grid; factory functions below build the
channel plus a few classical test geometries (periodic box, lid-driven
cavity, cylinder obstacle).

Node types
----------
``FLUID``    bulk fluid node, full collide + stream.
``SOLID``    wall node; half-way bounce-back happens on the links between
             fluid and solid nodes, the solid node values themselves are
             never used.
``INLET``    velocity boundary node (prescribed velocity).
``OUTLET``   pressure boundary node (prescribed density).

Inlet/outlet nodes are treated as fluid by streaming; their populations are
reconstructed each step by the boundary condition objects.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "FLUID",
    "SOLID",
    "INLET",
    "OUTLET",
    "Domain",
    "periodic_box",
    "channel_2d",
    "channel_3d",
    "lid_driven_cavity",
    "cylinder_in_channel",
    "cylinder_channel_domain",
    "porous_medium",
]

FLUID: int = 0
SOLID: int = 1
INLET: int = 2
OUTLET: int = 3


@dataclass(frozen=True)
class Domain:
    """A Cartesian grid with a node classification.

    ``node_type`` has dtype int8 and shape ``shape``; the convenience masks
    are computed lazily and cached.
    """

    node_type: np.ndarray
    _masks: dict = field(default_factory=dict, compare=False, repr=False)

    def __post_init__(self) -> None:
        nt = np.ascontiguousarray(self.node_type, dtype=np.int8)
        nt.setflags(write=False)
        object.__setattr__(self, "node_type", nt)

    @property
    def shape(self) -> tuple[int, ...]:
        return self.node_type.shape

    @property
    def ndim(self) -> int:
        return self.node_type.ndim

    def mask(self, kind: int) -> np.ndarray:
        """Boolean mask of nodes with the given type (cached)."""
        if kind not in self._masks:
            m = self.node_type == kind
            m.setflags(write=False)
            self._masks[kind] = m
        return self._masks[kind]

    @property
    def fluid_mask(self) -> np.ndarray:
        """Nodes where the flow field is meaningful (fluid + inlet + outlet)."""
        key = "fluidlike"
        if key not in self._masks:
            m = self.node_type != SOLID
            m.setflags(write=False)
            self._masks[key] = m
        return self._masks[key]

    @property
    def solid_mask(self) -> np.ndarray:
        return self.mask(SOLID)

    @property
    def n_fluid(self) -> int:
        """Number of fluid-like nodes — the 'fluid lattice points' of the
        paper's MFLUPS metric."""
        return int(self.fluid_mask.sum())

    @property
    def n_nodes(self) -> int:
        return int(np.prod(self.shape))


def periodic_box(shape: tuple[int, ...]) -> Domain:
    """Fully periodic box of fluid nodes (no boundaries)."""
    return Domain(np.zeros(shape, dtype=np.int8))


def channel_2d(nx: int, ny: int, with_io: bool = True) -> Domain:
    """Rectangular 2D channel (the paper's 2D proxy application).

    Bounce-back walls on the two ``y`` extremes; inlet at ``x = 0`` and
    outlet at ``x = nx-1`` when ``with_io`` is true (otherwise the ``x``
    direction is left periodic, useful for body-force-driven Poiseuille
    validation).
    """
    if nx < 3 or ny < 3:
        raise ValueError(f"channel needs at least 3 nodes per direction, got {nx}x{ny}")
    nt = np.zeros((nx, ny), dtype=np.int8)
    nt[:, 0] = SOLID
    nt[:, -1] = SOLID
    if with_io:
        nt[0, 1:-1] = INLET
        nt[-1, 1:-1] = OUTLET
    return Domain(nt)


def channel_3d(nx: int, ny: int, nz: int, with_io: bool = True) -> Domain:
    """Rectangular 3D channel (the paper's 3D proxy application).

    Bounce-back walls on the ``y`` and ``z`` extremes (rectangular duct);
    inlet/outlet on the ``x`` extremes when ``with_io`` is true.
    """
    if min(nx, ny, nz) < 3:
        raise ValueError("channel needs at least 3 nodes per direction")
    nt = np.zeros((nx, ny, nz), dtype=np.int8)
    nt[:, 0, :] = SOLID
    nt[:, -1, :] = SOLID
    nt[:, :, 0] = SOLID
    nt[:, :, -1] = SOLID
    if with_io:
        nt[0, 1:-1, 1:-1] = INLET
        nt[-1, 1:-1, 1:-1] = OUTLET
    return Domain(nt)


def lid_driven_cavity(n: int, ndim: int = 2) -> Domain:
    """Closed square/cubic cavity; the moving lid is the ``y``-top plane.

    The lid nodes are SOLID — drive them with a moving-wall bounce-back
    boundary (:class:`repro.boundary.HalfwayBounceBack` with a wall
    velocity restricted to the lid plane).
    """
    if ndim == 2:
        nt = np.zeros((n, n), dtype=np.int8)
        nt[0, :] = SOLID
        nt[-1, :] = SOLID
        nt[:, 0] = SOLID
        nt[:, -1] = SOLID
    elif ndim == 3:
        nt = np.zeros((n, n, n), dtype=np.int8)
        for axis in range(3):
            sl_lo = [slice(None)] * 3
            sl_hi = [slice(None)] * 3
            sl_lo[axis] = 0
            sl_hi[axis] = -1
            nt[tuple(sl_lo)] = SOLID
            nt[tuple(sl_hi)] = SOLID
    else:
        raise ValueError(f"ndim must be 2 or 3, got {ndim}")
    return Domain(nt)


def cylinder_in_channel(nx: int, ny: int, cx: float, cy: float, radius: float,
                        with_io: bool = True) -> Domain:
    """2D channel with a circular obstacle (classical flow-past-cylinder)."""
    base = channel_2d(nx, ny, with_io=with_io)
    nt = np.array(base.node_type)
    x, y = np.meshgrid(np.arange(nx), np.arange(ny), indexing="ij")
    nt[(x - cx) ** 2 + (y - cy) ** 2 <= radius ** 2] = SOLID
    return Domain(nt)


def cylinder_channel_domain(lat, shape: tuple[int, ...],
                            radius: float | None = None) -> Domain:
    """Walled channel (no I/O planes) with a cylinder obstacle.

    The cylinder sits at ``x = nx/4`` on the channel centreline with
    default radius ``max(2, ny/8)``; in 3D (``lat.d == 3``) its axis
    spans ``z``. The deterministic placement means a
    :class:`~repro.parallel.RunSpec` rebuilds the identical mask on
    every rank.
    """
    if len(shape) != lat.d:
        raise ValueError(
            f"shape {shape} does not match lattice dimension {lat.d}")
    if radius is None:
        radius = max(2.0, shape[1] / 8.0)
    plane = cylinder_in_channel(shape[0], shape[1], shape[0] / 4.0,
                                (shape[1] - 1) / 2.0, float(radius),
                                with_io=False)
    if lat.d == 2:
        return plane
    nt = np.array(channel_3d(*shape, with_io=False).node_type)
    nt[plane.solid_mask] = SOLID        # the 2D mask, extruded along z
    return Domain(nt)


def porous_medium(shape: tuple[int, ...], solid_fraction: float = 0.85,
                  seed: int = 0) -> Domain:
    """Periodic random porous medium with a prescribed solid fraction.

    Each node is independently solid with probability ``solid_fraction``
    (seeded, so geometries are reproducible). The low-fluid-fraction
    regime is the home turf of the ``"sparse"`` backend — the benchmark
    suite uses this factory for its sparse-vs-dense cells — and the
    random microstructure drives the Darcy-flow integration tests.
    """
    if not 0.0 <= solid_fraction < 1.0:
        raise ValueError(
            f"solid_fraction must be in [0, 1), got {solid_fraction}"
        )
    rng = np.random.default_rng(seed)
    nt = np.where(rng.random(shape) < solid_fraction,
                  SOLID, FLUID).astype(np.int8)
    if (nt == SOLID).all():        # pragma: no cover - astronomically rare
        nt.flat[0] = FLUID
    return Domain(nt)
