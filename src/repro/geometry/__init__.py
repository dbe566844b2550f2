"""Domains, node classifications and standard benchmark geometries."""

from .domain import (
    FLUID,
    INLET,
    OUTLET,
    SOLID,
    Domain,
    channel_2d,
    channel_3d,
    cylinder_channel_domain,
    cylinder_in_channel,
    lid_driven_cavity,
    periodic_box,
    porous_medium,
)

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
