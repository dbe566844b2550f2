"""Analytic solutions, error norms and benchmark reference data for validation."""

from .cylinder import SCHAFER_TUREK, schafer_turek_tau, strouhal_number
from .analytic import (
    couette_profile,
    duct_profile,
    poiseuille_pressure_gradient,
    poiseuille_profile,
    taylor_green_decay_rate,
    taylor_green_fields,
    womersley_number,
    womersley_profile,
)
from .norms import kinetic_energy, l2_error, linf_error, relative_l2_error

__all__ = [
    "poiseuille_profile",
    "couette_profile",
    "womersley_profile",
    "womersley_number",
    "duct_profile",
    "poiseuille_pressure_gradient",
    "taylor_green_fields",
    "taylor_green_decay_rate",
    "l2_error",
    "linf_error",
    "relative_l2_error",
    "kinetic_energy",
    "SCHAFER_TUREK",
    "schafer_turek_tau",
    "strouhal_number",
]
