"""Reference solvers for the three paper schemes (ST, MR-P, MR-R)."""

from .aa import AASolver
from .base import Solver, SolverDiagnostics, check_inputs
from .moment import MRPSolver, MRRSolver
from .non_newtonian import (
    PowerLawMRPSolver,
    power_law_force,
    power_law_poiseuille_profile,
)
from .monitors import (
    ConvergenceMonitor,
    EnergyMonitor,
    EnstrophyMonitor,
    ForceMonitor,
    Monitor,
    Monitors,
    ProbeMonitor,
)
from .presets import SCHEMES, make_solver
from .standard import STSolver

__all__ = [
    "Solver",
    "SolverDiagnostics",
    "check_inputs",
    "STSolver",
    "AASolver",
    "MRPSolver",
    "MRRSolver",
    "PowerLawMRPSolver",
    "power_law_force",
    "power_law_poiseuille_profile",
    "SCHEMES",
    "make_solver",
    "Monitor",
    "Monitors",
    "EnergyMonitor",
    "EnstrophyMonitor",
    "ProbeMonitor",
    "ForceMonitor",
    "ConvergenceMonitor",
]
