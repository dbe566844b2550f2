"""Performance models: roofline, footprint, flop counts, MFLUPS predictor."""

from .calibration import LAUNCH_OVERHEAD_S, bandwidth_efficiency, fp64_efficiency
from .flops import (
    arithmetic_intensity,
    flops_per_node,
    halo_factor,
    mrp_flops_per_node,
    mrr_flops_per_node,
    st_flops_per_node,
)
from .footprint import (
    circular_shift_state_bytes,
    max_problem_size,
    memory_reduction,
    state_bytes,
    state_gib,
    state_values_per_node,
)
from .model import PerformanceModel, Prediction, mr_launch_config, st_launch_config
from .sweep import TileCandidate, best_tile, enumerate_tiles, sweep_tiles
from .roofline import (
    bytes_per_flup,
    roofline_mflups,
    values_per_update,
)

__all__ = [
    "bandwidth_efficiency",
    "fp64_efficiency",
    "LAUNCH_OVERHEAD_S",
    "arithmetic_intensity",
    "flops_per_node",
    "halo_factor",
    "st_flops_per_node",
    "mrp_flops_per_node",
    "mrr_flops_per_node",
    "state_bytes",
    "state_gib",
    "state_values_per_node",
    "memory_reduction",
    "circular_shift_state_bytes",
    "max_problem_size",
    "PerformanceModel",
    "Prediction",
    "st_launch_config",
    "mr_launch_config",
    "bytes_per_flup",
    "values_per_update",
    "roofline_mflups",
    "TileCandidate",
    "enumerate_tiles",
    "sweep_tiles",
    "best_tile",
]
