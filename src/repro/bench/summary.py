"""Headline-claim regeneration (E7-E9): footprints, speedups, intensity.

* E7 — Section 4.1 footprint claim: 15M fluid points need ~2 GB (ST) vs
  ~1.3 GB (MR) for D2Q9 and ~4.2 GB vs ~2.23 GB for D3Q19 (1 GB = 2^30 B),
  i.e. reductions of ~35% (2D) and ~47% (3D).
* E8 — Section 5 speedups of MR-P over ST: 1.32x / 1.38x for D2Q9 and
  1.46x / 1.14x for D3Q19 on V100 / MI100.
* E9 — Section 4.2 arithmetic-intensity claim (MR-R ~60% above MR-P on
  V100 D2Q9) and the Section 4.3 MR-R penalties (~800 / ~700 MFLUPS on
  D3Q19).
"""

from __future__ import annotations

from ..gpu.device import MI100, V100
from ..lattice import get_lattice
from ..perf import (
    PerformanceModel,
    arithmetic_intensity,
    memory_reduction,
    state_gib,
)
from .figures import _mr_tile
from .measure import measure_channel_traffic
from .tables import _plateau_shape

__all__ = ["footprint_summary", "speedup_summary", "intensity_summary"]

PAPER_FOOTPRINT = {
    ("D2Q9", "ST"): 2.0, ("D2Q9", "MR"): 1.3,
    ("D3Q19", "ST"): 4.2, ("D3Q19", "MR"): 2.23,
}
PAPER_SPEEDUP = {
    ("V100", "D2Q9"): 1.32, ("MI100", "D2Q9"): 1.38,
    ("V100", "D3Q19"): 1.46, ("MI100", "D3Q19"): 1.14,
}
PAPER_MRR_PENALTY = {"V100": 800.0, "MI100": 700.0}


def footprint_summary(n_nodes: int = 15_000_000) -> list[dict]:
    """E7: memory footprints at the paper's 15M-node example size."""
    rows = []
    for lname in ("D2Q9", "D3Q19"):
        lat = get_lattice(lname)
        for scheme in ("ST", "MR"):
            rows.append({
                "lattice": lname,
                "scheme": scheme,
                "gib": state_gib(lat, scheme, n_nodes),
                "paper_gb": PAPER_FOOTPRINT[(lname, scheme)],
            })
        rows.append({
            "lattice": lname,
            "scheme": "reduction",
            "gib": memory_reduction(lat),
            "paper_gb": 0.35 if lname == "D2Q9" else 0.47,
        })
    return rows


def _plateau_mflups(device, lattice: str, scheme: str) -> float:
    lat = get_lattice(lattice)
    tile, w_t = _mr_tile(lat.d)
    pm = PerformanceModel(device)
    meas = measure_channel_traffic(scheme, lattice, device.name)
    pred = pm.predict_shape(
        lat, scheme, _plateau_shape(lat.d),
        tile_cross=tile if scheme != "ST" else None,
        w_t=w_t if scheme != "ST" else 1,
        bytes_per_node=meas.dram_bytes_per_node,
    )
    return pred.mflups


def speedup_summary() -> list[dict]:
    """E8: MR-P over ST speedups at saturated sizes, vs the paper's."""
    rows = []
    for dev in (V100, MI100):
        for lname in ("D2Q9", "D3Q19"):
            st = _plateau_mflups(dev, lname, "ST")
            mrp = _plateau_mflups(dev, lname, "MR-P")
            rows.append({
                "device": dev.name,
                "lattice": lname,
                "st_mflups": st,
                "mrp_mflups": mrp,
                "speedup": mrp / st,
                "paper_speedup": PAPER_SPEEDUP[(dev.name, lname)],
            })
    return rows


def intensity_summary() -> dict:
    """E9: arithmetic-intensity ratio (D2Q9) and MR-R penalties (D3Q19)."""
    d2 = get_lattice("D2Q9")
    tile2, _ = _mr_tile(2)
    ai_ratio = (arithmetic_intensity(d2, "MR-R", tile2)
                / arithmetic_intensity(d2, "MR-P", tile2))
    penalties = {}
    for dev in (V100, MI100):
        mrp = _plateau_mflups(dev, "D3Q19", "MR-P")
        mrr = _plateau_mflups(dev, "D3Q19", "MR-R")
        penalties[dev.name] = {
            "mrp": mrp,
            "mrr": mrr,
            "penalty": mrp - mrr,
            "paper_penalty": PAPER_MRR_PENALTY[dev.name],
        }
    return {
        "ai_ratio_d2q9": ai_ratio,
        "paper_ai_ratio": 1.6,   # "almost 60% higher"
        "d3q19_penalties": penalties,
    }
