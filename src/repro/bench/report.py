"""One-shot reproduction report: every table, figure and claim in one file.

``mrlbm report --output report.md`` regenerates the paper's full
evaluation section (with kernel-measured traffic and the calibrated
model), renders it as markdown with paper-vs-ours columns, and optionally
drops the SVG figures next to it.
"""

from __future__ import annotations

import io
from pathlib import Path

__all__ = ["build_report", "write_report"]


def _md_table(headers: list[str], rows: list[list]) -> str:
    out = ["| " + " | ".join(headers) + " |",
           "|" + "|".join("---" for _ in headers) + "|"]
    for r in rows:
        out.append("| " + " | ".join(str(c) for c in r) + " |")
    return "\n".join(out)


def build_report(include_figures: bool = True) -> str:
    """Assemble the full markdown report (regenerates all measurements)."""
    from . import (
        figure2_d2q9,
        figure3_d3q19,
        footprint_summary,
        intensity_summary,
        speedup_summary,
        table1_devices,
        table2_bytes_per_flup,
        table3_roofline,
        table4_bandwidth,
    )

    buf = io.StringIO()
    w = buf.write
    w("# Reproduction report\n\n")
    w("*Moment Representation of Regularized Lattice Boltzmann Methods on "
      "NVIDIA and AMD GPUs* (Valero-Lara, Vetter, Gounley, Randles — SC 2023)\n\n")
    w("All traffic numbers below are measured by executing the paper's "
      "Algorithms 1-2 on the virtual-GPU substrate; throughput comes from "
      "the calibrated performance model (see docs/PERFMODEL.md for what is "
      "measured vs fitted).\n\n")

    # Table 1.
    t1 = table1_devices()
    w("## Table 1 — device features\n\n")
    w(_md_table(t1["headers"], t1["rows"]))
    w("\n\n")

    # Table 2.
    w("## Table 2 — bytes per fluid lattice update\n\n")
    rows = [[r["pattern"], r["formula"], r["D2Q9"],
             r["D2Q9_measured"], r["D3Q19"], r["D3Q19_measured"]]
            for r in table2_bytes_per_flup()["rows"]]
    w(_md_table(["Pattern", "B/F", "D2Q9 (paper)", "D2Q9 (measured)",
                 "D3Q19 (paper)", "D3Q19 (measured)"], rows))
    w("\n\n")

    # Table 3.
    w("## Table 3 — roofline MFLUPS (Eq. 15)\n\n")
    rows = [[r["pattern"]] + [f"{r[(d, l)]:,.0f}"
            for d in ("V100", "MI100") for l in ("D2Q9", "D3Q19")]
            for r in table3_roofline()["rows"]]
    w(_md_table(["Model", "V100 D2Q9", "V100 D3Q19",
                 "MI100 D2Q9", "MI100 D3Q19"], rows))
    w("\n\n")

    # Table 4.
    w("## Table 4 — sustained bandwidth\n\n")
    rows = [[r["device"], r["pattern"],
             f"{r['D2Q9']:.0f} GB/s ({r['D2Q9_fraction']:.0%})",
             f"{r['D3Q19']:.0f} GB/s ({r['D3Q19_fraction']:.0%})"]
            for r in table4_bandwidth()["rows"]]
    w(_md_table(["GPU", "Model", "D2Q9", "D3Q19"], rows))
    w("\n\n")

    # Figures.
    if include_figures:
        from .figures import render_figure_text

        for title, fn in (("Figure 2 — D2Q9", figure2_d2q9),
                          ("Figure 3 — D3Q19", figure3_d3q19)):
            w(f"## {title} (MFLUPS vs problem size)\n\n```\n")
            w(render_figure_text(fn()))
            w("\n```\n\n")

    # Footprint.
    w("## Memory footprint at 15M fluid nodes (Section 4.1)\n\n")
    rows = []
    for r in footprint_summary():
        if r["scheme"] == "reduction":
            rows.append([r["lattice"], "reduction", f"{r['gib']:.1%}",
                         f"~{r['paper_gb']:.0%}"])
        else:
            rows.append([r["lattice"], r["scheme"], f"{r['gib']:.2f} GiB",
                         f"~{r['paper_gb']} GB"])
    w(_md_table(["lattice", "scheme", "ours", "paper"], rows))
    w("\n\n")

    # Speedups.
    w("## Headline speedups (Section 5)\n\n")
    rows = [[r["device"], r["lattice"], f"{r['st_mflups']:,.0f}",
             f"{r['mrp_mflups']:,.0f}", f"{r['speedup']:.2f}x",
             f"{r['paper_speedup']}x"] for r in speedup_summary()]
    w(_md_table(["device", "lattice", "ST", "MR-P", "ours", "paper"], rows))
    w("\n\n")

    # MR-R cost.
    s = intensity_summary()
    w("## Recursive-regularization cost (Sections 4.2-4.3)\n\n")
    rows = [["D2Q9 arithmetic-intensity ratio MR-R/MR-P",
             f"{s['ai_ratio_d2q9']:.2f}", f"~{s['paper_ai_ratio']}"]]
    for dev, v in s["d3q19_penalties"].items():
        rows.append([f"{dev} D3Q19 MR-R penalty",
                     f"{v['penalty']:.0f} MFLUPS",
                     f"~{v['paper_penalty']:.0f} MFLUPS"])
    w(_md_table(["quantity", "ours", "paper"], rows))
    w("\n")
    return buf.getvalue()


def write_report(path: str | Path, svg_dir: str | Path | None = None) -> Path:
    """Write the markdown report; optionally drop the SVG figures too."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(build_report())
    if svg_dir is not None:
        from . import figure2_d2q9, figure3_d3q19, figure_to_svg

        svg_dir = Path(svg_dir)
        svg_dir.mkdir(parents=True, exist_ok=True)
        (svg_dir / "figure2_d2q9.svg").write_text(
            figure_to_svg(figure2_d2q9(), "Figure 2 - D2Q9 performance"))
        (svg_dir / "figure3_d3q19.svg").write_text(
            figure_to_svg(figure3_d3q19(), "Figure 3 - D3Q19 performance"))
    return path
