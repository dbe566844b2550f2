"""Merging per-rank telemetry into one distributed-run report.

The multiprocess runtime (:mod:`repro.parallel.runtime`) gives every
worker its own :class:`~repro.obs.telemetry.Telemetry` registry; after a
run the parent holds one summary dict per rank. :func:`merge_rank_reports`
folds them into a single report: phase statistics aggregate across ranks
(calls and totals add, min/max widen), counters add, communication
accounting adds bytes and messages while keeping the lock-step ``steps``,
and MLUPS is derived both per rank and for the whole cohort (total
interior fluid nodes x steps over the slowest rank's wall time — the
barrier makes the slowest rank the cohort's pace).

The merged report also attributes *where the cohort's time went*
(``report["imbalance"]``): per-rank halo-exchange wait time (the barrier
phases of the SPMD loop), the share of each rank's step time spent
waiting, and the load-imbalance ratio (slowest rank wall time over the
mean). A high wait share with a ratio near 1 means the exchange itself is
expensive; a high wait share with a high ratio means one rank is the
straggler and the others wait for it at every barrier.

The merged report is what ``mrlbm run --backend process`` prints and what
``--metrics`` exports; ``docs/PARALLEL.md`` documents how to read it.
"""

from __future__ import annotations

from .telemetry import peak_rss_mb

__all__ = ["merge_rank_reports"]


def _merge_phases(summaries: list[dict]) -> dict:
    """Aggregate per-path phase statistics across rank summaries."""
    merged: dict[str, dict] = {}
    for summary in summaries:
        for path, stats in summary.get("phases", {}).items():
            agg = merged.setdefault(path, {
                "calls": 0, "total_s": 0.0, "min_s": float("inf"),
                "max_s": 0.0})
            agg["calls"] += stats.get("calls", 0)
            agg["total_s"] += stats.get("total_s", 0.0)
            agg["min_s"] = min(agg["min_s"], stats.get("min_s", float("inf")))
            agg["max_s"] = max(agg["max_s"], stats.get("max_s", 0.0))
    for agg in merged.values():
        calls = agg["calls"]
        agg["mean_s"] = agg["total_s"] / calls if calls else 0.0
        if agg["min_s"] == float("inf"):
            agg["min_s"] = 0.0
    return merged


def _rank_wait_s(rep: dict) -> float:
    """Halo-exchange wait seconds of one rank.

    Prefers the worker's explicit ``exchange_wait_s`` field; falls back
    to the ``step/barrier`` phase total in the rank's telemetry summary
    (the two barrier waits of the SPMD step are exactly the time this
    rank spent blocked on its siblings).
    """
    if "exchange_wait_s" in rep:
        return float(rep["exchange_wait_s"] or 0.0)
    phases = rep.get("summary", {}).get("phases", {})
    return float(phases.get("step/barrier", {}).get("total_s", 0.0))


def _imbalance(reports: list[dict]) -> dict:
    """Load-imbalance and exchange-wait attribution across ranks.

    All ratios degrade to 0/1 sentinels (never a ZeroDivisionError) on
    empty cohorts, missing ``wall_s`` or zero-step ranks.
    """
    walls = [float(rep.get("wall_s") or 0.0) for rep in reports]
    waits = [_rank_wait_s(rep) for rep in reports]
    total_wall = sum(walls)
    mean_wall = total_wall / len(walls) if walls else 0.0
    slowest = max(walls, default=0.0)
    per_rank = [
        {
            "rank": rep.get("rank"),
            "wall_s": wall,
            "exchange_wait_s": wait,
            "exchange_wait_share": (wait / wall) if wall > 0 else 0.0,
        }
        for rep, wall, wait in zip(reports, walls, waits)
    ]
    slowest_rank = None
    if walls and slowest > 0:
        slowest_rank = reports[walls.index(slowest)].get("rank")
    return {
        "wall_s_mean": mean_wall,
        "wall_s_slowest": slowest,
        "slowest_rank": slowest_rank,
        # slowest/mean: 1.0 is perfectly balanced; the barrier makes the
        # whole cohort pay (ratio - 1) of the mean step time every step.
        "imbalance_ratio": (slowest / mean_wall) if mean_wall > 0 else 1.0,
        "exchange_wait_s": sum(waits),
        "exchange_wait_share": (sum(waits) / total_wall)
        if total_wall > 0 else 0.0,
        "per_rank": per_rank,
    }


def merge_rank_reports(per_rank: list[dict],
                       wall_s: float | None = None) -> dict:
    """Merge the per-rank worker reports of one distributed run.

    Parameters
    ----------
    per_rank:
        One dict per rank as posted by the runtime worker: keys
        ``rank``, ``steps``, ``n_fluid``, ``wall_s``, ``comm`` (a
        :meth:`~repro.parallel.decomposition.CommunicationReport.to_dict`
        snapshot) and ``summary`` (a
        :meth:`~repro.obs.telemetry.Telemetry.summary` snapshot).
        Missing keys degrade to zeros — a partial cohort (or an empty
        list) still merges into a well-formed report.
    wall_s:
        Parent-measured wall time of the whole run (startup included);
        kept alongside the in-loop timings when given.

    Returns
    -------
    dict
        JSON-serializable report with aggregated ``phases``,
        ``counters``, ``comm``, per-rank and cohort ``mlups``, the
        ``imbalance`` attribution block (see :func:`_imbalance`),
        ``peak_rss_mb`` / ``peak_rss_process`` (the largest peak resident
        set among the ranks and the merging process, and whose it is),
        and the original ``per_rank`` records for drill-down.
    """
    reports = sorted(per_rank, key=lambda rep: rep.get("rank") or 0)
    steps = max((rep.get("steps") or 0 for rep in reports), default=0)
    n_fluid_total = sum(rep.get("n_fluid") or 0 for rep in reports)
    slowest = max((float(rep.get("wall_s") or 0.0) for rep in reports),
                  default=0.0)

    counters: dict[str, float] = {}
    for rep in reports:
        for name, value in rep.get("summary", {}).get("counters", {}).items():
            counters[name] = counters.get(name, 0) + value

    comm = {"bytes_sent": 0, "messages": 0, "steps": 0}
    for rep in reports:
        c = rep.get("comm", {})
        comm["bytes_sent"] += c.get("bytes_sent", 0)
        comm["messages"] += c.get("messages", 0)
        comm["steps"] = max(comm["steps"], c.get("steps", 0))
    comm["bytes_per_step"] = comm["bytes_sent"] / max(comm["steps"], 1)

    mlups_per_rank = [
        {
            "rank": rep.get("rank"),
            "n_fluid": rep.get("n_fluid") or 0,
            "wall_s": float(rep.get("wall_s") or 0.0),
            "mlups": ((rep.get("n_fluid") or 0) * (rep.get("steps") or 0)
                      / float(rep["wall_s"]) / 1e6
                      if rep.get("wall_s") else 0.0),
        }
        for rep in reports
    ]
    aggregate_mlups = (n_fluid_total * steps / slowest / 1e6
                       if slowest > 0 else 0.0)
    # Memory: the largest peak among the ranks and the merging (parent)
    # process, and whose it is.
    peaks = {f"rank {rep.get('rank')}": rep["summary"]["peak_rss_mb"]
             for rep in reports if "peak_rss_mb" in rep.get("summary", {})}
    peaks["parent"] = peak_rss_mb()
    peak_process = max(peaks, key=peaks.get)

    return {
        "n_ranks": len(reports),
        "steps": steps,
        "n_fluid": n_fluid_total,
        "wall_s": wall_s if wall_s is not None else slowest,
        "wall_s_slowest_rank": slowest,
        "mlups": aggregate_mlups,
        "mlups_per_rank": mlups_per_rank,
        "comm": comm,
        "imbalance": _imbalance(reports),
        "peak_rss_mb": peaks[peak_process],
        "peak_rss_process": peak_process,
        "phases": _merge_phases([rep.get("summary", {}) for rep in reports]),
        "counters": counters,
        "per_rank": reports,
    }
