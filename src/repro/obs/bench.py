"""Benchmark trajectory + regression sentinel behind ``mrlbm bench``.

The repo measured performance as one-off text artifacts; this module
turns every measurement into a **versioned record** appended to a
repo-root trajectory file (``BENCH_<suite>.json``), so performance has a
history a comparator can judge new numbers against:

* :class:`BenchCell` — one configuration of the standard matrix
  (scheme x lattice x backend x problem x shape x ranks);
* :class:`BenchRecord` — one measurement of one cell: MLUPS from
  min-of-k timing (the noise-robust estimator), the model bytes/FLUP,
  the implied effective GB/s, the roofline attainment join
  (:mod:`repro.obs.attain`), git revision and timestamp;
* :func:`append_records` / :func:`load_trajectory` — the append-only
  trajectory file, schema-validated on both ends;
* :func:`compare_to_baseline` — the noise-aware regression sentinel:
  each new record is compared against the median of the most recent
  baseline measurements of the *same cell*, with a relative threshold
  that widens to the baseline's own observed spread, and every verdict
  carries the roofline attribution so "code got slower" is
  distinguishable from "this cell is overhead-bound anyway".

``mrlbm bench`` runs the matrix, appends, compares and exits non-zero on
regression (``--report-only`` downgrades to a warning — the CI smoke
mode); ``docs/observability.md`` documents the schema and workflow.
"""

from __future__ import annotations

import json
import os
import statistics
import subprocess
import time
from dataclasses import asdict, dataclass, field
from pathlib import Path

from .attain import attain_cell, attainment_note, measure_host_bandwidth

__all__ = [
    "BENCH_SCHEMA_VERSION",
    "BenchCell",
    "BenchRecord",
    "git_rev",
    "default_suite",
    "run_cell",
    "run_suite",
    "trajectory_path",
    "load_trajectory",
    "append_records",
    "validate_record",
    "validate_trajectory",
    "compare_to_baseline",
    "ONE_SAMPLE_THRESHOLD_FLOOR",
    "records_from_comparison",
    "format_records",
    "format_comparison",
]

#: Version stamped into every record and trajectory file; bump on any
#: incompatible schema change so old trajectories are rejected loudly
#: instead of compared nonsensically.
BENCH_SCHEMA_VERSION = 1

#: Required record fields and their JSON types, the validation contract
#: for everything that enters a trajectory file.
RECORD_SCHEMA: dict[str, tuple] = {
    "schema_version": (int,),
    "suite": (str,),
    "scheme": (str,),
    "lattice": (str,),
    "backend": (str,),
    "problem": (str,),
    "shape": (list, tuple),
    "ranks": (int,),
    "tau": (float, int),
    "steps": (int,),
    "repeats": (int,),
    "n_fluid": (int,),
    "wall_s": (float, int),
    "mlups": (float, int),
    "bytes_per_flup": (float, int),
    "effective_gbs": (float, int),
    "attainment": (float, int),
    "model_mlups": (float, int),
    "model_device": (str,),
    "git_rev": (str,),
    "timestamp": (float, int),
}


def git_rev(repo_dir: str | Path | None = None) -> str:
    """Short git revision of the working tree (``"unknown"`` outside git)."""
    try:
        out = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"],
            cwd=str(repo_dir) if repo_dir else None,
            capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    rev = out.stdout.strip()
    return rev if out.returncode == 0 and rev else "unknown"


@dataclass(frozen=True)
class BenchCell:
    """One configuration of the benchmark matrix.

    ``batch > 1`` makes the cell a **batched-ensemble** measurement:
    ``batch`` same-configuration members (``backend="fused"`` each) run
    in lockstep through one :class:`repro.ensemble.EnsembleRunner` and
    the cell reports *aggregate* MLUPS over all members. Batched cells
    conventionally use ``backend="batched"`` so their trajectory history
    never mixes with single-simulation cells of the same problem.
    """

    scheme: str
    lattice: str
    backend: str = "reference"
    problem: str = "periodic"
    shape: tuple[int, ...] = (64, 64)
    steps: int = 10
    repeats: int = 3
    ranks: int = 1
    tau: float = 0.8
    batch: int = 1

    def key(self) -> tuple:
        """Identity of the cell for baseline matching across records."""
        return (self.scheme, self.lattice, self.backend, self.problem,
                tuple(self.shape), self.ranks)


def _record_key(rec: dict) -> tuple:
    """The :meth:`BenchCell.key` of a record dict."""
    return (rec["scheme"], rec["lattice"], rec["backend"], rec["problem"],
            tuple(rec["shape"]), rec["ranks"])


@dataclass
class BenchRecord:
    """One measurement of one cell (see module docstring)."""

    suite: str
    scheme: str
    lattice: str
    backend: str
    problem: str
    shape: tuple[int, ...]
    ranks: int
    tau: float
    steps: int
    repeats: int
    n_fluid: int
    wall_s: float
    mlups: float
    bytes_per_flup: float
    effective_gbs: float
    attainment: float
    model_mlups: float
    model_device: str
    git_rev: str
    timestamp: float
    schema_version: int = BENCH_SCHEMA_VERSION
    extra: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        """JSON-serializable form (tuples become lists)."""
        d = asdict(self)
        d["shape"] = list(self.shape)
        return d

    @classmethod
    def from_dict(cls, d: dict) -> "BenchRecord":
        """Rebuild a record from its JSON form (validates first)."""
        validate_record(d)
        known = set(cls.__dataclass_fields__)
        kwargs = {k: v for k, v in d.items() if k in known}
        kwargs["shape"] = tuple(d["shape"])
        return cls(**kwargs)


def validate_record(d: dict) -> dict:
    """Validate one record dict against :data:`RECORD_SCHEMA`.

    Raises ``ValueError`` listing every violation; returns the record
    unchanged when it conforms.
    """
    problems = []
    for name, types in RECORD_SCHEMA.items():
        if name not in d:
            problems.append(f"missing field {name!r}")
        elif not isinstance(d[name], types) or isinstance(d[name], bool):
            problems.append(
                f"field {name!r} has type {type(d[name]).__name__}, "
                f"expected {'/'.join(t.__name__ for t in types)}")
    if not problems:
        if d["schema_version"] != BENCH_SCHEMA_VERSION:
            problems.append(
                f"schema_version {d['schema_version']} != "
                f"{BENCH_SCHEMA_VERSION}")
        for name in ("mlups", "wall_s", "bytes_per_flup", "effective_gbs"):
            if d[name] < 0:
                problems.append(f"field {name!r} is negative")
    if problems:
        raise ValueError("invalid bench record: " + "; ".join(problems))
    return d


# -- measurement -----------------------------------------------------------

def _best_of(target, cell: BenchCell, warmup: int) -> float:
    """Min-of-k wall time of ``target.run(cell.steps)`` after a warm-up."""
    if warmup > 0:
        target.run(warmup)
    best = float("inf")
    for _ in range(max(cell.repeats, 1)):
        t0 = time.perf_counter()
        target.run(cell.steps)
        best = min(best, time.perf_counter() - t0)
    return best


def _time_local(cell: BenchCell, warmup: int) -> tuple[float, int]:
    """Min-of-k wall time in this process: ``(best_s, n_fluid)``.

    The cell's problem kind is built at its defaults through the problem
    table. A ``batch > 1`` cell builds ``cell.batch`` members on the
    fused backend, enrolls them in an
    :class:`repro.ensemble.EnsembleRunner` and times lockstep steps; its
    fluid-node count — hence its MLUPS — is the ensemble *aggregate*.
    """
    from ..ensemble import EnsembleRunner
    from ..service.registry import build_single

    backend = "fused" if cell.batch > 1 else cell.backend
    members = [build_single(cell.problem, cell.scheme, cell.lattice,
                            tuple(cell.shape), tau=cell.tau, backend=backend)
               for _ in range(cell.batch)]
    target = EnsembleRunner(members) if cell.batch > 1 else members[0]
    return (_best_of(target, cell, warmup),
            sum(int(m.domain.n_fluid) for m in members))


def _time_distributed(cell: BenchCell, warmup: int) -> tuple[float, int]:
    """Min-of-k slowest-rank wall time over the process runtime."""
    from ..parallel import RunSpec, run_process

    spec = RunSpec(cell.problem, cell.scheme, cell.lattice,
                   tuple(cell.shape), cell.ranks, tau=cell.tau,
                   accel=cell.backend)
    best = float("inf")
    n_fluid = 0
    for _ in range(max(cell.repeats, 1)):
        result = run_process(spec, warmup + cell.steps)
        # the barrier makes the slowest rank the cohort pace; scale the
        # in-loop wall down to the timed window (warmup steps included
        # in the same loop share the same per-step cost)
        total = warmup + cell.steps
        wall = result.report["wall_s_slowest_rank"] * cell.steps / total
        best = min(best, wall)
        n_fluid = result.report["n_fluid"]
    return best, int(n_fluid)


def run_cell(cell: BenchCell, suite: str = "default", device: str = "V100",
             warmup: int = 2, host_gbs: float | None = None) -> BenchRecord:
    """Measure one cell and return its :class:`BenchRecord`.

    Timing is min-of-``repeats`` over ``cell.steps`` (after ``warmup``
    untimed steps), the standard noise-robust throughput estimator; the
    roofline join (:func:`repro.obs.attain.attain_cell`) fills the
    model columns.
    """
    if cell.ranks > 1:
        best, n_fluid = _time_distributed(cell, warmup)
    else:
        best, n_fluid = _time_local(cell, warmup)
    mlups = n_fluid * cell.steps / best / 1e6 if best > 0 else 0.0
    att = attain_cell(mlups, cell.scheme, cell.lattice, device=device,
                      host_gbs=host_gbs)
    extra = {"host_gbs": att["host_gbs"], "bound": att["bound"]}
    if cell.batch > 1:
        # Recorded in ``extra`` so the strict RECORD_SCHEMA is untouched;
        # mlups/n_fluid are ensemble aggregates over all members.
        extra["batch"] = cell.batch
    return BenchRecord(
        suite=suite, scheme=cell.scheme, lattice=cell.lattice,
        backend=cell.backend, problem=cell.problem,
        shape=tuple(cell.shape), ranks=cell.ranks, tau=cell.tau,
        steps=cell.steps, repeats=cell.repeats, n_fluid=n_fluid,
        wall_s=best, mlups=mlups,
        bytes_per_flup=att["bytes_per_flup"],
        effective_gbs=att["effective_gbs"],
        attainment=att["attainment"],
        model_mlups=att["model_mlups"],
        model_device=att["model_device"],
        git_rev=git_rev(), timestamp=time.time(),
        extra=extra,
    )


def default_suite(quick: bool = False) -> list[BenchCell]:
    """The standard cell matrix of ``mrlbm bench``.

    The full matrix covers both lattices, both pattern classes and the
    host backends (reference, fused two-lattice, single-lattice ``aa``)
    on domains large enough to stream from DRAM; the
    ``--quick`` matrix is the CI smoke variant — same cells, shrunk
    shapes and counts, a few seconds total.
    """
    if quick:
        return [
            BenchCell("ST", "D2Q9", "reference", "periodic", (48, 48),
                      steps=4, repeats=2),
            BenchCell("ST", "D2Q9", "fused", "periodic", (48, 48),
                      steps=4, repeats=2),
            BenchCell("ST", "D2Q9", "aa", "periodic", (48, 48),
                      steps=4, repeats=2),
            BenchCell("MR-P", "D2Q9", "reference", "channel", (48, 26),
                      steps=4, repeats=2),
            BenchCell("MR-P", "D2Q9", "fused", "channel", (48, 26),
                      steps=4, repeats=2),
            BenchCell("MR-P", "D2Q9", "aa", "periodic", (48, 48),
                      steps=4, repeats=2),
            BenchCell("MR-P", "D2Q9", "batched", "periodic", (32, 32),
                      steps=4, repeats=2, batch=8),
            BenchCell("MR-P", "D2Q9", "fused", "porous", (96, 96),
                      steps=4, repeats=2),
            BenchCell("MR-P", "D2Q9", "sparse", "porous", (96, 96),
                      steps=4, repeats=2),
        ]
    return [
        BenchCell("ST", "D2Q9", "reference", "periodic", (192, 192),
                  steps=10, repeats=3),
        BenchCell("ST", "D2Q9", "fused", "periodic", (192, 192),
                  steps=10, repeats=3),
        BenchCell("ST", "D2Q9", "aa", "periodic", (192, 192),
                  steps=10, repeats=3),
        BenchCell("MR-P", "D2Q9", "reference", "channel", (192, 130),
                  steps=10, repeats=3),
        BenchCell("MR-P", "D2Q9", "fused", "channel", (192, 130),
                  steps=10, repeats=3),
        BenchCell("MR-R", "D2Q9", "fused", "channel", (192, 130),
                  steps=10, repeats=3),
        BenchCell("ST", "D3Q19", "fused", "periodic", (48, 48, 48),
                  steps=8, repeats=3),
        BenchCell("ST", "D3Q19", "aa", "periodic", (48, 48, 48),
                  steps=8, repeats=3),
        BenchCell("MR-P", "D3Q19", "reference", "periodic", (48, 48, 48),
                  steps=8, repeats=3),
        BenchCell("MR-P", "D3Q19", "fused", "periodic", (48, 48, 48),
                  steps=8, repeats=3),
        BenchCell("MR-P", "D3Q19", "aa", "periodic", (48, 48, 48),
                  steps=8, repeats=3),
        BenchCell("MR-P", "D2Q9", "fused", "forced-channel", (192, 130),
                  steps=10, repeats=3),
        BenchCell("MR-P", "D2Q9", "fused", "periodic", (128, 128),
                  steps=8, repeats=3, ranks=2),
        BenchCell("MR-P", "D2Q9", "batched", "periodic", (32, 32),
                  steps=10, repeats=3, batch=16),
        BenchCell("MR-P", "D2Q9", "fused", "porous", (192, 192),
                  steps=10, repeats=3),
        BenchCell("MR-P", "D2Q9", "sparse", "porous", (192, 192),
                  steps=10, repeats=3),
        BenchCell("MR-P", "D3Q19", "sparse", "porous", (48, 48, 48),
                  steps=8, repeats=3),
    ]


def run_suite(cells: list[BenchCell], suite: str = "default",
              device: str = "V100", warmup: int = 2,
              progress=None) -> list[BenchRecord]:
    """Measure every cell; ``progress`` (if given) is called per record."""
    host_gbs = measure_host_bandwidth()
    records = []
    for cell in cells:
        record = run_cell(cell, suite=suite, device=device, warmup=warmup,
                          host_gbs=host_gbs)
        records.append(record)
        if progress is not None:
            progress(record)
    return records


# -- trajectory file -------------------------------------------------------

def trajectory_path(suite: str = "default",
                    root: str | Path | None = None) -> Path:
    """Conventional repo-root trajectory location: ``BENCH_<suite>.json``."""
    name = f"BENCH_{suite}.json"
    return Path(root) / name if root else Path(name)


def validate_trajectory(doc: dict) -> dict:
    """Validate a trajectory document (schema version + every record)."""
    if not isinstance(doc, dict) or "records" not in doc:
        raise ValueError("trajectory must be an object with a 'records' list")
    if doc.get("schema_version") != BENCH_SCHEMA_VERSION:
        raise ValueError(
            f"trajectory schema_version {doc.get('schema_version')!r} != "
            f"{BENCH_SCHEMA_VERSION}")
    for i, rec in enumerate(doc["records"]):
        try:
            validate_record(rec)
        except ValueError as err:
            raise ValueError(f"record {i}: {err}") from None
    return doc


def load_trajectory(path: str | Path) -> dict:
    """Load and validate a trajectory file; empty skeleton if absent."""
    path = Path(path)
    if not path.exists():
        return {"schema_version": BENCH_SCHEMA_VERSION, "suite": None,
                "records": []}
    doc = json.loads(path.read_text(encoding="utf-8"))
    return validate_trajectory(doc)


def append_records(path: str | Path, records) -> dict:
    """Append records to the trajectory at ``path`` (atomic rewrite).

    Creates the file on first use; validates both the existing document
    and every new record, so a corrupt trajectory or a malformed record
    fails loudly before anything is written. Returns the new document.
    """
    path = Path(path)
    doc = load_trajectory(path)
    new = [r.to_dict() if isinstance(r, BenchRecord) else dict(r)
           for r in records]
    for rec in new:
        validate_record(rec)
        if doc["suite"] is None:
            doc["suite"] = rec["suite"]
    doc["records"].extend(new)
    tmp = path.with_name(path.name + ".tmp")
    tmp.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n",
                   encoding="utf-8")
    os.replace(tmp, path)
    return doc


# -- regression sentinel ---------------------------------------------------

#: Threshold floor applied when the baseline holds a single sample: one
#: measurement carries no spread information (its observed spread is
#: identically zero), so the band widens to this floor instead of
#: trusting one possibly-noisy number at the default ``rel_threshold``.
ONE_SAMPLE_THRESHOLD_FLOOR = 0.25


def compare_to_baseline(baseline_records, new_records,
                        rel_threshold: float = 0.15,
                        baseline_window: int = 5) -> dict:
    """Judge new records against the stored trajectory, cell by cell.

    For each new record the baseline is the **median MLUPS of the most
    recent ``baseline_window`` records of the same cell** (same scheme,
    lattice, backend, problem, shape and ranks). The effective threshold
    is noise-aware: it widens from ``rel_threshold`` to the baseline's
    own relative spread (max-min over median) when the machine is noisy,
    so a cell whose history already wobbles 20% cannot be flagged at
    15%. Verdicts:

    ``"new"``        no prior record of this cell;
    ``"regression"`` new MLUPS below ``baseline x (1 - threshold)``;
    ``"improved"``   new MLUPS above ``baseline x (1 + threshold)``;
    ``"ok"``         within the band.

    Short-history edge cases are handled conservatively, never as false
    regressions: a **first-ever cell** is always ``"new"`` (it cannot
    regress against nothing); a **one-sample baseline** has no spread
    estimate, so its threshold floor widens to
    :data:`ONE_SAMPLE_THRESHOLD_FLOOR`; a history shorter than
    ``baseline_window`` simply uses what exists (median of 1-4); and a
    **non-positive baseline median** (degenerate records from a failed
    or zero-timed prior run) makes the cell uncomparable — status
    ``"ok"`` with ``ratio=None`` — rather than dividing by zero or
    flagging everything.

    Every verdict carries the record's roofline attainment and its
    :func:`~repro.obs.attain.attainment_note`, so a red cell can be read
    as "real lost bandwidth" vs "overhead-bound, expect noise".
    """
    history: dict[tuple, list[dict]] = {}
    for rec in baseline_records:
        rec = rec.to_dict() if isinstance(rec, BenchRecord) else rec
        history.setdefault(_record_key(rec), []).append(rec)

    verdicts = []
    regressions = 0
    for rec in new_records:
        rec = rec.to_dict() if isinstance(rec, BenchRecord) else rec
        prior = history.get(_record_key(rec), [])[-baseline_window:]
        verdict = {
            "scheme": rec["scheme"], "lattice": rec["lattice"],
            "backend": rec["backend"], "problem": rec["problem"],
            "shape": list(rec["shape"]), "ranks": rec["ranks"],
            "mlups": rec["mlups"],
            "attainment": rec.get("attainment", 0.0),
            "note": attainment_note(rec.get("attainment", 0.0)),
            "n_baseline": len(prior),
        }
        if not prior:
            verdict.update(status="new", baseline_mlups=None, ratio=None,
                           threshold=rel_threshold)
        else:
            series = [p["mlups"] for p in prior]
            baseline = statistics.median(series)
            if baseline <= 0:
                # Degenerate history (zero/negative throughput records):
                # there is nothing meaningful to compare against, and a
                # division would either blow up or flag every healthy
                # run — report uncomparable, never a regression.
                verdict.update(status="ok", baseline_mlups=baseline,
                               ratio=None, threshold=rel_threshold)
                verdicts.append(verdict)
                continue
            spread = (max(series) - min(series)) / baseline
            threshold = max(rel_threshold, spread)
            if len(series) < 2:
                threshold = max(threshold, ONE_SAMPLE_THRESHOLD_FLOOR)
            ratio = rec["mlups"] / baseline
            if ratio < 1.0 - threshold:
                status = "regression"
                regressions += 1
            elif ratio > 1.0 + threshold:
                status = "improved"
            else:
                status = "ok"
            verdict.update(status=status, baseline_mlups=baseline,
                           ratio=ratio, threshold=threshold)
        verdicts.append(verdict)
    return {
        "verdicts": verdicts,
        "regressions": regressions,
        "rel_threshold": rel_threshold,
        "baseline_window": baseline_window,
    }


# -- interop + rendering ---------------------------------------------------

def records_from_comparison(result: dict, suite: str = "paper-bench",
                            device: str = "V100",
                            host_gbs: float | None = None) -> list[dict]:
    """Convert a :func:`repro.obs.profile.compare_backends` result into
    schema-valid record dicts (one per backend row).

    This is how the paper-table benchmarks under ``benchmarks/`` feed
    the same trajectory schema as ``mrlbm bench`` — their ``.txt``
    artifacts gain a machine-readable sibling.
    """
    if host_gbs is None:
        host_gbs = measure_host_bandwidth()
    rev = git_rev()
    now = time.time()
    records = []
    for row in result["backends"]:
        mlups = float(row["mlups"])
        att = attain_cell(mlups, result["scheme"], result["lattice"],
                          device=device, host_gbs=host_gbs)
        wall = float(row.get("phases", {}).get("step", {}).get("total_s", 0.0))
        records.append(validate_record({
            "schema_version": BENCH_SCHEMA_VERSION,
            "suite": suite,
            "scheme": result["scheme"],
            "lattice": result["lattice"],
            "backend": row["backend"],
            "problem": result.get("problem", "periodic"),
            "shape": list(result["shape"]),
            "ranks": 1,
            "tau": float(result["tau"]),
            "steps": int(result["steps"]),
            "repeats": 1,
            "n_fluid": int(round(mlups * 1e6 * wall / result["steps"]))
            if wall > 0 else 0,
            "wall_s": wall,
            "mlups": mlups,
            "bytes_per_flup": att["bytes_per_flup"],
            "effective_gbs": att["effective_gbs"],
            "attainment": att["attainment"],
            "model_mlups": att["model_mlups"],
            "model_device": att["model_device"],
            "git_rev": rev,
            "timestamp": now,
            "extra": {"max_abs_diff": row.get("max_abs_diff"),
                      "speedup": row.get("speedup"),
                      "host_gbs": host_gbs},
        }))
    return records


def _cell_label(rec: dict) -> str:
    shape = "x".join(str(s) for s in rec["shape"])
    label = (f"{rec['scheme']}/{rec['lattice']}/{rec['backend']} "
             f"{rec['problem']} {shape}")
    if rec.get("ranks", 1) > 1:
        label += f" x{rec['ranks']}r"
    batch = rec.get("extra", {}).get("batch")
    if batch:
        label += f" x{batch}b"
    return label


def format_records(records) -> str:
    """Fixed-width table of measured records with the roofline join."""
    lines = [f"  {'cell':<44s} {'MLUPS':>9s} {'GB/s':>7s} {'B/F':>6s} "
             f"{'attain':>7s} {'bound':>10s}"]
    for rec in records:
        rec = rec.to_dict() if isinstance(rec, BenchRecord) else rec
        bound = rec.get("extra", {}).get("bound", "")
        lines.append(
            f"  {_cell_label(rec):<44s} {rec['mlups']:9.2f} "
            f"{rec['effective_gbs']:7.2f} {rec['bytes_per_flup']:6.0f} "
            f"{rec['attainment']:6.1%} {bound:>10s}")
    return "\n".join(lines)


def format_comparison(result: dict) -> str:
    """Fixed-width rendering of a :func:`compare_to_baseline` result."""
    lines = [f"  {'cell':<44s} {'status':>11s} {'vs base':>8s} "
             f"{'band':>7s} {'attain':>7s}"]
    for v in result["verdicts"]:
        ratio = f"{v['ratio']:.2f}x" if v["ratio"] is not None else "-"
        lines.append(
            f"  {_cell_label(v):<44s} {v['status']:>11s} {ratio:>8s} "
            f"±{v['threshold']:5.0%} {v['attainment']:6.1%}")
    n = result["regressions"]
    lines.append("")
    lines.append(f"  {n} regression(s) against the stored baseline"
                 if n else "  no regressions against the stored baseline")
    return "\n".join(lines)
