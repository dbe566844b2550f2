"""Shared fixtures for the test suite."""

from __future__ import annotations

import collections
import threading
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from repro.lattice import get_lattice
from repro.solver import Solver

ALL_LATTICES = ["D1Q3", "D2Q9", "D3Q15", "D3Q19", "D3Q27", "D3Q39"]
MAIN_LATTICES = ["D2Q9", "D3Q19"]          # the paper's evaluation lattices


@pytest.fixture(params=ALL_LATTICES)
def lattice(request):
    """Every built-in lattice descriptor."""
    return get_lattice(request.param)


@pytest.fixture(params=MAIN_LATTICES)
def paper_lattice(request):
    """The two lattices evaluated in the paper."""
    return get_lattice(request.param)


@pytest.fixture
def d2q9():
    """The D2Q9 descriptor."""
    return get_lattice("D2Q9")


@pytest.fixture
def swept():
    """``swept(specs, steps, **kw)`` -> ``(result, members)``: a
    :func:`repro.ensemble.run_sweep` and the solvers its launcher
    stepped, each asserted equal, bit for bit, to its own ``fused`` run
    of the spec."""
    from unittest import mock

    from repro import ensemble
    from repro.service.registry import build_single

    def run(specs, steps, **kwargs):
        members, launch = [], ensemble.launch
        with mock.patch.object(ensemble, "launch", lambda solver, *a:
                               members.append(solver) or launch(solver, *a)):
            result = ensemble.run_sweep(specs, steps, **kwargs)
        for row, member in zip(result.members, members):
            solo = build_single(row["kind"], row["scheme"], row["lattice"],
                                tuple(row["shape"]), tau=row["tau"],
                                backend="fused", **row["options"]).run(steps)
            for got, want in zip(member.macroscopic(), solo.macroscopic()):
                assert np.array_equal(got, want)
        return result, members
    return run


@pytest.fixture
def one_record(tmp_path, mrlbm):
    """``one_record(spec, *artifacts)``: ``mrlbm run --manifest`` (with
    events and a checkpoint), a served job and a sweep member of the
    problem of ``spec`` (its one option ``u_max``), and the manifests or
    event directories ``artifacts``, carry one run record's keys and
    fingerprint."""
    import dataclasses
    import json

    from repro.ensemble import run_sweep
    from repro.obs import read_events
    from repro.service.jobproc import _execute
    from repro.service.jobs import Job

    def check(spec, *artifacts):
        at, want = tmp_path / "writers", spec.record("single")
        mrlbm(f"run --problem {spec.kind} --scheme {spec.scheme} --lattice "
              f"{spec.lattice} --shape {','.join(map(str, spec.shape))} "
              f"--tau {spec.tau} --u-max {spec.options['u_max']} --steps 4 "
              f"--manifest {at}/cli.json --events {at}/ev --checkpoint-dir "
              f"{at}/ck --checkpoint-every 2")
        run_sweep([dataclasses.replace(spec, accel="fused")], 2, out_dir=at)
        _execute(Job("job", "key", spec, 2, at / "job"), 1)
        paths = [at / "cli.json", *at.glob("ck/*/manifest.json"),
                 *at.glob("member-*.json"), at / "job/manifest.json"]
        found = [{**m, **m["extra"]} for m in (json.loads(p.read_text())
                 for p in paths + list(artifacts) if p.is_file())]
        found += [e["record"] for p in (at / "ev", at / "job", *artifacts)
                  if p.is_dir() for e in read_events(p) if e["kind"] == "start"]
        assert len(found) == 6 + len(artifacts)
        assert all(set(want) <= set(record) for record in found)
        assert {r["fingerprint"] for r in found} == {want["fingerprint"]}
    return check


@pytest.fixture
def mrlbm(capsys):
    """``mrlbm("run --steps 4 ...", rc=0)`` -> what the CLI printed: its
    stdout, or — for a non-zero ``rc`` — its stderr, stdout being empty."""
    from repro.cli import main

    def run(argv: str, rc: int = 0) -> str:
        assert main(argv.split()) == rc
        out, err = capsys.readouterr()
        assert not rc or out == ""
        return err if rc else out
    return run


@pytest.fixture
def traced():
    """``traced(fn)`` -> ``(fn(), current, peak)`` bytes under tracemalloc."""
    def run(fn):
        tracemalloc.start()
        try:
            return (fn(), *tracemalloc.get_traced_memory())
        finally:
            tracemalloc.stop()
    return run


@pytest.fixture
def built(monkeypatch):
    """Rank-sized solver constructions in this process, per thread (a
    fork's are its own); the one-plane solver a distributed shell builds
    to check what its ranks would refuse is not counted."""
    count, init = collections.Counter(), Solver.__init__

    def counted(self, lat, domain, *args, **kwargs):
        if domain.shape[0] > 1:
            count[threading.get_ident()] += 1
        init(self, lat, domain, *args, **kwargs)

    monkeypatch.setattr(Solver, "__init__", counted)
    return count


@pytest.fixture
def rng():
    return np.random.default_rng(20230613)


def small_grid(lat) -> tuple[int, ...]:
    """A small grid shape matching a lattice's dimension."""
    return {1: (7,), 2: (6, 5), 3: (5, 4, 3)}[lat.d]


@pytest.fixture
def random_state(lattice, rng):
    """A perturbed near-equilibrium state (rho, u, f) on a small grid."""
    from repro.core import equilibrium

    grid = small_grid(lattice)
    rho = 1.0 + 0.05 * rng.standard_normal(grid)
    u = 0.04 * rng.standard_normal((lattice.d, *grid))
    feq = equilibrium(lattice, rho, u)
    f = feq * (1.0 + 0.02 * rng.standard_normal((lattice.q, *grid)))
    return rho, u, f


def _field_doubles(*owners, min_size: int) -> int:
    """Doubles held in node-scale float64 buffers reachable from ``owners``.

    ``owners`` are arrays or :mod:`repro.accel` objects (walked through
    their attributes, tuples, lists and dicts). Views are resolved to the
    buffer that owns their memory and each buffer counts once; small
    operator matrices and integer index tables are not lattice state and
    are skipped (``min_size`` is the smallest node count that matters).
    """
    buffers: dict[int, np.ndarray] = {}
    seen: set[int] = set()
    stack = list(owners)
    while stack:
        obj = stack.pop()
        if obj is None or id(obj) in seen:
            continue
        seen.add(id(obj))
        if isinstance(obj, np.ndarray):
            while obj.base is not None:
                obj = obj.base
            if obj.dtype == np.float64 and obj.size >= min_size:
                buffers[id(obj)] = obj
        elif isinstance(obj, (list, tuple)):
            stack.extend(obj)
        elif isinstance(obj, dict):
            stack.extend(obj.values())
        elif type(obj).__module__.startswith("repro.accel"):
            stack.extend(vars(obj).values())
    return sum(b.size for b in buffers.values())


@pytest.fixture
def field_doubles():
    """The buffer-inventory counter (see :func:`_field_doubles`)."""
    return _field_doubles


@pytest.fixture
def leaked_segments():
    """Callable listing ``/dev/shm/mrlbm*``: the process runtime names no
    shared memory, so there must be none however a run ends."""
    return lambda: sorted(p.name for p in Path("/dev/shm").glob("mrlbm*"))


@pytest.fixture
def refuse_to_build():
    """Stand-in for ``RunSpec.build`` once a ``ProcessRuntime`` has built
    its spec in the parent: patched in before ``run()``, it fails the run
    of any forked worker that rebuilds instead of stepping what it
    inherited."""
    def refuse(self):
        raise AssertionError("a worker rebuilt the spec it should inherit")
    return refuse
