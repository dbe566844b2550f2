"""tracemalloc live/peak of the ``porous2d`` problem's sparse ST / MR-P builds.

Run under each checkout's ``PYTHONPATH`` (``PYTHONPATH=src python
footprint_probe.py``): D2Q9 768^2, solid fraction 0.85, seed 1, body
force 1e-6, the problem ``tests/unit/test_footprint.py`` pins. Prints, in
MB, what a build holds when it returns, the peak inside it, and what is
live after the first step (one dense row of 768^2 doubles is 4.72 MB).
"""

import gc
import tracemalloc

from repro.service.registry import setup_problem
from repro.solver.presets import make_solver

MB = 1e6
for scheme in ("ST", "MR-P"):
    lat, setup = setup_problem("porous", "D2Q9", (768, 768), 0.8,
                               solid_fraction=0.85, seed=1, force_x=1e-6)
    setup.domain.solid_mask, setup.domain.fluid_mask
    boundaries = setup.boundaries(0, 1)
    gc.collect()
    tracemalloc.start()
    base, _ = tracemalloc.get_traced_memory()
    solver = make_solver(scheme, lat, setup.domain, 0.8,
                         boundaries=boundaries, rho0=setup.rho0,
                         u0=setup.u0, force=setup.force, backend="sparse")
    live_b, peak_b = tracemalloc.get_traced_memory()
    solver.run(1)
    gc.collect()
    live, _ = tracemalloc.get_traced_memory()
    tracemalloc.stop()
    print(f"{scheme:5s} build live {(live_b - base) / MB:7.1f}  "
          f"build peak {(peak_b - base) / MB:7.1f}  "
          f"live after step 1 {(live - base) / MB:7.1f}  "
          f"n_fluid {setup.domain.n_fluid}")
    del solver
