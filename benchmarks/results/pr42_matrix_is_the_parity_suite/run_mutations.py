#!/usr/bin/env python3
"""Apply each seeded one-line mutation of ``src/repro/accel/`` to a
checkout and record which test ids fail.

    python run_mutations.py CHECKOUT OUT.json [ID ...]

Every mutation replaces one line (the ``old`` text must occur exactly
once in its file); the file is restored after each run. The tests run
are the backend-parity job's files of ``.github/workflows/ci.yml``
(the conformance matrix, the per-layout suites and the other parity
files), under one hypothesis seed, so two checkouts see the same
examples wherever their tests are the same.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import time
from pathlib import Path

FILES = """tests/property/test_conformance.py tests/unit/test_accel_tables.py
tests/unit/test_accel_backends.py tests/unit/test_accel_inplace.py
tests/unit/test_accel_batched.py tests/unit/test_accel_sparse.py
tests/unit/test_accel_cores.py tests/unit/test_accel_blocked.py
tests/unit/test_accel_paths.py tests/unit/test_footprint.py
tests/unit/test_service_registry.py tests/unit/test_forces_backends.py
tests/unit/test_ensemble.py tests/unit/test_properties.py
tests/property/test_props_inplace.py tests/property/test_props_sparse.py
tests/property/test_props_sparse_state.py
tests/property/test_props_window_boundaries.py
tests/integration/test_accel_distributed.py
tests/integration/test_rank_is_solver.py""".split()

F, S, I = ("src/repro/accel/fused.py", "src/repro/accel/sparse.py",
           "src/repro/accel/inplace.py")
#: id -> (file, old line, new line, what it hits)
MUTATIONS = {
    "M01": (F, "        self._pref = 1.0 - 0.5 / self.tau       # Guo force prefactor\n        self._g = _rows(len(self._rc.T), w)",
            "        self._pref = 1.0 - 0.49 / self.tau       # Guo force prefactor\n        self._g = _rows(len(self._rc.T), w)",
            "ST collide (fused, sparse): Guo force prefactor"),
    "M02": (F, "            np.multiply(ff, 0.5, out=u)",
            "            np.multiply(ff, 0.25, out=u)",
            "ST collide: half-force velocity shift"),
    "M03": (F, "            np.multiply(pi_neq, keep, out=g_pi)",
            "            np.multiply(pi_neq, keep * 1.001, out=g_pi)",
            "MR-P / MR-R collide: second-order relaxation"),
    "M04": (F, "                    term *= keep",
            "                    term *= keep * keep",
            "MR-R collide: recursive a3/a4 coefficients"),
    "M05": (F, "                       + (1.0 - 1.0 / self.tau_bulk) * trace_cols)",
            "                       + (1.0 - 1.0 / self.tau) * trace_cols)",
            "MR collide: bulk-viscosity trace split"),
    "M06": (F, "            keep = self._per_node(0, -1.0, tau_field)",
            "            keep = self._per_node(0, -1.01, tau_field)",
            "MR-P collide: per-node relaxation (power law)"),
    "M07": (F, "                elif a1 + reach > n0 and wrap is not None:",
            "                elif a1 + reach > n0 + 1 and wrap is not None:",
            "MR stream (fused window): periodic wrap of the last slab"),
    "M08": (F, "                gather(s + 1, bufs[(s + 1) % 2])",
            "                gather(s + 1, bufs[s % 2])",
            "ST stream (fused window): delayed write-back buffers"),
    "M09": (F, "        rows = max(self.lat.reach, width // self._tail)",
            "        rows = max(1, width // self._tail)",
            "fused window: slabs never thinner than the stencil reach"),
    "M10": (F, "                for hook in self._hooks[s]:",
            "                for hook in reversed(self._hooks[s]):",
            "boundary hooks (fused window): list order on a slab"),
    "M11": (F, "            solid, [0] + [a1 * self._tail for _, a1 in self._slabs])",
            "            solid, [0] + [a0 * self._tail for a0, _ in self._slabs])",
            "fused window: solid nodes pinned per slab"),
    "M12": (S, "                    value = 2.0 * lat.w[q] * bb.rho0 * cu / lat.cs2",
            "                    value = 1.0 * lat.w[q] * bb.rho0 * cu / lat.cs2",
            "sparse boundary fold: moving-wall momentum"),
    "M13": (S, "            self._apply_folded(self._fc, self._fix)",
            "            pass",
            "sparse ST stream: folded bounce-back links"),
    "M14": (S, "        for c0, fix in zip(range(0, table.n_fluid, self._width), self._fix):",
            "        for c0, fix in zip(range(0, table.n_fluid, self._width), self._fix[::-1]):",
            "sparse MR stream: per-chunk fix-ups"),
    "M15": (S, "    return len(boundaries) == 1 and type(boundaries[0]) is HalfwayBounceBack",
            "    return len(boundaries) >= 1 and type(boundaries[0]) is HalfwayBounceBack",
            "sparse: which boundary lists fold"),
    "M16": (F, "            np.add(j, force, out=g[..., 1:1 + d, :])",
            "            np.add(j, 0.5 * force, out=g[..., 1:1 + d, :])",
            "MR collide: momentum input of the force"),
    "M17": (F, "            w4 = lat.quad_mult[s4] / (24.0 * lat.cs8)",
            "            w4 = lat.quad_mult[s4] / (25.0 * lat.cs8)",
            "MR-R reconstruction: fourth-order Hermite weights"),
    "M18": (I, "        self._looked = True",
            "        self._looked = False",
            "aa: a look makes the next step the natural one"),
}


def run(checkout: Path, out: Path, only: list[str]) -> None:
    results = json.loads(out.read_text()) if out.exists() else {}
    env = dict(os.environ, PYTHONPATH="src")
    for mid, (path, old, new, _) in MUTATIONS.items():
        if (only and mid not in only) or mid in results:
            continue
        target = checkout / path
        text = target.read_text()
        assert text.count(old) == 1, (mid, text.count(old))
        target.write_text(text.replace(old, new))
        t = time.monotonic()
        try:
            done = subprocess.run(
                [sys.executable, "-m", "pytest", "-p", "no:cacheprovider",
                 "-W", "ignore", "--tb=no", "-rf", "--hypothesis-seed=0",
                 *FILES], cwd=checkout, env=env, capture_output=True,
                text=True)
        finally:
            target.write_text(text)
        failed = sorted(line[len("FAILED "):].partition(" - ")[0]
                        for line in done.stdout.splitlines()
                        if line.startswith("FAILED "))
        summary = [line for line in done.stdout.splitlines() if " in " in line
                   and ("passed" in line or "failed" in line)]
        results[mid] = {"failed": failed, "summary": summary[-1:],
                        "wall_s": round(time.monotonic() - t, 1)}
        out.write_text(json.dumps(results, indent=1))
        print(mid, len(failed), results[mid]["summary"], flush=True)


if __name__ == "__main__":
    run(Path(sys.argv[1]), Path(sys.argv[2]), sys.argv[3:])
