"""Which step variant every admitted configuration takes — one table.

The table is the one in docs/PERFORMANCE.md (*Which path a problem
takes*): this module parses it and asserts each cell, so the document
cannot drift from the code. Per registered kind × fast backend it gives
``accel_path`` and the core's ``state_lattices`` for ST and for MR-P /
MR-R, single-domain and on each rank of a two-rank decomposition
(``refused``: the kind has no distributed form). Pinned on purpose:

* ``aa`` × walled ST steps the fused core — ``lean``, one lattice;
* a boundary-free ``aa`` ST *rank* reports ``bounded``: its halo
  exchange looks at the state every step, so the core takes the natural
  step (the single-domain run, which nobody looks at, stays ``lean``);
* a boundary list the ``sparse`` gather table cannot fold steps the
  fused core: ``channel`` (inlet and outlet) reads as on ``fused``, and
  the curved-wall Schäfer–Turek cylinder (the rows after the kinds; the
  ``cylinder`` *kind* is a staircase and folds), whose
  ``InterpolatedBounceBack`` has no row extent, is ``bounded`` on every
  backend.
"""

import re
from pathlib import Path

import pytest

from repro.service.registry import (build_distributed, build_single,
                                    problem_kinds)
from repro.validation.cylinder import schafer_turek_case

SHAPE = (48, 16)
FAST = ("fused", "aa", "sparse")
CURVED = "Schäfer–Turek, curved"
#: table column of (scheme is ST, mode)
COLUMN = {(True, "single"): 0, (False, "single"): 1,
          (True, "rank of 2"): 2, (False, "rank of 2"): 3}


def documented() -> dict:
    """``{(kind, backend): [cell, cell, cell, cell]}`` of the doc table."""
    text = (Path(__file__).parents[2] / "docs" / "PERFORMANCE.md").read_text(
        encoding="utf-8")
    table = text.split("<!-- accel_path table -->")[1].split("\n\n")[0]
    rows = re.findall(r"^\| `?([^|`]+)`? \| `(\w+)` \|(.*)\|$", table, re.M)
    return {(kind, backend): [c.strip() for c in cells.split("|")]
            for kind, backend, cells in rows}


TABLE = documented()


def test_the_table_covers_every_kind_and_fast_backend():
    kinds = list(problem_kinds()) + [CURVED]
    assert sorted(TABLE) == sorted((k, b) for k in kinds for b in FAST)


@pytest.mark.parametrize("mode", ["single", "rank of 2"])
@pytest.mark.parametrize("backend", FAST)
@pytest.mark.parametrize("scheme", ["ST", "MR-P", "MR-R"])
@pytest.mark.parametrize("kind", list(problem_kinds()) + [CURVED])
def test_accel_path_and_state_lattices(kind, scheme, backend, mode):
    cell = TABLE[kind, backend][COLUMN[scheme == "ST", mode]]
    if kind == CURVED:
        if mode != "single":
            assert cell == "—"          # validation case, not a kind
            return
        solvers = [schafer_turek_case(d=4, scheme=scheme, backend=backend,
                                      curved=True).solver.run(2)]
    elif cell == "refused":
        with pytest.raises(ValueError, match="no distributed form"):
            build_distributed(kind, scheme, "D2Q9", SHAPE, 2, accel=backend)
        return
    elif mode == "single":
        solvers = [build_single(kind, scheme, "D2Q9", SHAPE,
                                backend=backend).run(2)]
    else:
        solvers = build_distributed(kind, scheme, "D2Q9", SHAPE, 2,
                                    accel=backend).run(2).ranks
    for solver in solvers:
        core = solver._stepper.core
        assert f"`{solver.accel_path}` {core.state_lattices}" == cell
