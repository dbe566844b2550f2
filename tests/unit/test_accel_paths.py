"""Which step variant every admitted configuration takes — one table.

The table in docs/PERFORMANCE.md (*Which path a problem takes*) and its
check belong to the conformance matrix (``tests/property/test_conformance
.py``), which asserts the same columns on every cell it steps; here each
cell of the table is one id, on the 48×16 D2Q9 grid the table was
written for (``schafer-turek``: its d = 4 grid, whose ids name what they
check, its curved wall), and a "refused" cell is the refusal itself.
"""

import pytest

from repro.service.registry import problem_kinds

from test_conformance import FAST, check_path, check_table_covers_every_kind

IDS = {"schafer-turek": "Schäfer–Turek, curved"}


def test_the_table_covers_every_kind_and_fast_backend():
    check_table_covers_every_kind()


@pytest.mark.parametrize("mode", ["single", "rank of 2"])
@pytest.mark.parametrize("backend", FAST)
@pytest.mark.parametrize("scheme", ["ST", "MR-P", "MR-R"])
@pytest.mark.parametrize("kind", problem_kinds(), ids=lambda k: IDS.get(k, k))
def test_accel_path_and_state_lattices(kind, scheme, backend, mode):
    check_path(kind, scheme, backend, mode)
