"""Shared infrastructure for the paper-regeneration benchmark suite.

Every benchmark writes its rendered artefact (table or figure series) to
``benchmarks/results/`` so the reproduction output is inspectable after a
run, and asserts the *shape* bands from DESIGN.md (who wins, by roughly
what factor) rather than exact MFLUPS.
"""

from __future__ import annotations

from pathlib import Path

import pytest

RESULTS_DIR = Path(__file__).parent / "results"


@pytest.fixture(scope="session")
def results_dir() -> Path:
    RESULTS_DIR.mkdir(exist_ok=True)
    return RESULTS_DIR


@pytest.fixture
def write_result(results_dir):
    """Callable writing a named artefact into benchmarks/results/."""

    def _write(name: str, text: str) -> Path:
        path = results_dir / name
        path.write_text(text if text.endswith("\n") else text + "\n")
        return path

    return _write


def run_once(benchmark, fn):
    """Benchmark a deterministic regeneration function with one round."""
    return benchmark.pedantic(fn, rounds=1, iterations=1, warmup_rounds=0)
