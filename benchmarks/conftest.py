"""Benchmark-suite helpers.

Each experiment *tees* its regenerated table to stdout and to
``benchmarks/results/<experiment>.txt`` so results survive pytest's output
capture and docs/benchmarks.md can reference them directly.
"""

from __future__ import annotations

import pathlib

import pytest

RESULTS_DIR = pathlib.Path(__file__).parent / "results"


def pytest_addoption(parser):
    parser.addoption(
        "--scenario-seed", type=int, default=7,
        help="seed for generated (scenariogen) benchmark scenarios; "
             "recorded in every BENCH_*.json report")


@pytest.fixture(scope="session")
def scenario_seed(request) -> int:
    return request.config.getoption("--scenario-seed")


@pytest.fixture(autouse=True, scope="session")
def _thread_scenario_seed(request):
    """Expose ``--scenario-seed`` to report writers in benchmarks.common."""
    from benchmarks import common

    common.SCENARIO_SEED = request.config.getoption("--scenario-seed")
    yield


@pytest.fixture
def report():
    """``report(experiment_id, text)`` — print and persist a results table."""
    RESULTS_DIR.mkdir(exist_ok=True)

    def _report(experiment_id: str, text: str) -> None:
        print(f"\n{text}\n")
        path = RESULTS_DIR / f"{experiment_id}.txt"
        existing = path.read_text() if path.exists() else ""
        path.write_text(existing + text + "\n\n")

    return _report


@pytest.fixture(autouse=True, scope="session")
def _clear_results():
    RESULTS_DIR.mkdir(exist_ok=True)
    for stale in RESULTS_DIR.glob("*.txt"):
        stale.unlink()
    yield
