"""Shared helpers for the benchmark harness.

Every benchmark regenerates one figure/table of the paper: it times the
regeneration (pytest-benchmark, single round — the workload cache in
``repro.experiments.runner`` makes repeated rounds meaningless), writes
the result tables under ``results/`` and asserts the *shape* of the
paper's finding (who wins, by what direction, where behaviour flips).
Absolute numbers are not expected to match the paper's testbed; see
EXPERIMENTS.md.

Two CI-oriented options (used by the smoke job in
``.github/workflows/ci.yml``):

* ``--quick`` shrinks workloads so a bench finishes in well under a
  minute, relaxing magnitude assertions accordingly (direction/shape
  assertions stay), and writes its tables to a temporary directory
  unless ``REPRO_RESULTS_DIR`` is set, so quick-size numbers never
  overwrite the committed full-size ``results/`` tables;
* ``--executor process`` additionally routes template materialisation
  through the real multicore backend (:mod:`repro.engine.parallel`) and
  asserts it agrees with the serial reference — a cheap end-to-end
  guard against process-pool regressions.
"""

import os
import sys

import pytest

sys.path.insert(0, os.path.dirname(__file__))


def pytest_addoption(parser):
    parser.addoption(
        "--quick",
        action="store_true",
        default=False,
        help="tiny workloads + relaxed magnitude asserts (CI smoke)",
    )
    # tests/conftest.py registers the same option for the chaos suite;
    # tolerate the duplicate when both conftests load in one run.
    try:
        parser.addoption(
            "--executor",
            choices=["serial", "process"],
            default="serial",
            help="execution backend exercised by the executor-aware benches",
        )
    except ValueError:
        pass


@pytest.fixture
def quick(request):
    """True when the CI smoke job asked for tiny workloads."""
    return request.config.getoption("--quick")


@pytest.fixture(autouse=True)
def quick_results_dir(request, tmp_path_factory, monkeypatch):
    """Under ``--quick``, point ``REPRO_RESULTS_DIR`` at a temporary
    directory unless the caller already chose one."""
    if request.config.getoption("--quick") and (
        "REPRO_RESULTS_DIR" not in os.environ
    ):
        monkeypatch.setenv(
            "REPRO_RESULTS_DIR", str(tmp_path_factory.mktemp("results"))
        )


@pytest.fixture
def executor(request):
    """The execution backend under test: "serial" or "process"."""
    return request.config.getoption("--executor")


@pytest.fixture
def regenerate(benchmark):
    """Run an experiment module once under timing; save its tables."""

    def _regenerate(module, stem):
        tables = benchmark.pedantic(
            lambda: module.run(quick=True), rounds=1, iterations=1
        )
        from repro.experiments.report import results_dir

        directory = results_dir()
        paths = []
        for index, table in enumerate(tables):
            suffix = "" if len(tables) == 1 else f"_{chr(ord('a') + index)}"
            paths.append(table.save(f"{stem}{suffix}.txt", directory))
        return tables

    return _regenerate
