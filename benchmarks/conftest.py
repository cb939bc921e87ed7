"""Shared fixtures for the evaluation benchmarks.

Every benchmark regenerates one table or figure of the paper (§5) and
registers two artifacts through the session :class:`BenchRecorder`:

* canonical JSON samples (metric, value, unit, metadata) — published
  as ``BENCH_<name>.json`` at the repo root, the machine-readable
  trajectory ``repro bench compare`` gates on;
* the human-readable table — published unchanged as
  ``benchmarks/results/<name>.txt``.

The heavy pipeline state (netlists, SP profiles, aging STA, lifted
test suites, failing netlists) is built once per session and shared
through :func:`repro.core.experiments.default_context`.

Run with::

    pytest benchmarks/ --benchmark-only

Generated tables land in ``benchmarks/results/`` so EXPERIMENTS.md can
reference them; both writes are atomic (temp file + rename, parent
directories created) so an interrupted run never leaves partial
artifacts.  A smoke run (``VEGA_SMOKE=1``) writes its tables to a
session temp directory instead: its reduced sizes must never replace
the committed full-size tables.

Speedup benchmarks time the reference paths in ``tests/oracles.py``,
so ``tests/`` goes on ``sys.path``.
"""

import os
import pathlib
import sys

import pytest

from repro.bench import BenchRecorder
from repro.core.experiments import default_context

RESULTS_DIR = pathlib.Path(__file__).parent / "results"
REPO_ROOT = pathlib.Path(__file__).parent.parent
sys.path.insert(0, str(REPO_ROOT / "tests"))


@pytest.fixture(scope="session")
def ctx():
    return default_context()


@pytest.fixture(scope="session")
def recorder(tmp_path_factory):
    smoke = os.environ.get("VEGA_SMOKE") == "1"
    results_dir = tmp_path_factory.mktemp("results") if smoke else RESULTS_DIR
    rec = BenchRecorder(results_dir=results_dir, json_dir=REPO_ROOT)
    yield rec
    # Publish any benchmark that registered samples but never reached
    # its table call (e.g. a failed assertion after sampling).
    rec.flush_all()


@pytest.fixture(scope="session")
def save_table(recorder):
    """Legacy fixture: register only the human table.

    Prefer ``recorder`` — every benchmark should emit at least one
    canonical sample alongside its table.
    """
    return recorder.table
