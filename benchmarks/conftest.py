"""Shared fixtures for the benchmark harness.

Every benchmark regenerates one of the paper's tables or figures from a
*benchmark-scale* campaign: the full 48-thread teams and 200 application
iterations (the dimensions the figures depend on) but 2 trials × 2 processes
instead of 10 × 8, so the whole suite runs in minutes.  The campaign datasets
are built and analysed once per session; the benchmarked functions are the
analysis / generation steps.

Every benchmark also *asserts the qualitative claim* the corresponding paper
artefact makes before timing it, so ``pytest benchmarks/ --benchmark-only``
doubles as the reproduction check.  Paper-scale numbers for EXPERIMENTS.md
come from ``examples/paper_reproduction.py --scale paper``.
"""

from __future__ import annotations

import sys
from pathlib import Path

import pytest

# the test tree's reference implementations (``oracles``) for the guards
# that compare the program against them
sys.path.append(str(Path(__file__).resolve().parents[1] / "tests"))

import oracles.event  # noqa: E402,F401  (registers the "event" backend)

from repro.experiments.config import CampaignConfig
from repro.experiments.session import CampaignSession

APPLICATIONS = ("minife", "minimd", "miniqmc")


@pytest.fixture(scope="session")
def bench_config() -> CampaignConfig:
    return CampaignConfig.benchmark_scale()


@pytest.fixture(scope="session")
def bench_runs(bench_config):
    """Benchmark-scale campaign results for all three applications (each
    also serves as the ``shards`` of the exemplar figures 5/7/9)."""
    return CampaignSession(bench_config).run_all(APPLICATIONS)


@pytest.fixture(scope="session")
def bench_datasets(bench_runs):
    """Benchmark-scale datasets for all three applications."""
    return {name: result.dataset for name, result in bench_runs.items()}


@pytest.fixture(scope="session")
def bench_results(bench_runs):
    """Exact-mode analysis results (every registered pass) per application."""
    return {name: result.analyze() for name, result in bench_runs.items()}


@pytest.fixture(scope="session")
def minife_ds(bench_datasets):
    return bench_datasets["minife"]


@pytest.fixture(scope="session")
def minimd_ds(bench_datasets):
    return bench_datasets["minimd"]


@pytest.fixture(scope="session")
def miniqmc_ds(bench_datasets):
    return bench_datasets["miniqmc"]
