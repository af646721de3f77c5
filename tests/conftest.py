"""Shared fixtures.

Campaign datasets are expensive enough to be worth sharing, so the three
per-application smoke datasets are built once per session.  All fixtures are
deterministic (fixed seeds).  Importing :mod:`oracles.vectorized` and
:mod:`oracles.event` registers the per-iteration and discrete-event reference
samplers as the ``"vectorized"`` and ``"event"`` backends for every test.
"""

from __future__ import annotations

import numpy as np
import pytest

import oracles.event  # noqa: F401  (registers the "event" backend)
import oracles.vectorized  # noqa: F401  (registers the "vectorized" backend)
from repro.core.timing import TimingDataset
from repro.experiments.config import CampaignConfig
from repro.experiments.executor import ShardExecutor
from repro.experiments.session import CampaignSession


@pytest.fixture(scope="session")
def rng() -> np.random.Generator:
    return np.random.default_rng(12345)


def _smoke_dataset(application: str) -> TimingDataset:
    config = CampaignConfig(
        application=application,
        trials=1,
        processes=2,
        iterations=30,
        threads=48,
        seed=202304,
    )
    return CampaignSession(config).run().dataset


@pytest.fixture(scope="session")
def minife_dataset() -> TimingDataset:
    return _smoke_dataset("minife")


@pytest.fixture(scope="session")
def minimd_dataset() -> TimingDataset:
    return _smoke_dataset("minimd")


@pytest.fixture(scope="session")
def miniqmc_dataset() -> TimingDataset:
    return _smoke_dataset("miniqmc")


@pytest.fixture(scope="session")
def all_datasets(minife_dataset, minimd_dataset, miniqmc_dataset):
    return {
        "minife": minife_dataset,
        "minimd": minimd_dataset,
        "miniqmc": miniqmc_dataset,
    }


@pytest.fixture(scope="session")
def synthetic_dataset() -> TimingDataset:
    """A small dense synthetic dataset with known structure (no noise model)."""
    rng = np.random.default_rng(0)
    times = np.abs(rng.normal(25.0e-3, 0.4e-3, size=(2, 2, 10, 16)))
    return TimingDataset.from_compute_times(
        times, {"application": "synthetic", "region": "loop"}
    )


@pytest.fixture()
def smoke_config() -> CampaignConfig:
    return CampaignConfig.smoke()


@pytest.fixture()
def campaign_folds(monkeypatch) -> list:
    """Records every schedule fold (``simulate_campaign``, on any schedule
    class that defines one) as ``(class name, cost tensor shape)``, in call
    order."""
    from repro.openmp.schedule import LoopSchedule

    folds: list = []
    pending = [LoopSchedule]
    while pending:
        cls = pending.pop()
        pending.extend(cls.__subclasses__())
        if "simulate_campaign" not in vars(cls):
            continue

        def counting(self, costs, *args, _fold=vars(cls)["simulate_campaign"], **kwargs):
            folds.append((type(self).__name__, np.shape(costs)))
            return _fold(self, costs, *args, **kwargs)

        monkeypatch.setattr(cls, "simulate_campaign", counting)
    return folds


@pytest.fixture(scope="session")
def executor_dataset():
    """``executor_dataset(backend, config, mode="process")``: ``backend``'s
    campaign (a backend instance, e.g. ``CampaignTensorBackend(chunk_shards=k)``)
    run by the executor — serially, or on a ``config.max_workers``-wide pool
    of ``mode`` — merged into one dataset."""

    def run(backend, config, mode="process"):
        blocks = ShardExecutor(mode=mode).iter_blocks(backend, config)
        return TimingDataset.merge(blocks, metadata=backend.metadata(config))

    return run
