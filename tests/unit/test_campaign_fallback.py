"""Per-shard-only applications on the campaign backend.

Custom applications that only implement the per-shard API
(:meth:`~repro.apps.base.ProxyApplication.item_costs` and friends) run
through the same 3-D campaign driver as the built-ins: the default
``*_campaign`` hooks stack per-shard cost/delay planes under absolute shard
scopes, feeding one whole-campaign schedule fold plus per-shard
jitter/noise passes.  These tests pin that path's contracts — chunk
invariance (bit-identical samples for any partition of the shard axis),
distributional agreement with the per-iteration ``"vectorized"`` backend,
and a clear error for apps whose item counts differ per process.
"""

from contextlib import contextmanager

import numpy as np
import pytest

from repro.apps import APPLICATIONS
from repro.apps.base import ApplicationConfig, ProxyApplication
from repro.experiments.backends import CampaignTensorBackend, get_backend
from repro.experiments.config import CampaignConfig
from repro.sim.random import PurposeSplitRNG, RandomStreams


class ToyApp(ProxyApplication):
    """Minimal third-party app: per-iteration lognormal item costs only."""

    name = "unit-toy"
    region = "compute"

    def item_costs(self, process, iteration, rng):
        return rng.lognormal(mean=-9.0, sigma=0.3, size=64)

    def run_reference_kernel(self, rng):
        return {"norm": 1.0}


class RaggedApp(ToyApp):
    """Item counts differ per process: no shard-stacked cost tensor."""

    name = "unit-ragged"

    def item_costs(self, process, iteration, rng):
        return rng.lognormal(mean=-9.0, sigma=0.3, size=48 + 16 * process)


class DelayedApp(ToyApp):
    """Adds application-level delays so the ``extra`` tensor is non-zero."""

    name = "unit-delayed"

    def application_delays(self, process, iteration, rng):
        return rng.exponential(2.0e-5, size=self.config.n_threads)


class StatefulApp(ToyApp):
    """Per-process state drawn in ``begin_process`` scales that process's
    later costs and delays (a per-process working-set factor)."""

    name = "unit-stateful"

    def begin_process(self, process, rng):
        self.scale = rng.lognormal(0.0, 0.02)

    def item_costs(self, process, iteration, rng):
        return self.scale * super().item_costs(process, iteration, rng)

    def application_delays(self, process, iteration, rng):
        return self.scale * rng.exponential(2.0e-5, size=self.config.n_threads)


@contextmanager
def registered(app_cls):
    assert app_cls.name not in APPLICATIONS
    APPLICATIONS[app_cls.name] = app_cls
    try:
        yield
    finally:
        del APPLICATIONS[app_cls.name]


def _config(app_cls, **overrides):
    params = dict(
        application=app_cls.name,
        trials=3,
        processes=2,
        iterations=60,
        threads=16,
        seed=1234,
        backend="campaign",
    )
    params.update(overrides)
    return CampaignConfig(**params)


class TestChunkInvariance:
    @pytest.mark.parametrize("app_cls", [ToyApp, DelayedApp, StatefulApp])
    def test_any_chunking_is_bit_identical(self, app_cls):
        with registered(app_cls):
            config = _config(app_cls, iterations=20)
            reference = CampaignTensorBackend(chunk_shards=8).run(config)
            for chunk_shards in (1, 2, 3):
                chunked = CampaignTensorBackend(chunk_shards=chunk_shards).run(
                    config
                )
                np.testing.assert_array_equal(
                    chunked.compute_times_s, reference.compute_times_s
                )

    def test_stateful_app_draws_each_shard_with_its_own_state(self):
        """Every shard of a chunk begins before any plane is drawn; the
        planes must still see their own shard's state, solo and grouped."""
        with registered(StatefulApp):
            config = _config(StatefulApp, iterations=6)
            solo = CampaignTensorBackend(chunk_shards=1).run(config)
            other = _config(StatefulApp, iterations=6, seed=99)
            grouped = CampaignTensorBackend(chunk_shards=8).run_many([config, other])
            np.testing.assert_array_equal(
                grouped[0].compute_times_s, solo.compute_times_s
            )
            np.testing.assert_array_equal(
                grouped[1].compute_times_s,
                CampaignTensorBackend(chunk_shards=1).run(other).compute_times_s,
            )

    def test_iter_shards_matches_run(self, app_cls=ToyApp):
        with registered(app_cls):
            config = _config(app_cls, iterations=12)
            backend = CampaignTensorBackend(chunk_shards=2)
            streamed = np.concatenate(
                [
                    shard.columns["compute_time_s"]
                    for shard in backend.iter_shards(config)
                ]
            )
            np.testing.assert_array_equal(
                streamed,
                CampaignTensorBackend(chunk_shards=2).run(config).compute_times_s,
            )


class TestParallelWorkers:
    @pytest.mark.parametrize("mode", ["thread", "process"])
    @pytest.mark.parametrize("app_cls", [ToyApp, DelayedApp, StatefulApp])
    def test_worker_pool_is_bit_identical(self, app_cls, mode):
        """Per-shard-only apps fold on the chunk worker pool like the
        built-ins; workers rebuild the app from the registry (inherited by
        forked process workers) and replay identical draws."""
        with registered(app_cls):
            config = _config(app_cls, iterations=12)
            serial = CampaignTensorBackend(chunk_shards=2).run(config)
            parallel = CampaignTensorBackend(chunk_shards=2).run(
                _config(app_cls, iterations=12, max_workers=2), mode=mode
            )
            for name in serial.columns:
                np.testing.assert_array_equal(
                    parallel.column(name), serial.column(name)
                )


class TestDistributionalAgreement:
    @pytest.mark.parametrize("app_cls", [ToyApp, DelayedApp, StatefulApp])
    def test_matches_vectorized_backend(self, app_cls):
        """Campaign and per-iteration vectorized paths agree in distribution.

        Draw order necessarily differs (per-shard planes vs per iteration),
        so the comparison is on summary statistics, not bits.
        """
        with registered(app_cls):
            config = _config(app_cls)
            campaign = CampaignTensorBackend().run(config).compute_times_s
            vectorized = (
                get_backend("vectorized")
                .run(config.with_backend("vectorized"))
                .compute_times_s
            )
            assert campaign.shape == vectorized.shape
            assert np.isclose(campaign.mean(), vectorized.mean(), rtol=0.05)
            for percentile in (25, 50, 75, 95):
                assert np.isclose(
                    np.percentile(campaign, percentile),
                    np.percentile(vectorized, percentile),
                    rtol=0.05,
                ), f"p{percentile} diverged"

    def test_ragged_item_counts_are_rejected(self):
        """Item counts that differ per process cannot stack into one cost
        tensor: the error names the app and points to ``vectorized``."""
        with registered(RaggedApp):
            config = _config(RaggedApp, iterations=15)
            with pytest.raises(ValueError, match="'unit-ragged'.*'vectorized'"):
                CampaignTensorBackend().run(config)
            dataset = get_backend("vectorized").run(config.with_backend("vectorized"))
            assert dataset.n_samples == 3 * 2 * 15 * 16


    @pytest.mark.parametrize("entry_point", ["iter_shards", "run_many", "workers"])
    def test_ragged_rejection_reaches_every_campaign_entry_point(self, entry_point):
        """Streaming, grouped and pooled runs surface the same error as
        ``run`` rather than a shape error from a later stage."""
        with registered(RaggedApp):
            config = _config(RaggedApp, iterations=4)
            backend = CampaignTensorBackend()
            with pytest.raises(ValueError, match="'unit-ragged'.*'vectorized'"):
                if entry_point == "iter_shards":
                    list(backend.iter_shards(config))
                elif entry_point == "run_many":
                    backend.run_many([config, _config(RaggedApp, iterations=4, seed=5)])
                else:
                    CampaignTensorBackend(chunk_shards=2).run(
                        _config(RaggedApp, iterations=4, max_workers=2), mode="thread"
                    )


class TestAppLevelContract:
    def test_plain_generator_accepted(self):
        """``maybe_scope`` is a no-op for plain Generators — still works."""
        app = ToyApp(ApplicationConfig(n_threads=8, n_iterations=10))
        times = app.thread_compute_times_campaign(
            shards=[(0, 0), (0, 1), (1, 0)],
            rng=np.random.default_rng(7),
        )
        assert times.shape == (3, 10, 8)
        assert np.all(times > 0)

    def test_shard_scopes_are_absolute(self):
        """The same shard's draws do not depend on its chunk neighbours."""
        app = ToyApp(ApplicationConfig(n_threads=8, n_iterations=10))

        def sample(shards):
            rng = PurposeSplitRNG(RandomStreams(99), "unit-toy", "campaign")
            return app.thread_compute_times_campaign(shards=shards, rng=rng)

        together = sample([(0, 0), (0, 1)])
        alone = sample([(0, 1)])
        np.testing.assert_array_equal(together[1], alone[0])

    def test_begin_process_runs_once_per_shard_under_its_scope(self):
        """The default ``begin_campaign`` begins every shard of the chunk,
        each under its absolute shard scope: a shard's state draw does not
        depend on which chunk carries it.  The cost and delay stages replay
        the same draw before each shard's planes."""

        class ProbedApp(ToyApp):
            def __init__(self, config):
                super().__init__(config)
                self.begun = []

            def begin_process(self, process, rng):
                self.begun.append((process, rng.random()))

        def begin(shards):
            app = ProbedApp(ApplicationConfig(n_threads=8, n_iterations=4))
            rng = PurposeSplitRNG(RandomStreams(99), "unit-toy", "campaign")
            app.thread_compute_times_campaign(shards=shards, rng=rng)
            return app.begun

        together = begin([(0, 0), (0, 1), (1, 0)])
        first = together[:3]
        assert [process for process, _ in first] == [0, 1, 0]
        assert len({draw for _, draw in first}) == 3
        # begin_campaign, then one replay in each of the costs and delays stages
        assert together == first * 3
        assert begin([(0, 1)]) == [first[1]] * 3
        assert begin([(1, 0)]) == [first[2]] * 3

    def test_delay_shape_mismatch_rejected(self):
        class BadDelays(ToyApp):
            def application_delays_batch(self, process, n_iterations, rng):
                return np.zeros((n_iterations, 3))

        app = BadDelays(ApplicationConfig(n_threads=8, n_iterations=5))
        with pytest.raises(ValueError, match="application_delays_campaign"):
            app.thread_compute_times_campaign(
                shards=[(0, 0)], rng=np.random.default_rng(0)
            )
