"""Custom applications on the campaign backend.

A third-party application implements the whole-campaign hooks
(:meth:`~repro.apps.base.ProxyApplication.item_costs_campaign` and, where
it needs them, ``application_delays_campaign`` / ``begin_campaign``),
drawing each shard's plane through :func:`~repro.apps.base.stack_shards`,
and runs through the same 3-D campaign path as the built-ins: one
whole-campaign schedule fold plus per-shard jitter/noise passes.  These
tests pin that path's contracts — chunk invariance (bit-identical samples
for any partition of the shard axis), worker-pool bit-identity, absolute
shard scopes, distributional agreement with the per-iteration
``"vectorized"`` reference sampler, and clear errors for planes that differ
per shard and for delay tensors of the wrong shape.
"""

from contextlib import contextmanager

import numpy as np
import pytest

from repro.apps import APPLICATIONS
from repro.apps.base import ApplicationConfig, ProxyApplication, stack_shards
from repro.experiments.backends import CampaignTensorBackend
from repro.experiments.config import CampaignConfig
from repro.experiments.session import CampaignSession
from repro.sim.random import PurposeSplitRNG, RandomStreams

from oracles import models


class ToyApp(ProxyApplication):
    """Minimal third-party app: lognormal item costs only."""

    name = "unit-toy"
    region = "compute"

    def item_costs_campaign(self, shards, n_iterations, rng):
        return stack_shards(
            shards, rng, lambda _: rng.lognormal(-9.0, 0.3, size=(n_iterations, 64))
        )


class RaggedApp(ToyApp):
    """Item counts differ per process: no shard-stacked cost tensor."""

    name = "unit-ragged"

    def item_costs_campaign(self, shards, n_iterations, rng):
        return stack_shards(
            shards,
            rng,
            lambda index: rng.lognormal(
                -9.0, 0.3, size=(n_iterations, 48 + 16 * shards[index][1])
            ),
        )


class DelayedApp(ToyApp):
    """Adds application-level delays so the ``extra`` tensor is non-zero."""

    name = "unit-delayed"

    def application_delays_campaign(self, shards, n_iterations, rng):
        shape = (n_iterations, self.config.n_threads)
        return stack_shards(shards, rng, lambda _: rng.exponential(2.0e-5, size=shape))


class StatefulApp(DelayedApp):
    """Per-process state drawn in ``begin_campaign`` scales that process's
    later costs and delays (a per-process working-set factor)."""

    name = "unit-stateful"

    def begin_campaign(self, shards, rng):
        self.scales = stack_shards(shards, rng, lambda _: rng.lognormal(0.0, 0.02))

    def item_costs_campaign(self, shards, n_iterations, rng):
        costs = super().item_costs_campaign(shards, n_iterations, rng)
        return self.scales[:, None, None] * costs

    def application_delays_campaign(self, shards, n_iterations, rng):
        delays = super().application_delays_campaign(shards, n_iterations, rng)
        return self.scales[:, None, None] * delays


class ToyModel(models.IterationModel):
    """Per-iteration reference model of :class:`ToyApp` (and its
    subclasses), read by the ``"vectorized"`` and ``"event"`` samplers."""

    scale = 1.0

    def item_costs(self, process, iteration, rng):
        return self.scale * rng.lognormal(-9.0, 0.3, size=64)


class RaggedModel(ToyModel):
    def item_costs(self, process, iteration, rng):
        return rng.lognormal(-9.0, 0.3, size=48 + 16 * process)


class DelayedModel(ToyModel):
    def application_delays(self, process, iteration, rng):
        return self.scale * rng.exponential(2.0e-5, size=self.n_threads)


class StatefulModel(DelayedModel):
    def begin(self, process, rng):
        self.scale = rng.lognormal(0.0, 0.02)


REFERENCE_MODELS = {
    ToyApp: ToyModel,
    RaggedApp: RaggedModel,
    DelayedApp: DelayedModel,
    StatefulApp: StatefulModel,
}


@contextmanager
def registered(app_cls):
    """Register ``app_cls`` and its per-iteration reference model."""
    assert app_cls.name not in APPLICATIONS.names()
    assert app_cls.name not in models.MODELS
    APPLICATIONS.register(app_cls)
    models.MODELS[app_cls.name] = REFERENCE_MODELS[app_cls]
    try:
        yield
    finally:
        APPLICATIONS.unregister(app_cls.name)
        del models.MODELS[app_cls.name]


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


def _dataset(config):
    return CampaignSession(config).run(use_cache=False).dataset


class TestChunkInvariance:
    @pytest.mark.parametrize("app_cls", [ToyApp, DelayedApp, StatefulApp])
    def test_any_chunking_is_bit_identical(self, executor_dataset, app_cls):
        with registered(app_cls):
            config = _config(app_cls, iterations=20)
            reference = executor_dataset(CampaignTensorBackend(chunk_shards=8), config)
            for chunk_shards in (1, 2, 3):
                chunked = executor_dataset(
                    CampaignTensorBackend(chunk_shards=chunk_shards), config
                )
                np.testing.assert_array_equal(
                    chunked.compute_times_s, reference.compute_times_s
                )

    def test_stateful_app_draws_each_shard_with_its_own_state(self, executor_dataset):
        """Every shard of a chunk begins before any plane is drawn; the
        planes must still see their own shard's state."""
        with registered(StatefulApp):
            config = _config(StatefulApp, iterations=6)
            solo = executor_dataset(CampaignTensorBackend(chunk_shards=1), config)
            chunked = executor_dataset(CampaignTensorBackend(chunk_shards=8), config)
            np.testing.assert_array_equal(
                chunked.compute_times_s, solo.compute_times_s
            )

    def test_stream_matches_run(self, executor_dataset, app_cls=ToyApp):
        with registered(app_cls):
            config = _config(app_cls, iterations=12)
            streamed = np.concatenate(
                [
                    shard.columns["compute_time_s"]
                    for shard in CampaignSession(config).stream()
                ]
            )
            np.testing.assert_array_equal(
                streamed,
                executor_dataset(
                    CampaignTensorBackend(chunk_shards=2), config
                ).compute_times_s,
            )


class TestParallelWorkers:
    @pytest.mark.parametrize("mode", ["thread", "process"])
    @pytest.mark.parametrize("app_cls", [ToyApp, DelayedApp, StatefulApp])
    def test_worker_pool_is_bit_identical(self, executor_dataset, app_cls, mode):
        """Per-shard-only apps fold on the chunk worker pool like the
        built-ins; workers rebuild the app from the registry (inherited by
        forked process workers) and replay identical draws."""
        with registered(app_cls):
            config = _config(app_cls, iterations=12)
            serial = executor_dataset(CampaignTensorBackend(chunk_shards=2), config)
            parallel = executor_dataset(
                CampaignTensorBackend(chunk_shards=2),
                _config(app_cls, iterations=12, max_workers=2),
                mode,
            )
            for name in serial.columns:
                np.testing.assert_array_equal(
                    parallel.column(name), serial.column(name)
                )


class TestDistributionalAgreement:
    @pytest.mark.parametrize("app_cls", [ToyApp, DelayedApp, StatefulApp])
    def test_matches_vectorized_backend(self, app_cls):
        """The campaign hooks and the app's per-iteration reference model
        agree in distribution through the whole sampling path.

        Draw order necessarily differs (per-shard planes vs per iteration),
        so the comparison is on summary statistics, not bits.
        """
        with registered(app_cls):
            config = _config(app_cls)
            campaign = _dataset(config).compute_times_s
            vectorized = _dataset(config.with_backend("vectorized")).compute_times_s
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
        tensor: ``stack_shards`` names the shards and the limitation (the
        discrete-event reference sampler still runs such a model)."""
        with registered(RaggedApp):
            config = _config(RaggedApp, iterations=15)
            with pytest.raises(ValueError, match="differ per process.*not supported"):
                _dataset(config)
            dataset = _dataset(config.with_backend("event"))
            assert dataset.n_samples == 3 * 2 * 15 * 16

    @pytest.mark.parametrize("entry_point", ["stream", "workers"])
    def test_ragged_rejection_reaches_every_campaign_entry_point(
        self, executor_dataset, entry_point
    ):
        """Streaming and pooled runs surface the same error as
        ``run`` rather than a shape error from a later stage."""
        with registered(RaggedApp):
            config = _config(RaggedApp, iterations=4)
            with pytest.raises(ValueError, match="differ per process.*not supported"):
                if entry_point == "stream":
                    list(CampaignSession(config).stream())
                else:
                    executor_dataset(
                        CampaignTensorBackend(chunk_shards=2),
                        _config(RaggedApp, iterations=4, max_workers=2),
                        "thread",
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

    def test_state_draws_are_shard_scoped(self):
        """``begin_campaign``'s per-shard state, drawn through
        ``stack_shards``, does not depend on which chunk carries the shard."""

        def scales(shards):
            app = StatefulApp(ApplicationConfig(n_threads=8, n_iterations=4))
            rng = PurposeSplitRNG(RandomStreams(99), "unit-toy", "campaign")
            app.thread_compute_times_campaign(shards=shards, rng=rng)
            return app.scales

        together = scales([(0, 0), (0, 1), (1, 0)])
        assert together.shape == (3,)
        assert len(set(together)) == 3
        assert scales([(0, 1)])[0] == together[1]
        assert scales([(1, 0)])[0] == together[2]

    def test_stack_shards_draws_plain_generators_in_shard_order(self):
        """Under a plain ``Generator`` the planes are consecutive draws."""
        rng = np.random.default_rng(3)
        shards = [(0, 0), (0, 1), (1, 0)]
        planes = stack_shards(shards, rng, lambda _: rng.normal(size=(2, 4)))
        np.testing.assert_array_equal(
            planes, np.random.default_rng(3).normal(size=(3, 2, 4))
        )

    def test_item_costs_campaign_is_required(self):
        class NoCosts(ProxyApplication):
            name = "unit-no-costs"

        with pytest.raises(TypeError, match="item_costs_campaign"):
            NoCosts()

    def test_stack_shards_rejects_planes_that_would_broadcast(self):
        """A later plane that would broadcast into the first one's shape
        (here a scalar) is an error, not a silently repeated value."""
        rng = np.random.default_rng(3)
        shards = [(0, 0), (0, 1)]
        draws = [np.ones(4), np.ones(1)]
        with pytest.raises(ValueError, match=r"shard \(0, 1\) drew a plane of shape \(1,\)"):
            stack_shards(shards, rng, lambda index: draws[index])

    def test_default_delays_are_zero(self):
        app = ToyApp(ApplicationConfig(n_threads=8, n_iterations=5))
        delays = app.application_delays_campaign(
            [(0, 0), (1, 1)], 5, np.random.default_rng(0)
        )
        np.testing.assert_array_equal(delays, np.zeros((2, 5, 8)))

    def test_delay_shape_mismatch_rejected(self):
        class BadDelays(ToyApp):
            def application_delays_campaign(self, shards, n_iterations, rng):
                return np.zeros((len(shards), n_iterations, 3))

        app = BadDelays(ApplicationConfig(n_threads=8, n_iterations=5))
        with pytest.raises(ValueError, match="application_delays_campaign"):
            app.thread_compute_times_campaign(
                shards=[(0, 0)], rng=np.random.default_rng(0)
            )
