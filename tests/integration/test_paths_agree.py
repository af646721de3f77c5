"""Integration: the per-iteration and discrete-event reference samplers
agree.

The two backends share the application work models and the noise/clock
populations, so (a) with noise disabled they must agree essentially exactly,
and (b) with noise enabled they must agree in distribution.
"""

import numpy as np
import pytest

from oracles.event import record_trial
from repro.analysis import analyze_dataset
from repro.experiments.config import CampaignConfig
from repro.experiments.session import CampaignSession
from repro.scenarios import get_machine
from repro.stats.histogram import fixed_width_histogram, histogram_overlap


def _dataset(config):
    return CampaignSession(config).run().dataset


def _config(application, backend, noise, seed=77):
    config = CampaignConfig(
        application=application,
        trials=1,
        processes=2,
        iterations=15,
        threads=24,
        seed=seed,
        backend=backend,
    )
    if not noise:
        config.machine = config.machine.without_noise()
    return config


class TestBackendAgreement:
    @pytest.mark.parametrize("application", ["minife", "miniqmc"])
    def test_noise_free_backends_agree_closely(self, application):
        vector = _dataset(_config(application, "vectorized", noise=False))
        event = _dataset(_config(application, "event", noise=False))
        assert len(vector) == len(event)
        v = np.sort(vector.compute_times_s)
        e = np.sort(event.compute_times_s)
        # identical work models, no noise: distributions match tightly (the
        # event path additionally rounds through per-core clocks)
        np.testing.assert_allclose(np.median(v), np.median(e), rtol=1e-3)
        np.testing.assert_allclose(v.mean(), e.mean(), rtol=1e-3)

    def test_noisy_backends_agree_in_distribution(self):
        vector = _dataset(_config("minimd", "vectorized", noise=True))
        event = _dataset(_config("minimd", "event", noise=True))
        hist_v = fixed_width_histogram(vector.compute_times_s, 0.25e-3)
        hist_e = fixed_width_histogram(event.compute_times_s, 0.25e-3)
        assert histogram_overlap(hist_v, hist_e) > 0.7
        report_v = analyze_dataset(vector).report(include_earlybird=False)
        report_e = analyze_dataset(event).report(include_earlybird=False)
        assert report_v.mean_median_arrival_ms == pytest.approx(
            report_e.mean_median_arrival_ms, rel=0.02
        )

    def test_event_backend_records_raw_clock_readings(self):
        # the backend's samples are the compute times of these readings
        config = _config("minife", "event", noise=False)
        dataset = record_trial(config, trial=0)
        assert "start_ns" in dataset.columns
        assert np.array_equal(dataset.compute_times_s, _dataset(config).compute_times_s)
        starts = dataset.column("start_ns")
        ends = dataset.column("end_ns")
        assert np.all(ends >= starts)
        # raw readings are *not* aligned across threads (unsynchronised
        # clocks), which is exactly why the derived compute time is used
        assert starts.std() > 1e6

    def test_event_compute_times_are_the_elapsed_clock_readings(self):
        # on cloudvm's wide clock population (epochs up to 1e16 ns) too
        config = CampaignConfig(
            application="minimd",
            trials=1,
            processes=2,
            iterations=4,
            threads=8,
            seed=5,
            machine=get_machine("cloudvm"),
            backend="event",
        )
        dataset = record_trial(config, trial=0)
        elapsed_ns = dataset.column("end_ns") - dataset.column("start_ns")
        assert np.array_equal(dataset.compute_times_s, elapsed_ns * 1.0e-9)
        assert dataset.column("start_ns").max() > 1e13
        assert dataset.metadata == {"application": "minimd", "region": "force_lj"}
