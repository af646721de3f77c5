"""Scenario subsystem end-to-end: bit-identity, CLI, matrix execution.

The digests below were recorded from the seed's hardwired two-source noise
model *before* ``OSNoiseModel`` was refactored onto the noise-source
registry.  They pin the acceptance criterion that the default scenario (and
every default-noise campaign) reproduces the reference datasets
bit-identically: same seed → same arrays, down to the last bit.
"""

import hashlib

import numpy as np
import pytest

from repro.experiments.config import CampaignConfig
from repro.experiments.runner import main as runner_main
from repro.experiments.session import CampaignSession
from repro.scenarios import ScenarioMatrix, available_scenarios, get_scenario

# sha256 of the dense compute_times_s array of CampaignConfig.smoke(app)
# (seed 7, 1 trial x 2 processes x 12 iterations x 16 threads).  minimd /
# miniqmc are unchanged since the pre-scenario-refactor
# recording; minife was re-recorded when ``StaticSchedule.simulate`` moved
# its per-thread busy-time summation to ``np.add.reduceat`` (sequential
# instead of pairwise accumulation shifts MiniFE's pencil-calibration median
# by one ULP — same physics, different last bit).
SEED_DIGESTS = {
    "minife": "bb2fcafc7160d7099ca5ef6dac0ecd53bff0aad663032aed63a90c0242740980",
    "minimd": "aad69e389dcdd05bee4e48e4e001a4e94e9a7b98124d3c24f49a2ce701cd1568",
    "miniqmc": "42d6abd256f408648188889ba1df2732b40a30ef1dbdbc4cb929170999478881",
}
# The event backend's digest was re-recorded when it adopted the
# WindowedNoiseModel: noise events are now drawn once per (core, trial)
# timeline window instead of once per delay query, so the draw order (and
# therefore the bits) changed — same populations, same distribution
# (tests/integration/test_paths_agree.py still checks distributional
# agreement with the vectorized path), and per-core noise is now a single
# consistent realisation instead of independent redraws per query window.
SEED_EVENT_DIGEST = "d9415bf79ddd3ecdc48bfaec62aacb9cefbca28fd0322557f1abf3127b615a33"


def _digest(dataset) -> str:
    blob = np.ascontiguousarray(dataset.compute_times_s, dtype=np.float64).tobytes()
    return hashlib.sha256(blob).hexdigest()


class TestBitIdentity:
    @pytest.mark.parametrize("application", sorted(SEED_DIGESTS))
    def test_default_campaign_matches_pre_refactor_digest(self, application):
        dataset = CampaignSession(CampaignConfig.smoke(application)).run().dataset
        assert _digest(dataset) == SEED_DIGESTS[application]

    def test_event_backend_matches_recorded_digest(self):
        config = CampaignConfig.smoke("minife").with_backend("event")
        dataset = CampaignSession(config).run().dataset
        assert _digest(dataset) == SEED_EVENT_DIGEST

    def test_default_scenario_matches_pre_refactor_digest(self):
        session = get_scenario("manzano-default").session(scale="smoke")
        assert _digest(session.run().dataset) == SEED_DIGESTS["minife"]


class TestScenarioExecution:
    def test_every_registered_scenario_smokes(self):
        for name in available_scenarios():
            config = get_scenario(name).campaign_config(
                "smoke", trials=1, processes=1, iterations=4, threads=8
            )
            dataset = CampaignSession(config).run().dataset
            times = dataset.compute_times_s
            assert np.all(np.isfinite(times)) and np.all(times >= 0.0), name
            assert dataset.metadata["scenario"] == name

    def test_matrix_feeds_sessions_and_keys_by_scenario(self, tmp_path):
        matrix = ScenarioMatrix(noises=(None, "none"))
        results = matrix.run(
            "smoke", cache_dir=tmp_path, iterations=4, threads=8, processes=1
        )
        assert set(results) == {"manzano-minife", "manzano-minife-none"}
        noisy = results["manzano-minife"].dataset
        quiet = results["manzano-minife-none"].dataset
        assert noisy.n_samples == quiet.n_samples
        # cache is keyed per config: a second run hits it
        rerun = matrix.run(
            "smoke", cache_dir=tmp_path, iterations=4, threads=8, processes=1
        )
        assert all(result.from_cache for result in rerun.values())

    def test_cache_hit_restamps_scenario_label(self, tmp_path):
        # two scenarios with identical physics share a cache entry (the key
        # excludes the label); the hit must carry the *requesting* scenario
        from repro.scenarios import Scenario

        first = get_scenario("manzano-default").session(
            scale="smoke", cache_dir=tmp_path
        )
        assert first.run().dataset.metadata["scenario"] == "manzano-default"
        twin = Scenario(name="manzano-twin")
        hit = twin.session(scale="smoke", cache_dir=tmp_path).run()
        assert hit.from_cache
        assert hit.dataset.metadata["scenario"] == "manzano-twin"
        # a plain (scenario-less) config drops the label entirely
        from dataclasses import replace

        unlabeled = replace(
            get_scenario("manzano-default").campaign_config("smoke"), scenario=None
        )
        plain = CampaignSession(unlabeled, cache_dir=tmp_path).run()
        assert plain.from_cache
        assert "scenario" not in plain.dataset.metadata

    def test_scenario_backend_pin_survives_cli_defaults(self):
        # manzano-campaign-batched pins backend="campaign"; the CLI must not
        # silently override it with its own default when --backend is absent
        from repro.experiments.runner import _configure, build_parser

        parser = build_parser()
        args = parser.parse_args(["--scenario", "manzano-campaign-batched"])
        config = _configure(args, "minife")
        assert config.backend == "campaign"
        assert config.schedule == "dynamic,4"
        # an explicit flag still wins over the scenario pin
        args = parser.parse_args(
            ["--scenario", "manzano-campaign-batched", "--backend", "event"]
        )
        assert _configure(args, "minife").backend == "event"
        # scenario-less runs keep the vectorized default
        args = parser.parse_args(["--apps", "minife"])
        assert _configure(args, "minife").backend == "vectorized"

    def test_schedule_override_changes_the_data(self):
        base = get_scenario("manzano-default").campaign_config(
            "smoke", iterations=6, threads=8, processes=1
        )
        dynamic = get_scenario("manzano-dynamic").campaign_config(
            "smoke", iterations=6, threads=8, processes=1
        )
        a = CampaignSession(base).run().dataset.compute_times_s
        b = CampaignSession(dynamic).run().dataset.compute_times_s
        assert a.shape == b.shape
        assert not np.array_equal(a, b)


class TestCLI:
    def test_list_scenarios_porcelain(self, capsys):
        assert runner_main(["--list-scenarios", "--porcelain"]) == 0
        names = capsys.readouterr().out.split()
        assert list(names) == sorted(available_scenarios())

    def test_list_machines_and_sources(self, capsys):
        assert runner_main(["--list-machines", "--list-noise-sources"]) == 0
        out = capsys.readouterr().out
        assert "manzano" in out and "cloudvm" in out
        assert "pareto-interrupts" in out and "profiles:" in out

    def test_scenario_run_end_to_end(self, tmp_path, capsys):
        code = runner_main(
            [
                "--scenario",
                "manzano-quiet",
                "--scale",
                "smoke",
                "--iterations",
                "6",
                "--threads",
                "8",
                "--processes",
                "1",
                "--output",
                str(tmp_path),
                "--save-datasets",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "[scenario manzano-quiet]" in out
        assert (tmp_path / "dataset_minife.npz").exists()
        assert (tmp_path / "report.txt").exists()

    @pytest.mark.parametrize(
        "conflict", [["--machine", "cloudvm"], ["--schedule", "dynamic"], ["--apps", "minimd"]]
    )
    def test_scenario_conflicting_flags_rejected(self, conflict, capsys):
        with pytest.raises(SystemExit) as excinfo:
            runner_main(["--scenario", "manzano-default", *conflict])
        assert excinfo.value.code == 2
        assert "conflicts with --scenario" in capsys.readouterr().err

    def test_cli_machine_and_schedule_overrides(self, tmp_path, capsys):
        code = runner_main(
            [
                "--apps",
                "minife",
                "--scale",
                "smoke",
                "--machine",
                "laptop",
                "--schedule",
                "dynamic",
                "--iterations",
                "4",
                "--threads",
                "8",
                "--processes",
                "1",
                "--output",
                str(tmp_path),
            ]
        )
        assert code == 0
        assert "on laptop" in capsys.readouterr().out
