"""Integration: the streaming analysis engine vs the merged dataset.

The acceptance criterion of the analysis-layer refactor: every registered
pass, folded over campaign shards (serially, in parallel, in any order),
produces results identical to folding the merged dataset.  The digests
below pin the full ``FeasibilityReport.as_dict()`` payload (canonical JSON,
sha256) of the seed smoke campaigns for all three applications — both
``analyze_dataset`` over the merged dataset and ``CampaignSession.analyze``
must reproduce them bit-for-bit.
"""

import hashlib
import json
import pickle

import numpy as np
import pytest

from repro.analysis import AnalysisContext, analyze_dataset, run_columnar_analyses
from repro.experiments.config import CampaignConfig
from repro.experiments.runner import main as runner_main
from repro.experiments.session import CampaignSession
from shards import shards_of

# sha256 of json.dumps(report.as_dict(), sort_keys=True) for the smoke
# campaigns (seed 7, 1 trial x 2 processes x 12 iterations x 16 threads) on
# the default backend.  First recorded when the analysis layer moved onto
# the streaming engine; re-recorded once when the default backend became
# the campaign kernel: its samples are the pinned CAMPAIGN_SMOKE_DIGESTS
# datasets (tests/digests.py), not the per-iteration sampler's, so every
# report field computed from them moved with them.
REPORT_DIGESTS = {
    "minife": "db3cdb87fd59e1f33ca7bb6950e4a492064fd7ee5f93f1d2f75eac98079a8641",
    "minimd": "58963504cf2db80e06fc2baae275a93b6a93bc21786eb8faba71d29d9df6d5df",
    "miniqmc": "f0fe313903cc9628bc8ab80fe29ca45436aa6bd2f2332ab06ef669a586d484e0",
}


def _digest(report) -> str:
    blob = json.dumps(report.as_dict(), sort_keys=True)
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


class TestPinnedReportDigests:
    @pytest.mark.parametrize("application", sorted(REPORT_DIGESTS))
    def test_in_memory_report_matches_pin(self, application):
        dataset = CampaignSession(CampaignConfig.smoke(application)).run().dataset
        report = analyze_dataset(dataset).report()
        assert _digest(report) == REPORT_DIGESTS[application]

    @pytest.mark.parametrize("application", sorted(REPORT_DIGESTS))
    def test_streaming_report_matches_pin(self, application):
        session = CampaignSession(CampaignConfig.smoke(application))
        results = session.analyze(analyses="all")
        assert _digest(results.report()) == REPORT_DIGESTS[application]

    @pytest.mark.parametrize("application", sorted(REPORT_DIGESTS))
    def test_out_of_core_report_matches_pin(self, application, tmp_path):
        """Analyses folded over a spilled store (one shard per group: two
        workers cut the two shards into one-shard chunks) reach the same
        report as the in-memory run."""
        session = CampaignSession(
            CampaignConfig.smoke(application).parallel(2),
            cache_dir=tmp_path,
            executor_mode="thread",
        )
        result = session.run(store=True, spill_threshold_bytes=1)
        assert result.store is not None and result.store.n_groups > 1
        results = session.analyze(analyses="all")
        assert _digest(results.report()) == REPORT_DIGESTS[application]


class TestStreamingEqualsInMemory:
    def test_streaming_never_merges_but_agrees_field_for_field(self):
        session = CampaignSession(CampaignConfig.smoke("minife"))
        streaming = session.analyze(analyses="all").report().as_dict()
        merged = analyze_dataset(session.run().dataset).report().as_dict()
        assert streaming == merged

    def test_parallel_workers_bit_identical_to_serial(self):
        serial = CampaignSession(CampaignConfig.smoke("minimd")).analyze(
            analyses="all"
        )
        parallel = CampaignSession(
            CampaignConfig.smoke("minimd").parallel(2)
        ).analyze(analyses="all")
        assert parallel.report().as_dict() == serial.report().as_dict()
        np.testing.assert_array_equal(
            parallel["percentiles"].values, serial["percentiles"].values
        )
        np.testing.assert_array_equal(
            parallel["histogram"].counts, serial["histogram"].counts
        )

    def test_event_backend_shards_agree_with_merged(self):
        config = CampaignConfig.smoke("minife").with_backend("event")
        session = CampaignSession(config)
        streaming = session.analyze(analyses="all").report().as_dict()
        merged = analyze_dataset(session.run().dataset).report().as_dict()
        assert streaming == merged

    def test_shard_order_invariance_of_merged_accumulators(self):
        session = CampaignSession(CampaignConfig.smoke("miniqmc"))
        shards = shards_of(session.stream())
        context = AnalysisContext.from_config(
            session.config, metadata=session.backend_for().metadata(session.config)
        )
        forward = run_columnar_analyses(shards, "all", context)
        backward = run_columnar_analyses(list(reversed(shards)), "all", context)
        assert forward.report().as_dict() == backward.report().as_dict()
        np.testing.assert_array_equal(
            forward["percentiles"].values, backward["percentiles"].values
        )


    @pytest.mark.parametrize("backend", ["campaign", "event"])
    def test_out_of_core_products_equal_in_memory(self, backend, tmp_path):
        config = CampaignConfig.smoke("minife").with_backend(backend)
        in_memory = CampaignSession(config).analyze(analyses="all")
        session = CampaignSession(config, cache_dir=tmp_path)
        assert session.run(store=True).store is not None
        spilled = session.analyze(analyses="all")
        assert sorted(spilled) == sorted(in_memory)
        for name in in_memory:
            assert pickle.dumps(spilled[name]) == pickle.dumps(in_memory[name])


class TestAnalysesCLI:
    def test_list_analyses_porcelain(self, capsys):
        from repro.analysis import available_analyses

        assert runner_main(["--list-analyses", "--porcelain"]) == 0
        assert capsys.readouterr().out.split() == list(available_analyses())

    def test_streaming_analyses_run_end_to_end(self, tmp_path, capsys):
        code = runner_main(
            [
                "--apps",
                "minife",
                "--scale",
                "smoke",
                "--analyses",
                "all",
                "--output",
                str(tmp_path),
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "streaming passes" in out
        payload = json.loads((tmp_path / "analyses_minife.json").read_text())
        assert set(payload) == {
            "earlybird",
            "histogram",
            "laggards",
            "normality",
            "percentiles",
            "reclaimable",
        }
        assert (tmp_path / "report.txt").exists()

    def test_subset_of_analyses(self, tmp_path, capsys):
        code = runner_main(
            [
                "--apps",
                "minimd",
                "--scale",
                "smoke",
                "--analyses",
                "histogram",
                "laggards",
                "--output",
                str(tmp_path),
            ]
        )
        assert code == 0
        payload = json.loads((tmp_path / "analyses_minimd.json").read_text())
        assert set(payload) == {"histogram", "laggards"}
        # no report without the full report-pass set
        assert not (tmp_path / "report.txt").exists()

    def test_save_datasets_conflicts_with_analyses(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as excinfo:
            runner_main(
                [
                    "--apps",
                    "minife",
                    "--scale",
                    "smoke",
                    "--analyses",
                    "all",
                    "--save-datasets",
                    "--output",
                    str(tmp_path),
                ]
            )
        assert excinfo.value.code == 2
        assert "conflicts with --analyses" in capsys.readouterr().err

    def test_unknown_analysis_fails_cleanly(self, tmp_path):
        with pytest.raises(ValueError, match="unknown analysis"):
            runner_main(
                [
                    "--apps",
                    "minife",
                    "--scale",
                    "smoke",
                    "--analyses",
                    "bogus",
                    "--output",
                    str(tmp_path),
                ]
            )
