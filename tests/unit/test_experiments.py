"""Unit tests for campaign configuration, tables, figures and the CLI."""

import gc
import weakref
from pathlib import Path

import numpy as np
import pytest

from repro.analysis import analyze_dataset
from repro.core.timing import TimingShard
from repro.experiments.config import CampaignConfig
from repro.experiments.session import CampaignSession
from repro.experiments.figures import (
    FIGURE_GENERATORS,
    figure1_earlybird_timeline,
    figure2_potential_overlap,
    figure3_histogram,
    figure4_minife_percentiles,
    figure5_minife_classes,
    figure6_minimd_percentiles,
    figure7_minimd_classes,
    figure8_miniqmc_percentiles,
    figure9_miniqmc_histogram,
)
from repro.experiments.paper import PAPER_REFERENCE, TABLE1_PASS_PERCENT
from repro.experiments.runner import build_parser, main
from repro.experiments.tables import (
    minimd_phase_table,
    section4_metrics_table,
    section41_normality_table,
    table1,
)


def _shards(dataset):
    """The dataset's per-(trial, process) shards."""
    return [
        TimingShard.from_dataset(
            dataset.select(trial=int(t), process=int(p)),
            trial=int(t),
            process=int(p),
        )
        for t in dataset.trials
        for p in dataset.processes
    ]


@pytest.fixture(scope="module")
def all_results(all_datasets):
    return {name: analyze_dataset(ds) for name, ds in all_datasets.items()}


class TestCampaignConfig:
    def test_paper_scale_matches_section_3_2(self):
        config = CampaignConfig.paper_scale()
        assert (config.trials, config.processes, config.iterations, config.threads) == (
            10,
            8,
            200,
            48,
        )
        assert config.samples_per_application == 768_000
        assert config.machine.name == "manzano"

    def test_machine_grows_to_fit_job(self):
        config = CampaignConfig.paper_scale()
        assert config.machine.n_nodes * config.machine.cores_per_node >= 8 * 48

    def test_scaled_and_for_application_copies(self):
        config = CampaignConfig.smoke().scaled(trials=3).for_application("minimd")
        assert config.trials == 3
        assert config.application == "minimd"

    def test_invalid_values_rejected(self):
        with pytest.raises(ValueError):
            CampaignConfig(trials=0)
        with pytest.raises(ValueError):
            CampaignConfig(backend="gpu")


class TestPaperReference:
    def test_reference_tables_cover_all_apps(self):
        assert set(TABLE1_PASS_PERCENT) == {"minife", "minimd", "miniqmc"}
        assert set(PAPER_REFERENCE["section4_metrics"]) == {"minife", "minimd", "miniqmc"}

    def test_figure_registry_covers_paper_figures(self):
        assert set(FIGURE_GENERATORS) == {
            "figure3",
            "figure4",
            "figure5",
            "figure6",
            "figure7",
            "figure8",
            "figure9",
        }


class TestTables:
    def test_table1_rows(self, all_results):
        rows = table1(all_results)
        assert len(rows) == 3
        for row in rows:
            measured = [v for k, v in row.items() if "measured" in k]
            assert all(0.0 <= value <= 100.0 for value in measured)
            assert any("paper" in key for key in row)

    def test_section4_metrics_rows(self, all_results):
        rows = section4_metrics_table(all_results)
        by_app = {row["application"]: row for row in rows}
        assert by_app["MiniQMC"]["mean_iqr_ms (measured)"] > by_app["MiniFE"][
            "mean_iqr_ms (measured)"
        ]

    def test_section41_rows(self, all_results):
        rows = section41_normality_table(all_results)
        assert {row["application"] for row in rows} == {"MiniFE", "MiniMD", "MiniQMC"}

    def test_minimd_phase_table(self, all_results):
        rows = minimd_phase_table(all_results["minimd"])
        assert rows[0]["mean_iqr_ms (measured)"] > rows[1]["mean_iqr_ms (measured)"]

    def test_minimd_phase_table_omits_empty_steady_window(self):
        # 12 smoke iterations all fall inside the 19-iteration warm-up
        results = CampaignSession(CampaignConfig.smoke("minimd")).analyze(
            analyses=["percentiles"]
        )
        rows = minimd_phase_table(results)
        assert [row["section"] for row in rows] == ["iterations 1-19 (warm-up)"]
        assert rows[0]["max_iqr_ms (measured)"] >= rows[0]["mean_iqr_ms (measured)"]


class TestFigureGenerators:
    def test_figure1_and_2_from_arrivals(self):
        arrivals = np.concatenate([np.full(7, 20e-3), [24e-3]])
        fig1 = figure1_earlybird_timeline(arrivals, buffer_bytes=1 << 20)
        assert fig1["earlybird_completion_s"] <= fig1["bulk_completion_s"]
        fig2 = figure2_potential_overlap(arrivals)
        assert fig2["total_overlap_s"] == pytest.approx(7 * 4e-3)

    def test_figure3_histogram_bins(self, all_results, minife_dataset):
        fig = figure3_histogram(all_results["minife"])
        assert fig["histogram"].bin_width == pytest.approx(10e-6)
        assert fig["samples"] == minife_dataset.n_samples

    def test_percentile_figures(self, all_results):
        assert figure4_minife_percentiles(all_results["minife"])["skew_direction"] == "early"
        fig6 = figure6_minimd_percentiles(all_results["minimd"])
        assert fig6["warmup_mean_iqr_ms"] > fig6["steady_mean_iqr_ms"]
        fig8 = figure8_miniqmc_percentiles(all_results["miniqmc"])
        assert fig8["mean_iqr_ms"] > 5.0

    def test_figure5_classes(self, all_results, minife_dataset):
        fig = figure5_minife_classes(all_results["minife"], shards=_shards(minife_dataset))
        assert 0.0 < fig["laggard_fraction"] < 1.0
        assert fig["no_laggard_histogram"] is not None

    def test_figure7_classes(self, all_results, minimd_dataset):
        fig = figure7_minimd_classes(all_results["minimd"], shards=_shards(minimd_dataset))
        assert fig["initial_histogram"] is not None
        assert fig["steady_laggard_fraction"] < 0.5

    def test_figure9_histogram(self, all_results, miniqmc_dataset):
        fig = figure9_miniqmc_histogram(
            all_results["miniqmc"], shards=_shards(miniqmc_dataset)
        )
        assert fig["histogram"].bin_width == pytest.approx(1e-3)
        assert fig["spread_ms"] > 10.0


class TestRunnerCLI:
    def test_parser_defaults(self):
        args = build_parser().parse_args([])
        assert args.scale == "benchmark"
        # --apps defaults to None (all three proxies at run time) so that an
        # explicit --apps can be detected as conflicting with --scenario
        assert args.apps is None
        assert args.scenario is None

    @pytest.mark.parametrize(
        "option, value",
        [
            ("--trials", "0"),
            ("--processes", "0"),
            ("--iterations", "0"),
            ("--threads", "-3"),
            ("--max-workers", "0"),
            ("--schedule", "static,x"),
            ("--schedule", "static,0"),
            ("--schedule", "fancy"),
            ("--apps", "nope"),
            ("--spill-mb", "0"),
            ("--spill-mb", "-1"),
            ("--spill-mb", "nan"),
        ],
    )
    def test_bad_arguments_are_usage_errors(self, option, value, tmp_path, capsys):
        output = tmp_path / "out"
        with pytest.raises(SystemExit) as excinfo:
            main(["--scale", "smoke", option, value, "--output", str(output)])
        assert excinfo.value.code == 2
        assert f"argument {option}" in capsys.readouterr().err
        assert not output.exists()

    def test_checked_arguments_keep_their_text(self):
        args = build_parser().parse_args(
            ["--apps", "MiniFE", "minimd", "--schedule", "Dynamic,4", "--spill-mb", "0.5"]
        )
        assert args.apps == ["MiniFE", "minimd"]
        assert args.schedule == "Dynamic,4"
        assert args.spill_mb == 0.5

    def test_service_cli_rejects_non_positive_workers(self, capsys):
        from repro.service.cli import build_serve_parser

        with pytest.raises(SystemExit) as excinfo:
            build_serve_parser().parse_args(["--workers", "0"])
        assert excinfo.value.code == 2
        assert "argument --workers" in capsys.readouterr().err

    def test_main_smoke_run_writes_outputs(self, tmp_path):
        exit_code = main(
            [
                "--scale",
                "smoke",
                "--apps",
                "minife",
                "--iterations",
                "10",
                "--threads",
                "16",
                "--output",
                str(tmp_path),
                "--save-datasets",
            ]
        )
        assert exit_code == 0
        assert (tmp_path / "table1.csv").exists()
        assert (tmp_path / "section4_metrics.csv").exists()
        assert (tmp_path / "report.txt").exists()
        assert (tmp_path / "dataset_minife.npz").exists()
        assert (tmp_path / "figures" / "figure3_minife.csv").exists()

    def test_main_default_apps_at_smoke_scale(self, tmp_path):
        # MiniMD's smoke campaign is shorter than its warm-up: the phase
        # table keeps only the warm-up row instead of failing
        assert main(["--scale", "smoke", "--output", str(tmp_path)]) == 0
        phases = (tmp_path / "minimd_phases.csv").read_text().splitlines()
        assert len(phases) == 2
        assert (tmp_path / "figures" / "figure9_miniqmc.csv").exists()

    @pytest.mark.parametrize("out_of_core", [[], ["--out-of-core"]], ids=["memory", "spilled"])
    def test_each_campaign_is_released_before_the_next_starts(
        self, out_of_core, tmp_path, monkeypatch, capsys
    ):
        """The CLI bins each application's exemplar figure and drops its
        campaign result before it runs the next application."""
        run = CampaignSession.run
        results, alive_at_start = [], []

        def tracked_run(session, *args, **kwargs):
            gc.collect()
            alive_at_start.append([ref() is not None for ref in results])
            result = run(session, *args, **kwargs)
            results.append(weakref.ref(result))
            return result

        monkeypatch.setattr(CampaignSession, "run", tracked_run)
        argv = ["--scale", "smoke", "--apps", "minife", "minimd", *out_of_core]
        assert main([*argv, "--output", str(tmp_path)]) == 0
        capsys.readouterr()
        assert alive_at_start == [[], [False]]
        assert (tmp_path / "figures" / "figure5_no_laggard.csv").exists()

    @pytest.mark.parametrize("application", ["minife", "minimd", "miniqmc"])
    def test_out_of_core_outputs_equal_in_memory(self, application, tmp_path, capsys):
        """Every table, figure and the report of an out-of-core run are
        byte-identical to the in-memory run's; only ``cache/`` differs."""
        common = ["--scale", "smoke", "--apps", application]
        memory, spilled = tmp_path / "memory", tmp_path / "spilled"
        assert main([*common, "--output", str(memory)]) == 0
        assert (
            main([*common, "--out-of-core", "--max-workers", "2", "--output", str(spilled)])
            == 0
        )
        capsys.readouterr()

        def outputs(root):
            return {
                path.relative_to(root): path.read_bytes()
                for path in sorted(root.rglob("*"))
                if path.is_file() and path.relative_to(root).parts[0] != "cache"
            }

        expected = outputs(memory)
        assert Path("section41_normality.csv") in expected
        assert outputs(spilled) == expected


class TestStoredFigures:
    """Figures 5/7/9 from an out-of-core run: exemplars picked from the
    store-backed analyses and histograms scanned out of the store equal
    the in-memory figures."""

    @staticmethod
    def _stored(dataset, tmp_path):
        config = CampaignConfig(
            application=dataset.application,
            trials=1,
            processes=2,
            iterations=30,
            threads=48,
            seed=202304,
            # two workers cut the campaign backend's two shards into
            # one-shard chunks: one store group each
            max_workers=2,
        )
        session = CampaignSession(config, cache_dir=tmp_path, executor_mode="thread")
        result = session.run(store=True, spill_threshold_bytes=1)
        assert result.store is not None and result.store.n_groups > 1
        return session.analyze(analyses=["laggards"]), result

    @staticmethod
    def _assert_same_payload(got, want):
        assert sorted(got.payload) == sorted(want.payload)
        for key, value in want.payload.items():
            if hasattr(value, "counts"):
                np.testing.assert_array_equal(got[key].counts, value.counts)
                np.testing.assert_array_equal(got[key].edges, value.edges)
            else:
                assert got[key] == value

    @staticmethod
    def _mask_scan(shards, key):
        """The exemplar group as a sample scan over id masks."""
        trial, process, iteration = key
        parts = []
        for shard in sorted(shards, key=lambda s: s.sort_key):
            columns = shard.columns
            mask = (
                (np.asarray(columns["trial"]) == trial)
                & (np.asarray(columns["process"]) == process)
                & (np.asarray(columns["iteration"]) == iteration)
            )
            parts.append(np.asarray(columns["compute_time_s"])[mask])
        return np.concatenate(parts)

    @pytest.mark.parametrize("source", ["memory", "store", "event"])
    def test_group_rows_equal_the_mask_scan(self, tmp_path, source):
        from repro.experiments.figures import _group_samples

        config = CampaignConfig.smoke("minife").scaled(trials=2, processes=2)
        if source == "event":
            config = config.with_backend("event")
        if source == "store":
            # two workers cut the campaign backend's four shards into two
            # chunks: one store group each
            config = config.parallel(2)
        session = CampaignSession(config, cache_dir=tmp_path, executor_mode="thread")
        if source == "store":
            result = session.run(store=True, spill_threshold_bytes=1)
            assert result.store is not None and result.store.n_groups > 1
        else:
            result = session.run(use_cache=False)
        shards = list(result.iter_shards())
        if source == "event":
            # one block per trial, one shard per process of it
            assert [len(block.slices) for block in result.iter_column_blocks()] == [2, 2]
        for key in [(0, 0, 0), (1, 1, config.iterations - 1), (1, 0, 3)]:
            want = self._mask_scan(shards, key)
            assert len(want) == config.threads
            for given in (result, shards):
                got = _group_samples(given, key)
                assert got.dtype == np.float64
                np.testing.assert_array_equal(got, want)
        with pytest.raises(KeyError):
            _group_samples(result, (0, 0, config.iterations))

    def test_figure5_from_the_store(self, all_results, minife_dataset, tmp_path):
        results, stored = self._stored(minife_dataset, tmp_path)
        got = figure5_minife_classes(results, shards=stored)
        want = figure5_minife_classes(
            all_results["minife"], shards=_shards(minife_dataset)
        )
        assert want["laggard_histogram"] is not None
        self._assert_same_payload(got, want)

    def test_figure7_from_the_store(self, all_results, minimd_dataset, tmp_path):
        results, stored = self._stored(minimd_dataset, tmp_path)
        got = figure7_minimd_classes(results, shards=stored)
        want = figure7_minimd_classes(
            all_results["minimd"], shards=_shards(minimd_dataset)
        )
        assert want["initial_histogram"] is not None
        self._assert_same_payload(got, want)

    def test_figure9_from_the_store(self, all_results, miniqmc_dataset, tmp_path):
        results, stored = self._stored(miniqmc_dataset, tmp_path)
        got = figure9_miniqmc_histogram(results, shards=stored)
        want = figure9_miniqmc_histogram(
            all_results["miniqmc"], shards=_shards(miniqmc_dataset)
        )
        assert want["exemplar"] is not None
        self._assert_same_payload(got, want)
