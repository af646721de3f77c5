"""Unit tests for the top-level package API (lazy exports, metadata)."""

import importlib

import pytest

import repro


class TestTopLevelApi:
    def test_version_is_exposed(self):
        assert isinstance(repro.__version__, str)
        assert repro.__version__.count(".") == 2

    def test_lazy_exports_resolve(self):
        assert repro.TimingDataset is importlib.import_module(
            "repro.core.timing"
        ).TimingDataset
        assert repro.analyze_dataset is importlib.import_module(
            "repro.analysis.engine"
        ).analyze_dataset

    def test_unknown_attribute_raises(self):
        with pytest.raises(AttributeError):
            repro.does_not_exist  # noqa: B018

    def test_dir_lists_lazy_exports(self):
        listing = dir(repro)
        for name in repro.__all__:
            assert name in listing

    @pytest.mark.parametrize(
        "module",
        [
            "repro.sim",
            "repro.cluster",
            "repro.openmp",
            "repro.mpi",
            "repro.stats",
            "repro.core",
            "repro.apps",
            "repro.experiments",
            "repro.io",
            "repro.viz",
        ],
    )
    def test_documented_subpackages_import_and_have_docstrings(self, module):
        imported = importlib.import_module(module)
        assert imported.__doc__ and len(imported.__doc__.strip()) > 40

    def test_readme_quickstart_snippet_runs(self):
        """The README's code block must stay executable."""
        from repro import CampaignConfig, CampaignSession
        from repro.core import aggregate, compare_strategies

        session = CampaignSession(CampaignConfig.smoke())
        report = session.run("minife").analyze().report()
        assert "minife" in report.summary()
        arrivals = aggregate(session.dataset("minife"), "process_iteration").values[0]
        comparison = compare_strategies(arrivals, buffer_bytes=8 << 20)
        assert comparison.speedup_over_bulk()["bulk"] == pytest.approx(1.0)

    def test_new_campaign_api_lazy_exports(self):
        assert repro.CampaignSession is importlib.import_module(
            "repro.experiments.session"
        ).CampaignSession
        assert repro.register_backend is importlib.import_module(
            "repro.experiments.backends"
        ).register_backend
        assert repro.TimingShard is importlib.import_module(
            "repro.core.timing"
        ).TimingShard
