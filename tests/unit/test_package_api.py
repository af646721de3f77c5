"""Unit tests for the top-level package API (lazy exports, metadata)."""

import ast
import importlib
import importlib.util
import inspect
import pkgutil
from pathlib import Path

import pytest

import repro

PACKAGES = ["repro"] + sorted(
    info.name
    for info in pkgutil.walk_packages(repro.__path__, "repro.")
    if info.ispkg
)


def _origins(package) -> dict:
    """Each lazily exported name of ``package`` -> the module defining it."""
    table = getattr(package, "_LAZY_EXPORTS", {})
    return {name: module for module, names in table.items() for name in names}


class TestTopLevelApi:
    def test_version_is_exposed(self):
        assert isinstance(repro.__version__, str)
        assert repro.__version__.count(".") == 2

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


class TestLazyExports:
    """Every package resolves its ``__all__`` through one lazy-export table
    (``repro._lazy``), so a stale entry fails here, not in a user's import."""

    def test_every_subpackage_is_covered(self):
        assert {"repro.core", "repro.experiments", "repro.apps.minife"} <= set(PACKAGES)

    @pytest.mark.parametrize("name", PACKAGES)
    def test_exports_resolve_to_the_defining_module(self, name):
        package = importlib.import_module(name)
        origins = _origins(package)
        for export in package.__all__:
            value = getattr(package, export)
            if export not in origins:
                # bound when the package imports (the version string, the
                # application registry)
                assert export in vars(package)
                continue
            module = importlib.import_module(origins[export])
            assert vars(module)[export] is value, (name, export)
            if inspect.isclass(value) or inspect.isfunction(value):
                assert value.__module__ == module.__name__, (name, export)

    @pytest.mark.parametrize("name", PACKAGES)
    def test_dir_lists_every_export(self, name):
        package = importlib.import_module(name)
        assert set(package.__all__) <= set(dir(package))

    @pytest.mark.parametrize("name", PACKAGES)
    def test_unknown_attribute_raises(self, name):
        package = importlib.import_module(name)
        with pytest.raises(AttributeError, match="does_not_exist"):
            package.does_not_exist  # noqa: B018

    def test_readme_names_resolve(self):
        import repro.core
        import repro.experiments

        assert repro.core.aggregate is importlib.import_module("repro.core.aggregation").aggregate
        assert repro.core.IterationClass is importlib.import_module("repro.core.laggard").IterationClass
        assert repro.core.compare_strategies is importlib.import_module(
            "repro.core.strategies"
        ).compare_strategies
        backends = importlib.import_module("repro.experiments.backends")
        assert repro.experiments.CampaignBackend is backends.CampaignBackend
        assert repro.experiments.register_backend is backends.register_backend
        assert repro.CampaignSession is importlib.import_module(
            "repro.experiments.session"
        ).CampaignSession


class TestShippedPackage:
    """The package holds only what its own paths run; the reference
    samplers and the discrete-event kernel live in the test tree."""

    def test_no_module_imports_the_test_tree(self):
        for path in Path(repro.__file__).parent.rglob("*.py"):
            for node in ast.walk(ast.parse(path.read_text(), str(path))):
                if isinstance(node, ast.Import):
                    roots = [alias.name.split(".")[0] for alias in node.names]
                elif isinstance(node, ast.ImportFrom) and node.module and not node.level:
                    roots = [node.module.split(".")[0]]
                else:
                    continue
                assert not {"oracles", "tests", "conftest"} & set(roots), (path, roots)

    def test_event_kernel_clocks_and_topology_are_not_shipped(self):
        for name in (
            "repro.sim.engine",
            "repro.sim.events",
            "repro.sim.process",
            "repro.openmp.barrier",
            "repro.cluster.clock",
            "repro.cluster.topology",
        ):
            assert importlib.util.find_spec(name) is None, name

    def test_one_fold_per_schedule_and_one_implementation_per_analysis(self):
        # the per-row schedule replay and the dense analysis twins live in
        # tests/oracles/ (schedule.py, dense.py), not in the package
        import repro.core
        from repro.openmp.schedule import LoopSchedule, StaticSchedule

        assert importlib.util.find_spec("repro.core.normality") is None
        assert not hasattr(LoopSchedule, "simulate")
        assert not hasattr(StaticSchedule, "static_assignment")
        moved = {
            "NormalityStudy",
            "LevelResult",
            "analyze_laggards",
            "group_laggard_metrics",
            "classify_iterations",
            "LaggardSummary",
            "summarize_reclaimable",
            "per_iteration_reclaimable",
            "per_iteration_samples",
            "ScheduleOutcome",
        }
        assert not moved & set(repro.core.__all__)
        assert not moved & set(repro.__all__)
