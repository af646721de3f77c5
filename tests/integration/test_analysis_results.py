"""Every analysis driver yields the same :class:`AnalysisResults`.

A campaign is analysed through three routes — the fused campaign route
(``CampaignSession.analyze`` before any ``run``), a result's column blocks
(``CampaignResult.analyze``) and the merged dataset (``analyze_dataset``) —
and the figure and table generators read those results plus the campaign's
shards in any of their forms.  All of these must agree bit for bit on every
application and backend.
"""

import json
from functools import lru_cache
from types import SimpleNamespace

import numpy as np
import pytest

from repro.analysis import analyze_dataset
from repro.core.aggregation import AggregationLevel, aggregate
from repro.experiments.config import CampaignConfig
from repro.experiments.figures import (
    figure5_minife_classes,
    figure7_minimd_classes,
    figure9_miniqmc_histogram,
)
from repro.experiments.paper import FIGURE_PARAMETERS
from repro.experiments.session import CampaignSession
from repro.experiments.tables import (
    minimd_phase_table,
    section4_metrics_table,
    section41_normality_table,
    table1,
)
from repro.io.shard_store import ShardStore
from repro.stats.histogram import fixed_width_histogram
from shards import shards_of

APPLICATIONS = ("minife", "minimd", "miniqmc")
BACKENDS = ("campaign", "event", "vectorized")


def _config(application: str, backend: str) -> CampaignConfig:
    # 24 iterations: MiniMD's post-warm-up window (iteration >= 19) is non-empty
    return CampaignConfig(
        application=application,
        trials=2,
        processes=2,
        iterations=24,
        threads=16,
        seed=11,
    ).with_backend(backend)


@lru_cache(maxsize=None)
def _result(application: str, backend: str):
    return CampaignSession(_config(application, backend)).run()


def _payload(results) -> str:
    return json.dumps(results.as_payload(), sort_keys=True)


def _assert_same_results(actual, expected) -> None:
    assert list(actual) == list(expected)
    assert _payload(actual) == _payload(expected)
    assert actual.report().as_dict() == expected.report().as_dict()
    np.testing.assert_array_equal(
        actual["percentiles"].values, expected["percentiles"].values
    )
    np.testing.assert_array_equal(
        actual["histogram"].counts, expected["histogram"].counts
    )


def _assert_same_histogram(actual, expected) -> None:
    assert actual.bin_width == expected.bin_width
    np.testing.assert_array_equal(actual.edges, expected.edges)
    np.testing.assert_array_equal(actual.counts, expected.counts)


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("application", APPLICATIONS)
class TestDriversAgree:
    def test_result_analyze_equals_analyze_dataset(self, application, backend):
        result = _result(application, backend)
        _assert_same_results(result.analyze(), analyze_dataset(result.dataset))

    def test_fused_session_analyze_equals_result_analyze(self, application, backend):
        session = CampaignSession(_config(application, backend))
        fused = session.analyze()
        assert application not in session  # the fused route keeps no result
        _assert_same_results(fused, _result(application, backend).analyze())


FIGURES = {
    "figure5": ("minife", figure5_minife_classes),
    "figure7": ("minimd", figure7_minimd_classes),
    "figure9": ("miniqmc", figure9_miniqmc_histogram),
}

#: payload entry → (exemplar entry, bin-width parameter) of each histogram
#: that is binned at a key the figure reports
EXEMPLAR_HISTOGRAMS = {
    "figure5": {
        "no_laggard_histogram": ("no_laggard_exemplar", "figure5"),
        "laggard_histogram": ("laggard_exemplar", "figure5"),
    },
    "figure7": {
        "no_laggard_histogram": ("no_laggard_exemplar", "figure7bc"),
        "laggard_histogram": ("laggard_exemplar", "figure7bc"),
    },
    "figure9": {"histogram": ("exemplar", "figure9")},
}


def _shard_source(result, source: str, tmp_path):
    shards = shards_of(result.iter_column_blocks())
    if source == "sequence":
        # one-slice blocks out of serial order: the scan finds the group
        # by address, not by position
        return SimpleNamespace(iter_column_blocks=lambda: reversed(shards))
    if source == "result":
        return result
    # one group file per shard: the scan crosses group boundaries
    store = ShardStore.create(tmp_path / "store", spill_threshold_bytes=1)
    for shard in shards:
        store.append_block(shard)
    store.finalize(result.metadata)
    return ShardStore.open(tmp_path / "store")


@pytest.mark.parametrize("backend", ["campaign", "event"])
@pytest.mark.parametrize("source", ["sequence", "result", "store"])
@pytest.mark.parametrize("figure_id", sorted(FIGURES))
def test_exemplar_histograms_match_dense_groups(figure_id, source, backend, tmp_path):
    application, generator = FIGURES[figure_id]
    result = _result(application, backend)
    results = result.analyze(["laggards"])
    figure = generator(results, shards=_shard_source(result, source, tmp_path))
    reference = generator(results, shards=result)
    grouped = aggregate(result.dataset, AggregationLevel.PROCESS_ITERATION)

    histograms = [k for k in reference.payload if k.endswith("histogram")]
    assert histograms
    for name in histograms:
        if reference.payload[name] is None:
            assert figure.payload[name] is None
            continue
        _assert_same_histogram(figure.payload[name], reference.payload[name])
    for name, (exemplar, parameter) in EXEMPLAR_HISTOGRAMS[figure_id].items():
        key = figure.payload[exemplar]
        if key is None:
            continue
        dense = fixed_width_histogram(
            grouped.group(key), FIGURE_PARAMETERS[parameter]["bin_width_s"], unit="s"
        )
        _assert_same_histogram(figure.payload[name], dense)


class TestTablesFromResults:
    """Tables are the same whichever driver produced their results."""

    @staticmethod
    def _results(tmp_path, route: str):
        out = {}
        for application in APPLICATIONS:
            if route == "store":
                session = CampaignSession(_config(application, "event"))
                result = session.run(store=tmp_path / f"store-{application}")
                out[application] = result.analyze()
            else:
                dataset = _result(application, "event").dataset
                out[application] = analyze_dataset(dataset)
        return out

    @pytest.mark.parametrize(
        "builder",
        [table1, section4_metrics_table, section41_normality_table],
        ids=lambda f: f.__name__,
    )
    def test_store_backed_tables_equal_dataset_tables(self, tmp_path, builder):
        assert builder(self._results(tmp_path, "store")) == builder(
            self._results(tmp_path, "dataset")
        )

    def test_minimd_phase_table_from_either_route(self, tmp_path):
        stored = self._results(tmp_path, "store")["minimd"]
        dense = self._results(tmp_path, "dataset")["minimd"]
        rows = minimd_phase_table(stored)
        assert rows == minimd_phase_table(dense)
        assert len(rows) == 2  # 24 iterations reach past the warm-up
