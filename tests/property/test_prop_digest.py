"""The service's streamed digest is the merged dataset's digest (hypothesis).

:func:`repro.service.streamed_digest` hashes a campaign's shards (one-slice
column blocks) one by one in ``sort_key`` order instead of merging them
first; whatever order the shards arrive in, and whether they are in-memory
views or views read back from a shard store, it must equal
``dataset_digest`` of their merge.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.timing import TimingDataset
from repro.experiments.session import CampaignSession
from repro.scenarios import get_scenario
from repro.service import dataset_digest, streamed_digest
from shards import shards_of


@pytest.fixture(scope="module")
def campaign(tmp_path_factory):
    """A six-shard smoke campaign's shards, in memory and read back from
    its store, plus the digest of its dense dataset."""
    config = get_scenario("manzano-default").campaign_config(
        "smoke", trials=2, processes=3
    )
    cache_dir = tmp_path_factory.mktemp("digest-cache")
    fresh = CampaignSession(config, cache_dir=cache_dir).run()
    stored = CampaignSession(config, cache_dir=cache_dir).run()
    assert fresh.store is None and stored.store is not None
    shards = {
        "memory": shards_of(fresh.iter_column_blocks()),
        "store": shards_of(stored.iter_column_blocks()),
    }
    assert len(shards["store"]) == 6
    return shards, dataset_digest(fresh.dataset)


@settings(derandomize=True, max_examples=30, deadline=None)
@given(origin=st.sampled_from(["memory", "store"]), data=st.data())
def test_streamed_digest_is_the_merged_digest_in_any_order(campaign, origin, data):
    shards, dense_digest = campaign
    shuffled = data.draw(st.permutations(shards[origin]))
    digest = streamed_digest(shuffled)
    assert digest == dataset_digest(TimingDataset.merge(shuffled))
    assert digest == dense_digest
