"""Pinned sha256 digests of the smoke campaigns, shared by the test modules
that check a path reproduces them (hash of the dense ``compute_times_s``
array, as :func:`repro.service.jobs.dataset_digest` computes it).

Every recipe is ``CampaignConfig.smoke(app)``: seed 7, 1 trial x 2
processes x 12 iterations x 16 threads.
"""

# The campaign backend, the default.  Re-recorded ONCE when draw streams
# moved from contiguous continuation to absolute shard keying (the change
# that makes chunk-parallel execution bit-identical at any worker count):
# every shard-varying draw now sits under its ("shard", trial, process)
# scope, which restructured the whole-tensor jitter/noise/straggler draws
# into per-shard draws.  Serial == parallel == any chunk_shards from here
# on, so these digests are stable against any future chunking/worker
# change.  ``manzano-default`` at smoke scale is the MiniFE recipe, so the
# service smoke pins ``CAMPAIGN_SMOKE_DIGESTS["minife"]``.
CAMPAIGN_SMOKE_DIGESTS = {
    "minife": "e00daed36dd885b6da7460460091db6425d155af7791046d27c19d1e14e584f2",
    "minimd": "6600a86f66463499c72829eb7b89ebdea5942f73199c651fe8a9c39c08de7cfb",
    "miniqmc": "51581b1ada86e420bc79754122affab8dbcb824980e8040807abd701e3724491",
}

# The per-iteration reference sampler (tests/oracles/vectorized.py), whose
# draw order is the seed's.  minimd / miniqmc were recorded from the seed's
# hardwired two-source noise model, before ``OSNoiseModel`` moved onto the
# noise-source registry; minife was re-recorded when
# ``StaticSchedule.simulate`` moved its per-thread busy-time summation to
# ``np.add.reduceat`` (sequential instead of pairwise accumulation shifts
# MiniFE's pencil-calibration median by one ULP — same physics, different
# last bit).
VECTORIZED_SMOKE_DIGESTS = {
    "minife": "bb2fcafc7160d7099ca5ef6dac0ecd53bff0aad663032aed63a90c0242740980",
    "minimd": "aad69e389dcdd05bee4e48e4e001a4e94e9a7b98124d3c24f49a2ce701cd1568",
    "miniqmc": "42d6abd256f408648188889ba1df2732b40a30ef1dbdbc4cb929170999478881",
}
