"""Property-based tests of the noise-source registry and scenario catalog.

Two invariants the scenario matrix relies on:

* every registered noise source — at default *and* randomly rescaled
  parameters — produces non-negative, finite delays on both samplers (the
  batch path and the event reference's timelines), for any workload;
* a ``without_noise()`` machine adds exactly zero delay, for every
  registered scenario's machine.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from oracles.event import Core, WindowedNoiseModel, events_in
from repro.cluster.noise import NoiseSpec, OSNoiseModel
from repro.scenarios import (
    available_noise_profiles,
    available_noise_sources,
    available_scenarios,
    get_scenario,
    make_noise_source,
    noise_profile,
)

CORE = Core(0, 0, 0)

work_arrays = hnp.arrays(
    dtype=np.float64,
    shape=st.integers(1, 48),
    elements=st.floats(0.0, 0.2, allow_nan=False),
)


@given(
    kind=st.sampled_from(sorted(available_noise_sources())),
    work=work_arrays,
    seed=st.integers(0, 2**31 - 1),
    rescale=st.floats(0.1, 3.0, allow_nan=False),
)
@settings(max_examples=120, deadline=None)
def test_any_registered_source_yields_physical_delays(kind, work, seed, rescale):
    defaults = make_noise_source(kind).params()
    source = make_noise_source(
        kind, **{name: value * rescale for name, value in defaults.items()}
    )
    rng = np.random.default_rng(seed)
    extra = source.batch_extra(work, rng)
    assert extra.shape == work.shape
    assert np.all(extra >= 0.0)
    assert np.all(np.isfinite(extra))
    for event in events_in(source, CORE.global_id, 0.0, 0.5, rng, {}):
        assert np.isfinite(event.start) and np.isfinite(event.duration)
        assert event.duration >= 0.0


@given(
    profile=st.sampled_from(sorted(available_noise_profiles())),
    work=work_arrays,
    seed=st.integers(0, 2**31 - 1),
)
@settings(max_examples=60, deadline=None)
def test_any_noise_profile_model_yields_physical_delays(profile, work, seed):
    model = OSNoiseModel(noise_profile(profile), np.random.default_rng(seed))
    batch = model.batch_delays(work)
    assert np.all(batch >= 0.0) and np.all(np.isfinite(batch))
    timeline = WindowedNoiseModel(noise_profile(profile), np.random.default_rng(seed))
    scalar = timeline.delay_over(CORE, 0.0, float(work[0]))
    assert scalar >= 0.0 and np.isfinite(scalar)


@given(
    name=st.sampled_from(sorted(available_scenarios())),
    work=work_arrays,
    seed=st.integers(0, 2**31 - 1),
)
@settings(max_examples=60, deadline=None)
def test_without_noise_machines_add_zero_delay_for_every_scenario(name, work, seed):
    machine = get_scenario(name).machine_config().without_noise()
    model = machine.build_noise_model(np.random.default_rng(seed))
    assert not model.batch_delays(work).any()
    timeline = WindowedNoiseModel(machine.noise_spec, np.random.default_rng(seed))
    assert timeline.delay_over(CORE, 0.0, float(work[0])) == 0.0
    assert timeline.jittered_compute(float(work[0])) == float(work[0])
    assert timeline.events_in(CORE, 0.0, 1.0) == []


@given(
    work=work_arrays,
    seed=st.integers(0, 2**31 - 1),
)
@settings(max_examples=60, deadline=None)
def test_composed_default_pair_matches_legacy_scalar_fields(work, seed):
    """The registry-built default pair must reproduce the legacy draws."""
    spec = NoiseSpec(jitter_fraction=0.0)
    composed = OSNoiseModel(spec, np.random.default_rng(seed)).batch_delays(work)
    legacy = _legacy_batch_delays(spec, np.random.default_rng(seed), work)
    np.testing.assert_array_equal(composed, legacy)


def _legacy_batch_delays(spec, gen, work):
    """The seed's hardwired batch_delays, kept verbatim as a reference."""
    extra = np.zeros_like(work)
    if spec.daemon_period_s > 0 and spec.daemon_duration_s > 0:
        expected_ticks = work / spec.daemon_period_s
        ticks = np.floor(expected_ticks) + (
            gen.uniform(size=work.shape) < (expected_ticks - np.floor(expected_ticks))
        )
        extra += ticks * spec.daemon_duration_s
    if spec.interrupt_rate_hz > 0 and spec.interrupt_mean_s > 0:
        counts = gen.poisson(spec.interrupt_rate_hz * work)
        flat_counts = counts.ravel()
        total = int(flat_counts.sum())
        if total > 0:
            durations = np.minimum(
                gen.exponential(spec.interrupt_mean_s, size=total),
                spec.interrupt_max_s,
            )
            boundaries = np.cumsum(flat_counts)[:-1]
            extra += np.array(
                [seg.sum() for seg in np.split(durations, boundaries)]
            ).reshape(work.shape)
    return extra


def _reduceat_window_sums(durations, flat_counts, shape):
    """The window sums as the sources took them before the bincount
    scatter: a left-to-right ``np.add.reduceat`` per non-empty window, then
    an exact ``ndarray.sum`` for every window of 3+ events."""
    offsets = np.concatenate(([0], np.cumsum(flat_counts)))
    sums = np.zeros(len(flat_counts))
    nonempty = flat_counts > 0
    if nonempty.any():
        sums[nonempty] = np.add.reduceat(
            durations[: offsets[-1]], offsets[:-1][nonempty]
        )
    for k in np.flatnonzero(flat_counts >= 3):
        sums[k] = durations[offsets[k] : offsets[k + 1]].sum()
    return sums.reshape(shape)


@given(
    counts=hnp.arrays(
        dtype=np.int64,
        shape=st.tuples(st.integers(1, 12), st.integers(1, 24)),
        # mostly empty windows, some with one or two events, a few crowded
        elements=st.sampled_from([0, 0, 0, 0, 1, 2, 3, 7, 40]),
    ),
    seed=st.integers(0, 2**31 - 1),
    scale=st.sampled_from([1e-6, 1e-3, 1.0, 1e3]),
)
@settings(max_examples=150, deadline=None)
def test_window_sums_equal_the_reduceat_sums(counts, seed, scale):
    from repro.scenarios.sources import _sum_per_window

    flat_counts = counts.ravel()
    rng = np.random.default_rng(seed)
    durations = rng.exponential(scale, size=int(flat_counts.sum()))
    got = _sum_per_window(durations, flat_counts, counts.shape)
    want = _reduceat_window_sums(durations, flat_counts, counts.shape)
    assert got.shape == counts.shape
    np.testing.assert_array_equal(got, want)
    assert (got[counts == 0] == 0.0).all()
