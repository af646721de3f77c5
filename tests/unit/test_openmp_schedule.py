"""Unit tests for OpenMP loop schedules: the program's campaign folds and
the per-row heap replay (:mod:`oracles.schedule`) they are checked
against."""

import numpy as np
import pytest

from repro.openmp.schedule import (
    DynamicSchedule,
    GuidedSchedule,
    StaticSchedule,
    schedule_from_name,
    segment_sums,
)

from oracles.schedule import simulate, static_assignment


class TestSegmentSums:
    def test_contiguous_blocks(self):
        sums = segment_sums(np.arange(1.0, 11.0), [0, 5, 10])
        np.testing.assert_allclose(sums, [15.0, 40.0])

    def test_empty_segments_sum_to_zero(self):
        sums = segment_sums(np.arange(1.0, 4.0), [0, 3, 3, 3])
        np.testing.assert_allclose(sums, [6.0, 0.0, 0.0])

    def test_tail_beyond_offsets_is_ignored(self):
        # reduceat alone would fold values[4:] into the last segment
        sums = segment_sums(np.arange(10.0), [0, 2, 4])
        np.testing.assert_allclose(sums, [1.0, 5.0])

    def test_decreasing_offsets_rejected(self):
        with pytest.raises(ValueError):
            segment_sums(np.arange(4.0), [0, 3, 1])


class TestSegmentSumsND:
    """N-D input reduces over the last axis, row for row like 1-D calls."""

    @pytest.mark.parametrize("shape", [(6, 17), (2, 3, 17)])
    def test_rows_match_1d_segment_sums(self, shape):
        rng = np.random.default_rng(3)
        values = rng.uniform(size=shape)
        offsets = [0, 4, 4, 11, 15]
        batched = segment_sums(values, offsets)
        assert batched.shape == shape[:-1] + (4,)
        for index in np.ndindex(*shape[:-1]):
            np.testing.assert_array_equal(
                batched[index], segment_sums(values[index], offsets)
            )

    def test_decreasing_offsets_rejected(self):
        with pytest.raises(ValueError):
            segment_sums(np.ones((2, 4)), [0, 3, 1])


def _coverage_ok(assignment, n_items):
    """Every item appears exactly once across all threads."""
    combined = np.concatenate([np.asarray(a) for a in assignment])
    return sorted(combined.tolist()) == list(range(n_items))


class TestStaticSchedule:
    def test_blocks_are_contiguous_and_cover_items(self):
        schedule = StaticSchedule()
        assignment = static_assignment(schedule, 200, 48)
        assert _coverage_ok(assignment, 200)
        sizes = [len(a) for a in assignment]
        # 200 = 48*4 + 8: the first 8 threads get 5 items
        assert sizes[:8] == [5] * 8
        assert sizes[8:] == [4] * 40
        for block in assignment:
            if len(block) > 1:
                assert np.all(np.diff(block) == 1)

    def test_chunked_static_deals_round_robin(self):
        schedule = StaticSchedule(chunk=2)
        assignment = static_assignment(schedule, 8, 2)
        assert assignment[0].tolist() == [0, 1, 4, 5]
        assert assignment[1].tolist() == [2, 3, 6, 7]

    def test_more_threads_than_items_gives_empty_blocks(self):
        assignment = static_assignment(StaticSchedule(), 3, 8)
        assert _coverage_ok(assignment, 3)
        assert sum(len(a) == 0 for a in assignment) == 5

    def test_simulate_busy_time_sums_costs(self):
        costs = np.arange(1.0, 11.0)
        outcome = simulate(StaticSchedule(), costs, 2)
        np.testing.assert_allclose(outcome.busy_time, [15.0, 40.0])

    def test_invalid_chunk_rejected(self):
        with pytest.raises(ValueError):
            StaticSchedule(chunk=0)

    def test_negative_costs_rejected(self):
        with pytest.raises(ValueError):
            simulate(StaticSchedule(), np.array([-1.0]), 2)


class TestDynamicSchedule:
    def test_covers_all_items(self):
        costs = np.random.default_rng(0).uniform(0.5, 1.5, size=101)
        outcome = simulate(DynamicSchedule(chunk=4), costs, 7)
        assert _coverage_ok(outcome.assignment, 101)
        assert outcome.busy_time.sum() == pytest.approx(costs.sum())

    def test_balances_skewed_costs_better_than_static(self):
        # one very expensive item at the front: static gives it plus an equal
        # share of the rest to thread 0; dynamic lets other threads absorb
        # the remaining items
        costs = np.ones(64)
        costs[0] = 50.0
        static = simulate(StaticSchedule(), costs, 8)
        dynamic = simulate(DynamicSchedule(chunk=1), costs, 8)
        assert dynamic.busy_time.max() < static.busy_time.max()

    def test_chunk_size_respected(self):
        outcome = simulate(DynamicSchedule(chunk=5), np.ones(23), 4)
        chunk_sizes = [n for _, _, n in outcome.chunks]
        assert chunk_sizes[:-1] == [5] * 4
        assert chunk_sizes[-1] == 3


class TestGuidedSchedule:
    def test_chunks_shrink(self):
        outcome = simulate(GuidedSchedule(min_chunk=2), np.ones(100), 4)
        sizes = [n for _, _, n in outcome.chunks]
        assert sizes[0] > sizes[-1]
        assert min(sizes[:-1]) >= 2
        assert _coverage_ok(outcome.assignment, 100)


class TestSimulateCampaign:
    """The campaign folds must be row-for-row bit-identical to the heap
    replay."""

    SCHEDULES = [
        StaticSchedule(),
        StaticSchedule(chunk=3),
        DynamicSchedule(chunk=4),
        GuidedSchedule(min_chunk=2),
    ]

    @pytest.mark.parametrize("schedule", SCHEDULES, ids=lambda s: repr(s))
    @pytest.mark.parametrize("n_items, n_threads", [(40, 7), (5, 8), (48, 48)])
    def test_campaign_matches_per_row_simulate(self, schedule, n_items, n_threads):
        rng = np.random.default_rng(11)
        costs = rng.uniform(0.5, 1.5, size=(2, 5, n_items))
        folded = schedule.simulate_campaign(costs, n_threads)
        assert folded.shape == (2, 5, n_threads)
        for index in np.ndindex(2, 5):
            np.testing.assert_array_equal(
                folded[index], simulate(schedule, costs[index], n_threads).busy_time
            )

    @pytest.mark.parametrize("schedule", SCHEDULES, ids=lambda s: repr(s))
    def test_campaign_rejects_non_3d_costs(self, schedule):
        with pytest.raises(ValueError, match="3-D"):
            schedule.simulate_campaign(np.ones((2, 8)), 2)

    def test_campaign_rejects_negative_costs(self):
        with pytest.raises(ValueError):
            StaticSchedule().simulate_campaign(-np.ones((1, 2, 8)), 2)

    def test_simulate_rejects_non_1d_costs(self):
        with pytest.raises(ValueError, match="1-D"):
            simulate(StaticSchedule(), np.ones((2, 8)), 2)


class TestWorkQueueReplay:
    """The row-vectorized work-queue replay behind dynamic/guided campaigns."""

    def test_ties_break_to_lowest_thread_id(self):
        # equal costs: chunk k must land on thread k while idle threads
        # remain, exactly as the heap's (time, thread) ordering dictates
        costs = np.full((3, 6), 1.0e-3)
        busy, picks = DynamicSchedule(1)._workqueue_replay(costs, 8, want_picks=True)
        assert picks.tolist() == [[0, 1, 2, 3, 4, 5]] * 3
        np.testing.assert_array_equal(busy[:, 6:], 0.0)

    def test_fewer_items_than_threads(self):
        costs = np.random.default_rng(0).uniform(0.5, 1.5, size=(1, 4, 3))
        busy = GuidedSchedule().simulate_campaign(costs, 16)
        for i, row in enumerate(costs[0]):
            np.testing.assert_array_equal(
                busy[0, i], simulate(GuidedSchedule(), row, 16).busy_time
            )

    def test_empty_loop_gives_zero_busy_times(self):
        busy = DynamicSchedule(4).simulate_campaign(np.empty((2, 3, 0)), 5)
        np.testing.assert_array_equal(busy, np.zeros((2, 3, 5)))

    def test_picks_match_simulate_chunks(self):
        rng = np.random.default_rng(7)
        costs = rng.uniform(0.0, 1.0, size=(6, 41))
        for schedule in (DynamicSchedule(5), GuidedSchedule(2)):
            _, picks = schedule._workqueue_replay(costs, 7, want_picks=True)
            for i, row in enumerate(costs):
                outcome = simulate(schedule, row, 7)
                assert picks[i].tolist() == [t for t, _, _ in outcome.chunks]


class TestWorkQueueLayoutMemoization:
    def test_repeated_calls_share_the_cached_arrays(self):
        first = DynamicSchedule(4)._chunk_layout(200, 48)
        second = DynamicSchedule(4)._chunk_layout(200, 48)
        assert all(a is b for a, b in zip(first, second))
        g_first = GuidedSchedule(2)._chunk_layout(200, 48)
        g_second = GuidedSchedule(2)._chunk_layout(200, 48)
        assert all(a is b for a, b in zip(g_first, g_second))

    def test_cached_arrays_are_read_only(self):
        for schedule in (DynamicSchedule(3), GuidedSchedule(2)):
            sizes, bounds = schedule._chunk_layout(100, 8)
            with pytest.raises(ValueError):
                sizes[0] = 99
            with pytest.raises(ValueError):
                bounds[0] = 99

    def test_layouts_match_the_schedule_policy(self):
        sizes, bounds = DynamicSchedule(5)._chunk_layout(23, 4)
        assert sizes.tolist() == [5, 5, 5, 5, 5]
        assert bounds.tolist() == [0, 5, 10, 15, 20, 23]  # clamped tail
        # guided: geometrically shrinking, clamped below by min_chunk,
        # covering the loop exactly
        g_sizes, g_bounds = GuidedSchedule(2)._chunk_layout(100, 4)
        assert g_sizes[0] == 100 // 8
        assert g_sizes[:-1].min() >= 2  # only the final remnant may be short
        assert g_sizes.sum() == 100 and g_bounds[-1] == 100

    def test_guided_layouts_key_on_thread_count(self):
        narrow = GuidedSchedule(1)._chunk_layout(96, 2)[0]
        wide = GuidedSchedule(1)._chunk_layout(96, 16)[0]
        assert narrow[0] == 24 and wide[0] == 3


class TestStaticAssignmentMemoization:
    def test_repeated_calls_share_the_cached_arrays(self):
        first = static_assignment(StaticSchedule(), 200, 48)
        second = static_assignment(StaticSchedule(), 200, 48)
        assert all(a is b for a, b in zip(first, second))

    def test_cached_arrays_are_read_only(self):
        assignment = static_assignment(StaticSchedule(chunk=4), 64, 8)
        with pytest.raises(ValueError):
            assignment[0][0] = 99
        offsets = StaticSchedule._block_offsets(200, 48)
        with pytest.raises(ValueError):
            offsets[0] = 99

    def test_chunked_and_chunkless_keys_do_not_collide(self):
        plain = static_assignment(StaticSchedule(), 8, 2)
        chunked = static_assignment(StaticSchedule(chunk=2), 8, 2)
        assert plain[0].tolist() == [0, 1, 2, 3]
        assert chunked[0].tolist() == [0, 1, 4, 5]


class TestScheduleFromName:
    @pytest.mark.parametrize(
        "name, expected_type",
        [
            ("static", StaticSchedule),
            ("dynamic", DynamicSchedule),
            ("guided", GuidedSchedule),
            ("STATIC", StaticSchedule),
        ],
    )
    def test_names(self, name, expected_type):
        assert isinstance(schedule_from_name(name), expected_type)

    def test_chunk_parsing(self):
        schedule = schedule_from_name("dynamic,16")
        assert isinstance(schedule, DynamicSchedule)
        assert schedule.chunk == 16

    def test_unknown_rejected(self):
        with pytest.raises(ValueError):
            schedule_from_name("fancy")
