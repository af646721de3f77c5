"""Unit tests for the event oracle's discrete-event kernel: the event loop,
its event primitives, the barrier, and the partitioned request pair, which
must deliver every partition when the closed form says it does."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles.engine import Barrier, Delay, SimEvent, SimulationEngine, WaitEvent
from oracles.partitioned import PartitionedRecvRequest, PartitionedSendRequest
from repro.mpi.network import NetworkModel, omni_path
from repro.mpi.partitioned import partitioned_completion_times

#: Simple network: no latency/overheads, 1 MB/s -> 1 byte = 1 µs.
FLAT = NetworkModel(
    latency_s=0.0,
    per_hop_latency_s=0.0,
    o_send_s=0.0,
    o_recv_s=0.0,
    bandwidth_bytes_per_s=1e6,
    eager_threshold_bytes=1 << 30,
)


class TestSimEvent:
    def test_starts_untriggered(self):
        event = SimEvent("e")
        assert not event.triggered
        assert event.value is None
        assert event.trigger_time is None

    def test_trigger_stores_value_and_time(self):
        event = SimEvent("e")
        event.trigger(42, time=1.5)
        assert event.triggered
        assert event.value == 42
        assert event.trigger_time == 1.5

    def test_double_trigger_rejected(self):
        event = SimEvent("e")
        event.trigger()
        with pytest.raises(RuntimeError):
            event.trigger()

    def test_waiters_called_once_with_value(self):
        event = SimEvent("e")
        seen = []
        event.add_waiter(seen.append)
        event.add_waiter(seen.append)
        event.trigger("payload")
        assert seen == ["payload", "payload"]

    def test_add_waiter_after_trigger_rejected(self):
        event = SimEvent("e")
        event.trigger()
        with pytest.raises(RuntimeError):
            event.add_waiter(lambda value: None)


class TestCommands:
    def test_negative_delay_rejected(self):
        with pytest.raises(ValueError):
            Delay(-0.1)

    def test_zero_delay_allowed(self):
        assert Delay(0.0).duration == 0.0

    def test_wait_event_wraps_event(self):
        event = SimEvent("e")
        assert WaitEvent(event).event is event


class TestScheduling:
    def test_time_starts_at_zero(self):
        assert SimulationEngine().now == 0.0

    def test_callbacks_run_in_time_order(self):
        engine = SimulationEngine()
        order = []
        engine.schedule(2.0, lambda: order.append("late"))
        engine.schedule(1.0, lambda: order.append("early"))
        engine.run()
        assert order == ["early", "late"]
        assert engine.now == 2.0

    def test_ties_run_in_scheduling_order(self):
        engine = SimulationEngine()
        order = []
        for i in range(5):
            engine.schedule(1.0, lambda i=i: order.append(i))
        engine.run()
        assert order == [0, 1, 2, 3, 4]

    def test_negative_or_infinite_delay_rejected(self):
        engine = SimulationEngine()
        with pytest.raises(ValueError):
            engine.schedule(-1.0, lambda: None)
        with pytest.raises(ValueError):
            engine.schedule(float("inf"), lambda: None)

    @settings(max_examples=40, deadline=None)
    @given(st.lists(st.integers(min_value=0, max_value=50), min_size=1, max_size=30))
    def test_processes_finish_at_their_delays_in_time_order(self, delays):
        engine = SimulationEngine()
        finished = []

        def body(index, delay):
            yield Delay(float(delay))
            finished.append((engine.now, index))

        engine.run_until_complete(
            [engine.spawn(body(i, d)) for i, d in enumerate(delays)]
        )
        # time order, ties in spawn order, each at its own delay
        assert finished == sorted((float(d), i) for i, d in enumerate(delays))

    def test_max_events_guard(self):
        engine = SimulationEngine()

        def reschedule():
            engine.schedule(0.0, reschedule)

        engine.schedule(0.0, reschedule)
        with pytest.raises(RuntimeError, match="max_events"):
            engine.run(max_events=100)


class TestProcesses:
    def test_process_delays_advance_time(self):
        def body():
            yield Delay(1.5)
            yield Delay(0.5)
            return "done"

        engine = SimulationEngine()
        proc = engine.spawn(body())
        assert engine.run() == pytest.approx(2.0)
        assert proc.finished
        assert proc.result == "done"

    def test_wait_resumes_with_the_trigger_value(self):
        engine = SimulationEngine()
        done = SimEvent("done")
        log = []

        def producer():
            yield Delay(1.0)
            done.trigger("data", time=engine.now)

        def consumer():
            value = yield WaitEvent(done)
            log.append((value, engine.now))

        engine.run_until_complete([engine.spawn(consumer()), engine.spawn(producer())])
        assert log == [("data", 1.0)]

    def test_wait_on_already_triggered_event_resumes_immediately(self):
        engine = SimulationEngine()
        done = SimEvent("done")
        done.trigger("x", time=0.0)

        def body():
            value = yield WaitEvent(done)
            return value

        proc = engine.spawn(body())
        assert engine.run() == 0.0
        assert proc.result == "x"

    def test_waiters_resume_in_the_order_they_waited(self):
        # the barrier's release order, and so every event-oracle digest,
        # rests on this
        engine = SimulationEngine()
        go = SimEvent("go")
        order = []

        def waiter(index):
            yield Delay(float(3 - index))
            yield WaitEvent(go)
            order.append(index)

        def releaser():
            yield Delay(5.0)
            go.trigger(time=engine.now)

        engine.run_until_complete(
            [engine.spawn(waiter(i)) for i in range(3)] + [engine.spawn(releaser())]
        )
        assert order == [2, 1, 0]

    def test_deadlock_detection(self):
        engine = SimulationEngine()
        never = SimEvent("never")

        def body():
            yield WaitEvent(never)

        proc = engine.spawn(body())
        with pytest.raises(RuntimeError, match="blocked"):
            engine.run_until_complete([proc])

    def test_unsupported_yield_type_raises(self):
        engine = SimulationEngine()

        def body():
            yield 123

        engine.spawn(body())
        with pytest.raises(TypeError):
            engine.run()


def _run_team(durations, n_rounds=1):
    """Spawn one thread per duration; every round: compute then barrier."""
    engine = SimulationEngine()
    barrier = Barrier(len(durations))
    finish_times = {}

    def body(thread_id, duration):
        for _ in range(n_rounds):
            yield Delay(duration)
            yield from barrier.wait()
        finish_times[thread_id] = engine.now

    procs = [engine.spawn(body(t, d), name=f"t{t}") for t, d in enumerate(durations)]
    engine.run_until_complete(procs)
    return barrier, finish_times


class TestBarrier:
    def test_all_threads_released_at_last_arrival(self):
        barrier, finish = _run_team([1.0, 2.0, 5.0])
        assert all(t == pytest.approx(5.0) for t in finish.values())
        assert barrier.generation == 1

    def test_barrier_is_reusable_across_generations(self):
        barrier, finish = _run_team([1.0, 3.0], n_rounds=3)
        assert barrier.generation == 3
        assert all(t == pytest.approx(9.0) for t in finish.values())

    def test_single_thread_barrier_never_blocks(self):
        barrier, finish = _run_team([2.0])
        assert finish[0] == pytest.approx(2.0)
        assert barrier.generation == 1

    def test_invalid_thread_count_rejected(self):
        with pytest.raises(ValueError):
            Barrier(0)

    def test_wait_returns_the_generation(self):
        engine = SimulationEngine()
        barrier = Barrier(2)
        seen = {0: [], 1: []}

        def body(thread_id):
            for _ in range(3):
                yield Delay(1.0 + thread_id)
                seen[thread_id].append((yield from barrier.wait()))

        engine.run_until_complete([engine.spawn(body(t)) for t in range(2)])
        assert seen == {0: [0, 1, 2], 1: [0, 1, 2]}

    @settings(max_examples=40, deadline=None)
    @given(
        durations=st.lists(
            st.lists(st.integers(min_value=0, max_value=9), min_size=3, max_size=3),
            min_size=1,
            max_size=6,
        )
    )
    def test_each_round_ends_at_its_last_arrival(self, durations):
        # durations[t][r]: thread t's compute before barrier round r
        engine = SimulationEngine()
        barrier = Barrier(len(durations))
        finish = {}

        def body(thread_id):
            for duration in durations[thread_id]:
                yield Delay(float(duration))
                yield from barrier.wait()
            finish[thread_id] = engine.now

        engine.run_until_complete([engine.spawn(body(t)) for t in range(len(durations))])
        expected = float(sum(max(round_) for round_ in zip(*durations)))
        assert finish == {t: expected for t in range(len(durations))}
        assert barrier.generation == 3


def _transfer(ready, partition_bytes, network=FLAT, hops=0):
    """Run one partitioned message on the engine, each partition marked
    ready by its own thread at its ready time."""
    engine = SimulationEngine()
    recv = PartitionedRecvRequest(len(ready))
    send = PartitionedSendRequest(engine, network, partition_bytes, recv, hops=hops)

    def thread(partition, ready_time):
        yield Delay(ready_time)
        send.pready(partition)

    engine.run_until_complete(
        [engine.spawn(thread(i, t)) for i, t in enumerate(ready)]
    )
    return send, recv


class TestEventDriven:
    def test_pready_flow_delivers_all_partitions(self):
        send, recv = _transfer([i * 1e-3 for i in range(4)], [1000] * 4)
        assert recv.all_arrived.triggered
        assert all(recv.parrived(i) for i in range(4))
        assert send.completion_time() == pytest.approx(recv.all_arrived.trigger_time)

    def test_receiver_can_wait_on_single_partition(self):
        engine = SimulationEngine()
        recv = PartitionedRecvRequest(2)
        send = PartitionedSendRequest(engine, FLAT, [1000, 1000], recv, hops=0)
        seen = {}

        def producer():
            yield Delay(1e-3)
            send.pready(1)
            yield Delay(1e-3)
            send.pready(0)

        def consumer():
            seen["partition1"] = yield WaitEvent(recv.arrived[1])

        engine.run_until_complete([engine.spawn(producer()), engine.spawn(consumer())])
        assert seen["partition1"] == pytest.approx(2e-3)

    def test_double_pready_rejected(self):
        recv = PartitionedRecvRequest(4)
        send = PartitionedSendRequest(SimulationEngine(), FLAT, [1000] * 4, recv, hops=0)
        send.pready(0)
        with pytest.raises(RuntimeError):
            send.pready(0)

    def test_partition_out_of_range_rejected(self):
        recv = PartitionedRecvRequest(2)
        send = PartitionedSendRequest(SimulationEngine(), FLAT, [10, 10], recv)
        with pytest.raises(IndexError):
            send.pready(2)

    def test_sender_and_receiver_partitions_must_match(self):
        with pytest.raises(ValueError):
            PartitionedSendRequest(SimulationEngine(), FLAT, [10] * 3, PartitionedRecvRequest(2))

    def test_incomplete_message_has_no_completion_time(self):
        recv = PartitionedRecvRequest(2)
        send = PartitionedSendRequest(SimulationEngine(), FLAT, [10, 10], recv)
        send.pready(0)
        with pytest.raises(RuntimeError):
            send.completion_time()

    @settings(max_examples=60, deadline=None)
    @given(
        partitions=st.lists(
            st.tuples(
                # whole microseconds, so equal ready times (a burst of
                # threads finishing together) are common
                st.integers(min_value=0, max_value=5_000).map(lambda us: us * 1e-6),
                # both sides of omni_path's 8 KiB eager threshold
                st.integers(min_value=0, max_value=64 * 1024),
            ),
            min_size=1,
            max_size=24,
        ),
        hops=st.integers(min_value=0, max_value=4),
    )
    def test_event_driven_matches_closed_form(self, partitions, hops):
        ready = [t for t, _ in partitions]
        sizes = [nbytes for _, nbytes in partitions]
        send, recv = _transfer(ready, sizes, network=omni_path(), hops=hops)
        closed = partitioned_completion_times(ready, sizes, omni_path(), hops=hops)
        # the same NIC submits in the same order: identical records
        for partition in closed.partitions:
            assert send.records[partition.index] == partition
        # and the engine lands each partition at its delivery time
        arrivals = np.array([recv.arrival_times[i] for i in range(len(ready))])
        np.testing.assert_allclose(arrivals, closed.delivery_times(), rtol=1e-12, atol=0)
        assert recv.all_arrived.trigger_time == pytest.approx(
            closed.completion_time, rel=1e-12
        )
        assert send.completion_time() == closed.completion_time
