"""Unit tests of the pipeline benchmark's span recorder (``spans.py``)."""

from __future__ import annotations

import multiprocessing
import os
import time
from concurrent.futures import ProcessPoolExecutor

import pytest

import spans


def leaf(seconds: float = 0.0) -> str:
    time.sleep(seconds)
    return "leaf"


def outer() -> str:
    time.sleep(0.01)
    return leaf(0.02)


def numbers(n: int):
    for value in range(n):
        yield value


class Shape:
    def area(self) -> int:
        return 1

    @classmethod
    def unit(cls) -> "Shape":
        return cls()


class Square(Shape):
    def area(self) -> int:
        return 4


def _span(span_id, name, start, end, parent=None, pid=1, own_ns=0):
    return {
        "id": span_id, "parent": parent, "name": name, "start": start,
        "end": end, "trace": None, "pid": pid, "tid": 0, "counts": {},
        "own_ns": own_ns,
    }


@pytest.fixture
def recorder():
    return spans.Recorder()


def test_nested_self_time_subtracts_children():
    records = [
        _span("a", "outer", 0, 10_000_000_000),
        _span("b", "inner", 2_000_000_000, 5_000_000_000, parent="a"),
        _span("c", "inner", 4_000_000_000, 7_000_000_000, parent="a"),
    ]
    times = spans.self_times(records)
    assert times["outer"] == pytest.approx(5.0)  # 10 s minus the union [2, 7]
    assert times["inner"] == pytest.approx(6.0)


def test_recorded_spans_nest_and_inherit_the_trace(recorder):
    installation = spans.install(
        recorder, [spans.Target("outer", "test_spans:outer"), spans.Target("leaf", "test_spans:leaf")]
    )
    try:
        with recorder.span("root", trace=7):
            assert outer() == "leaf"
    finally:
        installation.uninstall()
    by_name = {span["name"]: span for span in recorder.collect()}
    assert by_name["leaf"]["parent"] == by_name["outer"]["id"]
    assert by_name["outer"]["parent"] == by_name["root"]["id"]
    assert {span["trace"] for span in by_name.values()} == {7}
    times = spans.self_times(list(by_name.values()))

    def duration(name: str) -> float:
        return (by_name[name]["end"] - by_name[name]["start"]) / 1e9

    assert times["leaf"] == pytest.approx(duration("leaf")) and times["leaf"] >= 0.02
    assert times["outer"] == pytest.approx(duration("outer") - duration("leaf"))
    assert times["outer"] >= 0.01


def test_absent_targets_are_listed_not_raised(recorder):
    installation = spans.install(
        recorder,
        [
            spans.Target("x", "no_such_module_anywhere:f"),
            spans.Target("x", "test_spans:no_such_function"),
            spans.Target("x", "test_spans:Shape.no_such_method"),
            spans.Target("x", "test_spans:NoSuchClass.area"),
        ],
    )
    installation.uninstall()
    assert sorted(installation.absent) == [
        "no_such_module_anywhere:f",
        "test_spans:NoSuchClass.area",
        "test_spans:Shape.no_such_method",
        "test_spans:no_such_function",
    ]


def test_uninstall_restores_originals_and_subclasses_are_wrapped(recorder):
    import test_spans as module

    originals = (module.leaf, Shape.__dict__["area"], Square.__dict__["area"], Shape.__dict__["unit"])
    installation = spans.install(
        recorder,
        [
            spans.Target("leaf", "test_spans:leaf"),
            spans.Target("area", "test_spans:Shape.area"),
            spans.Target("unit", "test_spans:Shape.unit"),
        ],
    )
    try:
        assert module.leaf is not originals[0]
        assert Square().area() == 4 and Shape.unit().area() == 1
        assert isinstance(Shape.unit(), Shape)
    finally:
        installation.uninstall()
    restored = (module.leaf, Shape.__dict__["area"], Square.__dict__["area"], Shape.__dict__["unit"])
    assert all(a is b for a, b in zip(restored, originals))
    names = [span["name"] for span in recorder.collect()]
    assert names.count("area") == 2 and names.count("unit") == 2


def test_generators_are_timed_on_each_next(recorder):
    installation = spans.install(recorder, [spans.Target("gen", "test_spans:numbers")])
    try:
        assert list(numbers(3)) == [0, 1, 2]
    finally:
        installation.uninstall()
    # three items plus the next() that ends the iteration
    assert [span["name"] for span in recorder.collect()] == ["gen"] * 4


def _in_worker() -> int:
    return os.getpid()


def test_fork_worker_spans_are_merged(tmp_path):
    recorder = spans.Recorder(spool_dir=tmp_path)
    installation = spans.install(recorder, [spans.Target("work", "test_spans:_in_worker")])
    context = multiprocessing.get_context("fork")
    try:
        with recorder.span("executor"):
            with ProcessPoolExecutor(max_workers=1, mp_context=context) as pool:
                worker_pids = {pool.submit(_in_worker).result() for _ in range(3)}
    finally:
        installation.uninstall()
    collected = recorder.collect()
    executor = next(span for span in collected if span["name"] == "executor")
    work = [span for span in collected if span["name"] == "work"]
    assert len(work) == 3
    assert {span["pid"] for span in work} == worker_pids != {os.getpid()}
    assert all(span["parent"] == executor["id"] for span in work)
    assert all(span["own_ns"] > 0 for span in collected)
    assert not list(tmp_path.iterdir())  # spool files are consumed


def test_overhead_is_own_time_over_root_spans():
    records = [
        _span("r", "pipeline", 0, 8_000, own_ns=100),
        _span("a", "analysis", 1_000, 3_000, parent="r", own_ns=200),
        # a worker's outermost span is a root of its own process
        _span("w", "sample", 2_000, 4_000, parent="r", pid=2, own_ns=700),
    ]
    assert spans.overhead_frac(records) == pytest.approx(1_000 / 10_000)
    assert spans.overhead_frac([]) == 0.0


def test_worker_time_is_shared_and_the_waiting_parent_drops_out():
    records = [
        _span("r", "pipeline", 0, 10_000_000_000),
        _span("e", "executor", 0, 10_000_000_000, parent="r"),
        _span("w1", "sample", 2_000_000_000, 6_000_000_000, parent="e", pid=2),
        _span("w2", "sample", 4_000_000_000, 8_000_000_000, parent="e", pid=3),
    ]
    times = spans.self_times(records, root_pid=1, waiting=("executor",))
    assert times["executor"] == pytest.approx(4.0)  # 10 s minus worker cover [2, 8]
    assert times["sample"] == pytest.approx(6.0)  # [4, 6] is split between the two
    assert sum(times.values()) == pytest.approx(10.0)
