"""In-memory span recorder and wrapper installer of the pipeline benchmark.

A *span* is one timed call of a wrapped function: its name, start and end
(``time.perf_counter_ns``, which is ``CLOCK_MONOTONIC`` on Linux and so
comparable across processes), the span that was open when it started (a
context variable, so nesting follows the call stack of each thread and
task), a trace id inherited from that parent, the process and thread it
ran in, and ``own_ns``, the recorder's own bookkeeping time for the span.
Spans stay in memory; :meth:`Recorder.collect` returns them.

:func:`install` wraps the program's public functions from the outside, by
dotted target (``"package.module:Class.method"``):

* a target that no longer resolves is listed in
  :attr:`Installation.absent` instead of raising, so the benchmark keeps
  working when a later change deletes what it wrapped;
* a method target is wrapped on its class and on every subclass that
  defines the method itself;
* a function target is also re-bound in every loaded module of the same
  package that imported it by name (``from m import f``);
* generator functions, and functions returning a generator, are timed on
  each ``next()``; coroutine functions across their awaits;
* :meth:`Installation.uninstall` restores the original objects.

Fork-started pool workers inherit the wrappers.  A worker drops the spans it
inherited from its parent and appends its own to a file in ``spool_dir``
each time its outermost span closes (workers end with ``os._exit``, so
nothing later would run); :meth:`Recorder.collect` merges those files in
the parent.  The time a spool write takes is added to the ``own_ns`` of
the next span the worker closes (so only a worker's last write is missed).

:func:`self_times` turns spans into per-name self time and
:func:`overhead_frac` gives the recorder's own share of the traced time.
"""

from __future__ import annotations

import contextlib
import contextvars
import functools
import importlib
import inspect
import itertools
import os
import pickle
import sys
import threading
import time
import types
import weakref
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

CountFn = Callable[[object, tuple, dict], Dict[str, float]]


@dataclass(frozen=True)
class Target:
    """One thing to wrap: the span name and the dotted path of the callable.

    ``count(result, args, kwargs)`` (optional) returns counters added to
    the span, e.g. the number of samples a call assembled.
    """

    name: str
    path: str
    count: Optional[CountFn] = None


class Recorder:
    """Collects spans in memory (see the module docstring)."""

    def __init__(self, spool_dir: Optional[Path] = None) -> None:
        self.spans: List[dict] = []
        self.spool_dir = Path(spool_dir) if spool_dir is not None else None
        self._current: contextvars.ContextVar = contextvars.ContextVar(
            f"span-{id(self)}", default=None
        )
        self._ids = itertools.count(1)
        self._forked = False
        self._spool_file = None
        self._carried_ns = 0
        ref = weakref.ref(self)

        def after_fork() -> None:
            recorder = ref()
            if recorder is not None:
                recorder._after_fork()

        os.register_at_fork(after_in_child=after_fork)

    def _after_fork(self) -> None:
        # the parent's spans belong to the parent; keep only our own
        self.spans = []
        self._forked = True
        self._spool_file = None
        self._carried_ns = 0

    def open(self, name: str, trace: Optional[object] = None):
        """Start a span; returns the token :meth:`close` needs."""
        entered = time.perf_counter_ns()
        parent = self._current.get()
        pid = os.getpid()
        span_id = f"{pid}.{next(self._ids)}"
        if trace is None and parent is not None:
            trace = parent[2]
        token = self._current.set((span_id, pid, trace))
        start = time.perf_counter_ns()
        return (token, span_id, parent, name, trace, start, start - entered)

    def close(self, handle, counts: Optional[Dict[str, float]] = None) -> None:
        end = time.perf_counter_ns()
        token, span_id, parent, name, trace, start, own_ns = handle
        self._current.reset(token)
        pid = os.getpid()
        span = {
            "id": span_id,
            "parent": parent[0] if parent is not None else None,
            "name": name,
            "start": start,
            "end": end,
            "trace": trace,
            "pid": pid,
            "tid": threading.get_ident(),
            "counts": counts or {},
        }
        self.spans.append(span)
        span["own_ns"] = own_ns + self._carried_ns + (time.perf_counter_ns() - end)
        self._carried_ns = 0
        if self._forked and (parent is None or parent[1] != pid):
            spooled = time.perf_counter_ns()
            self._spool()
            self._carried_ns = time.perf_counter_ns() - spooled

    @contextlib.contextmanager
    def span(self, name: str, trace: Optional[object] = None):
        """``with recorder.span(name) as counts:`` — a span around a block."""
        counts: Dict[str, float] = {}
        handle = self.open(name, trace)
        try:
            yield counts
        finally:
            self.close(handle, counts)

    def _spool(self) -> None:
        if self.spool_dir is None:
            return
        if self._spool_file is None:
            self._spool_file = open(self.spool_dir / f"spans-{os.getpid()}.pickle", "ab")
        pickle.dump(self.spans, self._spool_file)
        self._spool_file.flush()
        self.spans = []

    def collect(self) -> List[dict]:
        """Every span recorded so far, worker spool files merged in."""
        if self.spool_dir is not None:
            for path in sorted(self.spool_dir.glob("spans-*.pickle")):
                with open(path, "rb") as handle:
                    while True:
                        try:
                            self.spans.extend(pickle.load(handle))
                        except EOFError:
                            break
                path.unlink()
        return list(self.spans)


# ----------------------------------------------------------------------
# wrapping
# ----------------------------------------------------------------------
def _timed_iter(recorder: Recorder, name: str, iterator):
    """Re-yield ``iterator``, timing each ``next()`` as one span."""
    try:
        while True:
            handle = recorder.open(name)
            try:
                item = next(iterator)
            except StopIteration as stop:
                return stop.value
            finally:
                recorder.close(handle)
            yield item
    finally:
        close = getattr(iterator, "close", None)
        if close is not None:
            close()


def _wrap(recorder: Recorder, name: str, fn, count: Optional[CountFn]):
    if inspect.iscoroutinefunction(fn):

        @functools.wraps(fn)
        async def async_wrapper(*args, **kwargs):
            handle = recorder.open(name)
            try:
                return await fn(*args, **kwargs)
            finally:
                recorder.close(handle)

        return async_wrapper
    if inspect.isgeneratorfunction(fn):

        @functools.wraps(fn)
        def generator_wrapper(*args, **kwargs):
            return _timed_iter(recorder, name, fn(*args, **kwargs))

        return generator_wrapper

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        handle = recorder.open(name)
        counts = None
        try:
            result = fn(*args, **kwargs)
            if count is not None:
                counts = count(result, args, kwargs)
        finally:
            recorder.close(handle, counts)
        if isinstance(result, types.GeneratorType):
            return _timed_iter(recorder, name, result)
        return result

    return wrapper


def _subclasses(cls: type) -> List[type]:
    seen: List[type] = []
    stack = [cls]
    while stack:
        klass = stack.pop()
        if klass in seen:
            continue
        seen.append(klass)
        stack.extend(klass.__subclasses__())
    return seen


class Installation:
    """Result of :func:`install`: what was wrapped and what was absent."""

    def __init__(self) -> None:
        self.absent: List[str] = []
        self._restore: List[Tuple[object, str, object]] = []

    def _set(self, owner, attr: str, value) -> None:
        self._restore.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        """Put every original object back (in reverse order)."""
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)


def _resolve(path: str):
    module_name, _, qualname = path.partition(":")
    if not qualname:
        raise ValueError(f"target {path!r} needs the form 'module:qualname'")
    try:
        owner = importlib.import_module(module_name)
    except ImportError:
        return None
    parts = qualname.split(".")
    for part in parts[:-1]:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    return owner, parts[-1]


def _bindings(package: str) -> Dict[int, List[Tuple[object, str]]]:
    """Where each object is bound by name in the package's loaded modules."""
    index: Dict[int, List[Tuple[object, str]]] = {}
    for name, module in list(sys.modules.items()):
        if module is None or not (name == package or name.startswith(package + ".")):
            continue
        for attr, value in list(vars(module).items()):
            if callable(value):
                index.setdefault(id(value), []).append((module, attr))
    return index


def install(recorder: Recorder, targets: Sequence[Target]) -> Installation:
    """Wrap every resolvable target with a span of ``recorder``."""
    installation = Installation()
    wrapped = set()
    resolved = []
    for target in targets:
        found = _resolve(target.path)
        if found is None:
            installation.absent.append(target.path)
        else:
            resolved.append((target, *found))
    packages = {target.path.split(".", 1)[0].split(":", 1)[0] for target, _, _ in resolved}
    bindings: Dict[int, List[Tuple[object, str]]] = {}
    for package in packages:
        for key, places in _bindings(package).items():
            bindings.setdefault(key, []).extend(places)

    for target, owner, attr in resolved:
        if isinstance(owner, type):
            classes = [c for c in _subclasses(owner) if attr in c.__dict__]
            if not classes:
                installation.absent.append(target.path)
            for klass in classes:
                if (klass, attr) in wrapped:
                    continue
                wrapped.add((klass, attr))
                raw = klass.__dict__[attr]
                if isinstance(raw, (classmethod, staticmethod)):
                    value = type(raw)(_wrap(recorder, target.name, raw.__func__, target.count))
                else:
                    value = _wrap(recorder, target.name, raw, target.count)
                installation._set(klass, attr, value)
            continue
        original = getattr(owner, attr, None)
        if not callable(original):
            installation.absent.append(target.path)
            continue
        value = _wrap(recorder, target.name, original, target.count)
        for module, name in bindings.get(id(original), [(owner, attr)]):
            if (module, name) in wrapped:
                continue
            wrapped.add((module, name))
            installation._set(module, name, value)
    return installation


# ----------------------------------------------------------------------
# self time
# ----------------------------------------------------------------------
def _subtract(start: int, end: int, covered: Iterable[Tuple[int, int]]):
    """``[start, end)`` minus the union of ``covered`` (sorted by start)."""
    pieces = []
    cursor = start
    for lo, hi in covered:
        lo, hi = max(lo, start), min(hi, end)
        if hi <= cursor:
            continue
        if lo > cursor:
            pieces.append((cursor, lo))
        cursor = max(cursor, hi)
    if cursor < end:
        pieces.append((cursor, end))
    return pieces


def self_times(
    spans: Sequence[dict],
    *,
    root_pid: Optional[int] = None,
    waiting: Tuple[str, ...] = (),
) -> Dict[str, float]:
    """Seconds of self time per span name.

    A span's self time is its duration minus the union of its child spans
    in the same process.  Spans of other processes than ``root_pid`` (fork
    pool workers) run in parallel with the parent: while any of them is
    open, spans of the parent whose name starts with one of ``waiting``
    count nothing (the parent is waiting for the workers), and each
    instant is split evenly between the open worker spans and the
    remaining parent spans — so self times add up to the wall time of the
    root span.  Spans of one process that overlap (threads) each count in
    full.
    """
    children: Dict[str, List[Tuple[int, int]]] = {}
    by_id = {span["id"]: span for span in spans}
    for span in spans:
        parent = by_id.get(span["parent"])
        if parent is not None and parent["pid"] == span["pid"]:
            children.setdefault(parent["id"], []).append((span["start"], span["end"]))
    pieces = []  # (start, end, name, worker, waiting)
    for span in spans:
        covered = sorted(children.get(span["id"], ()))
        worker = root_pid is not None and span["pid"] != root_pid
        idle = not worker and span["name"].startswith(waiting)
        for lo, hi in _subtract(span["start"], span["end"], covered):
            pieces.append((lo, hi, span["name"], worker, idle))

    # sweep over the elementary segments between piece boundaries
    totals: Dict[str, float] = {}
    events = sorted(
        [(lo, 1, i) for i, (lo, _, _, _, _) in enumerate(pieces)]
        + [(hi, 0, i) for i, (_, hi, _, _, _) in enumerate(pieces)]
    )
    active: Dict[int, tuple] = {}
    previous = None
    for time_ns, is_start, index in events:
        if previous is not None and time_ns > previous and active:
            dt = (time_ns - previous) / 1e9
            open_pieces = list(active.values())
            if any(piece[3] for piece in open_pieces):
                sharers = [p for p in open_pieces if p[3] or not p[4]]
                for piece in sharers:
                    totals[piece[2]] = totals.get(piece[2], 0.0) + dt / len(sharers)
            else:
                for piece in open_pieces:
                    totals[piece[2]] = totals.get(piece[2], 0.0) + dt
        previous = time_ns
        if is_start:
            active[index] = pieces[index]
        else:
            active.pop(index, None)
    return totals


def overhead_frac(spans: Sequence[dict]) -> float:
    """The recorder's own time over the time spent inside root spans.

    A root span has no parent in its own process: the CLI's ``pipeline``
    span, a pool worker's or a server thread's outermost spans.  The extra
    call frame each wrapper adds is not counted.
    """
    by_id = {span["id"]: span for span in spans}
    busy = sum(
        span["end"] - span["start"]
        for span in spans
        if by_id.get(span["parent"], {}).get("pid") != span["pid"]
    )
    return sum(span["own_ns"] for span in spans) / busy if busy else 0.0


def count_totals(spans: Iterable[dict]) -> Dict[str, float]:
    """Counters summed over spans."""
    totals: Dict[str, float] = {}
    for span in spans:
        for key, value in span["counts"].items():
            totals[key] = totals.get(key, 0.0) + value
    return totals
