"""In-memory span recording for the benchmark's traced run (stdlib only).

A span is (name, start, end, parent, op): ``parent`` is the index of the
enclosing span in ``Recorder.spans`` (None for a root) and ``op`` is the index
of the benchmark operation the span belongs to.  Spans stay in memory until
the run ends; ``busy_and_self`` reduces them to per-name busy and self time.

``instrument`` wraps public etklab functions so that calls made through any
module attribute (including the library's own internal calls) record a span.
The wrappers are installed only around traced operations and removed after,
so untraced operations run the library's code unmodified.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import Counter, defaultdict
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass
from typing import Callable, Optional, Union


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: Optional[int]
    op: int


class Recorder:
    """Spans, counters and maxima of one run; ``op`` tags new spans."""

    def __init__(self):
        self.spans: list[Span] = []
        self.counts: Counter = Counter()
        self.maxima: dict[str, float] = {}
        self.op = -1
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str):
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append(Span(name, time.perf_counter(), float("nan"), parent, self.op))
        self._stack.append(idx)
        try:
            yield
        finally:
            self._stack.pop()
            self.spans[idx].end = time.perf_counter()

    def count(self, name: str, n: float = 1):
        self.counts[name] += n

    def peak(self, name: str, value: float):
        self.maxima[name] = max(self.maxima.get(name, value), value)


def maybe_span(rec: Optional[Recorder], name: str):
    """A span on ``rec``, or nothing when the operation is not traced."""
    return nullcontext() if rec is None else rec.span(name)


def _union_length(intervals) -> float:
    total = 0.0
    cur_lo = cur_hi = None
    for lo, hi in sorted(iv for iv in intervals if iv[1] > iv[0]):
        if cur_hi is None or lo > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = lo, hi
        else:
            cur_hi = max(cur_hi, hi)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def busy_and_self(spans: list[Span]) -> dict[str, tuple[float, float]]:
    """Per span name: (busy, self) seconds.

    Busy time is the length of the union of that name's intervals, so a call
    nested in a call of the same name is not counted twice.  A span's self
    time is its duration minus the part of it that its child spans cover.
    """
    children: dict[int, list[Span]] = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            children[s.parent].append(s)
    intervals: dict[str, list] = defaultdict(list)
    self_time: dict[str, float] = defaultdict(float)
    for i, s in enumerate(spans):
        intervals[s.name].append((s.start, s.end))
        covered = _union_length(
            (max(c.start, s.start), min(c.end, s.end)) for c in children[i]
        )
        self_time[s.name] += (s.end - s.start) - covered
    return {n: (_union_length(iv), self_time[n]) for n, iv in intervals.items()}


@dataclass(frozen=True)
class Probe:
    """One instrumented callable.

    ``target`` is "module:function" or "module:Class.method".  ``name`` is the
    span name, or a function of (args, kwargs) giving it.  ``after`` sees
    (recorder, args, kwargs, result) once the call returns.  With
    ``span=False`` the wrapper only counts calls under ``name``.
    """

    target: str
    name: Union[str, Callable]
    after: Optional[Callable] = None
    span: bool = True


def _wrapper(rec: Recorder, original, probe: Probe):
    if not probe.span:
        @functools.wraps(original)
        def counted(*args, **kwargs):
            rec.count(probe.name)
            return original(*args, **kwargs)

        return counted

    @functools.wraps(original)
    def traced(*args, **kwargs):
        name = probe.name(args, kwargs) if callable(probe.name) else probe.name
        with rec.span(name):
            result = original(*args, **kwargs)
        if probe.after is not None:
            probe.after(rec, args, kwargs, result)
        return result

    return traced


@contextmanager
def instrument(rec: Recorder, probes, package: str = "etklab"):
    """Install a wrapper for each probe; remove every one on exit.

    A function is replaced under every name that refers to it in the loaded
    modules of ``package``, so calls through re-exports and through other
    modules' imports are recorded too.  A method is replaced on its class.
    Probes whose target does not exist are skipped.
    """
    undo = []
    modules = [
        m for name, m in list(sys.modules.items())
        if m is not None and (name == package or name.startswith(package + "."))
    ]
    try:
        for probe in probes:
            mod_name, _, path = probe.target.partition(":")
            owner = sys.modules.get(mod_name)
            parts = path.split(".")
            for part in parts[:-1]:
                owner = getattr(owner, part, None)
            original = getattr(owner, parts[-1], None)
            if original is None:
                continue
            wrapped = _wrapper(rec, original, probe)
            if len(parts) > 1:
                places = [(owner, parts[-1])]
            else:
                places = [
                    (m, attr) for m in modules
                    for attr, value in list(vars(m).items()) if value is original
                ]
            for obj, attr in places:
                undo.append((obj, attr, original))
                setattr(obj, attr, wrapped)
        yield
    finally:
        for obj, attr, original in reversed(undo):
            setattr(obj, attr, original)
